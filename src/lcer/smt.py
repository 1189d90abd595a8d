"""External solver session speaking SMT-LIB v2 over a subprocess's stdio.

One query in flight per session (callers are serialized by a lock); each query
pushes, asserts the negated constraint, checks satisfiability, fetches a model
on sat, and pops.  Division and mod are translated with a zero-divisor guard
so the solver sees the same total functions the library uses.
"""

from __future__ import annotations

import select
import shlex
import subprocess
import threading
import time
from typing import Optional

from .models import UnderlyingModel
from .oracle import OracleFailure, Verdict, unknown, valid
from .sexpr import Atom, SList, parse_sexprs
from .terms import Term, Variable, apply_subst, reads_as_value, vars_of

_OPS = {
    "+": "+", "-": "-", "*": "*", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
    "and": "and", "or": "or", "not": "not", "=>": "=>", "<=>": "=",
    "=Int": "=", "=Bool": "=",
}


def _smt_int(n: int) -> str:
    return str(n) if n >= 0 else f"(- {-n})"


def to_smt(t: Term) -> str:
    if isinstance(t, Variable):
        return f"|{t.name}|"
    if t.fun.is_value:
        v = t.fun.value
        if isinstance(v, bool):
            return "true" if v else "false"
        return _smt_int(v)  # type: ignore[arg-type]
    name = t.fun.name
    args = [to_smt(a) for a in t.args]
    if name == "neg":
        return f"(- {args[0]})"
    if name == "div":
        return f"(ite (= {args[1]} 0) 0 (div {args[0]} {args[1]}))"
    if name == "mod":
        return f"(ite (= {args[1]} 0) {args[0]} (mod {args[0]} {args[1]}))"
    op = _OPS.get(name)
    if op is None:
        raise OracleFailure(f"no SMT-LIB translation for symbol {name}")
    return f"({op} {' '.join(args)})"


class SmtSolverSession:
    def __init__(self, command: str, timeout_ms: int = 10_000) -> None:
        self.command = command
        self.timeout_ms = timeout_ms
        self._lock = threading.Lock()
        self._proc: Optional[subprocess.Popen] = None

    def _start(self) -> None:
        if self._proc is not None and self._proc.poll() is None:
            return
        try:
            # unbuffered binary pipes keep select() honest about readiness
            self._proc = subprocess.Popen(
                shlex.split(self.command),
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, bufsize=0)
        except OSError as e:
            raise OracleFailure(f"could not start solver: {e}")
        self._send("(set-option :print-success false)")
        self._send("(set-option :produce-models true)")
        self._send("(set-logic QF_LIA)")

    def _send(self, line: str) -> None:
        assert self._proc is not None and self._proc.stdin is not None
        try:
            self._proc.stdin.write((line + "\n").encode())
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError) as e:
            raise OracleFailure(f"solver pipe closed: {e}")

    def _read_line(self, deadline: float) -> str:
        assert self._proc is not None and self._proc.stdout is not None
        out = self._proc.stdout
        buf = []
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.close()
                raise OracleFailure("solver timed out")
            ready, _, _ = select.select([out], [], [], min(remaining, 0.2))
            if not ready:
                if self._proc.poll() is not None:
                    raise OracleFailure("solver exited unexpectedly")
                continue
            ch = out.read(1)
            if ch == b"":
                raise OracleFailure("solver closed its output")
            if ch == b"\n":
                line = b"".join(buf).decode().strip()
                if line:
                    return line
                buf = []
            else:
                buf.append(ch)

    def _read_balanced(self, deadline: float) -> str:
        chunks = []
        depth = 0
        started = False
        while True:
            line = self._read_line(deadline)
            chunks.append(line)
            depth += line.count("(") - line.count(")")
            started = started or "(" in line
            if started and depth <= 0:
                return "\n".join(chunks)

    def close(self) -> None:
        if self._proc is not None:
            try:
                self._proc.kill()
            except OSError:
                pass
            self._proc = None

    def check_validity(self, model: UnderlyingModel, phi: Term) -> Verdict:
        with self._lock:
            return self._query(model, phi)

    def _query(self, model: UnderlyingModel, phi: Term) -> Verdict:
        self._start()
        fv = sorted(vars_of(phi), key=lambda v: v.name)
        for v in fv:
            if v.sort.name not in ("Int", "Bool"):
                return unknown(f"solver backend cannot handle sort {v.sort.name}")
        deadline = time.monotonic() + self.timeout_ms / 1000.0
        self._send("(push 1)")
        for v in fv:
            smt_sort = "Int" if v.sort.name == "Int" else "Bool"
            self._send(f"(declare-const |{v.name}| {smt_sort})")
        self._send(f"(assert (not {to_smt(phi)}))")
        self._send("(check-sat)")
        answer = self._read_line(deadline)
        try:
            if answer == "unsat":
                return valid()
            if answer == "unknown":
                return unknown("solver answered unknown")
            if answer != "sat":
                raise OracleFailure(f"unexpected solver answer {answer!r}")
            self._send("(get-model)")
            block = self._read_balanced(deadline)
            witness = self._parse_model(model, block, fv)
            got = model.eval_constraint(apply_subst(witness, phi))
            if got:
                raise OracleFailure("solver model does not falsify the constraint")
            return Verdict("invalid", witness=witness)
        finally:
            if self._proc is not None and self._proc.poll() is None:
                try:
                    self._send("(pop 1)")
                except OracleFailure:
                    pass

    def _parse_model(self, model: UnderlyingModel, block: str,
                     fv: list[Variable]) -> dict[Variable, Term]:
        try:
            nodes = parse_sexprs(block)
        except Exception as e:
            raise OracleFailure(f"unparseable solver model: {e}")
        values: dict[str, object] = {}

        def visit(node):
            if isinstance(node, SList):
                items = node.items
                if len(items) == 5 and isinstance(items[0], Atom) \
                        and items[0].text == "define-fun":
                    name = items[1].text.strip("|")
                    values[name] = _body_value(items[4])
                else:
                    for x in items:
                        visit(x)

        def _body_value(node):
            if isinstance(node, Atom) and reads_as_value(node.text):
                if node.text in ("true", "false"):
                    return node.text == "true"
                return int(node.text)
            if isinstance(node, SList) and len(node.items) == 2 \
                    and isinstance(node.items[0], Atom) and node.items[0].text == "-":
                return -_body_value(node.items[1])
            raise OracleFailure("unparseable value in solver model")

        for n in nodes:
            visit(n)
        out: dict[Variable, Term] = {}
        for v in fv:
            if v.name not in values:
                # unconstrained variable: any value falsifies; pick a default
                values[v.name] = False if v.sort.name == "Bool" else 0
            elem = values[v.name]
            if not model.element_in_carrier(v.sort, elem):
                raise OracleFailure(f"solver value {elem!r} outside the carrier")
            out[v] = model.value_term(v.sort, elem)
        return out
