"""Command-line frontend.

Exit codes: 0 affirmative, 1 negative/witness, 2 unknown or bound exhausted,
3 input error, 4 oracle failure, 5 internal error.  --format json emits one
structured document per invocation with a versioned schema field.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebra import (
    AlgebraError,
    algebra_text,
    check_is_model,
    check_refutes,
    check_value_consistency,
    parse_algebra,
    search_counter_model,
)
from .equations import (
    SearchLimits,
    conversion_search,
    reachable_terms,
    replay_trace,
    search_stop,
)
from .models import UnderlyingModel
from .oracle import OracleBudget, OracleFailure
from .proofs import check_proof, prove_heuristic
from .sexpr import ParseError, long_literal
from .smt import SmtSolverSession
from .syntax import (
    TheoryError,
    ce_text,
    parse_goal_spec,
    parse_proof,
    parse_term,
    parse_theory,
    serialize_proof,
    term_text,
)
from .terms import reads_as_value
from .validity import ValidityBudgets, check_ce_validity

SCHEMA = "lcer-report/1"

EXIT_YES = 0
EXIT_NO = 1
EXIT_UNKNOWN = 2
EXIT_INPUT = 3
EXIT_ORACLE = 4
EXIT_INTERNAL = 5


def _subst_json(sigma) -> dict:
    return {x.name: term_text(t) for x, t in sorted(sigma.items(), key=lambda kv: kv[0].name)}


def _valuation_json(rho) -> dict:
    return {v.name: UnderlyingModel.value_name(e)
            for v, e in sorted(rho.items(), key=lambda kv: kv[0].name)}


def _trace_json(trace) -> list[dict]:
    out = []
    for st in trace:
        entry = {
            "position": list(st.position),
            "kind": st.kind,
            "direction": st.direction,
            "from": term_text(st.replaced),
            "to": term_text(st.result),
        }
        if st.kind == "rule":
            entry["equation"] = st.eq_index
            entry["subst"] = {x.name: term_text(t) for x, t in st.subst}
        out.append(entry)
    return out


def _trace_lines(trace) -> list[str]:
    lines = []
    for i, st in enumerate(trace):
        pos = ".".join(map(str, st.position)) or "root"
        if st.kind == "calc":
            what = "calc"
        else:
            sigma = ", ".join(f"{x.name}:={term_text(t)}" for x, t in st.subst)
            what = f"eq#{st.eq_index} {st.direction} {{{sigma}}}"
        lines.append(f"  {i + 1}. at {pos}: {term_text(st.replaced)} ~ "
                     f"{term_text(st.result)}  [{what}]")
    return lines


class InputError(Exception):
    """A file named on the command line that cannot be read or written."""


def _read(path: str) -> str:
    """A file named on the command line: one that cannot be read is an input error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise InputError(str(e)) from None


def _write(path: str, text: str) -> None:
    """Write to a file named on the command line: failing to is an input error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise InputError(str(e)) from None


def _load(args):
    return parse_theory(_read(args.theory))


def _goal_from_args(tf, args):
    if getattr(args, "goal", None):
        if args.goal not in tf.goals:
            raise TheoryError("parse-error", f"no goal named {args.goal} in the file")
        return tf.goals[args.goal]
    if getattr(args, "lhs", None) and getattr(args, "rhs", None):
        return parse_goal_spec(tf.theory, args.lhs, args.rhs,
                               getattr(args, "constraint", None),
                               getattr(args, "pi", None))
    raise TheoryError("parse-error", "give a goal: -g NAME or -l TERM -r TERM")


def _budgets(args) -> ValidityBudgets:
    oracle = OracleBudget()
    if getattr(args, "solver", None):
        oracle.solver = SmtSolverSession(args.solver, getattr(args, "timeout", 10_000))
    b = ValidityBudgets(oracle=oracle)
    if getattr(args, "bound", None) is not None:
        b.bound = args.bound
    if getattr(args, "box", None) is not None:
        b.box = args.box
    if getattr(args, "rewrite_depth", None) is not None:
        b.rewrite_depth = args.rewrite_depth
    return b


def _limits(args) -> SearchLimits:
    lim = SearchLimits()
    if getattr(args, "bound", None) is not None:
        lim.bound = args.bound
    if getattr(args, "max_growth", None) is not None:
        lim.max_term_growth = args.max_growth
    return lim


def _pool_from_args(tf, args):
    if getattr(args, "pool", None):
        model = tf.theory.model
        items = [x.strip() for x in args.pool.split(",")]
        for x in items:
            if not reads_as_value(x) or x in ("true", "false") or long_literal(x):
                raise TheoryError("parse-error", f"--pool item {x!r} is not an integer")
        elems = tuple(map(int, items))
        int_sort = model.int_sort()
        pool = {}
        for name, sort in model.sorts.items():
            if sort == int_sort and not model.carriers[sort].finite:
                pool[sort] = elems
            elif model.carriers[sort].finite:
                pool[sort] = tuple(model.carriers[sort].elements)
        return pool
    return None


def cmd_parse(args):
    tf = _load(args)
    eqs = [ce_text(ce) for ce in tf.theory.equations]
    return EXIT_YES, {
        "verdict": "ok",
        "model": tf.theory.model.name,
        "sorts": [s.name for s in tf.theory.signature.sorts],
        "term_symbols": [f.name for f in tf.theory.signature.term_symbols()],
        "equations": eqs,
        "goals": sorted(tf.goals),
    }, ["parsed theory over model " + tf.theory.model.name,
        f"  {len(eqs)} equations, {len(tf.goals)} named goals"]


def cmd_rewrite(args):
    tf = _load(args)
    t = parse_term(tf.theory, args.term)
    nf = tf.theory.model.calc_normalize(t)
    reached = reachable_terms(tf.theory, nf, args.steps, width=args.limit,
                              value_pool=_pool_from_args(tf, args))
    succ = [f"{term_text(u)}  [{len(tr)} steps]"
            for u, tr in sorted(reached.items(), key=lambda kv: (len(kv[1]), term_text(kv[0])))
            if u != nf]
    lines = [f"calc normal form: {term_text(nf)}",
             f"successors within {args.steps} step(s):"]
    lines += [f"  {s}" for s in succ] or ["  (none)"]
    return EXIT_YES, {"verdict": "ok", "normal_form": term_text(nf),
                      "successors": succ}, lines


def cmd_convert(args):
    tf = _load(args)
    goal = _goal_from_args(tf, args)
    if not goal.closed:
        lines = ["convert works on closed goals; use validate for constrained ones"]
        return EXIT_INPUT, {"verdict": "input-error", "detail": lines[0]}, lines
    limits = _limits(args)
    pool = _pool_from_args(tf, args)
    trace = conversion_search(tf.theory, goal.lhs, goal.rhs, limits, value_pool=pool)
    if trace is None:
        report = {"verdict": "no-conversion-within-bound", "bound": limits.bound}
        stop = search_stop(tf.theory, goal.lhs, goal.rhs, limits, pool)
        if stop == "normal-forms":
            report["normal_forms_differ"] = True
            lines = ["not convertible (normal forms differ)"]
        elif stop == "max_nodes":
            report["budget"] = stop
            lines = [f"no conversion found: search budget max_nodes ({limits.max_nodes}) "
                     f"ran out before bound {limits.bound}"]
        else:
            lines = [f"no conversion within bound {limits.bound}"]
        return EXIT_UNKNOWN, report, lines
    end = replay_trace(tf.theory, goal.lhs, trace)
    assert end == goal.rhs
    lines = [f"conversion found: {len(trace)} steps"] + _trace_lines(trace)
    return EXIT_YES, {"verdict": "converted", "steps": len(trace),
                      "trace": _trace_json(trace)}, lines


def cmd_validate(args):
    tf = _load(args)
    goal = _goal_from_args(tf, args)
    status = check_ce_validity(tf.theory, goal, _budgets(args))
    report = {"verdict": status.kind, "detail": status.detail}
    lines = [f"status: {status.kind}"]
    if status.kind == "proved-ground-conversion":
        report["steps"] = len(status.trace or ())
        lines += _trace_lines(status.trace or ())
        return EXIT_YES, report, lines
    if status.kind == "proved-by-triviality":
        ls, rs = status.gap  # type: ignore[misc]
        report["gap"] = [term_text(ls), term_text(rs)]
        lines.append(f"  rewrites to the trivial gap {term_text(ls)} ~ {term_text(rs)}")
        return EXIT_YES, report, lines
    if status.kind == "confirmed-on-samples":
        report["samples"] = status.samples
        lines.append(f"  {status.samples} satisfying instances all convert "
                     f"(bounded evidence, not a proof)")
        return EXIT_YES, report, lines
    if status.kind == "no-conversion-within-bound":
        report["sample"] = _subst_json(status.failing_sample or {})
        which = report["sample"] or "identity"
        lines.append(f"  instance without conversion in bound: {which}")
        return EXIT_NO, report, lines
    if status.budget:
        report["budget"] = status.budget
        report["sample"] = _subst_json(status.failing_sample or {})
        lines.append(f"  instance: {report['sample'] or 'identity'}")
    lines.append(f"  {status.detail}")
    return EXIT_UNKNOWN, report, lines


def cmd_check(args):
    tf = _load(args)
    d = parse_proof(tf.theory, _read(args.proof))
    budget = _budgets(args).oracle
    report = check_proof(tf.theory, d, budget)
    if report.accepted:
        return EXIT_YES, {"verdict": "accepted",
                          "conclusion": ce_text(d.conclusion, "goal", "checked")}, \
            ["proof accepted", f"  conclusion: {ce_text(d.conclusion)}"]
    payload = {"verdict": report.verdict, "rule": report.rule, "code": report.code,
               "path": list(report.path or ()), "detail": report.detail}
    where = ".".join(str(i) for i in report.path or ()) or "root"
    lines = [f"proof {report.verdict} at node {where} ({report.rule}): "
             f"{report.code}", f"  {report.detail}"]
    return (EXIT_UNKNOWN if report.verdict == "oracle-unknown" else EXIT_NO), \
        payload, lines


def cmd_prove(args):
    tf = _load(args)
    goal = _goal_from_args(tf, args)
    d = prove_heuristic(tf.theory, goal, _budgets(args))
    if d is None:
        lines = ["no proof found within the budgets"]
        return EXIT_UNKNOWN, {"verdict": "no-proof"}, lines
    text = serialize_proof(d)
    lines = ["proof found and checked"]
    if args.out:
        _write(args.out, text + "\n")
        lines.append(f"  written to {args.out}")
    else:
        lines.append(text)
    return EXIT_YES, {"verdict": "proved", "proof": text}, lines


def cmd_consistent(args):
    tf = _load(args)
    rep = check_value_consistency(tf.theory, depth=args.depth)
    if rep.consistent:
        lines = [f"consistent up to depth {rep.depth} (evidence, not a proof)"]
        return EXIT_YES, {"verdict": "consistent-up-to", "depth": rep.depth}, lines
    lines = [f"inconsistent: values {term_text(rep.left)} and "
             f"{term_text(rep.right)} are convertible"]
    lines += _trace_lines(rep.trace or ())
    return EXIT_NO, {
        "verdict": "inconsistent",
        "left": term_text(rep.left), "right": term_text(rep.right),
        "trace": _trace_json(rep.trace or ()),
    }, lines


def cmd_refute(args):
    tf = _load(args)
    goal = _goal_from_args(tf, args)
    try:
        outcome = search_counter_model(tf.theory, goal,
                                       max_extra_per_theory_sort=args.extra,
                                       term_sort_size=args.term_size)
    except AlgebraError as e:
        return EXIT_INPUT, {"verdict": "input-error", "detail": str(e)}, [str(e)]
    if outcome.algebra is None:
        lines = [f"no counter-model found at bounds ({outcome.bounds})"]
        if outcome.exhausted:
            lines.append("  search budget exhausted before covering the bounds")
        return EXIT_UNKNOWN, {"verdict": "no-counter-model", "bounds": outcome.bounds,
                              "nodes": outcome.nodes}, lines
    alg_text = algebra_text(outcome.algebra)
    rho = _valuation_json(outcome.refuting_valuation)
    if args.out:
        _write(args.out, alg_text)
    lines = ["counter-model found; goal refuted at valuation " + json.dumps(rho),
             alg_text.rstrip()]
    return EXIT_YES, {"verdict": "refuted", "valuation": rho,
                      "algebra": alg_text, "nodes": outcome.nodes}, lines


def cmd_model_check(args):
    tf = _load(args)
    alg = parse_algebra(tf.theory, _read(args.algebra))
    result = check_is_model(alg)
    if not result.ok:
        rho = _valuation_json(result.valuation)
        lines = [f"not a model: equation #{result.eq_index} fails at {json.dumps(rho)}"]
        return EXIT_NO, {"verdict": "not-a-model", "equation": result.eq_index,
                         "valuation": rho}, lines
    payload = {"verdict": "model"}
    lines = ["algebra is a model of the theory"]
    exit_code = EXIT_YES
    if getattr(args, "goal", None) or (getattr(args, "lhs", None) and
                                       getattr(args, "rhs", None)):
        goal = _goal_from_args(tf, args)
        rho = check_refutes(alg, goal)
        if rho is None:
            payload["refutes"] = False
            lines.append("goal is valid in this algebra (no refuting valuation)")
            exit_code = EXIT_NO
        else:
            named = _valuation_json(rho)
            payload["refutes"] = True
            payload["valuation"] = named
            lines.append("goal refuted at valuation " + json.dumps(named))
    return exit_code, payload, lines


def _count(text: str) -> int:
    """The type of a non-negative integer option."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    """A malformed command line is an input error: exit 3, not argparse's 2.
    When the command line asks for --format json (`json_errors`, set by
    build_parser on every parser), the error is an input-error document."""

    json_errors = False

    def error(self, message):
        if self.json_errors:
            _, _, command = self.prog.partition(" ")
            _print_document(command or None, None, EXIT_INPUT,
                            {"verdict": "input-error", "detail": message})
            self.exit(EXIT_INPUT)
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _asks_json(argv) -> bool:
    """argv gives --format json, in any spelling argparse accepts, however
    malformed the rest of it is."""
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--format")
    try:
        return pre.parse_known_args(argv)[0].format == "json"
    except argparse.ArgumentError:
        return False


def _print_document(command, seed, code, payload) -> None:
    doc = {"schema": SCHEMA, "command": command, "exit_code": code, "seed": seed}
    doc.update(payload)
    print(json.dumps(doc, indent=2, sort_keys=True))


def _add_goal_opts(p):
    p.add_argument("-g", "--goal", help="named goal from the theory file")
    p.add_argument("-l", "--lhs", help="left term (s-expression or f(a,b) style)")
    p.add_argument("-r", "--rhs", help="right term")
    p.add_argument("-c", "--constraint", help="constraint term (default true)")
    p.add_argument("--pi", help="space-separated logical variables")


def build_parser(json_errors: bool = False) -> argparse.ArgumentParser:
    ap = _Parser(
        prog="lcer",
        description="constrained equational reasoning: rewriting, validity, "
                    "proof checking, and counter-models")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("theory", help="theory file")
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--solver", default=os.environ.get("LCRE_SOLVER"),
                        help="external SMT-LIB solver command")
    common.add_argument("--timeout", type=_count, default=10_000,
                        help="solver timeout in milliseconds")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", parents=[common], help="validate a theory file")
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("rewrite", parents=[common],
                       help="normalize a term and list one-step successors")
    p.add_argument("-t", "--term", required=True)
    p.add_argument("--pool", help="comma-separated integer value pool")
    p.add_argument("--steps", type=_count, default=1)
    p.add_argument("--limit", type=_count, default=50)
    p.set_defaults(fn=cmd_rewrite)

    p = sub.add_parser("convert", parents=[common],
                       help="search for a conversion between two closed terms")
    _add_goal_opts(p)
    p.add_argument("--bound", type=_count, default=8)
    p.add_argument("--pool", help="comma-separated integer value pool")
    p.add_argument("--max-growth", dest="max_growth", type=_count)
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser("validate", parents=[common],
                       help="semi-decide validity of a constrained equation")
    _add_goal_opts(p)
    p.add_argument("--bound", type=_count)
    p.add_argument("--box", type=_count)
    p.add_argument("--rewrite-depth", dest="rewrite_depth", type=_count)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("check", parents=[common], help="check a proof file")
    p.add_argument("-p", "--proof", required=True)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("prove", parents=[common],
                       help="generate a derivation for a goal")
    _add_goal_opts(p)
    p.add_argument("--bound", type=_count)
    p.add_argument("--box", type=_count)
    p.add_argument("--rewrite-depth", dest="rewrite_depth", type=_count)
    p.add_argument("-o", "--out", help="write the proof here")
    p.set_defaults(fn=cmd_prove)

    p = sub.add_parser("consistent", parents=[common],
                       help="bounded value-consistency check")
    p.add_argument("--depth", type=_count, default=8)
    p.set_defaults(fn=cmd_consistent)

    p = sub.add_parser("refute", parents=[common],
                       help="search for a finite counter-model of a goal")
    _add_goal_opts(p)
    p.add_argument("--extra", type=_count, default=1,
                   help="fresh elements per theory sort")
    p.add_argument("--term-size", dest="term_size", type=_count, default=1,
                   help="carrier size for each term sort")
    p.add_argument("-o", "--out", help="write the algebra here")
    p.set_defaults(fn=cmd_refute)

    p = sub.add_parser("model-check", parents=[common],
                       help="verify an algebra file; optionally test a goal")
    p.add_argument("-a", "--algebra", required=True)
    _add_goal_opts(p)
    p.set_defaults(fn=cmd_model_check)
    for parser in (ap, *sub.choices.values()):
        parser.json_errors = json_errors
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(_asks_json(argv)).parse_args(argv)
    try:
        code, payload, lines = args.fn(args)
    except (ParseError, TheoryError, AlgebraError, InputError) as e:
        code, payload, lines = EXIT_INPUT, {"verdict": "input-error",
                                            "detail": str(e)}, [f"error: {e}"]
    except RecursionError:
        detail = "input nests too deeply to process"
        code, payload, lines = EXIT_INPUT, {"verdict": "input-error",
                                            "detail": detail}, [f"error: {detail}"]
    except OracleFailure as e:
        code, payload, lines = EXIT_ORACLE, {"verdict": "oracle-failure",
                                             "detail": str(e)}, [f"oracle failure: {e}"]
    except Exception as e:  # a fault of lcer, not of the input: no traceback
        detail = f"{type(e).__name__}: {e}"
        code, payload, lines = EXIT_INTERNAL, {"verdict": "internal-error",
                                               "detail": detail}, [f"internal error: {detail}"]
    if args.format == "json":
        _print_document(args.command, args.seed, code, payload)
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
