"""Concrete syntax: theory files, inline goals, and proof files.

Everything is s-expressions in prefix notation.  Variable sorts are inferred
from the positions they occupy; a `(vars (x Int) ...)` block pins them down
where inference has nothing to go on.  Integer literals and true/false are
value atoms.  The surface symbols `-` (by arity) and `=` (by operand sort)
resolve to the model's internal symbols.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .equations import CEError, CETheory, ConstrainedEquation
from .models import UnderlyingModel, builtin_model
from .proofs import RULES, Derivation
from .sexpr import (
    Atom,
    Node,
    ParseError,
    SList,
    expect_atom,
    expect_list,
    head,
    parse_call_term,
    parse_one,
    parse_sexprs,
)
from .terms import (
    TERM,
    App,
    FunSymbol,
    Signature,
    Sort,
    Term,
    Variable,
    reads_as_value,
    sort_of,
    vars_of,
)


class TheoryError(Exception):
    def __init__(self, code: str, message: str, line: int = 0, col: int = 0) -> None:
        where = f"{line}:{col}: " if line else ""
        super().__init__(f"{where}{code}: {message}")
        self.code = code


@dataclass
class TheoryFile:
    theory: CETheory
    goals: dict[str, ConstrainedEquation] = field(default_factory=dict)


class TermReader:
    """Sort-directed term parsing over one variable environment.  Every
    occurrence of a variable it reads is one object, so that substitutions
    find it by identity."""

    def __init__(self, theory: CETheory, env: Optional[dict[str, Sort]] = None) -> None:
        self.theory = theory
        self.model = theory.model
        self.env: dict[str, Sort] = env if env is not None else {}
        self._variables: dict[tuple[str, Sort], Variable] = {}

    def resolve_sort(self, name: str, node: Node) -> Sort:
        s = self.theory.signature.sort(name)
        if s is None:
            raise TheoryError("unknown-sort", f"unknown sort {name}", node.line, node.col)
        return s

    def _value_atom(self, text: str, node: Node) -> Optional[Term]:
        model = self.model
        if not reads_as_value(text):
            return None
        if text in ("true", "false"):
            b = model.sorts["Bool"]
            return model.value_term(b, text == "true")
        int_sort = model.int_sort()
        if int_sort is None:
            raise TheoryError("unknown-symbol",
                              f"model {model.name} has no numeric sort",
                              node.line, node.col)
        val = int(text)
        if not model.element_in_carrier(int_sort, val):
            raise TheoryError("unknown-symbol",
                              f"{val} is not a value of the {model.name} model",
                              node.line, node.col)
        return model.value_term(int_sort, val)

    def _symbol(self, name: str, nargs: int, arg0_sort: Optional[Sort]) -> Optional[FunSymbol]:
        if name == "-" and nargs == 1:
            name = "neg"
        if name == "=":
            if arg0_sort is None:
                return None
            name = f"={arg0_sort.name}"
        sym = self.theory.signature.symbol(name) or self.model.symbols.get(name)
        return sym

    def parse(self, node: Node, expected: Optional[Sort] = None) -> Term:
        if isinstance(node, Atom):
            val = self._value_atom(node.text, node)
            if val is not None:
                self._check_expected(val, expected, node)
                return val
            sym = self.theory.signature.symbol(node.text) or self.model.symbols.get(node.text)
            if sym is not None and sym.arity == 0:
                t: Term = App(sym)
                self._check_expected(t, expected, node)
                return t
            return self._variable(node.text, expected, node)
        if not node.items:
            raise ParseError("empty term", node.line, node.col)
        h = expect_atom(node.items[0], "a symbol name")
        args_nodes = node.items[1:]
        pre = None
        if h.text == "=":
            pre = self._parse_first_determined(args_nodes, node)
            sym = self._symbol("=", 2, sort_of(pre[1]))
            if sym is None:
                raise TheoryError("unknown-symbol",
                                  "cannot resolve '=' (no argument sort is known)",
                                  node.line, node.col)
        else:
            sym = self._symbol(h.text, len(args_nodes), None)
            if sym is None:
                raise TheoryError("unknown-symbol", f"unknown symbol {h.text}",
                                  node.line, node.col)
        t = self._apply(sym, args_nodes, node, pre=pre)
        self._check_expected(t, expected, node)
        return t

    def _parse_first_determined(self, args_nodes, node) -> tuple[int, Term]:
        errors = []
        for i in (0, 1):
            if i >= len(args_nodes):
                break
            try:
                return i, self.parse(args_nodes[i], None)
            except TheoryError as e:
                errors.append(e)
        raise errors[0] if errors else TheoryError(
            "ill-sorted-equation", "cannot infer the sort of '=' operands",
            node.line, node.col)

    def _apply(self, sym: FunSymbol, args_nodes, node,
               pre: Optional[tuple[int, Term]] = None) -> Term:
        if len(args_nodes) != sym.arity:
            raise TheoryError("ill-sorted-equation",
                              f"{sym.name} expects {sym.arity} arguments, "
                              f"got {len(args_nodes)}", node.line, node.col)
        args: list[Term] = []
        for i, an in enumerate(args_nodes):
            if pre is not None and i == pre[0]:
                arg = pre[1]
                if sort_of(arg) != sym.arg_sorts[i]:
                    raise TheoryError("ill-sorted-equation",
                                      f"argument {i + 1} of {sym.name} has sort "
                                      f"{sort_of(arg).name}, expected {sym.arg_sorts[i].name}",
                                      node.line, node.col)
            else:
                arg = self.parse(an, sym.arg_sorts[i])
            args.append(arg)
        return App(sym, tuple(args))

    def _variable(self, name: str, expected: Optional[Sort], node: Node) -> Variable:
        known = self.env.get(name)
        if known is not None:
            if expected is not None and known != expected:
                raise TheoryError("ill-sorted-equation",
                                  f"variable {name} used both at sort {known.name} "
                                  f"and {expected.name}", node.line, node.col)
            return self.shared_variable(name, known)
        if expected is None:
            raise TheoryError("ill-sorted-equation",
                              f"cannot infer the sort of variable {name}; "
                              "annotate it in a (vars ...) block", node.line, node.col)
        self.env[name] = expected
        return self.shared_variable(name, expected)

    def shared_variable(self, name: str, sort: Sort) -> Variable:
        v = self._variables.get((name, sort))
        if v is None:
            v = self._variables[name, sort] = Variable(name, sort)
        return v

    def _check_expected(self, t: Term, expected: Optional[Sort], node: Node) -> None:
        if expected is not None and sort_of(t) != expected:
            raise TheoryError("ill-sorted-equation",
                              f"term has sort {sort_of(t).name}, expected {expected.name}",
                              node.line, node.col)

    def equation(self, lhs: Node, rhs: Node, constraint: Optional[Node],
                 logical: Optional[list[str]], at: Optional[Node]) -> ConstrainedEquation:
        """<X> lhs = rhs [constraint]: rhs read at lhs's sort, the constraint
        at Bool (true when absent), X the named variables of the environment
        (the constraint's variables when None).  Every error is a TheoryError,
        located at `at`."""
        line, col = (at.line, at.col) if at is not None else (0, 0)
        left = self.parse(lhs)
        right = self.parse(rhs, sort_of(left))
        bool_sort = self.model.sorts["Bool"]
        phi = self.model.value_term(bool_sort, True) if constraint is None \
            else self.parse(constraint, bool_sort)
        xs = vars_of(phi) if logical is None else set()
        for name in logical or ():
            if name not in self.env:
                raise TheoryError("ill-sorted-equation",
                                  f"logical variable {name} occurs neither in the equation "
                                  "nor in a (vars ...) block", line, col)
            xs.add(self.shared_variable(name, self.env[name]))
        try:
            return ConstrainedEquation(frozenset(xs), left, right, phi)
        except CEError as e:
            code = "constraint-vars-not-in-X" if "outside the logical set" in str(e) \
                else "ill-sorted-equation"
            raise TheoryError(code, str(e), line, col) from None


def _read_vars_block(reader: TermReader, node: SList) -> list[str]:
    """(vars (x Int) ...) or (vars x:Int ...); records sorts in the reader env
    and returns the names."""
    out = []
    for item in node.items[1:]:
        if isinstance(item, Atom) and ":" in item.text:
            name, _, sortname = item.text.partition(":")
        else:
            pair = expect_list(item, "a (name Sort) pair")
            if len(pair.items) != 2:
                raise ParseError("expected (name Sort)", pair.line, pair.col)
            name = expect_atom(pair.items[0], "a variable name").text
            sortname = expect_atom(pair.items[1], "a sort name").text
        sort = reader.resolve_sort(sortname, item)
        old = reader.env.get(name)
        if old is not None and old != sort:
            raise TheoryError("ill-sorted-equation",
                              f"variable {name} annotated at two sorts",
                              item.line, item.col)
        reader.env[name] = sort
        out.append(name)
    return out


def _split_sections(items, allowed: set[str]):
    for node in items:
        h = head(node)
        if h is None or h not in allowed:
            raise ParseError(f"expected one of: {', '.join(sorted(allowed))}",
                             node.line, node.col)
        yield h, node


def _parse_equation_like(theory: CETheory, node: SList, what: str):
    """(eq|goal [NAME] [(vars ...)] (pi x ...) (constraint PHI) LHS RHS)"""
    items = list(node.items[1:])
    name = None
    if what == "goal":
        name = expect_atom(items.pop(0), "a goal name").text
    reader = TermReader(theory)
    if items and head(items[0]) == "vars":
        _read_vars_block(reader, expect_list(items.pop(0), "(vars ...)"))
    if not items or head(items[0]) != "pi":
        raise ParseError("expected (pi ...)", node.line, node.col)
    pi_node = expect_list(items.pop(0), "(pi ...)")
    pi_names = [expect_atom(x, "a variable name").text for x in pi_node.items[1:]]
    if not items or head(items[0]) != "constraint":
        raise ParseError("expected (constraint ...)", node.line, node.col)
    cons_node = expect_list(items.pop(0), "(constraint ...)")
    if len(cons_node.items) != 2:
        raise ParseError("constraint takes one formula", cons_node.line, cons_node.col)
    if len(items) != 2:
        raise ParseError(f"{what} needs LHS and RHS", node.line, node.col)
    return name, reader.equation(items[0], items[1], cons_node.items[1], pi_names, node)


def parse_theory(text: str) -> TheoryFile:
    nodes = parse_sexprs(text)
    if len(nodes) != 1 or head(nodes[0]) != "theory":
        raise ParseError("expected a single (theory ...) form", 1, 1)
    root = expect_list(nodes[0], "(theory ...)")
    model: Optional[UnderlyingModel] = None
    sort_atoms = []
    funs: list[tuple] = []
    eq_nodes = []
    goal_nodes = []
    for h, node in _split_sections(root.items[1:], {"model", "sorts", "sort", "fun",
                                                    "eq", "goal"}):
        node = expect_list(node, h)
        if h == "model":
            if model is not None:
                raise ParseError("duplicate model declaration", node.line, node.col)
            decl = node.items[1:]
            if not decl:
                raise ParseError("model takes a name", node.line, node.col)
            mname = expect_atom(decl[0], "a model name").text
            arg = None
            if mname == "intmod" and len(decl) > 1:
                modulus = expect_atom(decl[1], "a modulus")
                if not reads_as_value(modulus.text) or modulus.text in ("true", "false"):
                    raise ParseError("expected an integer modulus", modulus.line, modulus.col)
                arg = int(modulus.text)
            try:
                model = builtin_model(mname, arg)
            except ValueError as e:
                raise TheoryError("parse-error", str(e), node.line, node.col)
            extra = decl[1 if arg is None else 2:]
            if extra:
                raise ParseError(f"too many arguments for model {mname}",
                                 extra[0].line, extra[0].col)
        elif h in ("sorts", "sort"):
            sort_atoms += [expect_atom(item, "a sort name") for item in node.items[1:]]
        elif h == "fun":
            funs.append(node)
        elif h == "eq":
            eq_nodes.append(node)
        else:
            goal_nodes.append(node)
    if model is None:
        raise ParseError("theory file must declare a model", root.line, root.col)

    by_name = dict(model.sorts)
    for atom in sort_atoms:
        if atom.text in model.sorts:
            raise TheoryError("parse-error", f"sort {atom.text} collides with a model sort",
                              atom.line, atom.col)
        if atom.text in by_name:
            raise TheoryError("parse-error", f"duplicate sort {atom.text}", atom.line, atom.col)
        by_name[atom.text] = Sort(atom.text, TERM)
    all_sorts = list(by_name.values())
    symbols: dict[str, FunSymbol] = {}
    for node in funs:
        if len(node.items) != 4:
            raise ParseError("expected (fun NAME (ARG...) RESULT)", node.line, node.col)
        fname = expect_atom(node.items[1], "a symbol name").text
        if reads_as_value(fname):
            # every occurrence of the name would read as the value
            raise TheoryError("parse-error", f"symbol name {fname} reads as a value",
                              node.line, node.col)
        if fname in model.symbols or model.sorts.get(fname):
            raise TheoryError("parse-error", f"{fname} collides with a model symbol",
                              node.line, node.col)
        if fname in symbols:
            raise TheoryError("parse-error", f"duplicate symbol {fname}", node.line, node.col)
        arg_list = expect_list(node.items[2], "argument sorts")
        arg_sorts = []
        for an in arg_list.items:
            nm = expect_atom(an, "a sort name").text
            if nm not in by_name:
                raise TheoryError("unknown-sort", f"unknown sort {nm}", an.line, an.col)
            arg_sorts.append(by_name[nm])
        rn = expect_atom(node.items[3], "a result sort").text
        if rn not in by_name:
            raise TheoryError("unknown-sort", f"unknown sort {rn}",
                              node.items[3].line, node.items[3].col)
        symbols[fname] = FunSymbol(fname, tuple(arg_sorts), by_name[rn], TERM)

    signature = Signature(tuple(all_sorts),
                          tuple(model.symbols.values()) + tuple(symbols.values()))
    theory = CETheory(signature, model, ())
    equations = []
    for node in eq_nodes:
        _, ce = _parse_equation_like(theory, node, "eq")
        equations.append(ce)
    theory = CETheory(signature, model, tuple(equations))
    goals = {}
    for node in goal_nodes:
        gname, ce = _parse_equation_like(theory, node, "goal")
        if gname in goals:
            raise ParseError(f"duplicate goal {gname}", node.line, node.col)
        goals[gname] = ce
    return TheoryFile(theory, goals)


# -- printing ------------------------------------------------------------------

def term_text(t: Term) -> str:
    if isinstance(t, Variable):
        return t.name
    name = t.fun.name
    if name == "neg":
        name = "-"
    elif name.startswith("=") and len(name) > 1:
        name = "="
    if not t.args:
        return name
    return f"({name} {' '.join(term_text(a) for a in t.args)})"


def ce_text(ce: ConstrainedEquation, keyword: str = "eq", name: str | None = None) -> str:
    xs = sorted(ce.logical_vars, key=lambda v: v.name)
    # every variable gets its sort, so a bare variable side re-parses
    all_vars = sorted(vars_of(ce.lhs) | vars_of(ce.rhs) | ce.logical_vars,
                      key=lambda v: v.name)
    var_block = ""
    if all_vars:
        var_block = " (vars " + " ".join(f"({v.name} {v.sort.name})" for v in all_vars) + ")"
    pi = " ".join(v.name for v in xs)
    label = f" {name}" if name else ""
    return (f"({keyword}{label}{var_block} (pi {pi}) "
            f"(constraint {term_text(ce.constraint)}) "
            f"{term_text(ce.lhs)} {term_text(ce.rhs)})")


def theory_text(tf: TheoryFile) -> str:
    model = tf.theory.model
    lines = ["(theory"]
    if model.name.startswith("intmod"):
        lines.append(f"  (model intmod {model.name.split()[1]})")
    else:
        lines.append(f"  (model {model.name})")
    term_sorts = [s for s in tf.theory.signature.sorts if s.kind == TERM]
    if term_sorts:
        lines.append("  (sorts " + " ".join(s.name for s in term_sorts) + ")")
    for f in tf.theory.signature.term_symbols():
        args = " ".join(s.name for s in f.arg_sorts)
        lines.append(f"  (fun {f.name} ({args}) {f.result_sort.name})")
    for ce in tf.theory.equations:
        lines.append("  " + ce_text(ce))
    for gname, ce in tf.goals.items():
        lines.append("  " + ce_text(ce, "goal", gname))
    lines.append(")")
    return "\n".join(lines) + "\n"


def parse_term(theory: CETheory, text: str,
               env: Optional[dict[str, Sort]] = None) -> Term:
    node = parse_call_term(text)
    return TermReader(theory, env).parse(node)


def parse_goal_spec(theory: CETheory, lhs_text: str, rhs_text: str,
                    constraint_text: str | None = None,
                    pi_text: str | None = None) -> ConstrainedEquation:
    return TermReader(theory).equation(
        parse_call_term(lhs_text), parse_call_term(rhs_text),
        parse_call_term(constraint_text) if constraint_text else None,
        pi_text.split() if pi_text else None, None)


# -- proof files ----------------------------------------------------------------

def parse_proof(theory: CETheory, text: str) -> Derivation:
    return _parse_proof_node(theory, parse_one(text), {})


def _parse_proof_node(theory: CETheory, node: Node, env: dict[str, Sort]) -> Derivation:
    node = expect_list(node, "a proof node")
    if not node.items:
        raise ParseError("empty proof node", node.line, node.col)
    rule = expect_atom(node.items[0], "a rule name").text
    if rule not in RULES:
        raise ParseError(f"unknown rule {rule}", node.items[0].line, node.items[0].col)
    rest = list(node.items[1:])
    if not rest or head(rest[0]) != "conclusion":
        raise ParseError("expected (conclusion ...)", node.line, node.col)
    conc_node = expect_list(rest.pop(0), "(conclusion ...)")
    reader = TermReader(theory, env)
    items = list(conc_node.items[1:])
    xs: list[str] = []
    if items and head(items[0]) == "vars":
        xs = _read_vars_block(reader, expect_list(items.pop(0), "(vars ...)"))
    if len(items) != 3:
        raise ParseError("conclusion takes (vars ...) LHS RHS CONSTRAINT",
                         conc_node.line, conc_node.col)
    ce = reader.equation(items[0], items[1], items[2], xs, conc_node)

    witness = None
    if rest and head(rest[0]) == "subst":
        sub_node = expect_list(rest.pop(0), "(subst ...)")
        pairs = []
        for item in sub_node.items[1:]:
            pair = expect_list(item, "a (var TERM) pair")
            if len(pair.items) != 2:
                raise ParseError("expected (var TERM)", pair.line, pair.col)
            vname = expect_atom(pair.items[0], "a variable name").text
            image = reader.parse(pair.items[1], env.get(vname))
            pairs.append((Variable(vname, env.setdefault(vname, sort_of(image))), image))
        witness = tuple(sorted(pairs, key=lambda kv: kv[0].name))

    premises = tuple(_parse_proof_node(theory, p, env) for p in rest)
    return Derivation(rule, ce, witness, premises)


def serialize_proof(d: Derivation, indent: int = 0) -> str:
    pad = "  " * indent
    ce = d.conclusion
    xs = sorted(ce.logical_vars, key=lambda v: v.name)
    vars_part = ""
    if xs:
        vars_part = "(vars " + " ".join(f"({v.name} {v.sort.name})" for v in xs) + ") "
    conc = (f"(conclusion {vars_part}{term_text(ce.lhs)} {term_text(ce.rhs)} "
            f"{term_text(ce.constraint)})")
    parts = [f"{pad}({d.rule} {conc}"]
    if d.witness is not None:
        entries = " ".join(f"({x.name} {term_text(u)})" for x, u in d.witness)
        parts.append(f"{pad}  (subst {entries})" if entries else f"{pad}  (subst)")
    for p in d.premises:
        parts.append(serialize_proof(p, indent + 1))
    return "\n".join(parts) + ")"
