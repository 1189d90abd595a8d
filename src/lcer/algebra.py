"""Finite algebras extending the underlying model: model checking a set of
constrained equations, refuting goals, bounded counter-model search,
congruences/quotients, and value-consistency of a theory.

Carrier elements are the underlying model's elements plus fresh atoms (written
with a leading '#').  A theory symbol keeps its model interpretation on
underlying elements; only entries touching fresh elements live in tables.
FiniteCEAlgebra.apply is the one interpretation of a symbol on elements, and a
missing table entry goes to its hook, `missing`.  Counter-model search checks
on a shell algebra whose hook raises: it branches lazily on exactly the table
entries that the checks consult, assigns each into the shell's tables in place
and deletes it on backtrack, in a fixed deterministic order, so the first
algebra found is canonical for the documented order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .equations import (
    CETheory,
    ConstrainedEquation,
    ConversionTrace,
    SearchLimits,
    breadth_first,
    default_value_pool,
    search_expander,
)
from .models import BOOL, INT, UnderlyingModel, has_element, satisfying
from .sexpr import Atom, ParseError, expect_atom, expect_list, head, parse_sexprs
from .terms import (
    TERM,
    THEORY,
    FunSymbol,
    Sort,
    Term,
    Variable,
    reads_as_value,
    subterms_of,
    term_key,
    vars_of,
)


class AlgebraError(Exception):
    pass


class UncoveredVariable(AlgebraError):
    pass


@dataclass
class FiniteCEAlgebra:
    theory: CETheory
    carriers: dict[Sort, tuple]
    tables: dict[str, dict[tuple, object]]  # symbol name -> args -> result

    def __post_init__(self) -> None:
        # each carrier element, keyed by (type, value) as has_element compares
        # them, mapped to whether it is underlying
        self._underlying = {sort: {(type(e), e): self.is_underlying(sort, e) for e in elems}
                            for sort, elems in self.carriers.items()}

    def is_underlying(self, sort: Sort, elem: object) -> bool:
        return sort.kind == THEORY and self.theory.model.element_in_carrier(sort, elem)

    def _underlying_elem(self, sort: Sort, elem: object) -> bool:
        """is_underlying, looked up for a carrier element."""
        known = self._underlying.get(sort, {}).get((type(elem), elem))
        return self.is_underlying(sort, elem) if known is None else known

    def model_decides(self, f: FunSymbol, args: tuple) -> bool:
        """Whether f on args is the underlying model's, not a table's: f is a
        theory symbol and every argument is underlying."""
        return f.kind == THEORY and all(map(self._underlying_elem, f.arg_sorts, args))

    def underlying_part(self, sort: Sort) -> tuple:
        return tuple(e for e in self.carriers[sort] if self._underlying_elem(sort, e))

    def fill_fresh_entries(self) -> None:
        """Give each theory symbol an entry, where its table has none, on
        every tuple that touches a fresh element: the first element of the
        result carrier."""
        _fill_first(self, self.theory.model.symbols.values())

    def validate(self) -> None:
        model = self.theory.model
        for name, sort in model.sorts.items():
            car = model.carriers[sort]
            if sort not in self.carriers:
                raise AlgebraError(f"no carrier declared for sort {name}")
            if car.finite:
                missing = [e for e in car.elements  # type: ignore[union-attr]
                           if not has_element(self.carriers[sort], e)]
                if missing:
                    raise AlgebraError(
                        f"carrier of {name} must contain every model element; "
                        f"missing {_elements_text(missing)}")
        for sort in self.theory.signature.sorts:
            if sort.kind == TERM and sort not in self.carriers:
                raise AlgebraError(f"no carrier declared for sort {sort.name}")
            if not self.carriers.get(sort, ()):
                raise AlgebraError(f"carrier of {sort.name} is empty")
        for f in self.theory.signature.term_symbols():
            table = self.tables.get(f.name, {})
            for combo in itertools.product(*(self.carriers[s] for s in f.arg_sorts)):
                if combo not in table:
                    raise AlgebraError(
                        f"table for {f.name} is missing entry {_elements_text(combo)}")
                if not has_element(self.carriers[f.result_sort], table[combo]):
                    raise AlgebraError(f"table for {f.name} leaves the carrier")

    def eval(self, t: Term, rho: dict[Variable, object]) -> object:
        if isinstance(t, Variable):
            if t not in rho:
                raise UncoveredVariable(f"valuation does not cover {t.name}")
            return rho[t]
        if t.fun.is_value:
            if t.fun.value not in self.carriers[t.fun.result_sort]:
                raise AlgebraError(
                    f"value {t.fun.name} is outside the declared carrier slice")
            return t.fun.value
        return self.apply(t.fun, tuple(self.eval(a, rho) for a in t.args))

    def apply(self, f: FunSymbol, args: tuple) -> object:
        """f on args: the underlying model's result where it decides them,
        which must lie in the declared carrier slice, else the table entry."""
        if self.model_decides(f, args):
            result = self.theory.model.interp[f.name](*args)
            if result not in self.carriers[f.result_sort]:
                raise AlgebraError(
                    f"{f.name}{_elements_text(args)} leaves the declared carrier slice")
            return result
        try:
            return self.tables[f.name][args]
        except KeyError:
            return self.missing(f, args)

    def missing(self, f: FunSymbol, args: tuple) -> object:
        """The answer for f on args when its table has no entry."""
        raise AlgebraError(f"table for {f.name} has no entry {_elements_text(args)}")


def _elements_text(elems: Iterable) -> str:
    """Elements as algebra files write them: (true #b1)."""
    return "(" + " ".join(map(UnderlyingModel.value_name, elems)) + ")"


def _fill_first(alg: FiniteCEAlgebra, symbols: Iterable[FunSymbol]) -> None:
    """Give each of symbols an entry, where its table has none, on every tuple
    that the model does not decide: the first element of the result carrier."""
    for f in symbols:
        table = alg.tables.setdefault(f.name, {})
        if f.result_sort not in alg.carriers:
            continue  # validate reports the missing carrier
        first = alg.carriers[f.result_sort][0]
        for combo in itertools.product(*(alg.carriers.get(s, ()) for s in f.arg_sorts)):
            if not alg.model_decides(f, combo):
                table.setdefault(combo, first)


def _ranges(alg: FiniteCEAlgebra, ce: ConstrainedEquation) -> tuple[list[Variable], list[tuple]]:
    """The variables of ce in canonical order with their ranges: logical
    variables over the underlying part, the others over the full carrier."""
    variables = sorted(vars_of(ce.lhs) | vars_of(ce.rhs) | ce.logical_vars,
                       key=lambda v: (v.name, v.sort.name))
    domains = [alg.underlying_part(v.sort) if v in ce.logical_vars else alg.carriers[v.sort]
               for v in variables]
    return variables, domains


def _admissible(alg: FiniteCEAlgebra, ce: ConstrainedEquation,
                limit: int | None = None) -> Iterator[dict[Variable, object]]:
    """Valuations under which ce's constraint holds, in declared order.  The
    constraint's variables are logical and range over underlying elements, so
    the underlying model answers it."""
    variables, domains = _ranges(alg, ce)
    for combo in satisfying(alg.theory.model, variables, domains, ce.constraint, limit):
        yield dict(zip(variables, combo))


def _first_difference(alg: FiniteCEAlgebra, ce: ConstrainedEquation,
                      valuations: Iterable[dict]) -> Optional[dict]:
    """The first of valuations under which ce's sides differ in alg, or None.
    A variable-free equation's valuation is {}, so callers test `is not None`."""
    for rho in valuations:
        if alg.eval(ce.lhs, rho) != alg.eval(ce.rhs, rho):
            return rho
    return None


@dataclass(frozen=True)
class ModelCheckResult:
    ok: bool
    eq_index: Optional[int] = None
    valuation: Optional[dict] = None

    def __bool__(self) -> bool:
        return self.ok


def check_is_model(alg: FiniteCEAlgebra, max_valuations: int = 2_000_000) -> ModelCheckResult:
    """Valid iff every equation holds under every admissible valuation."""
    budget = max_valuations
    for i, ce in enumerate(alg.theory.equations):
        rho = _first_difference(alg, ce, _admissible(alg, ce, budget))
        if rho is not None:
            return ModelCheckResult(False, i, rho)
        budget -= math.prod(len(d) for d in _ranges(alg, ce)[1])
        if budget < 0:
            raise AlgebraError("model check exceeded the valuation budget")
    return ModelCheckResult(True)


def check_refutes(alg: FiniteCEAlgebra, goal: ConstrainedEquation) -> Optional[dict]:
    """A valuation satisfying the goal's constraint with unequal sides, or None."""
    return _first_difference(alg, goal, _admissible(alg, goal))


# -- counter-model search --------------------------------------------------------

class _Need(Exception):
    """Raised with (f, args): the shell has no entry for f on args."""


class _Shell(FiniteCEAlgebra):
    """The search's partial algebra: a missing table entry raises _Need."""

    def missing(self, f: FunSymbol, args: tuple) -> object:
        raise _Need(f, args)


@dataclass
class SearchOutcome:
    algebra: Optional[FiniteCEAlgebra]
    refuting_valuation: Optional[dict]
    nodes: int
    exhausted: bool
    bounds: str


def search_counter_model(
    theory: CETheory,
    goal: ConstrainedEquation,
    max_extra_per_theory_sort: int = 1,
    term_sort_size: int = 1,
    max_nodes: int = 500_000,
) -> SearchOutcome:
    """First finite algebra (in the documented deterministic order) that models
    the theory's equations and refutes the goal, within the carrier bounds."""
    model = theory.model
    if not model.finite:
        raise AlgebraError(
            "counter-model search needs a finite underlying model; for infinite "
            "models only verification of a supplied algebra file is available")

    carriers: dict[Sort, tuple] = {}
    for name, sort in model.sorts.items():
        fresh = tuple(f"#{name.lower()}{i}" for i in range(max_extra_per_theory_sort))
        carriers[sort] = tuple(model.carriers[sort].elements) + fresh  # type: ignore[arg-type]
    for sort in theory.signature.sorts:
        if sort.kind == TERM:
            carriers[sort] = tuple(f"#{sort.name.lower()}{i}" for i in range(term_sort_size))

    shell = _Shell(theory, carriers, {})
    bounds = (f"extra={max_extra_per_theory_sort} per theory sort, "
              f"term-sort size={term_sort_size}")

    # the constraints do not depend on the tables, so each equation's
    # admissible valuations are found once, not on every search node; the
    # goal's plan is the last
    plans = [(ce, list(_admissible(shell, ce))) for ce in (*theory.equations, goal)]

    nodes = 0
    exhausted_budget = False

    def solve(i: int, j: int) -> Optional[dict]:
        """A refuting valuation if every equation holds, else None, checking
        from plan i's valuation j on: a check passed under fewer entries still
        passes, as evaluation reads only entries that exist."""
        nonlocal nodes, exhausted_budget
        nodes += 1
        if nodes > max_nodes:
            exhausted_budget = True
            return None
        try:
            for i in range(i, len(plans)):
                ce, valuations = plans[i]
                for j in range(j, len(valuations)):
                    rho = valuations[j]
                    if shell.eval(ce.lhs, rho) != shell.eval(ce.rhs, rho):
                        return rho if i == len(plans) - 1 else None
                j = 0
            return None
        except _Need as need:
            f, args = need.args
            table = shell.tables.setdefault(f.name, {})
            for value in carriers[f.result_sort]:
                table[args] = value
                rho = solve(i, j)
                if rho is not None:
                    return rho
                del table[args]
            return None

    rho = solve(0, 0)
    if rho is None:
        return SearchOutcome(None, None, nodes, exhausted_budget, bounds)
    algebra = FiniteCEAlgebra(theory, carriers, shell.tables)
    _fill_first(algebra, [*theory.signature.term_symbols(), *model.symbols.values()])
    algebra.validate()
    return SearchOutcome(algebra, rho, nodes, False, bounds)


# -- congruences and quotients -----------------------------------------------

@dataclass
class FiniteCongruence:
    blocks: dict[Sort, tuple[frozenset, ...]]

    def rep_map(self, carriers: dict[Sort, tuple]) -> dict[Sort, dict]:
        out: dict[Sort, dict] = {}
        for sort, parts in self.blocks.items():
            order = {e: i for i, e in enumerate(carriers[sort])}
            reps = {}
            for block in parts:
                rep = min(block, key=lambda e: order[e])
                for e in block:
                    reps[e] = rep
            out[sort] = reps
        return out


class NotACongruence(AlgebraError):
    pass


def quotient(alg: FiniteCEAlgebra, cong: FiniteCongruence) -> FiniteCEAlgebra:
    """Quotient algebra; requires identity on the underlying part and table
    compatibility, and reports the violating tuple otherwise."""
    for sort, parts in cong.blocks.items():
        seen: set = set()
        for block in parts:
            if not block:
                raise NotACongruence(f"empty block for sort {sort.name}")
            under = [e for e in block if alg._underlying_elem(sort, e)]
            if len(under) > 1:
                name = UnderlyingModel.value_name
                raise NotACongruence(
                    f"block {_elements_text(sorted(block, key=name))} merges underlying "
                    f"elements {_elements_text(sorted(under, key=name))}")
            seen.update(block)
        if seen != set(alg.carriers[sort]):
            raise NotACongruence(f"blocks do not partition the carrier of {sort.name}")
    reps = cong.rep_map(alg.carriers)

    def rep(sort: Sort, e: object) -> object:
        return reps[sort][e]

    # a tuple over the new carriers is its own first related tuple, as each
    # representative is the first of its block: so by_rep's keys are those
    # tuples, in product order, each with its result
    new_tables: dict[str, dict[tuple, object]] = {}
    for f in [*alg.theory.signature.term_symbols(), *alg.theory.model.symbols.values()]:
        by_rep: dict[tuple, tuple] = {}
        for combo in itertools.product(*(alg.carriers[s] for s in f.arg_sorts)):
            combo_rep = tuple(rep(s, e) for s, e in zip(f.arg_sorts, combo))
            r = rep(f.result_sort, alg.apply(f, combo))
            prev = by_rep.get(combo_rep)
            if prev is None:
                by_rep[combo_rep] = (r, combo)
            elif prev[0] != r:
                raise NotACongruence(
                    f"{f.name} is not compatible: {_elements_text(prev[1])} and "
                    f"{_elements_text(combo)} are related but give unrelated results")
        table = {combo: r for combo, (r, _) in by_rep.items() if not alg.model_decides(f, combo)}
        if table:
            new_tables[f.name] = table

    new_carriers = {
        sort: tuple(dict.fromkeys(rep(sort, e) for e in elems))
        for sort, elems in alg.carriers.items()
    }
    out = FiniteCEAlgebra(alg.theory, new_carriers, new_tables)
    out.validate()
    return out


def identity_congruence(alg: FiniteCEAlgebra) -> FiniteCongruence:
    return FiniteCongruence({
        sort: tuple(frozenset({e}) for e in elems)
        for sort, elems in alg.carriers.items()
    })


# -- value-consistency ---------------------------------------------------------

@dataclass
class ConsistencyReport:
    consistent: bool
    depth: int
    left: Optional[Term] = None
    right: Optional[Term] = None
    trace: Optional[ConversionTrace] = None


def check_value_consistency(theory: CETheory, depth: int = 8,
                            width: int = 4000,
                            limits: SearchLimits | None = None) -> ConsistencyReport:
    """Bounded search for a conversion between two distinct values.

    A witness proves the theory inconsistent; a clean sweep up to the depth is
    evidence only.
    """
    limits = limits or SearchLimits()
    model = theory.model
    pool = default_value_pool(theory)
    probes: dict[str, Term] = {}
    for eq in theory.equations:
        for side in (eq.lhs, eq.rhs):
            for sub in subterms_of(side):
                if model.is_value_term(sub):
                    probes.setdefault(term_key(sub), sub)
    for sort, elems in pool.items():
        for e in elems:
            t = model.value_term(sort, e)
            probes.setdefault(term_key(t), t)
    # every probe draws from the pool alone, and from one memo
    expand = search_expander(theory, limits, (),
                             [t for eq in theory.equations for t in (eq.lhs, eq.rhs)],
                             None, pool)
    for key in sorted(probes):
        start = probes[key]
        for nf, trace in breadth_first(start, (), expand, depth, width):
            if nf != start and model.is_value_term(nf):
                return ConsistencyReport(False, depth, start, nf, trace)
    return ConsistencyReport(True, depth)


# -- algebra files ---------------------------------------------------------------

def _parse_element(sort: Sort, atom: Atom) -> object:
    """An element of sort: a fresh atom (leading '#'), or for Bool true or
    false, or for Int an integer."""
    text = atom.text
    if text.startswith("#"):
        return text
    if sort == BOOL and text in ("true", "false"):
        return text == "true"
    if sort == INT and reads_as_value(text) and text not in ("true", "false"):
        return int(text)
    raise ParseError(f"element {text} is not in the carrier of {sort.name}",
                     atom.line, atom.col)


def parse_algebra(theory: CETheory, text: str) -> FiniteCEAlgebra:
    nodes = parse_sexprs(text)
    if len(nodes) != 1 or head(nodes[0]) != "algebra":
        raise ParseError("expected a single (algebra ...) form", 1, 1)
    root = expect_list(nodes[0], "(algebra ...)")
    model = theory.model
    carriers: dict[Sort, tuple] = {}
    table_nodes = []
    for node in root.items[1:]:
        h = head(node)
        node = expect_list(node, "a carrier or table")
        if h == "carrier":
            if len(node.items) < 3:
                raise ParseError("carrier needs a sort and elements", node.line, node.col)
            sname = expect_atom(node.items[1], "a sort name").text
            sort = theory.signature.sort(sname)
            if sort is None:
                raise ParseError(f"unknown sort {sname}", node.line, node.col)
            elems = tuple(_parse_element(sort, expect_atom(e, "an element"))
                          for e in node.items[2:])
            if len({(type(e), e) for e in elems}) != len(elems):
                raise ParseError("duplicate carrier element", node.line, node.col)
            carriers[sort] = elems
        elif h == "table":
            table_nodes.append(node)
        else:
            raise ParseError("expected (carrier ...) or (table ...)", node.line, node.col)

    alg = FiniteCEAlgebra(theory, carriers, {})
    for node in table_nodes:
        fname = expect_atom(node.items[1], "a symbol name").text
        sym = theory.signature.symbol(fname) or model.symbols.get(fname)
        if sym is None:
            raise ParseError(f"unknown symbol {fname}", node.line, node.col)
        table = alg.tables.setdefault(sym.name, {})
        for entry in node.items[2:]:
            entry = expect_list(entry, "((args...) result)")
            if len(entry.items) != 2:
                raise ParseError("expected ((args...) result)", entry.line, entry.col)
            args_node = expect_list(entry.items[0], "argument elements")
            if len(args_node.items) != sym.arity:
                raise ParseError(f"{sym.name} takes {sym.arity} arguments",
                                 entry.line, entry.col)
            args = tuple(
                _parse_element(s, expect_atom(a, "an element"))
                for s, a in zip(sym.arg_sorts, args_node.items))
            result = _parse_element(sym.result_sort,
                                    expect_atom(entry.items[1], "an element"))
            for s, e in zip(sym.arg_sorts + (sym.result_sort,), args + (result,)):
                if not has_element(carriers.get(s, ()), e):
                    raise ParseError(f"element {UnderlyingModel.value_name(e)} is not in "
                                     f"the carrier of {s.name}",
                                     entry.line, entry.col)
            if alg.model_decides(sym, args):
                expected = model.interp[sym.name](*args)
                if expected != result:
                    raise ParseError(
                        f"entry for {sym.name} overrides the underlying model",
                        entry.line, entry.col)
                continue
            table[args] = result

    alg.fill_fresh_entries()  # the entries the file omits
    alg.validate()
    return alg


def algebra_text(alg: FiniteCEAlgebra) -> str:
    text = UnderlyingModel.value_name
    lines = ["(algebra"]
    for sort, elems in alg.carriers.items():
        lines.append(f"  (carrier {sort.name} " +
                     " ".join(text(e) for e in elems) + ")")
    for name in sorted(alg.tables):
        entries = alg.tables[name]
        if not entries:
            continue
        parts = " ".join(
            f"(({' '.join(text(a) for a in args)}) {text(r)})"
            for args, r in sorted(entries.items(), key=lambda kv: repr(kv[0])))
        lines.append(f"  (table {name} {parts})")
    lines.append(")")
    return "\n".join(lines) + "\n"
