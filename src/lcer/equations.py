"""Constrained equations, equation systems, and rewriting with them.

A rule step applies an equation at a position, in either direction, under a
substitution that sends every declared logical variable to a value and makes
the instantiated constraint evaluate to true.  Each side's constraint is
compiled once (`models.Guard`); a variable that an equality conjunct fixes is
computed rather than searched, which gives the same draws.  Conversion search
works modulo calculation: every term is kept calc-normalized, and reverse
calculation steps are recovered only in traces (never enumerated during search).

Every search takes its rule steps through one loop, `position_candidates`,
and its edges through `macro_edges`: conversion search, `reachable_terms`
and the consistency check in `algebra` set up an `Expander`, whose draws are
`rule_step_candidates`', and symbolic rewriting in `validity` plugs its own
draws into the same loop.  `breadth_first` is the one loop over reachable
sets.  An edge leaves a calc-normal term only: after a rule step at position
p, only the new subterm and the ancestors of p can hold a calculation redex,
so only they are normalized.  Rule-step candidates are lazy, and a
candidate whose result is calc-normal has a size known before anything is
built, so the size cap drops it before it costs a term.  An edge's trace
steps are built only when read (`RuleCandidate.steps`): a search builds them
only along the path it returns.

The rule steps at a position depend only on the redex there and on the
search's draw context: its value pool, solve box and cap per redex, and its
term pool on the sorts that term variables of equation sides draw from.
A search sets up its `Expander` once, and the expander holds the draw
context, whether the term pool is calc-normal, and a memo from redex to its
`Draw`s.  Most positions a search expands hold a redex it has met before:
a redex is matched and instantiated once per memo, and every candidate
where it recurs shares its draws' instantiated side, that side's calc
normal form and its size, and what `macro_edges` caches of each draw at
its redex.  Per edge only the rebuilt spine is left.  A
search owns one memo, made when it is set up and dropped when it ends,
unless its caller hands it `draw_memos`, a dict from draw context to memo
that the caller owns: then every search with the same draw context shares
one memo (`validity.check_ce_validity` passes one to all the searches of
its samples and drops it on return).

Draws die with their search, but its outcome does not: the theory keeps
conversion_search's trace, None, or what stopped the search short of its
bound, in its memo of outcomes (`CETheory.outcomes`), keyed by everything
the search reads but draw_memos, and a repeated search returns it without
searching.

When the theory's rules are orthogonal and terminating (`CETheory._rules`,
analysed on the first search), two terms convert exactly when their normal
forms are equal.  A search then first normalizes both endpoints, innermost,
reading each redex's rule step from its expander's memo of draws
(`Expander.normal_form`), and returns None before any expansion when the
normal forms differ: the search itself would find no trace either.

Conversion search is bidirectional best-first with one frontier, a heap of
(steps + size, side, steps, term_key, node): terms are expanded in the order
of steps + term size, then the left side before the right, then steps, then
term_key.  An expansion's edges are pushed as `expand` yields them, unsorted;
a term reached again at fewer steps is pushed again, and its older entry,
which sorts after the newer one, is skipped as done.

Edges are deferred: `macro_edges` gives each target as a splice of its
parent, and the search keys `dist` and the heap by its term_key, spliced
from the parent's, and builds it only when it is expanded.  term_key is
injective, so a key names one term: a side has one node per key, and a key
found on the other side is a meet.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .models import Guard, UnderlyingModel, sort_domain
from .models import enumerate_satisfying  # noqa: F401  (the benchmark's tracer rebinds it here)
from .oracle import check_validity
from .terms import (
    THEORY,
    App,
    Position,
    Signature,
    Sort,
    Term,
    Variable,
    apply_subst,
    instantiate,
    match,
    positions_of,
    replace_at,
    sort_of,
    subterm_at,
    subterms_of,
    term_key,
    trusted_app,
    unify,
    vars_of,
)


class CEError(Exception):
    pass


@dataclass(frozen=True)
class ConstrainedEquation:
    """An equation s = t guarded by a constraint, with its logical variables:
    the constraint is a Bool theory term over them."""

    logical_vars: frozenset[Variable]
    lhs: Term
    rhs: Term
    constraint: Term

    def __post_init__(self) -> None:
        if sort_of(self.lhs) != sort_of(self.rhs):
            raise CEError(
                f"sides have different sorts: {sort_of(self.lhs).name} vs "
                f"{sort_of(self.rhs).name}")
        for x in self.logical_vars:
            if x.sort.kind != THEORY:
                raise CEError(f"logical variable {x.name} is not theory-sorted")
        if sort_of(self.constraint).name != "Bool":
            raise CEError("constraint must have sort Bool")
        extra, foreign, todo = set(), set(), [self.constraint]
        while todo:
            u = todo.pop()
            if isinstance(u, Variable):
                if u not in self.logical_vars:
                    extra.add(u)
            else:
                if u.fun.kind != THEORY:
                    foreign.add(u.fun.name)
                todo.extend(u.args)
        if extra:
            names = ", ".join(sorted(v.name for v in extra))
            raise CEError(f"constraint mentions variables outside the logical set: {names}")
        if foreign:
            raise CEError(f"constraint mentions term symbols: {', '.join(sorted(foreign))}")

    @property
    def trivial_constraint(self) -> bool:
        """The constraint is literally true."""
        phi = self.constraint
        return isinstance(phi, App) and phi.fun.is_value and phi.fun.value is True

    @property
    def closed(self) -> bool:
        """No logical variables and the constraint literally true: then
        validity is plain convertibility of the sides."""
        return not self.logical_vars and self.trivial_constraint

    def subst(self, sigma) -> "ConstrainedEquation":
        return ConstrainedEquation(
            self.logical_vars,
            apply_subst(sigma, self.lhs),
            apply_subst(sigma, self.rhs),
            apply_subst(sigma, self.constraint),
        )

    def __repr__(self) -> str:
        xs = ",".join(sorted(v.name for v in self.logical_vars))
        return f"<{xs}> {self.lhs!r} ~ {self.rhs!r} [{self.constraint!r}]"


class _Side(NamedTuple):
    """What rule steps with equation eq_index in one direction share: src is
    matched, dst is instantiated."""

    eq_index: int
    direction: str  # "lr" or "rl"
    src: Term
    dst: Term
    checked_logical: tuple[Variable, ...]  # logical in src, by (name, sort): must match values
    matched: tuple[Variable, ...]  # the variables of src, by name
    logical_extras: tuple[Variable, ...]  # logical variables not in src, by (name, sort)
    term_extras: tuple[Variable, ...]  # other variables of dst not in src, by name
    variables: tuple[Variable, ...]  # matched + logical_extras + term_extras
    occurrences: tuple[tuple[int, int], ...]  # variables of dst (index in variables), counts
    plain: bool  # dst is no value and has no non-value theory operator
    guard: Optional[Guard]  # over checked_logical + logical_extras; None: nothing to check

    @classmethod
    def of(cls, eq_index: int, direction: str, eq: ConstrainedEquation,
           model: UnderlyingModel) -> "_Side":
        src, dst = (eq.lhs, eq.rhs) if direction == "lr" else (eq.rhs, eq.lhs)
        in_src = vars_of(src)
        counts: dict[Variable, int] = {}
        plain = not (isinstance(dst, App) and dst.fun.is_value)
        for u in subterms_of(dst):
            if isinstance(u, Variable):
                counts[u] = counts.get(u, 0) + 1
            elif u.fun.kind == THEORY and not u.fun.is_value:
                plain = False
        matched = tuple(sorted(in_src, key=lambda v: v.name))
        checked, logical_extras = (tuple(sorted(xs, key=lambda v: (v.name, v.sort.name)))
                                   for xs in (eq.logical_vars & in_src, eq.logical_vars - in_src))
        term_extras = tuple(sorted(counts.keys() - in_src - eq.logical_vars,
                                   key=lambda v: v.name))
        variables = matched + logical_extras + term_extras
        return cls(
            eq_index, direction, src, dst, checked,
            matched, logical_extras, term_extras, variables,
            tuple((variables.index(x), n) for x, n in counts.items()),
            plain,
            None if eq.trivial_constraint and not logical_extras
            else Guard(model, [*checked, *logical_extras], eq.constraint),
        )


@dataclass
class CETheory:
    """A signature, its model and its equations, with one memo of outcomes.

    A bounded search's outcome depends only on the theory and the search's
    inputs, so `outcomes` keeps it for as long as the theory lives:
    conversion_search's trace, None, or the name of what stopped it where
    its bound is not the reason (see search_stop), keyed by everything the
    search reads (its endpoints, limits and value pool), and None for a
    validity.proof_search that ended without a verdict, keyed by goal and
    budgets.  It keeps only these immutable outcomes, never search state.
    """

    signature: Signature
    model: UnderlyingModel
    equations: tuple[ConstrainedEquation, ...]

    def __post_init__(self) -> None:
        self.outcomes: dict[tuple, Optional[ConversionTrace] | str] = {}
        # by sort, the values in the equations: default_value_pool's share of the theory
        self.literals = _literals(t for eq in self.equations for t in (eq.lhs, eq.rhs, eq.constraint))
        # by equation index, then direction
        self._sides = tuple(_Side.of(i, direction, eq, self.model)
                            for i, eq in enumerate(self.equations) for direction in ("lr", "rl"))
        # (root symbol name or None for a variable, sort) -> sides_for's answer
        self._matching: dict[tuple[Optional[str], Sort], tuple[_Side, ...]] = {}
        # the sorts that rule steps draw from a term pool, in side order
        self.term_extra_sorts = tuple(dict.fromkeys(
            x.sort for side in self._sides for x in side.term_extras))

    def sides_for(self, t: Term) -> tuple[_Side, ...]:
        """The sides whose source can match t: of t's sort, and a variable or
        rooted at t's symbol, by equation index and then direction; computed
        once per root symbol and sort."""
        key = (t.fun.name, t.fun.result_sort) if isinstance(t, App) else (None, t.sort)
        found = self._matching.get(key)
        if found is None:
            name, sort = key
            found = self._matching[key] = tuple(
                s for s in self._sides if sort_of(s.src) == sort
                and (isinstance(s.src, Variable) or s.src.fun.name == name))
        return found

    @cached_property
    def _rules(self) -> Optional[tuple[_Side, ...]]:
        """The left-to-right sides if they are the rules of an orthogonal,
        terminating system, else None; analysed on the first search.

        A source is rooted in a term symbol, linear, holds no theory symbol but
        values, and binds every variable of its equation.  A destination holds
        no term symbol and no non-logical variable twice, so a rule step
        removes a term symbol and a calc step shrinks the term.  Two sources
        unify only at the root, and the oracle proves that their guards under
        the unifier cannot both hold.  Rule and calc steps are then confluent
        and terminating: two terms convert exactly when their normal forms
        are equal.
        """
        rules = tuple(side for side in self._sides if side.direction == "lr")
        for side in rules:
            logical = self.equations[side.eq_index].logical_vars
            src = list(subterms_of(side.src))
            if (isinstance(side.src, Variable) or side.src.fun.kind == THEORY
                    or side.logical_extras or side.term_extras
                    or sum(isinstance(u, Variable) for u in src) != len(side.matched)
                    or any(isinstance(u, App) and u.fun.kind == THEORY and not u.fun.is_value
                           for u in src)
                    or any(isinstance(u, App) and u.fun.kind != THEORY
                           for u in subterms_of(side.dst))
                    or any(n > 1 and side.variables[i] not in logical
                           for i, n in side.occurrences)):
                return None
        symbols = self.model.symbols
        for a in rules:
            eq_a = self.equations[a.eq_index]
            for b in rules:
                eq_b = self.equations[b.eq_index]
                apart = {x: Variable(x.name + " '", x.sort) for x in b.matched}
                b_src, b_phi = (apply_subst(apart, u) for u in (b.src, eq_b.constraint))
                logical = eq_a.logical_vars | {apart[x] for x in eq_b.logical_vars}
                for p, u in positions_of(a.src):
                    if isinstance(u, Variable) or not p and b.eq_index <= a.eq_index:
                        continue
                    sigma = unify(u, b_src)
                    # a logical variable holds a value, never a term-rooted term
                    if sigma is None or any(
                            isinstance(sigma.get(x), App) and sigma[x].fun.kind != THEORY
                            for x in logical):
                        continue
                    if p:
                        return None
                    both = App(symbols["and"], (apply_subst(sigma, eq_a.constraint),
                                                apply_subst(sigma, b_phi)))
                    if not check_validity(self.model, App(symbols["not"], (both,))).is_valid:
                        return None
        return rules


# -- traces ------------------------------------------------------------------

@dataclass(frozen=True)
class TraceStep:
    position: Position
    kind: str  # "calc" or "rule"
    direction: str  # "lr" or "rl"
    eq_index: Optional[int]
    subst: tuple[tuple[Variable, Term], ...]  # sorted by variable name
    replaced: Term
    result: Term

    def reversed_(self) -> "TraceStep":
        flip = "rl" if self.direction == "lr" else "lr"
        return TraceStep(self.position, self.kind, flip, self.eq_index,
                         self.subst, self.result, self.replaced)


ConversionTrace = tuple[TraceStep, ...]


class IllegalStep(Exception):
    def __init__(self, index: int, reason: str) -> None:
        super().__init__(f"step {index}: {reason}")
        self.index = index
        self.reason = reason


def replay_trace(theory: CETheory, start: Term, trace: ConversionTrace) -> Term:
    """Re-validate and apply every step; returns the end term."""
    model = theory.model
    t = start
    for i, st in enumerate(trace):
        try:
            before = subterm_at(t, st.position)
        except Exception:
            raise IllegalStep(i, "position not valid")
        if before != st.replaced:
            raise IllegalStep(i, f"expected {st.replaced!r} at position, found {before!r}")
        if st.kind == "calc":
            redex, value = (before, st.result) if st.direction == "lr" else (st.result, before)
            if not model.is_calc_redex(redex):
                raise IllegalStep(i, "not a calculation redex")
            if model.interpret_term(redex) != value:
                raise IllegalStep(i, "calculation result does not match the model")
        elif st.kind == "rule":
            if st.eq_index is None or not 0 <= st.eq_index < len(theory.equations):
                raise IllegalStep(i, "unknown equation index")
            eq = theory.equations[st.eq_index]
            sigma = dict(st.subst)
            for x in eq.logical_vars:
                if x not in sigma or not model.is_value_term(sigma[x]):
                    raise IllegalStep(i, f"substitution is not value-instantiated on {x.name}")
            src, dst = (eq.lhs, eq.rhs) if st.direction == "lr" else (eq.rhs, eq.lhs)
            if apply_subst(sigma, src) != before or apply_subst(sigma, dst) != st.result:
                raise IllegalStep(i, "sides do not match the equation instance")
            if not model.eval_constraint(apply_subst(sigma, eq.constraint)):
                raise IllegalStep(i, "constraint evaluates to false")
        else:
            raise IllegalStep(i, f"unknown step kind {st.kind}")
        t = replace_at(t, st.position, st.result)
    return t


def calc_trace(model: UnderlyingModel, t: Term) -> tuple[Term, list[TraceStep]]:
    nf, raw = model.calc_normalize_steps(t)
    steps = [TraceStep(pos, "calc", "lr", None, (), redex, value)
             for pos, redex, value in raw]
    return nf, steps


# -- value and term candidate pools -------------------------------------------

def _literals(terms: Iterable[Term]) -> dict[Sort, set]:
    """By sort, the values that occur in terms."""
    lits: dict[Sort, set] = {}
    for t in terms:
        for u in subterms_of(t):
            if isinstance(u, App) and u.fun.is_value:
                lits.setdefault(u.fun.result_sort, set()).add(u.fun.value)
    return lits


class _CarrierPool(dict):
    """A value pool known to lie in its sorts' carriers: no draw checks it."""


def default_value_pool(theory: CETheory, goal_terms: Iterable[Term] = ()) -> dict[Sort, tuple]:
    """Finite carriers verbatim; for the integers, [-8, 8] plus all literals
    occurring in the theory (CETheory.literals) and the goal."""
    model = theory.model
    lits = _literals(goal_terms)
    pool = _CarrierPool()
    for name, sort in model.sorts.items():
        car = model.carriers[sort]
        if car.finite:
            pool[sort] = tuple(car.elements)  # type: ignore[arg-type]
        else:
            vals = set(range(-8, 9)).union(theory.literals.get(sort, ()), lits.get(sort, ()))
            pool[sort] = tuple(sorted(vals, key=lambda v: (abs(v), v < 0)))
    return pool


def term_candidate_pool(goal_terms: Iterable[Term], seeds: Iterable[Term] = ()) -> dict[Sort, tuple[Term, ...]]:
    """Term-sorted instantiation candidates: subterms of the goals plus seeds."""
    seen: dict[Sort, dict[str, Term]] = {}
    for t in itertools.chain(goal_terms, seeds):
        for u in subterms_of(t):
            s = sort_of(u)
            seen.setdefault(s, {}).setdefault(term_key(u), u)
    return {s: tuple(sorted(d.values(), key=lambda u: (u.size, term_key(u))))
            for s, d in seen.items()}


class Draw:
    """One rule step at a redex, wherever the redex sits: `side` applied under
    the substitution that binds side.variables to `values` in order (the
    match of the source extended by the drawn instantiation).

    The rule steps of each distinct redex are drawn once per memo (of
    `position_candidates`) and every candidate at every position, expansion
    and search where the redex recurs shares them, so the instantiated
    destination side (`replacement`) and its calculation normal form
    (`normal`) are each built at most once, and only when first read; `size`
    is the size of `replacement`, known without building it.  A memo keeps
    every draw made into it until its owner drops it, so a draw holds its
    bindings as a tuple, not a dict.

    `plain` says whether the side is plain and `replacement` no value (a
    bare-variable destination is the value it is bound to), so that an edge
    of the draw needs no calculation when its bindings are calc-normal; it
    reads the bindings without building `replacement`.  `back`, whether
    `replacement` is the redex itself, is set by macro_edges at the draw's
    first candidate within a size cap, and is None until then.
    """

    __slots__ = ("side", "values", "size", "_replacement", "_normal", "plain", "back")

    def __init__(self, side: _Side, values: tuple[Term, ...]) -> None:
        self.side = side
        self.values = values
        size = side.dst.size
        for i, n in side.occurrences:
            size += n * (values[i].size - 1)
        self.size = size
        bound = values[side.occurrences[0][0]] if isinstance(side.dst, Variable) else None
        self.plain = side.plain and not (isinstance(bound, App) and bound.fun.is_value)
        self._replacement: Optional[Term] = None
        self._normal: Optional[tuple[Term, list[tuple[Position, Term, Term]]]] = None
        self.back: Optional[bool] = None

    @property
    def sigma(self) -> dict[Variable, Term]:
        return dict(zip(self.side.variables, self.values))

    @property
    def replacement(self) -> Term:
        if self._replacement is None:
            self._replacement = instantiate(self.sigma, self.side.dst)
        return self._replacement

    def normal(self, model: UnderlyingModel) -> tuple[Term, list[tuple[Position, Term, Term]]]:
        """model.calc_normalize_steps(replacement); read-only for callers."""
        if self._normal is None:
            self._normal = model.calc_normalize_steps(self.replacement)
        return self._normal


class RuleCandidate:
    """One rule step on `term`: the step `draw` applied at position, where
    `redex` sits.

    A candidate is lazy: the result (`term` with the draw's replacement at
    position, not calc-normalized) and `subst` are built when they are read,
    so a candidate that is dropped costs no term.

    As a macro edge of `macro_edges`, it also keeps `calc`, the calculation
    steps after the rule step as (position, redex, value); `steps()` builds
    the edge's trace steps from both.
    """

    __slots__ = ("term", "position", "redex", "draw", "calc")

    def __init__(self, term: Term, position: Position, redex: Term, draw: Draw) -> None:
        self.term = term
        self.position = position
        self.redex = redex
        self.draw = draw
        self.calc: Sequence[tuple[Position, Term, Term]] = ()

    @property
    def eq_index(self) -> int:
        return self.draw.side.eq_index

    @property
    def direction(self) -> str:
        return self.draw.side.direction

    @property
    def subst(self) -> tuple[tuple[Variable, Term], ...]:
        """The non-trivial bindings, sorted by variable name."""
        return tuple(sorted(((x, u) for x, u in self.draw.sigma.items() if u != x),
                            key=lambda kv: kv[0].name))

    @property
    def result(self) -> Term:
        return replace_at(self.term, self.position, self.draw.replacement)

    def as_step(self) -> TraceStep:
        return TraceStep(self.position, "rule", self.direction, self.eq_index,
                         self.subst, self.redex, self.draw.replacement)

    def steps(self) -> tuple[TraceStep, ...]:
        """The rule step, then the calculation steps in `calc`."""
        return (self.as_step(), *(TraceStep(pos, "calc", "lr", None, (), redex, value)
                                  for pos, redex, value in self.calc))


def _logical_draws(model: UnderlyingModel, guard: Guard, extras: tuple[Variable, ...],
                   prefix: tuple, value_pool: dict[Sort, tuple], solve_box: Optional[int],
                   cap: int) -> list[tuple[Term, ...]]:
    """The values of extras under which guard holds after prefix: over the box
    (unless solve_box is None), then over value_pool, new ones only, up to cap."""
    if not extras:
        return [()] if guard.holds(prefix) else []

    def pool() -> Iterator[tuple]:
        domains = [value_pool.get(v.sort) for v in extras]
        if None not in domains:
            if not isinstance(value_pool, _CarrierPool):  # it may come from the command line
                for v, elems in zip(extras, domains):
                    for e in elems:
                        model.value_symbol(v.sort, e)
            yield from guard.points(prefix, domains)

    box = () if solve_box is None else \
        guard.points(prefix, [sort_domain(model, v.sort, solve_box) for v in extras])
    found: dict[tuple, None] = {}  # raw value tuples, in first-found order
    for combo in itertools.chain(box, pool()):
        if combo not in found:
            found[combo] = None
            if len(found) >= cap:
                break
    return [tuple(model.value_subst(extras, combo).values()) for combo in found]


def _draws_at(theory: CETheory, sub: Term, value_pool: dict[Sort, tuple],
              term_pool: dict[Sort, tuple[Term, ...]], solve_box: Optional[int],
              cap_per_redex: int) -> tuple[Draw, ...]:
    """The rule steps at the redex sub, by equation index and direction, then
    instantiation."""
    model = theory.model
    out: list[Draw] = []
    for side in theory.sides_for(sub):
        base = match(side.src, sub)
        if base is None:
            continue
        fixed = [base[x] for x in side.checked_logical]
        # logical variables bound by matching must already be values
        if not all(map(model.is_value_term, fixed)):
            continue
        logical_draws = [()] if side.guard is None else _logical_draws(
            model, side.guard, side.logical_extras, tuple(u.fun.value for u in fixed),
            value_pool, solve_box, cap_per_redex)
        # no draw where a term variable's sort has no pool term
        term_domains = [term_pool.get(x.sort, ()) for x in side.term_extras]
        matched = tuple([base[x] for x in side.matched])
        for logical in logical_draws:
            for term_combo in itertools.product(*term_domains):
                out.append(Draw(side, matched + logical + term_combo))
    return tuple(out)


def position_candidates(t: Term, draws: dict[Term, tuple[Draw, ...]],
                        draw: Callable[[Term], tuple[Draw, ...]]) -> list[RuleCandidate]:
    """The rule steps out of t, as lazy RuleCandidates ordered by position
    (pre-order), then by the order of each redex's draws.

    The rule steps at a position depend only on the redex there, given what
    the search draws with: `draws` maps each redex already seen to its rule
    steps, and draw(redex) makes them for a redex met for the first time.  A
    search passes one memo to every expansion, so each distinct redex is drawn
    once per search and its candidates share the draws.
    """
    out: list[RuleCandidate] = []
    for pos, sub in positions_of(t):  # pre-order: the positions in sorted order
        found = draws.get(sub)
        if found is None:
            found = draws[sub] = draw(sub)
        for d in found:
            out.append(RuleCandidate(t, pos, sub, d))
    return out


def rule_step_candidates(
    theory: CETheory,
    t: Term,
    value_pool: Optional[dict[Sort, tuple]] = None,
    term_pool: Optional[dict[Sort, tuple[Term, ...]]] = None,
    solve_box: int | None | str = "auto",
    cap_per_redex: int = 256,
    draws: Optional[dict[Term, tuple[Draw, ...]]] = None,
) -> list[RuleCandidate]:
    """All one-step rule successors of t (either direction), as lazy
    RuleCandidates ordered by position (pre-order), then equation index and
    direction, then instantiation.

    Unbound logical variables are instantiated from constraint solutions over
    the box and from the value pool; unbound term variables come from the term
    pool.  Passing an explicit value_pool (with the default "auto" box) keeps
    the draws to the pool alone.

    `draws` is the memo of position_candidates: a search passes one dict to
    every call it makes, with the same explicit pools, box and cap.  None
    draws with a memo of this call alone.
    """
    if solve_box == "auto":
        solve_box = None if value_pool is not None else 64
    if value_pool is None:
        value_pool = default_value_pool(theory, [t])
    if term_pool is None:
        term_pool = term_candidate_pool([t])
    return position_candidates(
        t, {} if draws is None else draws,
        lambda sub: _draws_at(theory, sub, value_pool, term_pool, solve_box, cap_per_redex))


# -- bidirectional conversion search ------------------------------------------

@dataclass
class SearchLimits:
    """A conversion search's bounds.  bound caps a trace's steps and
    max_term_growth the size of a term it passes through, over the larger
    endpoint's.  max_nodes caps the nodes the search pushes onto its
    frontier, the endpoints included, counted before each expansion, so
    that expansions with many edges cannot outgrow memory.  A search that
    max_nodes stops finds nothing, and search_stop says so."""

    bound: int = 8
    max_term_growth: int = 7
    max_nodes: int = 200_000
    solve_box: Optional[int] = 64
    cap_per_redex: int = 64


def _normalize_spine(model: UnderlyingModel, u: Term, cand: RuleCandidate
                     ) -> tuple[Position, Term, Term, list[tuple[Position, Term, Term]]]:
    """calc_normalize_steps of the calc-normal u with cand's replacement put
    at its position, as (q, sub, w, steps): u with its subterm sub at q swapped for w.

    Only the replacement and the ancestors of pos can hold a redex: the
    replacement is normalized first (once per draw), then each ancestor,
    bottom-up, is contracted while it has become a redex (one that has not
    is no value, so none above it is).  This is the innermost-leftmost
    sequence that calc_trace takes on the whole term.
    """
    pos = cand.position
    w, raw = cand.draw.normal(model)
    steps = [(pos + p, redex, value) for p, redex, value in raw]
    ancestors = [u]
    for i in pos[:-1]:
        ancestors.append(ancestors[-1].args[i - 1])  # type: ignore[union-attr]
    depth = len(pos)
    while depth and model.is_value_term(w):
        depth -= 1
        parent, i = ancestors[depth], pos[depth] - 1
        w = trusted_app(parent.fun, parent.args[:i] + (w,) + parent.args[i + 1:])
        if not model.is_calc_redex(w):
            break
        value = model.interpret_term(w)
        steps.append((pos[:depth], w, value))
        w = value
    return pos[:depth], ancestors[depth] if depth < len(pos) else cand.redex, w, steps


Splice = tuple[Term, Position, Term]  # (t, p, r): t with r put at p; (t, (), r) is r


def built(splice: Splice) -> Term:
    return replace_at(*splice) if splice[1] else splice[2]


Edge = tuple[Splice, int, int, RuleCandidate]  # see macro_edges


def macro_edges(
    model: UnderlyingModel,
    u: Term,
    cands: Iterable[RuleCandidate],
    size_cap: Optional[int],
    pool_normal: bool,
) -> Iterator[Edge]:
    """Macro edges out of u (one rule step, then calc normalization), as
    (splice, size, n, cand) in the order of cands, without those back to u
    and without any larger than size_cap (None: no cap).  The target is left
    unbuilt, as a splice of u; size is its size, n the number of trace steps
    of the edge, and cand.steps() builds them.

    u must be calc-normal, and so must every binding of a candidate that
    does not come from term variables; pool_normal says whether those do.
    When the instantiated side of a candidate is calc-normal and not a value
    (its draw is `plain` and, unless pool_normal, draws no term variables),
    so is the target: the draw's size decides the size cap before anything
    is built, and its `back` whether the edge returns to u (see Draw).
    pool_normal is read per call, never kept in a draw: expanders with
    different term pools may share one memo of draws.  Otherwise only the
    rewritten spine is normalized (see _normalize_spine).
    """
    u_size = u.size
    for cand in cands:
        draw = cand.draw
        side = draw.side
        if draw.plain and (pool_normal or not side.term_extras):
            size = u_size + draw.size - cand.redex.size
            if size_cap is not None and size > size_cap:
                continue  # dropped before anything is built
            back = draw.back
            if back is None:  # builds the replacement, which _replacement then holds
                back = draw.back = draw.replacement == cand.redex
            if not back:
                yield (u, cand.position, draw._replacement), size, 1, cand
            continue
        q, sub, w, cand.calc = _normalize_spine(model, u, cand)
        size = u_size - sub.size + w.size
        if (size_cap is None or size <= size_cap) and w is not sub and w != sub:
            yield (u, q, w), size, 1 + len(cand.calc), cand


def key_around(key: str, t: Term, q: Position) -> tuple[str, str]:
    """term_key(t), given as key, cut around the key of t's subterm at q."""
    off = 0
    for i in q:
        off += len(t.fun.name) + i + 1 + sum(map(len, map(term_key, t.args[:i - 1])))
        t = t.args[i - 1]  # type: ignore[union-attr]
    return key[:off], key[off + len(term_key(t)):]


DrawMemos = dict[tuple, dict[Term, tuple[Draw, ...]]]


class Expander:
    """One search's set-up, made once: its draw context and its size cap.
    Calling it on a calc-normal u gives the macro edges (see macro_edges) of
    u within size_cap, in candidate order, through one rule_step_candidates.

    The draw context is everything _draws_at reads but the redex: the value
    pool (value_pool, or else default_value_pool(theory, goal_terms) widened
    by constraint solutions over limits.solve_box: an explicit value pool
    draws from the pool alone), the term pool (term_candidate_pool(
    pool_terms)) and limits.cap_per_redex.  pool_normal says whether every
    term of the term pool is calc-normal, which macro_edges needs to know.
    Every draw goes into one memo by redex, `draws`.  With draw_memos None
    the memo is the expander's own; otherwise it is draw_memos' memo for
    this draw context, shared with every other search given the same dict
    and context.
    """

    __slots__ = ("theory", "value_pool", "solve_box", "term_pool", "pool_normal", "cap",
                 "draws", "size_cap")

    def __init__(self, theory: CETheory, limits: SearchLimits, goal_terms: Iterable[Term],
                 pool_terms: Iterable[Term], size_cap: Optional[int],
                 value_pool: Optional[dict[Sort, tuple]] = None,
                 draw_memos: Optional[DrawMemos] = None) -> None:
        self.theory, self.size_cap, self.cap = theory, size_cap, limits.cap_per_redex
        if value_pool is None:
            self.value_pool = default_value_pool(theory, goal_terms)
            self.solve_box = limits.solve_box
        else:
            self.value_pool, self.solve_box = value_pool, None
            # checked once here; a pool that fails is left to fail where a draw reads it
            if all(theory.model.element_in_carrier(s, e) for s, es in value_pool.items() for e in es):
                self.value_pool = _CarrierPool(value_pool)
        self.term_pool = pool = term_candidate_pool(pool_terms)
        self.pool_normal = not any(theory.model.is_calc_redex(u) for terms in pool.values()
                                   for t in terms for u in subterms_of(t))
        self.draws: dict[Term, tuple[Draw, ...]] = {} if draw_memos is None else \
            draw_memos.setdefault((self.solve_box, self.cap, tuple(self.value_pool.items()),
                                   tuple(pool.get(s, ()) for s in theory.term_extra_sorts)), {})

    def __call__(self, u: Term) -> Iterator[Edge]:
        cands = rule_step_candidates(self.theory, u, self.value_pool, self.term_pool,
                                     self.solve_box, self.cap, draws=self.draws)
        return macro_edges(self.theory.model, u, cands, self.size_cap, self.pool_normal)

    def normal_form(self, u: Term) -> Term:
        """The normal form of the calc-normal u under rule and calc steps,
        innermost, on a theory whose rules are orthogonal and terminating
        (CETheory._rules): a term-rooted redex takes its first left-to-right
        draw, if any, from the memo."""
        if isinstance(u, Variable):
            return u
        model = self.theory.model
        args = tuple(map(self.normal_form, u.args))
        if args != u.args:
            u = trusted_app(u.fun, args)
        if u.fun.kind == THEORY:
            return model.interpret_term(u) if model.is_calc_redex(u) else u
        found = self.draws.get(u)
        if found is None:
            found = self.draws[u] = _draws_at(self.theory, u, self.value_pool, self.term_pool,
                                              self.solve_box, self.cap)
        d = next((d for d in found if d.side.direction == "lr"), None)
        # the destination holds no term symbol: its variables hold normal forms
        return u if d is None else d.normal(model)[0]


search_expander = Expander  # the name every search sets up through, and tests wrap


def conversion_search(
    theory: CETheory,
    s: Term,
    t: Term,
    limits: SearchLimits | None = None,
    value_pool: Optional[dict[Sort, tuple]] = None,
    draw_memos: Optional[DrawMemos] = None,
) -> Optional[ConversionTrace]:
    """Search for a conversion trace of length <= limits.bound, or None.

    Bidirectional best-first search over calc-normal forms from both
    endpoints, with one frontier.  Terms are expanded in the order of
    (steps + term size, left side before right, steps, term_key); an
    expansion's edges are pushed as expand yields them, unsorted.  The
    returned trace is the best meet, by (steps, size, term_key), found by
    the first expansion that meets within the bound, which need not be the
    shortest trace.  On a theory whose rules are orthogonal and terminating
    (CETheory._rules), endpoints whose normal forms differ return None
    before any expansion, as the search would.  A search that
    limits.max_nodes stops returns None too; search_stop tells these cases
    apart.

    The outcome is kept in theory.outcomes, with the name of what stopped
    the search where that was not its bound, and a later call with the same
    arguments, draw_memos aside, returns it without searching.  draw_memos,
    if given, is the caller's dict of memos of draws by draw context (see
    Expander); None draws with a memo of this search.  Neither the
    trace nor the verdict depends on it.
    """
    if sort_of(s) != sort_of(t):
        raise CEError("conversion endpoints must have the same sort")
    limits = limits or SearchLimits()
    key = _outcome_key(s, t, limits, value_pool)
    outcome = theory.outcomes.get(key, _UNSEEN)
    if outcome is _UNSEEN:
        outcome = theory.outcomes[key] = _search(theory, s, t, limits, value_pool, draw_memos)
    return None if isinstance(outcome, str) else outcome


_UNSEEN = object()  # no outcome kept for the key


def _outcome_key(s: Term, t: Term, limits: SearchLimits,
                 value_pool: Optional[dict[Sort, tuple]]) -> tuple:
    # limits' field values, read directly: dataclasses.astuple would copy them
    return (s, t, tuple(vars(limits).values()),
            None if value_pool is None else tuple((k, tuple(v)) for k, v in value_pool.items()))


def search_stop(theory: CETheory, s: Term, t: Term, limits: SearchLimits | None = None,
                value_pool: Optional[dict[Sort, tuple]] = None) -> Optional[str]:
    """Why conversion_search with these arguments, run before, found no
    trace, where its bound is not the reason: "max_nodes" when that budget
    of limits ran out, and "normal-forms" when the theory is orthogonal and
    terminating and the endpoints' normal forms differ, so that no trace
    exists at any bound.  None otherwise, also for a search not run yet.
    It reads the search's entry in the theory's memo of outcomes, without
    searching."""
    stop = theory.outcomes.get(_outcome_key(s, t, limits or SearchLimits(), value_pool))
    return stop if isinstance(stop, str) else None


def _search(theory: CETheory, s: Term, t: Term, limits: SearchLimits,
            value_pool: Optional[dict[Sort, tuple]], draw_memos: Optional[DrawMemos]
            ) -> Optional[ConversionTrace] | str:
    """conversion_search's search, run on a miss of the theory's memo: the
    trace, None, or what stopped it (see search_stop)."""
    model = theory.model
    s0, prefix = calc_trace(model, s)
    t0, post = calc_trace(model, t)
    suffix = [st.reversed_() for st in reversed(post)]
    fixed = len(prefix) + len(suffix)
    if fixed > limits.bound:
        return None
    if s0 == t0:
        return tuple(prefix + suffix)
    budget = limits.bound - fixed
    # both sides draw with the same pools, from one memo
    expand = search_expander(theory, limits, [s, t], [s0, t0],
                             max(s0.size, t0.size) + limits.max_term_growth, value_pool,
                             draw_memos)
    # every edge of orthogonal, terminating rules is a rule step, forward or
    # backward, and calc steps: a trace joins only terms with one normal form
    if theory._rules is not None and expand.normal_form(s0) != expand.normal_form(t0):
        return "normal-forms"

    # dist[side][term_key] = the node of that term, side 0 from s0 and 1 from t0
    roots = (_Node(0, None, None, (s0, (), s0)), _Node(0, None, None, (t0, (), t0)))
    dist: list[dict[str, _Node]] = [{term_key(s0): roots[0]}, {term_key(t0): roots[1]}]
    frontier = [(s0.size, 0, 0, term_key(s0), roots[0]), (t0.size, 1, 0, term_key(t0), roots[1])]
    heapq.heapify(frontier)
    best: Optional[tuple[int, int, str, _Node, _Node]] = None
    popped = 0
    while best is None and frontier:
        if popped + len(frontier) > limits.max_nodes:  # every node pushed so far
            return "max_nodes"
        _, side, cost, _, node = heapq.heappop(frontier)
        popped += 1
        if node.done:
            continue
        node.done = True
        if cost >= budget:
            continue
        u = built(node.splice)
        node.splice, u_key, at = (u, (), u), term_key(u), None
        reached, other = dist[side], dist[1 - side]
        for splice, size, n, edge in expand(u):
            c2 = cost + n
            if c2 > budget:
                continue
            q = splice[1]
            if q and q != at:  # u's key around the splice's position
                at, (before, after) = q, key_around(u_key, u, q)
            key = before + term_key(splice[2]) + after if q else term_key(splice[2])
            old = reached.get(key)
            if old is None:
                old = reached[key] = _Node(c2, node, edge, splice)
            elif c2 < old.steps:
                old.steps, old.parent, old.edge = c2, node, edge
            else:
                continue
            heapq.heappush(frontier, (c2 + size, side, c2, key, old))
            meet = other.get(key)
            if meet is not None:
                total = c2 + meet.steps
                if total <= budget and (best is None or (total, size, key) < best[:3]):
                    best = (total, size, key, *((old, meet) if side == 0 else (meet, old)))

    if best is None:
        return None
    bwd = [st.reversed_() for st in reversed(_path(best[4]))]
    trace = tuple(prefix + _path(best[3]) + bwd + suffix)
    if len(trace) > limits.bound:
        return None
    return trace


class _Node:
    """A term one side of conversion_search has reached, `steps` from its root
    by `edge` out of `parent`: the one node of its term_key on that side.  Its
    heap entries never tie up to the node, since it is pushed again only at
    fewer steps."""

    __slots__ = ("steps", "parent", "edge", "splice", "done")

    def __init__(self, steps: int, parent: Optional["_Node"], edge: Optional[RuleCandidate],
                 splice: Splice) -> None:
        self.steps, self.parent, self.edge = steps, parent, edge
        self.splice, self.done = splice, False


def _path(node: _Node) -> list[TraceStep]:
    """The steps from the root of node's side to node."""
    steps: list[TraceStep] = []
    while node.parent is not None:
        steps[:0] = node.edge.steps()  # type: ignore[union-attr]
        node = node.parent
    return steps


def reachable_terms(
    theory: CETheory,
    start: Term,
    depth: int,
    width: int = 200,
    value_pool: Optional[dict[Sort, tuple]] = None,
    limits: SearchLimits | None = None,
) -> dict[Term, ConversionTrace]:
    """Breadth-first set of terms convertible from start within depth macro steps."""
    limits = limits or SearchLimits()
    s0, prefix = calc_trace(theory.model, start)
    expand = search_expander(theory, limits, [start], [start],
                             s0.size + limits.max_term_growth, value_pool)
    # shortest edges first: by trace length, then result size, then term_key
    return dict(breadth_first(s0, prefix, lambda u: sorted(expand(u), key=lambda e: (
        e[2], e[1], term_key(e[0][2]).join(key_around(term_key(u), u, e[0][1])))), depth, width))


def breadth_first(
    s0: Term,
    prefix: Sequence[TraceStep],
    edges: Callable[[Term], Iterable[Edge]],
    depth: int,
    width: int,
) -> Iterator[tuple[Term, ConversionTrace]]:
    """The terms reached from the calc-normal s0 within depth macro edges,
    each with its trace (prefix, then the steps of each edge), yielded as
    they are reached in breadth-first order of edges(u), s0 first; stops
    once width terms are reached."""
    reached: dict[Term, ConversionTrace] = {s0: tuple(prefix)}
    yield s0, reached[s0]
    frontier = [s0]
    for _ in range(depth):
        nxt = []
        for u in frontier:
            for splice, _, _, edge in edges(u):
                v = built(splice)
                if v not in reached:
                    trace = reached[v] = reached[u] + edge.steps()
                    yield v, trace
                    if len(reached) >= width:
                        return
                    nxt.append(v)
        frontier = nxt
