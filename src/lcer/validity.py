"""Triviality and the bounded semi-decision of equational validity.

A constrained equation is trivial when every constraint-satisfying value
instantiation of its logical variables makes both sides syntactically equal.
`close_trivial`, the Refl/Axiom/Cong closure, is the one place that decides
it.  Validity checking tries, in order: direct conversion search (closed
goals), rewriting both sides to a trivial gap (a proof), and exhaustive
sampling of satisfying instances (evidence, unless they are all of them).

The two proof steps are `proof_search`, which yields every proof verdict in
that order, each only when asked for; `verdicts` follows them with step
(3)'s.  `check_ce_validity` takes the first verdict, and
`proofs.prove_heuristic` turns them into derivations until the checker
accepts one, so validate and prove share one proving path.  Symbolic
rewriting draws its own rule steps at each redex (`_symbolic_draws`) and
plugs them into the searches' one loop over positions,
`equations.position_candidates`, with one memo for both sides of a goal; it
builds its edges with `equations.macro_edges` and its reachable sets with
`equations.breadth_first`, as `reachable_terms` does.

Step (2) asks the oracle whether the constraint is unsatisfiable (`not phi`
valid) once per goal.  If it is, every pair is vacuously trivial.  Otherwise
the closure closes a pair only if its sides agree down to the topmost
subterms that are theory terms over X, and then the two sides have equal
skeletons (`_skeleton`).  So the step is one lazy join of the two reachable
sets: on their skeletons, or on one key for every pair of a vacuous goal.
Candidates are merged in the order of trace lengths, sizes and term keys,
produced only when asked for, and `max_trivial_pairs` caps them.  A
candidate is trivial when the closure closes it, with its derivation as the
status's `gap_proof`; a vacuous goal yields every candidate, with a
`gap_proof` where the closure closes.

Step (3) runs one conversion search per sample, and the samples of one goal
mostly share their redexes and their draw context (see `equations`).  So
step (3) owns one dict of memos of draws by draw context, hands it
to every sampled search and drops it on return: a redex is matched and
instantiated once per call and draw context, not once per sample.  A sample
whose value or term pool differs (a value outside the default pool, say)
gets a memo of its own.  Only exact draws are shared, so traces and verdicts
are those of searches with memos of their own.

Outcomes outlive a call: the theory's memo (`equations.CETheory`) answers a
sampled search that an earlier call, sample or step (1) already ran, and
`proof_search` records there a run that ended without a verdict, so
`prove_heuristic` after a `check_ce_validity` that found no proof does not
run steps (1) and (2) again.  The memos of draws are no part of its keys,
since no trace or verdict depends on them.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field, is_dataclass, replace
from typing import Iterator, Optional

from .equations import (
    CEError,
    CETheory,
    ConstrainedEquation,
    ConversionTrace,
    Draw,
    DrawMemos,
    SearchLimits,
    breadth_first,
    calc_trace,
    conversion_search,
    default_value_pool,
    macro_edges,
    position_candidates,
    search_stop,
)
from .models import enumerate_satisfying
from .oracle import INVALID, OracleBudget, Verdict, check_validity, valid, unknown
from .terms import (
    THEORY,
    App,
    Term,
    Variable,
    apply_subst,
    fresh_var,
    match,
    sort_of,
    term_key,
    theory_over,
    vars_of,
)

SAMPLE_CAVEAT = (
    "confirmed on every sampled instance; this is bounded evidence, not a proof")


def _symbolic_draws(theory: CETheory, sub: Term, X: frozenset[Variable],
                    phi: Term, budget: OracleBudget, value_pool) -> tuple[Draw, ...]:
    """The rule steps at the redex sub of an open term: equation variables
    may bind theory terms over the goal's logical variables X, provided the
    goal constraint phi entails the instantiated equation constraint.  Each
    step is simulatable by Weakening over TheoryInstance over Rule."""
    model = theory.model
    out = []
    for side in theory.sides_for(sub):
        eq = theory.equations[side.eq_index]
        base = match(side.src, sub)
        if base is None:
            continue
        if any(x in base and not theory_over(base[x], X)
               for x in eq.logical_vars):
            continue
        unbound = sorted(side.logical_extras + side.term_extras, key=lambda v: v.name)
        # draw the goal's own variables or pool values for what matching
        # left unbound
        domains = []
        for x in unbound:
            cands: list[Term] = [g for g in sorted(X, key=lambda v: v.name)
                                 if g.sort == x.sort]
            for e in value_pool.get(x.sort, ())[:8]:
                cands.append(model.value_term(x.sort, e))
            if not cands:
                break
            domains.append(cands[:6])
        else:
            for combo in itertools.product(*domains):
                sigma = dict(base)
                sigma.update(zip(unbound, combo))
                inst_phi = apply_subst(sigma, eq.constraint)
                if not check_validity(model, model.implies(phi, inst_phi), budget).is_valid:
                    continue
                out.append(Draw(side, tuple([sigma[x] for x in side.variables])))
                break  # one instantiation per redex keeps the search narrow
    return tuple(out)


RULES = (
    "Refl", "Trans", "Sym", "Cong", "Rule", "TheoryInstance", "GeneralInstance",
    "Weakening", "Split", "Axiom", "Abst", "Enlarge",
)


@dataclass(frozen=True)
class Derivation:
    rule: str
    conclusion: ConstrainedEquation
    witness: Optional[tuple[tuple[Variable, Term], ...]] = None
    premises: tuple["Derivation", ...] = ()

    def __post_init__(self) -> None:
        if self.rule not in RULES:
            raise CEError(f"unknown inference rule {self.rule}")

    def witness_subst(self) -> dict[Variable, Term]:
        return dict(self.witness or ())

    def count_nodes(self, rule: str | None = None) -> int:
        n = 1 if (rule is None or self.rule == rule) else 0
        return n + sum(p.count_nodes(rule) for p in self.premises)


def close_trivial(theory: CETheory, ce: ConstrainedEquation,
                  budget: OracleBudget) -> Derivation | tuple[Term, Term, Verdict]:
    """The Refl/Axiom/Cong closure of ce: Refl on equal terms, Axiom on the
    topmost theory pair over ce's logical variables whose equation the oracle
    proves under ce's constraint, Cong on equal roots (also below a theory
    pair left Unknown).  Returns the derivation, or the first pair it could
    not close with the oracle's verdict on it; a pair whose term structure
    differs is Invalid with no witness."""
    model, X, phi = theory.model, ce.logical_vars, ce.constraint

    def rec(a: Term, b: Term) -> Derivation | tuple[Term, Term, Verdict]:
        if a == b:
            return Derivation("Refl", ConstrainedEquation(X, a, b, phi))
        same_root = isinstance(a, App) and isinstance(b, App) and a.fun == b.fun
        if theory_over(a, X) and theory_over(b, X):
            v = check_validity(model, model.implies(phi, model.equality(a, b)), budget)
            if v.is_valid:
                return Derivation("Axiom", ConstrainedEquation(X, a, b, phi))
            if v.is_invalid or not same_root:  # else Cong: n = 0 may decide m + n = m + 0
                return a, b, v
        elif not same_root:
            return a, b, Verdict(INVALID)
        premises = []
        for x, y in zip(a.args, b.args):
            p = rec(x, y)
            if not isinstance(p, Derivation):
                return p
            premises.append(p)
        return Derivation("Cong", ConstrainedEquation(X, a, b, phi), premises=tuple(premises))

    return rec(ce.lhs, ce.rhs)


def is_trivial(theory: CETheory, ce: ConstrainedEquation,
               budget: OracleBudget | None = None) -> Verdict:
    """Valid = trivial; Invalid carries a witness substitution with distinct
    sides, built from the first pair close_trivial could not close."""
    budget = budget or OracleBudget()
    model, X = theory.model, ce.logical_vars
    unsat = check_validity(model, App(model.symbols["not"], (ce.constraint,)), budget)
    if unsat.is_valid:
        return valid()  # vacuously trivial
    closed = close_trivial(theory, ce, budget)
    if isinstance(closed, Derivation):
        return valid()
    a, b, v = closed
    sigma = dict(unsat.witness or {})  # a satisfying instance, completed over X
    if unsat.is_invalid:
        for x in X - sigma.keys():
            car = model.carriers[x.sort]
            elem = car.elements[0] if car.finite else 0  # type: ignore[index]
            sigma[x] = model.value_term(x.sort, elem)
    if theory_over(a, X) and theory_over(b, X):
        if not v.is_invalid:
            return v
        sigma.update(v.witness or {})
    elif unsat.is_unknown:
        return unknown("could not sample a satisfying instance")
    else:
        # a pair with term structure, or with a variable outside X, is
        # refuted by instantiation
        for side in (a, b):
            if isinstance(side, Variable) and side not in X:
                avoid = vars_of(ce.lhs) | vars_of(ce.rhs) | set(sigma)
                sigma[side] = fresh_var("w", side.sort, avoid)
                break
    if apply_subst(sigma, ce.lhs) != apply_subst(sigma, ce.rhs):
        return Verdict(INVALID, witness=sigma)
    return unknown(f"could not separate pair {a!r} / {b!r}")


@dataclass
class ValidityBudgets:
    bound: int = 8
    box: int = 5
    rewrite_depth: int = 3
    rewrite_width: int = 120
    max_trivial_pairs: int = 400
    max_samples: int = 512
    oracle: OracleBudget = field(default_factory=OracleBudget)
    limits: SearchLimits = field(default_factory=SearchLimits)

    def search_limits(self) -> SearchLimits:
        return replace(self.limits, bound=self.bound)


@dataclass
class ValidityStatus:
    kind: str  # proved-ground-conversion | proved-by-triviality |
    #            confirmed-on-samples | no-conversion-within-bound | unknown
    trace: Optional[ConversionTrace] = None
    gap: Optional[tuple[Term, Term]] = None
    gap_traces: Optional[tuple[ConversionTrace, ConversionTrace]] = None
    gap_proof: Optional[Derivation] = None  # closes gap; None only on a vacuous goal
    samples: int = 0
    failing_sample: Optional[dict[Variable, Term]] = None
    detail: str = ""
    budget: Optional[str] = None  # the search budget that ran out on failing_sample
    # every instance with its trace, when they are all and the sides are over X
    instances: Optional[tuple[tuple[dict[Variable, Term], ConversionTrace], ...]] = None

    @property
    def is_proof(self) -> bool:
        return self.kind in ("proved-ground-conversion", "proved-by-triviality")


def _symbolic_reachable(theory: CETheory, ce: ConstrainedEquation, budgets: ValidityBudgets
                        ) -> tuple[dict[Term, ConversionTrace], dict[Term, ConversionTrace]]:
    """The terms that symbolic rewriting reaches from each side of ce, with
    their traces.  Steps may instantiate equation variables with theory
    terms over the goal's logical variables when the goal constraint entails
    the instance (`_symbolic_draws`); both sides draw from one memo by redex,
    dropped on return."""
    model = theory.model
    pool = default_value_pool(theory, [ce.lhs, ce.rhs])
    draws: dict[Term, tuple[Draw, ...]] = {}

    def draw(sub: Term) -> tuple[Draw, ...]:
        return _symbolic_draws(theory, sub, ce.logical_vars, ce.constraint,
                               budgets.oracle, pool)

    def reachable(start: Term) -> dict[Term, ConversionTrace]:
        s0, prefix = calc_trace(model, start)
        return dict(breadth_first(
            s0, prefix,
            lambda u: macro_edges(model, u, position_candidates(u, draws, draw), None, True),
            budgets.rewrite_depth, budgets.rewrite_width))

    return reachable(ce.lhs), reachable(ce.rhs)


def _skeleton(t: Term, X: frozenset[Variable]) -> object:
    """The key of t's skeleton: t with each maximal subterm that is theory
    over X replaced by a hole, the subterm's Sort.  A variable outside X keys
    as its term_key (a str) and any other subterm as a tuple of its symbol's
    name and its arguments' keys, so equal keys are equal skeletons."""

    def key(u: Term) -> object:  # None: u is theory over X
        if isinstance(u, Variable):
            return None if u in X else term_key(u)
        keys = [key(a) for a in u.args]
        if u.fun.kind == THEORY and all(k is None for k in keys):
            return None
        return (u.fun.name, *[sort_of(a) if k is None else k
                              for a, k in zip(u.args, keys)])

    k = key(t)
    return sort_of(t) if k is None else k


def proof_search(theory: CETheory, ce: ConstrainedEquation,
                 budgets: ValidityBudgets) -> Iterator[ValidityStatus]:
    """Steps (1) and (2) of check_ce_validity: its proof verdicts for ce, in
    the order it tries them, each computed only when asked for.  A search
    that ends without a verdict is recorded in theory.outcomes, and a later
    one with the same goal and budgets yields nothing at once."""
    # the field values of budgets, its oracle budget's and limits' as tuples
    key = (ce, *(tuple(vars(v).values()) if is_dataclass(v) else v
                 for v in vars(budgets).values()))
    if key in theory.outcomes:
        return
    proved = False
    # (1) closed goals: validity coincides with plain convertibility
    if ce.closed:
        trace = conversion_search(theory, ce.lhs, ce.rhs, budgets.search_limits())
        if trace is not None:
            proved = True
            yield ValidityStatus("proved-ground-conversion", trace=trace)

    # (2) rewrite both sides toward a trivial constrained equation.  Unless
    # the constraint is unsatisfiable, only a pair with equal skeletons can be
    # closed, so the two reachable sets are joined on their skeletons, and
    # on one key for every pair if it is
    X, phi = ce.logical_vars, ce.constraint
    model = theory.model
    left, right = _symbolic_reachable(theory, ce, budgets)
    vacuous = check_validity(model, App(model.symbols["not"], (phi,)), budgets.oracle).is_valid
    join = (lambda t: None) if vacuous else (lambda t: _skeleton(t, X))
    buckets: dict[object, list[Term]] = {}
    for rs in sorted(right, key=lambda rs: (len(right[rs]), rs.size, term_key(rs))):
        buckets.setdefault(join(rs), []).append(rs)
    # one stream per left term, merged by the pair key; term_key is injective,
    # so the merge is the sorted list of candidates
    candidates = heapq.merge(
        *(zip(itertools.repeat(ls), buckets.get(join(ls), ())) for ls in left),
        key=lambda p: (len(left[p[0]]) + len(right[p[1]]), p[0].size + p[1].size,
                       term_key(p[0]), term_key(p[1])))
    # rewriting keeps sorts, so each candidate is an equation
    for ls, rs in itertools.islice(candidates, budgets.max_trivial_pairs):
        closed = close_trivial(theory, ConstrainedEquation(X, ls, rs, phi), budgets.oracle)
        gap_proof = closed if isinstance(closed, Derivation) else None
        if vacuous or gap_proof is not None:
            proved = True
            yield ValidityStatus("proved-by-triviality", gap=(ls, rs),
                                 gap_traces=(left[ls], right[rs]), gap_proof=gap_proof)
    if not proved:
        theory.outcomes[key] = None


def cases_cover(theory: CETheory, ce: ConstrainedEquation) -> bool:
    """Whether all of ce's instances are cases that Abst lifts: every logical
    variable has a finite sort, and the sides use only logical variables."""
    X = ce.logical_vars
    return all(theory.model.carriers[x.sort].finite for x in X) \
        and vars_of(ce.lhs) | vars_of(ce.rhs) <= X


def verdicts(theory: CETheory, ce: ConstrainedEquation,
             budgets: ValidityBudgets) -> Iterator[ValidityStatus]:
    """check_ce_validity's verdicts on ce in the order it tries them: the
    proof verdicts of proof_search, then the one of step (3)."""
    yield from proof_search(theory, ce, budgets)

    # (3) sampling: evidence, and a proof only when the samples are every
    # instance (see proofs).  The searches share memos of draws by draw
    # context, dropped on return.  A closed goal's one, empty, sample is the
    # search of step (1), so the theory's memo of outcomes answers it, and
    # search_stop reads why that search stopped
    model, X = theory.model, ce.logical_vars
    limits = budgets.search_limits()
    draw_memos: DrawMemos = {}
    instances = []
    for sigma in itertools.islice(enumerate_satisfying(model, X, ce.constraint,
                                                       box=budgets.box), budgets.max_samples):
        lhs, rhs = apply_subst(sigma, ce.lhs), apply_subst(sigma, ce.rhs)
        trace = conversion_search(theory, lhs, rhs, limits, draw_memos=draw_memos)
        if trace is None:
            if search_stop(theory, lhs, rhs, limits) == "max_nodes":
                yield ValidityStatus(
                    "unknown", failing_sample=sigma, budget="max_nodes",
                    detail=f"search budget max_nodes ({limits.max_nodes}) ran out on "
                           f"an instance before bound {limits.bound}; no answer")
            else:
                yield ValidityStatus("no-conversion-within-bound",
                                     failing_sample=sigma,
                                     detail="bounded search found no conversion for this "
                                            "instance; this does not prove invalidity")
            return
        instances.append((sigma, trace))
    if not instances:
        yield ValidityStatus("unknown", detail="no satisfying instances in the sample box")
        return
    every = len(instances) < budgets.max_samples and cases_cover(theory, ce)
    yield ValidityStatus("confirmed-on-samples", samples=len(instances), detail=SAMPLE_CAVEAT,
                         instances=tuple(instances) if every else None)


def check_ce_validity(theory: CETheory, ce: ConstrainedEquation,
                      budgets: ValidityBudgets | None = None) -> ValidityStatus:
    return next(verdicts(theory, ce, budgets or ValidityBudgets()))
