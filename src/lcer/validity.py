"""Triviality checking and the bounded semi-decision of equational validity.

A constrained equation is trivial when every constraint-satisfying value
instantiation of its logical variables makes both sides syntactically equal.
Validity checking tries, in order: direct conversion search (closed goals),
rewriting both sides to a trivial gap (a proof), and exhaustive sampling of
satisfying instances (evidence only, never a proof).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .equations import (
    CETheory,
    ConstrainedEquation,
    ConversionTrace,
    SearchLimits,
    TraceStep,
    calc_trace,
    conversion_search,
    default_value_pool,
)
from .models import enumerate_satisfying
from .oracle import OracleBudget, Verdict, check_validity, valid, unknown
from .terms import (
    THEORY,
    App,
    Term,
    Variable,
    apply_subst,
    decompose_differences,
    fresh_var,
    is_ground,
    match,
    positions_of,
    replace_at,
    sort_of,
    term_key,
    vars_of,
)

SAMPLE_CAVEAT = (
    "confirmed on every sampled instance; this is bounded evidence, not a proof")


def _theory_over(t: Term, xs: frozenset[Variable]) -> bool:
    """t built from theory symbols and variables drawn from xs only."""
    if isinstance(t, Variable):
        return t in xs
    return t.fun.kind == THEORY and all(_theory_over(a, xs) for a in t.args)


def _equality(theory: CETheory, a: Term, b: Term) -> Term:
    name = f"={sort_of(a).name}"
    sym = theory.model.symbols.get(name)
    if sym is None:
        raise ValueError(f"no equality symbol for sort {sort_of(a).name}")
    return App(sym, (a, b))


def _implies(theory: CETheory, a: Term, b: Term) -> Term:
    return App(theory.model.symbols["=>"], (a, b))


def _some_satisfying(theory: CETheory, ce: ConstrainedEquation,
                     budget: OracleBudget) -> Optional[dict[Variable, Term]]:
    """A constraint-satisfying X-valued substitution covering all of X, or None."""
    model = theory.model
    neg = App(model.symbols["not"], (ce.constraint,))
    v = check_validity(model, neg, budget)
    if not v.is_invalid:
        return None
    sigma = dict(v.witness or {})
    for x in ce.logical_vars:
        if x not in sigma:
            car = model.carriers[x.sort]
            elem = car.elements[0] if car.finite else 0  # type: ignore[index]
            sigma[x] = model.value_term(x.sort, elem)
    return sigma


def _symbolic_steps(theory: CETheory, t: Term, X: frozenset[Variable],
                    phi: Term, budget: OracleBudget,
                    value_pool) -> list[tuple[TraceStep, Term]]:
    """Rewrite steps on open terms: equation variables may bind theory terms
    over the goal's logical variables, provided the goal constraint entails
    the instantiated equation constraint.  Each step is simulatable by
    Weakening over TheoryInstance over Rule."""
    model = theory.model
    out = []
    for pos, sub in sorted(positions_of(t), key=lambda ps: ps[0]):
        for eq_index, direction, side in theory.sides_for(sub):
            eq = theory.equations[eq_index]
            dst = side.dst
            base = match(side.src, sub)
            if base is None:
                continue
            if any(x in base and not _theory_over(base[x], X)
                   for x in eq.logical_vars):
                continue
            unbound = sorted(
                (eq.logical_vars | vars_of(dst)) - set(base),
                key=lambda v: v.name)
            # draw the goal's own variables or pool values for what matching
            # left unbound
            domains = []
            feasible = True
            for x in unbound:
                cands: list[Term] = [g for g in sorted(X, key=lambda v: v.name)
                                     if g.sort == x.sort]
                for e in value_pool.get(x.sort, ())[:8]:
                    cands.append(model.value_term(x.sort, e))
                if not cands:
                    feasible = False
                    break
                domains.append(cands[:6])
            if not feasible:
                continue
            for combo in itertools.product(*domains):
                sigma = dict(base)
                sigma.update(zip(unbound, combo))
                inst_phi = apply_subst(sigma, eq.constraint)
                if not vars_of(inst_phi) <= X:
                    continue
                obligation = _implies(theory, phi, inst_phi)
                if not check_validity(model, obligation, budget).is_valid:
                    continue
                result = replace_at(t, pos, apply_subst(sigma, dst))
                frozen = tuple(sorted(
                    ((x, u) for x, u in sigma.items() if u != x),
                    key=lambda kv: kv[0].name))
                step = TraceStep(pos, "rule", direction, eq_index, frozen,
                                 sub, apply_subst(sigma, dst))
                out.append((step, result))
                break  # one instantiation per redex keeps the search narrow
    return out


def _reachable_symbolic(theory, start, X, phi, depth, width, budget, value_pool):
    nf0, pre = calc_trace(theory.model, start)
    out = {nf0: tuple(pre)}
    frontier = [nf0]
    for _ in range(depth):
        nxt = []
        for u in frontier:
            for step, v_raw in _symbolic_steps(theory, u, X, phi, budget, value_pool):
                v, calc_steps = calc_trace(theory.model, v_raw)
                if v in out:
                    continue
                out[v] = out[u] + (step, *calc_steps)
                nxt.append(v)
                if len(out) >= width:
                    return out
        frontier = nxt
        if not frontier:
            break
    return out



def is_trivial(theory: CETheory, ce: ConstrainedEquation,
               budget: OracleBudget | None = None) -> Verdict:
    """Valid = trivial; Invalid carries a witness substitution with distinct sides."""
    budget = budget or OracleBudget()
    model = theory.model
    unsat = check_validity(model, App(model.symbols["not"], (ce.constraint,)), budget)
    if unsat.is_valid:
        return valid()  # vacuously trivial

    sigma0 = _some_satisfying(theory, ce, budget)
    _, pairs = decompose_differences(ce.lhs, ce.rhs)
    saw_unknown: Optional[Verdict] = None
    for a, b in pairs:
        if _theory_over(a, ce.logical_vars) and _theory_over(b, ce.logical_vars):
            obligation = _implies(theory, ce.constraint, _equality(theory, a, b))
            v = check_validity(model, obligation, budget)
            if v.is_valid:
                continue
            if v.is_invalid:
                sigma = dict(v.witness or {})
                if sigma0:
                    for x, val in sigma0.items():
                        sigma.setdefault(x, val)
                if apply_subst(sigma, ce.lhs) != apply_subst(sigma, ce.rhs):
                    return Verdict("invalid", witness=sigma)
                saw_unknown = unknown("oracle witness did not separate the sides")
            else:
                saw_unknown = v
            continue
        # a difference pair with a variable outside X, or with term structure,
        # is refuted by instantiation
        if sigma0 is None:
            saw_unknown = unknown("could not sample a satisfying instance")
            continue
        sigma = dict(sigma0)
        for side, other in ((a, b), (b, a)):
            if isinstance(side, Variable) and side not in ce.logical_vars:
                avoid = vars_of(ce.lhs) | vars_of(ce.rhs) | set(sigma)
                cand: Term = fresh_var("w", side.sort, avoid)
                if cand == apply_subst(sigma, other):
                    cand = fresh_var("w'", side.sort, avoid)
                sigma[side] = cand
                break
        if apply_subst(sigma, ce.lhs) != apply_subst(sigma, ce.rhs):
            return Verdict("invalid", witness=sigma)
        saw_unknown = unknown(f"could not separate pair {a!r} / {b!r}")
    return saw_unknown or valid()


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
        lim = self.limits
        return SearchLimits(self.bound, lim.max_term_growth, lim.max_nodes,
                            lim.solve_box, lim.cap_per_redex)


@dataclass
class ValidityStatus:
    kind: str  # proved-ground-conversion | proved-by-triviality |
    #            confirmed-on-samples | no-conversion-within-bound | unknown
    trace: Optional[ConversionTrace] = None
    gap: Optional[tuple[Term, Term]] = None
    gap_traces: Optional[tuple[ConversionTrace, ConversionTrace]] = None
    samples: int = 0
    failing_sample: Optional[dict[Variable, Term]] = None
    detail: str = ""

    @property
    def is_proof(self) -> bool:
        return self.kind in ("proved-ground-conversion", "proved-by-triviality")


def _literal_true(theory: CETheory, phi: Term) -> bool:
    model = theory.model
    return phi == model.value_term(model.sorts["Bool"], True)


def check_ce_validity(theory: CETheory, ce: ConstrainedEquation,
                      budgets: ValidityBudgets | None = None) -> ValidityStatus:
    budgets = budgets or ValidityBudgets()
    model = theory.model

    # (1) closed goals: validity coincides with plain convertibility
    closed = not ce.logical_vars and _literal_true(theory, ce.constraint)
    if closed:
        trace = conversion_search(theory, ce.lhs, ce.rhs, budgets.search_limits())
        if trace is not None:
            return ValidityStatus("proved-ground-conversion", trace=trace)

    # (2) rewrite both sides toward a trivial constrained equation; steps may
    # instantiate equation variables with theory terms over the goal's
    # logical variables when the goal constraint entails the instance
    pool = default_value_pool(theory, [ce.lhs, ce.rhs])
    left = _reachable_symbolic(theory, ce.lhs, ce.logical_vars, ce.constraint,
                               budgets.rewrite_depth, budgets.rewrite_width,
                               budgets.oracle, pool)
    right = _reachable_symbolic(theory, ce.rhs, ce.logical_vars, ce.constraint,
                                budgets.rewrite_depth, budgets.rewrite_width,
                                budgets.oracle, pool)
    pairs = sorted(
        ((ls, rs) for ls in left for rs in right),
        key=lambda p: (len(left[p[0]]) + len(right[p[1]]),
                       p[0].size + p[1].size, term_key(p[0]), term_key(p[1])))
    for ls, rs in pairs[: budgets.max_trivial_pairs]:
        if sort_of(ls) != sort_of(rs):
            continue
        try:
            cand = ConstrainedEquation(ce.logical_vars, ls, rs, ce.constraint)
        except Exception:
            continue
        if is_trivial(theory, cand, budgets.oracle).is_valid:
            return ValidityStatus(
                "proved-by-triviality", gap=(ls, rs),
                gap_traces=(left[ls], right[rs]))

    # (3) sampling: evidence only
    count = 0
    for sigma in enumerate_satisfying(model, ce.logical_vars, ce.constraint,
                                      box=budgets.box):
        count += 1
        if count > budgets.max_samples:
            count -= 1
            break
        if closed:  # the one, empty, sample is the goal step (1) searched in vain
            trace = None
        else:
            inst_l = apply_subst(sigma, ce.lhs)
            inst_r = apply_subst(sigma, ce.rhs)
            trace = conversion_search(theory, inst_l, inst_r, budgets.search_limits())
        if trace is None:
            return ValidityStatus("no-conversion-within-bound",
                                  failing_sample=sigma,
                                  detail="bounded search found no conversion for this "
                                         "instance; this does not prove invalidity")
    if count == 0:
        return ValidityStatus("unknown",
                              detail="no satisfying instances in the sample box")
    return ValidityStatus("confirmed-on-samples", samples=count, detail=SAMPLE_CAVEAT)
