"""The lemma property suites, written as functions returning (cases, violations)
so both the unit tests and the acceptance report can run them."""

from __future__ import annotations

import random

from lcer.equations import (
    ConstrainedEquation,
    SearchLimits,
    TraceStep,
    calc_trace,
    conversion_search,
    replay_trace,
    rule_step_candidates,
    term_candidate_pool,
)
from lcer.models import enumerate_satisfying
from lcer.oracle import check_validity
from lcer.proofs import check_proof
from lcer.terms import App, Variable, apply_subst, vars_of

from tests.genrandom import (
    U,
    finite_theory,
    random_accepted_derivation,
    random_data_term,
    random_u_term,
    term_vars,
    theory_vars,
)


def _ground_subst(theory, rng, variables):
    model = theory.model
    out = {}
    for v in variables:
        if v.sort == U:
            out[v] = App(theory.signature.symbol("c0"))
        else:
            out[v] = model.value_term(v.sort, rng.choice(model.carrier_elements(v.sort)))
    return out


def suite_symmetry_closure(cases: int = 100, seed: int = 101) -> tuple[int, int]:
    """One-step symmetry, closure under contexts, closure under substitutions."""
    rng = random.Random(seed)
    ran = violations = 0
    while ran < cases:
        theory = finite_theory(rng.choice(["intmod", "bool"]), rng)
        t = random_u_term(theory, rng, theory_vars(theory), term_vars(theory),
                          data_depth=0)
        cands = rule_step_candidates(theory, t)
        if not cands:
            continue
        cand = cands[rng.randrange(len(cands))]
        ran += 1
        # symmetry: the reverse step exists from the result
        back = rule_step_candidates(theory, cand.result,
                                    term_pool=term_candidate_pool([cand.result, t]))
        if not any(b.result == t and b.position == cand.position for b in back):
            violations += 1
            continue
        # closure under contexts
        k = theory.signature.symbol("k")
        wrapped = App(k, (t,))
        expect_ctx = App(k, (cand.result,))
        ctx_cands = rule_step_candidates(
            theory, wrapped, term_pool=term_candidate_pool([wrapped, expect_ctx]))
        if not any(c.position == (1,) + cand.position and c.result == expect_ctx
                   for c in ctx_cands):
            violations += 1
            continue
        # closure under (ground) substitutions
        sigma = _ground_subst(theory, rng, sorted(vars_of(t), key=lambda v: v.name))
        inst = apply_subst(sigma, t)
        expect = apply_subst(sigma, cand.result)
        inst_cands = rule_step_candidates(
            theory, inst, term_pool=term_candidate_pool([inst, expect]))
        if not any(c.result == expect for c in inst_cands):
            violations += 1
    return ran, violations


def suite_congruence(cases: int = 100, seed: int = 102) -> tuple[int, int]:
    """Reflexivity, symmetry of found conversions, and transitivity/congruence
    by replaying composed and wrapped traces."""
    rng = random.Random(seed)
    limits = SearchLimits(bound=8)
    ran = violations = 0
    while ran < cases:
        theory = finite_theory("intmod", rng)
        xs = theory_vars(theory)
        s = random_u_term(theory, rng, xs, [], data_depth=0)
        sigma = _ground_subst(theory, rng, sorted(vars_of(s), key=lambda v: v.name))
        s = apply_subst(sigma, s)
        # reflexivity
        if conversion_search(theory, s, s, limits) != ():
            violations += 1
            ran += 1
            continue
        cands = rule_step_candidates(theory, s)
        if not cands:
            continue
        ran += 1
        mid = theory.model.calc_normalize(cands[rng.randrange(len(cands))].result)
        tr1 = conversion_search(theory, s, mid, limits)
        tr2 = conversion_search(theory, mid, s, limits)  # symmetry
        if tr1 is None or tr2 is None:
            violations += 1
            continue
        nxt = rule_step_candidates(theory, mid)
        if nxt:
            far = theory.model.calc_normalize(nxt[rng.randrange(len(nxt))].result)
            tr3 = conversion_search(theory, mid, far, limits)
            if tr3 is None:
                violations += 1
                continue
            # transitivity: the composed trace replays end to end
            if replay_trace(theory, s, tr1 + tr3) != far:
                violations += 1
                continue
            # congruence: the same conversion inside a context
            k = theory.signature.symbol("k")
            lifted = tuple(
                TraceStep((1,) + st.position, st.kind, st.direction, st.eq_index,
                          st.subst, st.replaced, st.result)
                for st in tr1 + tr3)
            if replay_trace(theory, App(k, (s,)), lifted) != App(k, (far,)):
                violations += 1
    return ran, violations


def _confirmed_everywhere(theory, ce, bound=10) -> bool:
    for sigma in enumerate_satisfying(theory.model, ce.logical_vars, ce.constraint):
        tr = conversion_search(theory, apply_subst(sigma, ce.lhs),
                               apply_subst(sigma, ce.rhs), SearchLimits(bound=bound))
        if tr is None:
            return False
    return True


def suite_stability(cases: int = 100, seed: int = 103) -> tuple[int, int]:
    """Instantiating logical variables by theory terms preserves exhaustive
    confirmation."""
    rng = random.Random(seed)
    ran = violations = 0
    while ran < cases:
        theory = finite_theory("intmod", rng)
        d = random_accepted_derivation(theory, rng, adapters=2)
        ce = d.conclusion
        if not ce.logical_vars or not check_proof(theory, d).accepted:
            continue
        if not _confirmed_everywhere(theory, ce):
            continue
        ran += 1
        model = theory.model
        data = model.sorts["Int"]
        new_x = Variable("z", data)
        sigma = {}
        for y in sorted(ce.logical_vars, key=lambda v: v.name):
            r = rng.random()
            if r < 0.4:
                sigma[y] = model.value_term(data, rng.choice(model.carrier_elements(data)))
            elif r < 0.7:
                sigma[y] = new_x
            else:
                sigma[y] = App(model.symbols["+"],
                               (new_x, model.value_term(data, rng.choice((1, 2)))))
        new_lhs = apply_subst(sigma, ce.lhs)
        new_rhs = apply_subst(sigma, ce.rhs)
        new_phi = apply_subst(sigma, ce.constraint)
        if not vars_of(new_phi) <= {new_x}:
            ran -= 1
            continue
        inst = ConstrainedEquation(frozenset({new_x}), new_lhs, new_rhs, new_phi)
        if not _confirmed_everywhere(theory, inst):
            violations += 1
    return ran, violations


def suite_general_stability(cases: int = 100, seed: int = 104) -> tuple[int, int]:
    """Substituting variables outside the logical set preserves confirmation."""
    rng = random.Random(seed)
    ran = violations = 0
    while ran < cases:
        theory = finite_theory("intmod", rng)
        d = random_accepted_derivation(theory, rng, adapters=2)
        ce = d.conclusion
        outside = sorted((vars_of(ce.lhs) | vars_of(ce.rhs)) - ce.logical_vars,
                         key=lambda v: v.name)
        if not outside or not check_proof(theory, d).accepted:
            continue
        if not _confirmed_everywhere(theory, ce):
            continue
        ran += 1
        sigma = {}
        for v in outside:
            if v.sort == U:
                sigma[v] = random_u_term(theory, rng, theory_vars(theory), [],
                                         depth=1, data_depth=0)
            else:
                sigma[v] = random_data_term(theory, rng, [], depth=0)
        inst = ConstrainedEquation(ce.logical_vars, apply_subst(sigma, ce.lhs),
                                   apply_subst(sigma, ce.rhs), ce.constraint)
        if not _confirmed_everywhere(theory, inst):
            violations += 1
    return ran, violations


def suite_model_consequence(cases: int = 100, seed: int = 105) -> tuple[int, int]:
    """Oracle-valid theory equalities convert by calculation alone on every
    satisfying instance."""
    rng = random.Random(seed)
    ran = violations = 0
    while ran < cases:
        theory = finite_theory("intmod", rng, n_equations=2)
        model = theory.model
        data = model.sorts["Int"]
        xs = [Variable(n, data) for n in "ab"][: rng.randrange(1, 3)]
        s = random_data_term(theory, rng, xs, depth=rng.randrange(3))
        zero = model.value_term(data, 0)
        one = model.value_term(data, 1)
        variant = rng.choice([
            App(model.symbols["+"], (s, zero)),
            App(model.symbols["*"], (s, one)),
            App(model.symbols["+"], (zero, s)),
        ])
        from tests.genrandom import random_constraint
        phi = random_constraint(theory, rng, xs)
        obligation = model.implies(phi, model.equality(s, variant))
        if not check_validity(model, obligation).is_valid:
            continue
        ran += 1
        for sigma in enumerate_satisfying(model, set(xs), phi):
            # calculation alone joins the instances within bound 12
            (s0, prefix), (v0, post) = (calc_trace(model, apply_subst(sigma, u))
                                        for u in (s, variant))
            if s0 != v0 or len(prefix) + len(post) > 12:
                violations += 1
                break
    return ran, violations


ALL_SUITES = {
    "symmetry-closure": suite_symmetry_closure,
    "congruence": suite_congruence,
    "stability": suite_stability,
    "general-stability": suite_general_stability,
    "model-consequence": suite_model_consequence,
}
