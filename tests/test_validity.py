import gc
import random
from collections import Counter

import pytest

import lcer.equations as equations
import lcer.validity as validity
from lcer.equations import default_value_pool
from lcer.models import enumerate_satisfying
from lcer.proofs import check_proof
from lcer.syntax import parse_goal_spec, term_text
from lcer.terms import apply_subst
from lcer.validity import (
    ValidityBudgets,
    ValidityStatus,
    check_ce_validity,
    is_trivial,
    proof_search,
)

from tests.conftest import fresh_copy, load_theory
from tests.genrandom import finite_theory, random_equation


def test_trivial_forced_by_constraint(absmax):
    ce = parse_goal_spec(absmax.theory, "abs(x)", "abs(y)", "=(x,y)", "x y")
    assert is_trivial(absmax.theory, ce).is_valid


def test_trivial_by_arithmetic(lists):
    ce = parse_goal_spec(lists.theory, "nth(xs,-(+(n,1),1))", "nth(xs,n)",
                         "true", "n")
    assert is_trivial(lists.theory, ce).is_valid


def test_trivial_vacuous_when_unsatisfiable(absmax):
    ce = parse_goal_spec(absmax.theory, "abs(x)", "max(x,x)", "<(x,x)", "x")
    assert is_trivial(absmax.theory, ce).is_valid


def test_not_trivial_with_witness(absmax):
    ce = parse_goal_spec(absmax.theory, "abs(x)", "abs(-(x))")
    verdict = is_trivial(absmax.theory, ce)
    assert verdict.is_invalid
    sigma = verdict.witness
    assert apply_subst(sigma, ce.lhs) != apply_subst(sigma, ce.rhs)


def test_not_trivial_term_structure(lists):
    ce = parse_goal_spec(lists.theory, "length(nil)", "0")
    verdict = is_trivial(lists.theory, ce)
    assert verdict.is_invalid


def test_trivial_by_an_axiom_over_the_differing_leaves(group):
    # m + n = n + m holds, though the leaves m / n and n / m differ
    ce = parse_goal_spec(group.theory, "exp(x, +(m, n))", "exp(x, +(n, m))", "true", "m n")
    assert is_trivial(group.theory, ce).is_valid


def test_trivial_by_the_arguments_of_an_undecided_theory_pair(group):
    # m + n = m + 0 under n = 0 has two variables, so the oracle leaves it
    # Unknown; Cong below it asks n = 0, which the oracle proves
    theory = fresh_copy(group.theory)
    ce = parse_goal_spec(theory, "exp(x, +(m, n))", "exp(x, +(m, 0))",
                         "and(>=(n, 0), <=(n, 0))", "m n")
    assert is_trivial(theory, ce).is_valid
    st = check_ce_validity(theory, ce)
    assert st.kind == "proved-by-triviality" and st.gap == (ce.lhs, ce.rhs)
    assert check_proof(theory, st.gap_proof).accepted


def test_a_proved_gap_carries_a_checked_derivation(group):
    theory = fresh_copy(group.theory)
    ce = parse_goal_spec(theory, "op(exp(x, n), exp(x, m))", "exp(x, +(n, m))",
                         "and(>=(n, 0), <=(m, 1))", "n m")
    st = check_ce_validity(theory, ce)
    assert st.kind == "proved-by-triviality"
    assert [term_text(t) for t in st.gap] == ["(exp x (+ m n))", "(exp x (+ n m))"]
    assert (st.gap_proof.conclusion.lhs, st.gap_proof.conclusion.rhs) == st.gap
    assert check_proof(theory, st.gap_proof).accepted


def test_validity_statuses(absmax):
    budgets = ValidityBudgets(bound=8, box=5)
    st = check_ce_validity(absmax.theory, absmax.goals["absneg"], budgets)
    assert st.kind == "confirmed-on-samples" and st.samples == 11
    assert "not a proof" in st.detail

    st = check_ce_validity(absmax.theory, absmax.goals["absneg0"], budgets)
    assert st.kind == "no-conversion-within-bound"
    assert st.failing_sample == {}  # the identity substitution


def test_validity_proved_by_triviality(lists):
    ce = parse_goal_spec(lists.theory, "nth(xs,-(+(n,1),1))", "nth(xs,n)",
                         "true", "n")
    st = check_ce_validity(lists.theory, ce, ValidityBudgets(bound=6, box=4))
    assert st.kind == "proved-by-triviality"
    assert st.is_proof


def test_validity_ground_conversion(mod12):
    st = check_ce_validity(mod12.theory, mod12.goals["clock"],
                           ValidityBudgets(bound=3, box=3))
    assert st.kind == "proved-ground-conversion"
    assert len(st.trace) == 2


def test_closed_goal_is_searched_once(monkeypatch):
    """A closed goal with constraint true has one, empty, sample: the goal
    itself, which step (1) has already searched."""
    from tests.conftest import load_theory, recorded_searches

    tf = load_theory("refute_bool.th")
    searches = recorded_searches(monkeypatch)
    st = check_ce_validity(tf.theory, tf.goals["gf"])
    assert len(searches) == 1
    assert st == ValidityStatus(
        "no-conversion-within-bound", failing_sample={},
        detail="bounded search found no conversion for this instance; "
               "this does not prove invalidity")
    st = check_ce_validity(tf.theory, tf.goals["gf"], ValidityBudgets(max_samples=0))
    assert st == ValidityStatus("unknown",
                                detail="no satisfying instances in the sample box")


def test_symbolic_steps_are_drawn_once_per_redex_per_proof_search(monkeypatch):
    # both sides of maxcomm share the redexes x and y, and every term they
    # reach holds them: one proof_search matches each distinct redex once
    # per candidate side, however many positions and expansions it recurs at
    # (a theory of its own, so that no earlier search's outcome is kept)
    absmax = load_theory("absmax.th")
    theory = absmax.theory
    matched = Counter()
    match = validity.match

    def counting(pattern, subject):
        matched[subject] += 1
        return match(pattern, subject)

    monkeypatch.setattr(validity, "match", counting)
    assert next(proof_search(theory, absmax.goals["maxcomm"], ValidityBudgets()), None) is None
    assert len(matched) > 10
    for subject, calls in matched.items():
        assert calls <= len(theory.sides_for(subject)), subject


def test_no_rule_step_outlives_an_abandoned_proof_search():
    # a theory of its own, so that no earlier search has drawn its steps
    def alive():
        return sum(isinstance(o, (equations.RuleCandidate, equations.Draw))
                   for o in gc.get_objects())

    theory = load_theory("absmax.th").theory
    goal = parse_goal_spec(theory, "abs(x)", "x", ">=(x, 0)", "x")
    gc.collect()
    before = alive()
    search = proof_search(theory, goal, ValidityBudgets())
    assert next(search).kind == "proved-by-triviality"
    gc.collect()
    assert alive() == before  # suspended at its first gap, the memo is gone
    del search
    gc.collect()
    assert alive() == before


def _shared_and_reference(theory, ce, budgets, monkeypatch):
    """check_ce_validity as it is, with its sampled searches sharing memos of
    draws, and the reference: the same call with every sampled search
    drawing from a memo of its own.  Also the number of draw contexts the
    shared call made memos for.  Each call runs on a copy of theory of its
    own, so that neither reads an outcome the other, or an earlier test,
    left in the theory's memo."""
    search = validity.conversion_search
    given = []

    def recording(*args, **kwargs):
        if "draw_memos" in kwargs:  # not step (1)'s search of a closed goal
            given.append(kwargs["draw_memos"])
        return search(*args, **kwargs)

    def unshared(*args, draw_memos=None, **kwargs):
        return search(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(validity, "conversion_search", recording)
        shared = check_ce_validity(fresh_copy(theory), ce, budgets)
    with monkeypatch.context() as m:
        m.setattr(validity, "conversion_search", unshared)
        reference = check_ce_validity(fresh_copy(theory), ce, budgets)
    assert all(memos is given[0] for memos in given)  # one dict per call
    return shared, reference, len(given[0]) if given else 0


@pytest.mark.parametrize("name, samples", [("maxcomm", 121), ("absneg", 11), ("absmax", 36)])
def test_sampled_searches_share_one_memo_per_goal(absmax, monkeypatch, name, samples):
    # absmax.th's sides draw no terms, and at box 5 every sample value lies
    # in the default pool's [-8, 8]: all samples have one draw context
    budgets = ValidityBudgets(bound=8, box=5)
    shared, reference, contexts = _shared_and_reference(
        absmax.theory, absmax.goals[name], budgets, monkeypatch)
    assert shared == reference
    assert (shared.kind, shared.samples) == ("confirmed-on-samples", samples)
    assert contexts == 1


def test_samples_that_widen_the_value_pool_get_memos_of_their_own(absmax, monkeypatch):
    # at box 10 the samples x = -10, -9, 9, 10 each add a value to the pool
    theory, ce = absmax.theory, absmax.goals["absneg"]
    budgets = ValidityBudgets(bound=8, box=10)
    shared, reference, contexts = _shared_and_reference(theory, ce, budgets, monkeypatch)
    assert shared == reference
    assert (shared.kind, shared.samples) == ("confirmed-on-samples", 21)
    pools = {tuple(default_value_pool(theory, [apply_subst(sigma, ce.lhs),
                                               apply_subst(sigma, ce.rhs)]).items())
             for sigma in enumerate_satisfying(theory.model, ce.logical_vars,
                                               ce.constraint, box=budgets.box)}
    assert contexts == len(pools) == 5


def test_samples_with_different_term_pools_get_memos_of_their_own(group, monkeypatch):
    # group.th draws G-terms for the term variable of e -> op(inv(x), x); the
    # G-subterms of each instance, and so its term pool, differ by sample
    theory = group.theory
    assert theory.term_extra_sorts == (theory.signature.sort("G"),)
    ce = parse_goal_spec(theory, "op(exp(x, n), exp(x, m))", "exp(x, +(n, m))",
                         "and(>=(n, 0), <=(m, 1))", "n m")
    # step (2) proves the goal, so no rewriting lets step (3) sample it
    budgets = ValidityBudgets(bound=8, box=2, rewrite_depth=0)
    shared, reference, contexts = _shared_and_reference(theory, ce, budgets, monkeypatch)
    assert shared == reference
    assert (shared.kind, shared.samples) == ("confirmed-on-samples", 12)
    assert contexts == 12
    assert check_ce_validity(fresh_copy(theory), ce).kind == "proved-by-triviality"


def test_sampled_corpus_goals_match_the_reference(monkeypatch):
    # the criterion-11 generator (seed 77) over finite models
    rng = random.Random(77)
    budgets = ValidityBudgets(bound=8, box=4, rewrite_depth=2, rewrite_width=60)
    sampled = 0
    seen_kinds = set()
    for _ in range(150):
        theory = finite_theory(rng.choice(["intmod", "bool"]), rng, n_equations=2)
        goal = random_equation(theory, rng)
        shared, reference, contexts = _shared_and_reference(theory, goal, budgets, monkeypatch)
        assert shared == reference, goal
        if contexts:
            sampled += 1
            seen_kinds.add(shared.kind)
    assert sampled > 20
    assert seen_kinds == {"confirmed-on-samples", "no-conversion-within-bound"}


def test_maxcomm_matches_each_redex_once_per_side_per_call(monkeypatch):
    # the 121 sampled searches of maxcomm have one draw context; step (2)'s
    # symbolic rewriting calls validity's own binding of match, not counted
    # (a theory of its own, so that no earlier search's outcome is kept)
    absmax = load_theory("absmax.th")
    theory = absmax.theory
    matched = Counter()
    match = equations.match

    def counting(pattern, subject):
        matched[subject] += 1
        return match(pattern, subject)

    monkeypatch.setattr(equations, "match", counting)
    st = check_ce_validity(theory, absmax.goals["maxcomm"], ValidityBudgets(bound=8, box=5))
    assert (st.kind, st.samples) == ("confirmed-on-samples", 121)
    assert len(matched) > 100
    for subject, calls in matched.items():
        assert calls <= len(theory.sides_for(subject)), subject


@pytest.mark.parametrize("bound, kind", [
    (8, "confirmed-on-samples"),
    # x = 0 converts, x = 1 needs more than two steps: the call returns early
    (2, "no-conversion-within-bound"),
])
def test_no_rule_step_outlives_a_validity_check(bound, kind):
    # a theory of its own, so that no earlier search has drawn its steps
    def alive():
        return sum(isinstance(o, (equations.RuleCandidate, equations.Draw))
                   for o in gc.get_objects())

    tf = load_theory("absmax.th")
    gc.collect()
    before = alive()
    st = check_ce_validity(tf.theory, tf.goals["absneg"], ValidityBudgets(bound=bound, box=2))
    assert st.kind == kind
    gc.collect()
    assert alive() == before
