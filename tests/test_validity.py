import gc
from collections import Counter

import lcer.equations as equations
import lcer.validity as validity
from lcer.syntax import parse_goal_spec
from lcer.terms import apply_subst
from lcer.validity import (
    ValidityBudgets,
    ValidityStatus,
    check_ce_validity,
    is_trivial,
    proof_search,
)

from tests.conftest import load_theory


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
    import lcer.validity
    from tests.conftest import load_theory

    tf = load_theory("refute_bool.th")
    calls = []
    search = lcer.validity.conversion_search

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return search(*args, **kwargs)

    monkeypatch.setattr(lcer.validity, "conversion_search", counting)
    st = check_ce_validity(tf.theory, tf.goals["gf"])
    assert len(calls) == 1
    assert st == ValidityStatus(
        "no-conversion-within-bound", failing_sample={},
        detail="bounded search found no conversion for this instance; "
               "this does not prove invalidity")
    st = check_ce_validity(tf.theory, tf.goals["gf"], ValidityBudgets(max_samples=0))
    assert st == ValidityStatus("unknown",
                                detail="no satisfying instances in the sample box")


def test_symbolic_steps_are_drawn_once_per_redex_per_proof_search(absmax, monkeypatch):
    # both sides of maxcomm share the redexes x and y, and every term they
    # reach holds them: one proof_search matches each distinct redex once
    # per candidate side, however many positions and expansions it recurs at
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
