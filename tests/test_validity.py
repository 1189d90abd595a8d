from lcer.syntax import parse_goal_spec
from lcer.terms import apply_subst
from lcer.validity import ValidityBudgets, ValidityStatus, check_ce_validity, is_trivial


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
