"""A conversion search sets up its draw context once: its value pool and its
term pool are each computed once per search, also on an orthogonal theory,
where the search first compares the normal forms of its endpoints and then
expands with the same draws."""

from collections import Counter

import pytest

import lcer.equations as equations
from lcer.equations import SearchLimits, conversion_search, replay_trace
from lcer.models import enumerate_satisfying
from lcer.syntax import parse_term
from lcer.validity import ValidityBudgets, check_ce_validity

from tests.conftest import load_theory


@pytest.fixture
def calls(monkeypatch):
    """Counts of the calls of equations' set-up functions, by name."""
    counts = Counter()
    for name in ("default_value_pool", "term_candidate_pool", "search_expander"):
        def counting(*args, _name=name, _fn=getattr(equations, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(equations, name, counting)
    return counts


def test_a_search_whose_normal_forms_agree_sets_up_once(calls):
    # a theory of its own, so that no earlier search's outcome is kept in its memo
    theory = load_theory("absmax.th").theory
    assert theory._rules is not None
    s, t = parse_term(theory, "max(abs(-3), 2)"), parse_term(theory, "3")
    trace = conversion_search(theory, s, t, SearchLimits(bound=6))
    assert trace is not None and replay_trace(theory, s, trace) == t
    assert calls == {"default_value_pool": 1, "term_candidate_pool": 1, "search_expander": 1}


def test_each_sampled_search_sets_up_once(calls):
    # maxcomm is valid, so every sample's endpoints have one normal form; a
    # sample with x = y has equal calc normal forms and searches nothing
    absmax = load_theory("absmax.th")
    theory, ce = absmax.theory, absmax.goals["maxcomm"]
    budgets = ValidityBudgets(bound=8, box=5)
    status = check_ce_validity(theory, ce, budgets)
    assert (status.kind, status.samples) == ("confirmed-on-samples", 121)
    searched = sum(len(set(sigma.values())) == 2 for sigma in enumerate_satisfying(
        theory.model, ce.logical_vars, ce.constraint, box=budgets.box))
    assert searched == 110
    assert calls == {"default_value_pool": searched, "term_candidate_pool": searched,
                     "search_expander": searched}
