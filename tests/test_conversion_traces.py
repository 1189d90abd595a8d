"""Pinned conversion traces: the SHA-256 of every trace conversion_search
returns, over the closed fixture goals, every sampled search of three
absmax.th validity checks and every search of the seeded criterion-11
corpus.  The search's expansion order decides which of several conversions
it returns, so a change to that order shows here even where verdicts stay
the same."""

import hashlib
import random

import pytest

from lcer.equations import SearchLimits, conversion_search
from lcer.syntax import parse_goal_spec, term_text
from lcer.validity import ValidityBudgets, check_ce_validity

from tests.conftest import fresh_copy, recorded_searches
from tests.genrandom import finite_theory, random_equation

# sha256 of each _digest() below, recorded before the search frontier was
# made one heap; CORPUS_DIGEST re-recorded, over its 107 searches, when a
# call that the memo of outcomes answers stopped counting as a search
CLOSED_DIGEST = "b3910fa9a4348ed5f12621d6c926616abe3a8dd2e0c99524f86be28066bde777"
ABSMAX_DIGEST = "d5c475be720ff16396b1a319c0413b8a90864f133927b1062090e99b9f55a6d6"
CORPUS_DIGEST = "697eaeaf1650ee7d84773f73ceae4e29e25160c1be844ed92f7a5145a063f027"

LISTS_GOALS = [
    ("length(cons(a, cons(b, nil)))", "2", 5),
    ("length(cons(a, cons(b, cons(a, nil))))", "3", 7),
    ("nth(cons(a, cons(b, cons(c, nil))), 2)", "some(c)", 5),
    ("nth(cons(a, cons(b, nil)), 0)", "some(b)", 3),  # apart
    ("length(cons(a, nil))", "2", 3),  # apart
]
MOD12_GOALS = [
    ("cong(+(7, 31))", "cong(14)", 3),
    ("cong(-(5, 29))", "cong(24)", 2),
    ("cong(+(7, 31))", "cong(15)", 3),  # apart
]


def _trace_text(s, t, trace) -> str:
    head = f"{term_text(s)} ~ {term_text(t)}:"
    if trace is None:
        return f"{head} none"
    return head + "".join(
        f"\n  {list(st.position)} {st.kind} {st.direction} {st.eq_index} "
        f"{' '.join(f'{x.name}={term_text(u)}' for x, u in st.subst)} "
        f"{term_text(st.replaced)} -> {term_text(st.result)}"
        for st in trace)


def _digest(texts) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


def _recorded(monkeypatch, checks):
    """The text of every search validity makes while checks() runs; a call
    that the memo of outcomes answers is no search (conftest)."""
    searches = recorded_searches(monkeypatch)
    checks()
    return [_trace_text(s, t, trace) for s, t, trace in searches]


@pytest.mark.slow
def test_closed_fixture_traces_are_pinned(group, mod12, lists):
    texts = []
    goal = group.goals["expinv"]
    trace = conversion_search(group.theory, goal.lhs, goal.rhs, SearchLimits(bound=12))
    texts.append(_trace_text(goal.lhs, goal.rhs, trace))
    for fixture, goals in ((mod12, MOD12_GOALS), (lists, LISTS_GOALS)):
        for lhs, rhs, bound in goals:
            ce = parse_goal_spec(fixture.theory, lhs, rhs)
            trace = conversion_search(fixture.theory, ce.lhs, ce.rhs, SearchLimits(bound=bound))
            texts.append(_trace_text(ce.lhs, ce.rhs, trace))
    assert sum(text.endswith(" none") for text in texts) == 3
    assert _digest(texts) == CLOSED_DIGEST


def test_sampled_absmax_traces_are_pinned(absmax, monkeypatch):
    # an empty memo: the session fixture's may hold these searches already
    theory = fresh_copy(absmax.theory)
    budgets = ValidityBudgets(bound=8, box=5)
    texts = _recorded(monkeypatch, lambda: [
        check_ce_validity(theory, absmax.goals[name], budgets)
        for name in ("maxcomm", "absneg", "absmax")])
    assert len(texts) == 121 + 11 + 36
    assert _digest(texts) == ABSMAX_DIGEST


def test_corpus_traces_are_pinned(monkeypatch):
    # the criterion-11 generator (seed 77) over finite models
    rng = random.Random(77)
    budgets = ValidityBudgets(bound=8, box=4, rewrite_depth=2, rewrite_width=60)

    def checks():
        for _ in range(150):
            theory = finite_theory(rng.choice(["intmod", "bool"]), rng, n_equations=2)
            check_ce_validity(theory, random_equation(theory, rng), budgets)

    texts = _recorded(monkeypatch, checks)
    assert len(texts) > 100
    assert any(text.endswith(" none") for text in texts)
    assert _digest(texts) == CORPUS_DIGEST
