"""The work budget of a conversion search and how an answer names it.

max_nodes caps the nodes a search pushes onto its frontier, counted before
each expansion.  A search that it stops finds nothing, and `search_stop`
says that the budget ran out, also on a hit of the theory's memo of
outcomes, where the search's entry keeps it; it says "normal-forms" when an
orthogonal theory's normal forms differ.  `validate` then answers unknown
and `convert` names the budget, where both used to say "no conversion
within bound".
"""

import heapq
import json
import os
import resource
import subprocess
import sys
from functools import partial

import pytest

import lcer.cli
from lcer import validity
from lcer.cli import main
from lcer.equations import SearchLimits, conversion_search, search_stop
from lcer.syntax import parse_goal_spec
from lcer.validity import ValidityBudgets, check_ce_validity

from tests.conftest import FIXTURES, fresh_copy, load_theory, recorded_searches

ROOT = os.path.join(os.path.dirname(__file__), "..")


@pytest.fixture(scope="module")
def absmax():
    return load_theory("absmax.th")


def zero_sample(absmax):
    # absmax's goal at x = y = 0: both sides have normal form 0, five steps apart
    return parse_goal_spec(absmax.theory, "abs(max(0, 0))", "max(abs(0), abs(0))")


def test_the_node_budget_stops_a_search_and_is_named(absmax, monkeypatch):
    theory = fresh_copy(absmax.theory)
    goal = zero_sample(absmax)
    pushes = []
    push = heapq.heappush
    monkeypatch.setattr(heapq, "heappush", lambda heap, item: pushes.append(1) or push(heap, item))
    limits = SearchLimits(bound=3, max_nodes=1000)
    assert conversion_search(theory, goal.lhs, goal.rhs, limits) is None
    assert search_stop(theory, goal.lhs, goal.rhs, limits) == "max_nodes"
    # the two endpoints and every push, counted before each expansion: the
    # expansion that went over the budget ends the search
    assert 1000 < 2 + len(pushes) < 2000
    # a hit of the memo of outcomes searches nothing and reports the same
    pushes.clear()
    assert conversion_search(theory, goal.lhs, goal.rhs, limits) is None
    assert search_stop(theory, goal.lhs, goal.rhs, limits) == "max_nodes"
    assert pushes == []
    # another budget is another search
    assert search_stop(theory, goal.lhs, goal.rhs, SearchLimits(bound=3)) is None


def test_a_search_that_ends_within_its_budgets_names_none(absmax, group):
    theory = fresh_copy(absmax.theory)
    goal = zero_sample(absmax)
    limits = SearchLimits(bound=1)
    assert conversion_search(theory, goal.lhs, goal.rhs, limits) is None
    assert search_stop(theory, goal.lhs, goal.rhs, limits) is None
    found = SearchLimits(bound=5)
    assert conversion_search(theory, goal.lhs, goal.rhs, found) is not None
    assert search_stop(theory, goal.lhs, goal.rhs, found) is None
    # not run yet
    expinv = group.goals["expinv"]
    assert search_stop(group.theory, expinv.lhs, expinv.rhs, SearchLimits(bound=11)) is None


def test_differing_normal_forms_are_named(absmax):
    theory = fresh_copy(absmax.theory)
    goal = parse_goal_spec(theory, "max(1, 0)", "0")
    assert conversion_search(theory, goal.lhs, goal.rhs) is None
    assert search_stop(theory, goal.lhs, goal.rhs) == "normal-forms"


def test_validate_answers_unknown_when_a_budget_runs_out(absmax):
    budgets = ValidityBudgets(bound=3, limits=SearchLimits(max_nodes=1000))
    status = check_ce_validity(fresh_copy(absmax.theory), absmax.goals["absmax"], budgets)
    assert (status.kind, status.budget) == ("unknown", "max_nodes")
    assert {x.name: repr(v) for x, v in status.failing_sample.items()} == {"x": "0", "y": "0"}
    assert "max_nodes (1000)" in status.detail and not status.is_proof
    # at bound 2 the same sample's search ends within the default budget
    status = check_ce_validity(fresh_copy(absmax.theory), absmax.goals["absmax"],
                               ValidityBudgets(bound=2))
    assert (status.kind, status.budget) == ("no-conversion-within-bound", None)


def test_a_closed_goal_names_the_budget_from_the_memo(group, monkeypatch):
    # a closed goal's one, empty, sample is the goal that step (1) searched:
    # the memo of outcomes answers it and keeps why that search stopped
    theory = fresh_copy(group.theory)
    goal = group.goals["expinv"]
    budgets = ValidityBudgets(bound=12, limits=SearchLimits(max_nodes=100))
    searches = recorded_searches(monkeypatch)
    recording = validity.conversion_search
    returned = []

    def returning(*args, **kwargs):
        returned.append(recording(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(validity, "conversion_search", returning)
    for _ in range(2):  # the second call searches nothing
        status = check_ce_validity(theory, goal, budgets)
        assert (status.kind, status.budget, status.failing_sample) == \
            ("unknown", "max_nodes", {})
        assert "max_nodes (100)" in status.detail
        assert searches == [(goal.lhs, goal.rhs, None)]
    # step (1)'s miss, then the samples' two hits: None each time, not the stop
    assert returned == [None, None, None]
    assert search_stop(theory, goal.lhs, goal.rhs, budgets.search_limits()) == "max_nodes"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_convert_names_the_budget(capsys, monkeypatch, fmt):
    # a small budget, so that the search stops at once; the default is run
    # by the subprocess test below
    monkeypatch.setattr(lcer.cli, "SearchLimits", partial(SearchLimits, max_nodes=1000))
    code = main(["convert", os.path.join(FIXTURES, "absmax.th"), "-l", "abs(max(0, 0))",
                 "-r", "max(abs(0), abs(0))", "--bound", "3", "--format", fmt])
    out = capsys.readouterr().out
    assert code == 2
    if fmt == "text":
        assert out == "no conversion found: search budget max_nodes (1000) ran out before bound 3\n"
    else:
        doc = json.loads(out)
        assert (doc["verdict"], doc["bound"], doc["budget"]) == \
            ("no-conversion-within-bound", 3, "max_nodes")
        assert "normal_forms_differ" not in doc


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_convert_says_when_normal_forms_differ(capsys, fmt):
    code = main(["convert", os.path.join(FIXTURES, "absmax.th"), "-l", "max(1, 0)", "-r", "0",
                 "--format", fmt])
    out = capsys.readouterr().out
    assert code == 2
    if fmt == "text":
        assert out == "not convertible (normal forms differ)\n"
    else:
        doc = json.loads(out)
        assert (doc["verdict"], doc["bound"], doc["normal_forms_differ"]) == \
            ("no-conversion-within-bound", 8, True)
        assert "budget" not in doc


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.slow
@pytest.mark.parametrize("bound", ["3", "4"])
def test_validate_at_a_small_bound_ends_on_its_budget(bound):
    # once it grew without limit and died of MemoryError; now it ends on the
    # default budget under a 1 GB address-space cap, set in the child only
    # (in about 2 s on 2 CPUs; the timeout leaves room for a loaded machine)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "lcer.cli", "validate", "fixtures/absmax.th", "-g", "absmax",
         "--bound", bound, "--format", "json"],
        cwd=ROOT, env=env, capture_output=True, timeout=60, preexec_fn=_limit_memory)
    assert done.returncode == 2, done.stderr
    doc = json.loads(done.stdout)
    assert (doc["verdict"], doc["budget"], doc["sample"]) == \
        ("unknown", "max_nodes", {"x": "0", "y": "0"})
    assert "search budget max_nodes (200000) ran out" in doc["detail"]
