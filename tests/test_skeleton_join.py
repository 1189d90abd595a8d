"""Step (2) of proof_search joins the two reachable sets on skeletons.  These
tests compare it with a reference, the nested loop over every pair in
proof_search's sort order with the public is_trivial: no pair the loop finds
trivial has unequal skeletons (unless the goal is vacuous), and wherever the
loop finds a gap within its first max_trivial_pairs pairs, proof_search
yields the same first gap with the same traces."""

import random

import pytest

from lcer import validity
from lcer.equations import ConstrainedEquation
from lcer.oracle import check_validity
from lcer.proofs import check_proof, prove_heuristic, simulate_trace
from lcer.syntax import parse_goal_spec
from lcer.terms import App, term_key, vars_of
from lcer.validity import ValidityBudgets, check_ce_validity, is_trivial, proof_search

from tests.conftest import fresh_copy
from tests.genrandom import finite_theory, random_equation

CORPUS_BUDGETS = ValidityBudgets(bound=8, box=4, rewrite_depth=2, rewrite_width=60)
FIXTURE_BUDGETS = ValidityBudgets(rewrite_depth=2, rewrite_width=40)

# (fixture, lhs, rhs, constraint, pi); the goals under <(x, x), <(n, n) and
# a conjunction of < and > are vacuous
FIXTURE_GOALS = [
    ("absmax", "abs(x)", "abs(-(x))", "true", "x"),
    ("absmax", "max(x, y)", "max(y, x)", "true", "x y"),
    ("absmax", "abs(max(x, y))", "max(abs(x), abs(y))", "and(<=(0, x), <=(0, y))", "x y"),
    ("absmax", "max(abs(x), abs(x))", "abs(x)", ">=(x, 0)", "x"),
    ("absmax", "abs(x)", "x", ">=(x, 0)", "x"),
    ("absmax", "abs(x)", "max(x, x)", "<(x, x)", "x"),
    ("absmax", "max(x, y)", "abs(y)", "and(<(x, y), >(x, y))", "x y"),
    ("lists", "nth(xs, -(+(n, 1), 1))", "nth(xs, n)", "true", "n"),
    ("lists", "length(cons(a, xs))", "+(length(xs), 1)", "true", ""),
    ("lists", "nth(cons(a, xs), n)", "nth(xs, -(n, 1))", ">(n, 0)", "n"),
    ("lists", "length(xs)", "n", "<(n, n)", "n"),
    ("lists", "nth(xs, n)", "none", "and(<(n, 0), >(n, 0))", "n"),
    ("splitabst", "f(x)", "0", "true", "x"),
    ("splitabst", "f(true)", "f(false)", "true", ""),
]


def _cases(request):
    rng = random.Random(77)  # the criterion-11 corpus of test_proof_path.py
    for _ in range(150):
        theory = finite_theory(rng.choice(["intmod", "bool"]), rng, n_equations=2)
        yield theory, random_equation(theory, rng), CORPUS_BUDGETS
    for name, lhs, rhs, phi, pi in FIXTURE_GOALS:
        theory = fresh_copy(request.getfixturevalue(name).theory)
        yield theory, parse_goal_spec(theory, lhs, rhs, phi, pi), FIXTURE_BUDGETS


def _nested_loop(theory, ce, budgets):
    """Every pair of the two reachable sets in the old sort order, and the
    sets with their traces."""
    left, right = validity._symbolic_reachable(theory, ce, budgets)
    pairs = sorted(((ls, rs) for ls in left for rs in right),
                   key=lambda p: (len(left[p[0]]) + len(right[p[1]]),
                                  p[0].size + p[1].size, term_key(p[0]), term_key(p[1])))
    return left, right, pairs


def test_the_join_keeps_every_trivial_pair_and_the_first_gap(request):
    vacuous_goals = trivial_pairs = compared = 0
    for theory, ce, budgets in _cases(request):
        model = theory.model
        X, phi = ce.logical_vars, ce.constraint
        vacuous = check_validity(model, App(model.symbols["not"], (phi,)),
                                 budgets.oracle).is_valid
        vacuous_goals += vacuous
        left, right, pairs = _nested_loop(theory, ce, budgets)
        first = None
        for i, (ls, rs) in enumerate(pairs):
            if vacuous and i >= budgets.max_trivial_pairs:
                break
            if not is_trivial(theory, ConstrainedEquation(X, ls, rs, phi),
                              budgets.oracle).is_valid:
                continue
            trivial_pairs += 1
            if first is None and i < budgets.max_trivial_pairs:
                first = (ls, rs)
            if not vacuous:
                assert validity._skeleton(ls, X) == validity._skeleton(rs, X), (ce, ls, rs)
        if first is None:
            continue
        compared += 1
        status = next(s for s in proof_search(fresh_copy(theory), ce, budgets)
                      if s.kind == "proved-by-triviality")
        assert status.gap == first, ce
        assert status.gap_traces == (left[first[0]], right[first[1]]), ce
    assert vacuous_goals >= 4 and trivial_pairs > compared >= 70


@pytest.mark.parametrize("a, b, same", [
    ("abs(x)", "x", False),                 # a term symbol above the variable
    ("+(x, 1)", "-(x, 2)", True),           # both whole holes of sort Int
    ("max(+(x, 1), y)", "max(x, *(y, 2))", True),
    ("max(x, z)", "max(x, 0)", False),      # z is outside X and keeps its key
    ("max(z, x)", "max(z, 3)", True),
])
def test_skeletons(absmax, a, b, same):
    ce = parse_goal_spec(absmax.theory, a, b)
    X = frozenset(v for v in vars_of(ce.lhs) | vars_of(ce.rhs) if v.name in ("x", "y"))
    assert (validity._skeleton(ce.lhs, X) == validity._skeleton(ce.rhs, X)) == same


def test_max_abs_x_twice_is_proved_by_its_gap_x_x(absmax):
    # (x, x) is pair 581 of all pairs in the sort order: a cap of
    # max_trivial_pairs (400) on all pairs, not on joined ones, misses it
    theory = fresh_copy(absmax.theory)
    ce = parse_goal_spec(theory, "max(abs(x), abs(x))", "abs(x)", ">=(x, 0)", "x")
    status = check_ce_validity(theory, ce)
    assert status.kind == "proved-by-triviality"
    x = next(iter(ce.logical_vars))
    assert status.gap == (x, x)
    for start, trace in zip((ce.lhs, ce.rhs), status.gap_traces):
        replay = simulate_trace(theory, start, trace, ce.logical_vars, ce.constraint)
        assert replay.conclusion.lhs == start and replay.conclusion.rhs == x
        assert check_proof(theory, replay).accepted
    d = prove_heuristic(theory, ce)
    assert d is not None and check_proof(theory, d).accepted
