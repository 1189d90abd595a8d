"""Step (2) of proof_search joins the two reachable sets on skeletons (on
one key for every pair of a vacuous goal) and merges the candidates lazily.
These tests compare it with a reference, the nested loop over every pair in
the sort order with the public is_trivial: no pair the loop finds trivial
has unequal skeletons (unless the goal is vacuous), and proof_search yields
exactly the trivial pairs among the loop's first max_trivial_pairs
candidates, in order, with their traces.  The same loop compares the
closure that step (2) runs on each candidate with its former test, the
entailment of each difference pair, and checks each derivation it builds."""

import random

import pytest

from lcer import validity
from lcer.equations import ConstrainedEquation
from lcer.oracle import check_validity
from lcer.proofs import Derivation, check_proof, prove_heuristic, simulate_trace
from lcer.syntax import parse_goal_spec
from lcer.terms import App, decompose_differences, term_key, vars_of
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
    ("group", "op(exp(x, n), exp(x, m))", "exp(x, +(n, m))", "and(>=(n, 0), <=(m, 1))", "n m"),
    ("group", "exp(x, +(m, n))", "exp(x, +(m, 0))", "and(>=(n, 0), <=(n, 0))", "m n"),
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
    """Every pair of the two reachable sets in the sort order of step (2),
    and the sets with their traces."""
    left, right = validity._symbolic_reachable(theory, ce, budgets)
    pairs = sorted(((ls, rs) for ls in left for rs in right),
                   key=lambda p: (len(left[p[0]]) + len(right[p[1]]),
                                  p[0].size + p[1].size, term_key(p[0]), term_key(p[1])))
    return left, right, pairs


def _entails_each_difference(theory, ce, budgets):
    """Step (2)'s test of a joined pair of a satisfiable goal."""
    model = theory.model
    return all(check_validity(model, model.implies(ce.constraint, model.equality(a, b)),
                              budgets.oracle).is_valid
               for a, b in decompose_differences(ce.lhs, ce.rhs)[1])


def test_the_join_yields_every_trivial_candidate_of_the_nested_loop(request):
    vacuous_goals = joined = closed = beyond = compared = statuses = 0
    for theory, ce, budgets in _cases(request):
        model = theory.model
        X, phi = ce.logical_vars, ce.constraint
        vacuous = check_validity(model, App(model.symbols["not"], (phi,)),
                                 budgets.oracle).is_valid
        vacuous_goals += vacuous
        left, right, pairs = _nested_loop(theory, ce, budgets)
        candidates = []
        for ls, rs in pairs:
            pair = ConstrainedEquation(X, ls, rs, phi)
            same = vacuous or validity._skeleton(ls, X) == validity._skeleton(rs, X)
            if vacuous and len(candidates) >= budgets.max_trivial_pairs:
                break
            # is_trivial asks the same not phi first, and answers Valid if it is
            trivial = vacuous or is_trivial(theory, pair, budgets.oracle).is_valid
            if not vacuous:
                assert same or not trivial, (ce, ls, rs)
            if same:
                candidates.append(((ls, rs), trivial))
                d = validity.close_trivial(theory, pair, budgets.oracle)
                if isinstance(d, Derivation):
                    closed += 1
                    assert d.conclusion == pair
                    assert check_proof(theory, d, budgets.oracle).accepted, pair
            if same and not vacuous:
                joined += 1
                assert isinstance(d, Derivation) == trivial, pair
                # differential: the former test of step (2) closes no pair
                # the closure misses, and misses the Axiom over m + n = n + m
                entailed = _entails_each_difference(theory, pair, budgets)
                assert trivial or not entailed, pair
                beyond += trivial and not entailed
        expected = [p for p, trivial in candidates[: budgets.max_trivial_pairs] if trivial]
        yielded = [s for s in proof_search(fresh_copy(theory), ce, budgets)
                   if s.kind == "proved-by-triviality"]
        assert [s.gap for s in yielded] == expected, ce
        assert [s.gap_traces for s in yielded] == [(left[a], right[b]) for a, b in expected]
        compared += bool(expected)
        statuses += len(expected)
    assert vacuous_goals >= 4 and joined >= 150 and statuses > compared >= 70
    assert closed >= 200 and beyond >= 5


def test_every_satisfiable_corpus_gap_carries_a_checked_derivation():
    rng = random.Random(77)
    gaps, derived = [], 0
    for _ in range(150):
        theory = finite_theory(rng.choice(["intmod", "bool"]), rng, n_equations=2)
        ce = random_equation(theory, rng)
        status = check_ce_validity(theory, ce, CORPUS_BUDGETS)
        if status.kind != "proved-by-triviality":
            continue
        gaps.append(status)
        model = theory.model
        if status.gap_proof is None:
            assert check_validity(model, App(model.symbols["not"], (ce.constraint,))).is_valid
            continue
        derived += 1
        d = status.gap_proof
        assert (d.conclusion.lhs, d.conclusion.rhs) == status.gap
        assert check_proof(theory, d).accepted, ce
    assert (len(gaps), derived) == (44, 36)


def test_the_first_gap_of_a_vacuous_goal_keys_few_terms(absmax, monkeypatch):
    # every pair of a vacuous goal is a candidate, but the first status costs
    # one sort of right and one merge step per stream, not a sort of all pairs
    theory = fresh_copy(absmax.theory)
    ce = parse_goal_spec(theory, "max(abs(x), y)", "max(y, abs(x))", "<(x, x)", "x y")
    left, right = validity._symbolic_reachable(fresh_copy(theory), ce, ValidityBudgets())
    calls = 0

    def counted(t):
        nonlocal calls
        calls += 1
        return term_key(t)

    monkeypatch.setattr(validity, "term_key", counted)
    status = next(proof_search(theory, ce, ValidityBudgets()))
    assert 0 < calls < len(left) * len(right)
    monkeypatch.undo()
    assert status.kind == "proved-by-triviality"
    assert status.gap == (ce.lhs, ce.rhs) and status.gap_traces == ((), ())
    assert check_ce_validity(fresh_copy(absmax.theory), ce).gap == (ce.lhs, ce.rhs)


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
