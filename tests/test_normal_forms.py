"""Conversion search on an orthogonal, terminating theory: two terms convert
exactly when their normal forms are equal, so a search whose endpoints have
different normal forms returns None before it expands a node.  The analysis
(CETheory._rules) is checked on the fixtures, and the pruned search against
the same search with the analysis forced to None."""

import json
import os
import random
import signal

import pytest

import lcer.equations as equations
from lcer.cli import main
from lcer.equations import SearchLimits, calc_trace, conversion_search, rule_step_candidates
from lcer.syntax import parse_term, parse_theory
from lcer.validity import ValidityBudgets, check_ce_validity

from tests.conftest import FIXTURES, fresh_copy, load_theory


@pytest.mark.parametrize("name, orthogonal", [
    ("absmax.th", True), ("splitabst.th", True), ("refute_bool.th", True),
    ("group.th", False), ("inconsistent.th", False), ("lists.th", False),
    ("mod12.th", False), ("nneg.th", False),
])
def test_fixture_theories_are_classified(name, orthogonal):
    theory = load_theory(name).theory
    rules = theory._rules
    assert (rules is not None) == orthogonal
    if orthogonal:
        assert [side.eq_index for side in rules] == list(range(len(theory.equations)))


@pytest.mark.parametrize("equations_text", [
    # a non-root overlap: k's rule rewrites inside f's source
    "(eq (pi) (constraint true) (f (k x)) 0) (eq (pi) (constraint true) (k x) x)",
    # guards that can hold together
    "(eq (pi x) (constraint (>= x 0)) (g x) 0) (eq (pi x) (constraint (<= x 0)) (g x) 1)",
    # a non-linear source, a theory operator in a source, a variable source
    "(eq (pi) (constraint true) (h x x) x)",
    "(eq (pi x) (constraint true) (g (+ x 1)) x)",
    "(eq (vars (x Int)) (pi) (constraint true) x (g x))",
    # a variable only the destination binds; a duplicated term variable
    "(eq (pi) (constraint true) (g x) y)",
    "(eq (pi) (constraint true) (g x) (+ x x))",
])
def test_theories_that_are_not_orthogonal_and_terminating(equations_text):
    theory = parse_theory("(theory (model lia) (sorts U) (fun f (Int) Int) (fun g (Int) Int)"
                          " (fun k (Int) Int) (fun h (Int Int) Int) " + equations_text + ")").theory
    assert theory._rules is None


# -- generated orthogonal theories ------------------------------------------------

MODELS = {
    "bool": ("(model bool)", "Bool", ["true", "false"], [["(= x y)", "(not (= x y))"]],
             ["x", "y", "true", "(not x)", "(and x y)"], "and"),
    "intmod": ("(model intmod 3)", "Int", ["0", "1", "2"],
               [["(= x y)", "(not (= x y))"], ["(< x y)", "(= x y)", "(> x y)"]],
               ["x", "y", "0", "(+ x y)"], "+"),
    "lia": ("(model lia)", "Int", ["0", "1", "-1"], [["(< x y)", "(= x y)", "(> x y)"]],
            ["x", "y", "0", "(+ x y)", "(- x 1)"], "+"),
}


def orthogonal_theory(kind, rng):
    """f by cases under disjoint guards, g, and p and unk on constructor
    patterns of U: every source is linear and rooted in a term symbol, no two
    overlap but at the root under guards that cannot both hold, and no
    destination holds a term symbol."""
    model, data, values, partitions, dsts, _ = MODELS[kind]
    cases = rng.sample(rng.choice(partitions), rng.randint(1, 2))
    eqs = [f"(eq (pi x y) (constraint {phi}) (f x y) {rng.choice(dsts)})" for phi in cases]
    eqs.append(f"(eq (pi x) (constraint true) (g x) {rng.choice(dsts).replace('y', 'x')})")
    eqs.append("(eq (pi x) (constraint true) (p (c x)) x)")
    eqs.append(f"(eq (pi) (constraint true) (p e) {rng.choice(values)})")
    eqs.append("(eq (vars (u U)) (pi) (constraint true) (unk (k u)) u)")
    text = (f"(theory {model} (sorts U) (fun f ({data} {data}) {data}) (fun g ({data}) {data})"
            f" (fun p (U) {data}) (fun unk (U) U) (fun k (U) U) (fun c ({data}) U) (fun e () U) "
            + " ".join(eqs) + ")")
    return parse_theory(text).theory


def random_term(kind, rng, sort, depth):
    """Call syntax over the variables a, b (data) and w (U)."""
    _, _, values, _, _, op = MODELS[kind]
    if sort == "U":
        if depth == 0 or rng.random() < 0.2:
            return rng.choice(["e", "w"])
        f = rng.choice(["c", "k", "unk"])
        return f"{f}({random_term(kind, rng, 'D' if f == 'c' else 'U', depth - 1)})"
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(["a", "b", *values])
    f = rng.choice(["f", "g", "p", op])
    args = {"f": "DD", "g": "D", "p": "U", op: "DD"}[f]
    return f"{f}({', '.join(random_term(kind, rng, s, depth - 1) for s in args)})"


def reference_normal_form(theory, t):
    """Left-to-right rule steps and calc steps until none applies."""
    t, _ = calc_trace(theory.model, t)
    while True:
        step = next((c for c in rule_step_candidates(theory, t) if c.direction == "lr"), None)
        if step is None:
            return t
        t, _ = calc_trace(theory.model, step.result)


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_pruned_search_answers_as_the_full_search(kind, monkeypatch):
    rng = random.Random(f"normal forms {kind}")
    limits = [SearchLimits(bound=b, max_nodes=150, solve_box=1, cap_per_redex=3)
              for b in (1, 2, 3)]
    differ = found = 0
    for _ in range(8):
        theory = orthogonal_theory(kind, rng)
        assert theory._rules is not None
        reference = fresh_copy(theory)
        monkeypatch.setattr(reference, "_rules", None)
        sorts = {"D": theory.model.sorts[MODELS[kind][1]], "U": theory.signature.sort("U")}
        env = {"a": sorts["D"], "b": sorts["D"], "w": sorts["U"]}
        for _ in range(10):
            sort = rng.choice("DU")
            s = parse_term(theory, random_term(kind, rng, sort, 3), env)
            others = [c.result for c in rule_step_candidates(theory, s)]
            t = rng.choice([reference_normal_form(theory, s),
                            parse_term(theory, random_term(kind, rng, sort, 2), env),
                            *rng.sample(others, min(len(others), 2))])
            same = reference_normal_form(theory, s) == reference_normal_form(theory, t)
            for lim in limits:
                got = conversion_search(theory, s, t, lim)
                want = conversion_search(reference, s, t, lim)
                assert got == want, (s, t, lim.bound)
                assert same or want is None
                differ += not same
                found += want is not None
    assert differ and found


def test_a_failing_search_makes_no_rule_steps(monkeypatch):
    tf = load_theory("refute_bool.th")
    theory, goal = tf.theory, tf.goals["gf"]
    calls = []
    candidates = equations.rule_step_candidates

    def counting(*args, **kwargs):
        calls.append(args[1])
        return candidates(*args, **kwargs)

    monkeypatch.setattr(equations, "rule_step_candidates", counting)
    assert conversion_search(theory, goal.lhs, goal.rhs) is None
    status = check_ce_validity(fresh_copy(theory), goal, ValidityBudgets())
    assert status.kind == "no-conversion-within-bound"
    assert calls == []


# -- the two false absmax.th goals whose searches once ran for minutes -------------

@pytest.fixture
def alarm():
    def expired(signum, frame):
        raise TimeoutError("no answer within 10 s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("argv, sample", [
    (["-l", "max(x, 0)", "-r", "x", "-c", ">=(x, -1)", "--pi", "x"], {"x": "-1"}),
    (["-l", "max(x, y)", "-r", "max(y, z)", "--pi", "x y", "--bound", "3", "--box", "2"],
     {"x": "0", "y": "0"}),
])
def test_false_absmax_goals_are_answered_at_once(capsys, alarm, argv, sample):
    code = main(["validate", os.path.join(FIXTURES, "absmax.th"), *argv, "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1 and doc["verdict"] == "no-conversion-within-bound"
    assert doc["sample"] == sample
