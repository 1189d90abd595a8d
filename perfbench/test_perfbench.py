"""Checks of the benchmark's tracer and workloads.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py

The pinned counts are those of the acceptance criteria and the README: 1298
expansions for group.th's expinv at bound 12 and 121 samples for absmax.th's
maxcomm.
"""

from __future__ import annotations

import gc
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import lcer  # noqa: E402
import calibrate  # noqa: E402
import goals as G  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import NOT_WRONG, WORKLOADS, signature  # noqa: E402


def _theory(name):
    return lcer.parse_theory(G.input_text(name))


def _traced(fn):
    tracer = Tracer()
    tracer.install(lcer)
    try:
        result = fn()
    finally:
        tracer.uninstall()
    return tracer, result


def test_expinv_expansions_are_pinned():
    tf = _theory("group.th")
    goal = tf.goals["expinv"]
    tracer, trace = _traced(lambda: lcer.conversion_search(
        tf.theory, goal.lhs, goal.rhs, lcer.SearchLimits(bound=12)))
    assert trace is not None and len(trace) == 12
    assert tracer.counts["equations.rule_step_candidates.calls"] == 1298
    assert tracer.counts["equations.conversion_search.found"] == 1
    assert tracer.metrics()["equations.expansions_per_s"] > 0


def test_maxcomm_samples_are_pinned():
    tf = _theory("absmax.th")
    tracer, status = _traced(lambda: lcer.check_ce_validity(
        tf.theory, tf.goals["maxcomm"], lcer.ValidityBudgets(bound=8, box=5)))
    assert (status.kind, status.samples) == ("confirmed-on-samples", 121)
    assert tracer.counts["validity.check_ce_validity.samples"] == 121
    assert tracer.counts["models.enumerate_satisfying.yields"] >= 121
    assert tracer.counts["equations.conversion_search.calls"] >= 121


def test_names_imported_elsewhere_are_rebound_and_restored():
    import lcer.equations
    import lcer.models
    import lcer.oracle
    import lcer.proofs
    import lcer.validity

    originals = (lcer.models.enumerate_satisfying, lcer.oracle.check_validity)
    tracer = Tracer()
    tracer.install(lcer)
    try:
        for module in (lcer.models, lcer.equations, lcer.validity, lcer.proofs, lcer):
            assert module.enumerate_satisfying is not originals[0]
            assert module.enumerate_satisfying is lcer.models.enumerate_satisfying
        for module in (lcer.oracle, lcer.validity, lcer.proofs, lcer):
            assert module.check_validity is lcer.oracle.check_validity
            assert module.check_validity is not originals[1]
    finally:
        tracer.uninstall()
    assert lcer.validity.enumerate_satisfying is originals[0]
    assert lcer.proofs.check_validity is originals[1]


def test_generator_span_excludes_the_consumer():
    tf = _theory("absmax.th")
    ce = tf.goals["maxcomm"]
    model = tf.theory.model

    def consume():
        for _ in lcer.enumerate_satisfying(model, ce.logical_vars, ce.constraint, box=2):
            time.sleep(0.01)

    tracer, _ = _traced(consume)
    assert tracer.counts["models.enumerate_satisfying.yields"] == 25
    assert tracer.self_s["models.enumerate_satisfying"] < 0.1  # 25 sleeps take 0.25 s


def test_recursive_spans_subtract_children():
    tf = lcer.parse_theory("(theory (model lia) (fun f (Bool) Int))")
    model = tf.theory.model
    phi = lcer.parse_term(tf.theory, "(or b (>= (+ n 1) n))", {"b": model.sorts["Bool"],
                                                             "n": model.sorts["Int"]})
    start = time.perf_counter()
    tracer, verdict = _traced(lambda: lcer.check_validity(model, phi))
    wall = time.perf_counter() - start
    assert verdict.is_valid
    # the finite split on b re-enters check_validity once per case
    assert tracer.counts["oracle.check_validity.calls"] == 3
    outer = [s for s in tracer.spans if s[3] == "oracle.check_validity" and s[1] == 0]
    assert len(outer) == 1
    assert tracer.self_s["oracle.check_validity"] <= outer[0][5] - outer[0][4] + 1e-9 <= wall


def test_absmax_answer_is_stated():
    # too slow for the decide pool, so its stated answer is checked here
    tf = _theory("absmax.th")
    status = lcer.check_ce_validity(tf.theory, tf.goals["absmax"],
                                    lcer.ValidityBudgets(**G.DECIDE_FIXTURE_BUDGETS))
    assert (status.kind, status.samples) == ("confirmed-on-samples", 36)


def test_traced_and_untraced_verdicts_agree():
    for name, workload in WORKLOADS.items():
        pool = workload.pool(random.Random(f"{name}:7"))
        texts = {g.theory: G.input_text(g.theory) for g in pool if g.theory != "inline"}
        theories = {n: lcer.parse_theory(t) for n, t in texts.items()}
        # cheap goals of the pool; the pinned tests cover the slow ones
        chosen = [g for g in pool if g.family not in
                  ("expinv", "comm", "maxcomm", "absneg", "nneg", "gf")][:12]
        plain = [workload.run(lcer, workload.prepare(lcer, theories, g)) for g in chosen]
        tracer, traced = _traced(lambda: [workload.run(lcer, workload.prepare(lcer, theories, g))
                                          for g in chosen])
        assert [signature(o) for o in plain] == [signature(o) for o in traced], name
        assert sum(tracer.counts.values()) > 0


def test_goals_depend_only_on_the_seed():
    for name, workload in WORKLOADS.items():
        a = workload.pool(random.Random(f"{name}:3"))
        b = workload.pool(random.Random(f"{name}:3"))
        c = workload.pool(random.Random(f"{name}:4"))
        assert G.digest(a) == G.digest(b)
        assert G.digest(a) != G.digest(c)
        assert sorted(g.family for g in a) == sorted(g.family for g in c)
        assert len(a) >= 100  # ten goals beyond the 90th percentile


# ROADMAP.md's reproducer of a known defect: prove_heuristic raises CEError
# from _simulate_step on this valid goal
DEFECT_THEORY = """(theory (model bool) (sorts U)
  (fun h (Bool) U) (fun k (U) U) (fun c0 () U) (fun pairf (U Bool) U)
  (eq (vars (b Bool) (u U)) (pi b) (constraint (= b b)) u (pairf (pairf c0 false) b))
  (eq (vars (b Bool)) (pi b) (constraint true) (k (k u)) (pairf (k u) false))
  (goal g (vars (a Bool)) (pi a) (constraint (= a false)) (h a) (k (pairf c0 false))))"""


def test_a_known_defect_fails_its_goal_without_a_wrong_answer():
    from lcer.equations import CEError

    workload = WORKLOADS["decide"]
    goal = G.Goal("decide/defect", "random", "inline",
                  {"theory_text": DEFECT_THEORY, "budgets": G.DECIDE_RANDOM_BUDGETS},
                  {"samples_if_confirmed": 1})
    p = workload.prepare(lcer, {}, goal)
    budgets = lcer.ValidityBudgets(**G.DECIDE_RANDOM_BUDGETS)
    try:
        lcer.prove_heuristic(p.theory, p.data["ce"], budgets)
    except CEError as exc:
        outcome = {"kind": "raised", "error": f"CEError: {exc}"}
    else:
        raise AssertionError("the defect is fixed: update NOTES.md's known defects")
    problems = workload.check(lcer, p, outcome)
    assert problems and all(x.startswith(NOT_WRONG) for x in problems)


def test_reference_is_fixed_work():
    assert calibrate.reference() == calibrate.reference()
    gc_was = gc.isenabled()
    assert calibrate.timed_reference() > 0
    assert gc.isenabled() == gc_was
    assert calibrate.normalize(10.0, 2 * calibrate.REFERENCE_MS, 2 * calibrate.REFERENCE_MS) == 5.0
