"""A theory's memo of search outcomes (CETheory.outcomes): a repeated
conversion search or a repeated proof search that found no proof is answered
from it, with the verdicts, traces and derivations of a cold theory, and the
memo keeps no search state."""

import gc
import os
import random

import lcer.equations as equations
import lcer.validity as validity
from lcer.equations import CEError, SearchLimits, conversion_search
from lcer.proofs import prove_heuristic
from lcer.syntax import serialize_proof
from lcer.validity import ValidityBudgets, check_ce_validity, proof_search

from tests.conftest import FIXTURES, fresh_copy, load_theory
from tests.genrandom import finite_theory, random_equation

CORPUS_BUDGETS = ValidityBudgets(bound=8, box=4, rewrite_depth=2, rewrite_width=60)


def _proved(theory, goal, budgets):
    """prove_heuristic's derivation as text, None, or the CEError it raised."""
    try:
        proved = prove_heuristic(theory, goal, budgets)
    except CEError as exc:
        return f"CEError: {exc}"
    return None if proved is None else serialize_proof(proved)


def _answers(theory, goal, budgets):
    """check_ce_validity's status, then prove_heuristic's answer, on theory."""
    return check_ce_validity(theory, goal, budgets), _proved(theory, goal, budgets)


def _cases():
    """(theory, goal, budgets): every fixture goal at the default budgets,
    then the criterion-11 corpus (seed 77)."""
    for name in sorted(os.listdir(FIXTURES)):
        if name.endswith(".th"):
            tf = load_theory(name)
            for goal in tf.goals.values():
                yield tf.theory, goal, ValidityBudgets()
    rng = random.Random(77)
    for _ in range(150):
        theory = finite_theory(rng.choice(["intmod", "bool"]), rng, n_equations=2)
        yield theory, random_equation(theory, rng), CORPUS_BUDGETS


def _alive():
    return sum(isinstance(o, (equations.RuleCandidate, equations.Draw, equations._Node))
               for o in gc.get_objects())


def test_warm_theories_answer_as_cold_ones_and_keep_no_search_state():
    gc.collect()
    before = _alive()
    theories = []  # kept alive, with their memos, for the scan below
    for theory, goal, budgets in _cases():
        cold = _answers(theory, goal, budgets)
        size = len(theory.outcomes)
        warm = _answers(theory, goal, budgets)
        assert len(theory.outcomes) == size  # no search of the warm run added one
        # each call on a theory whose memo no other call filled
        reference = (check_ce_validity(fresh_copy(theory), goal, budgets),
                     _proved(fresh_copy(theory), goal, budgets))
        assert cold == warm == reference, goal
        theories.append(theory)
    gc.collect()
    assert _alive() == before


def test_a_memo_hit_draws_no_rule_steps(monkeypatch):
    tf = load_theory("group.th")
    theory, goal = tf.theory, tf.goals["expinv"]
    calls = []
    candidates = equations.rule_step_candidates

    def counting(*args, **kwargs):
        calls.append(args[1])
        return candidates(*args, **kwargs)

    monkeypatch.setattr(equations, "rule_step_candidates", counting)
    first = conversion_search(theory, goal.lhs, goal.rhs, SearchLimits(bound=12))
    assert first is not None and calls
    calls.clear()
    assert conversion_search(theory, goal.lhs, goal.rhs, SearchLimits(bound=12)) == first
    assert calls == []
    # other limits are another search
    conversion_search(theory, goal.lhs, goal.rhs, SearchLimits(bound=12, cap_per_redex=63))
    assert calls


def test_a_proof_search_that_found_no_proof_is_not_run_again(monkeypatch):
    tf = load_theory("absmax.th")
    theory, goal = tf.theory, tf.goals["maxcomm"]
    matched = []
    match = validity.match

    def counting(pattern, subject):
        matched.append(subject)
        return match(pattern, subject)

    monkeypatch.setattr(validity, "match", counting)
    assert list(proof_search(theory, goal, ValidityBudgets())) == []
    assert matched
    matched.clear()
    assert list(proof_search(theory, goal, ValidityBudgets())) == []
    assert matched == []
    assert list(proof_search(theory, goal, ValidityBudgets(rewrite_depth=2))) == []
    assert matched
