"""validate and prove share one proving path: prove returns the derivation
of validate's own verdict (validity.verdicts).  These tests run both, with
the checker and counter-model search, over the seeded criterion-11 corpus and
compare their answers goal by goal.  A pinned digest of every gap, gap trace
and derivation shows that the path's traces and derivations stay as they
were."""

import hashlib
import random

import pytest

from lcer.algebra import search_counter_model
from lcer.equations import CEError, replay_trace
from lcer.oracle import check_validity
from lcer.proofs import Derivation, check_proof, prove_heuristic
from lcer.syntax import parse_goal_spec, serialize_proof, term_text
from lcer.terms import TERM, App, sort_of
from lcer.validity import ValidityBudgets, check_ce_validity

from tests.conftest import load_theory
from tests.genrandom import finite_theory, random_equation

GOALS = 150
BUDGETS = ValidityBudgets(bound=8, box=4, rewrite_depth=2, rewrite_width=60)

# sha256 of _pinned_text(), recorded before validate and prove were merged
# onto one proving path, then moved once: goals 56 and 120, whose rule steps
# bind equation variables to terms over the goal's, got derivations where
# prove raised CEError
PINNED_DIGEST = "0555100f508c4eea890fdd86ff40e0d2ed2a48655c507fbef61151ab3f97cb22"


def run_corpus():
    """(theory, goal, validate status, prove outcome, refuted) per goal of
    the criterion-11 generator (seed 77), where the prove outcome is a
    derivation, None, or the CEError prove_heuristic raised."""
    rng = random.Random(77)
    out = []
    for _ in range(GOALS):
        theory = finite_theory(rng.choice(["intmod", "bool"]), rng, n_equations=2)
        goal = random_equation(theory, rng)
        status = check_ce_validity(theory, goal, BUDGETS)
        try:
            proved = prove_heuristic(theory, goal, BUDGETS)
        except CEError as exc:
            proved = exc
        refuted = search_counter_model(theory, goal, 1, 2, max_nodes=30_000).algebra
        out.append((theory, goal, status, proved, refuted is not None))
    return out


@pytest.fixture(scope="module")
def corpus():
    return run_corpus()


def test_validate_prove_check_and_refute_agree(corpus):
    derived = vacuous = errors = 0
    for theory, goal, status, proved, refuted in corpus:
        if isinstance(proved, Derivation):
            assert check_proof(theory, proved).accepted, goal
        if status.kind == "proved-ground-conversion":
            assert replay_trace(theory, goal.lhs, status.trace) == goal.rhs
        assert not (refuted and (status.is_proof or proved is not None)), goal
        if not status.is_proof:
            assert proved is None or isinstance(proved, CEError), goal
            continue
        if isinstance(proved, CEError):
            errors += 1
        elif proved is None:
            # vacuous: no instance satisfies the constraint, and the gap is
            # term-sorted, so no Axiom and none of the other rules closes it
            vacuous += 1
            model = theory.model
            assert status.kind == "proved-by-triviality"
            assert check_validity(model, App(model.symbols["not"],
                                             (goal.constraint,))).is_valid
            assert sort_of(status.gap[0]).kind == TERM
        else:
            derived += 1
    assert derived + vacuous + errors == 70
    assert vacuous <= 5 and errors == 0


def _steps_text(trace) -> str:
    return "; ".join(
        f"{list(st.position)} {st.kind} {st.direction} {st.eq_index} "
        f"{' '.join(f'{x.name}={term_text(u)}' for x, u in st.subst)} "
        f"{term_text(st.replaced)} -> {term_text(st.result)}"
        for st in trace)


def _pinned_text(corpus) -> str:
    lines = []
    for i, (_, _, status, proved, _) in enumerate(corpus):
        if status.kind == "proved-by-triviality":
            lines.append(f"{i} gap {term_text(status.gap[0])} ~ {term_text(status.gap[1])}")
            lines.extend(f"{i} gap trace {_steps_text(tr)}" for tr in status.gap_traces)
        if isinstance(proved, Derivation):
            lines.append(f"{i} prove {serialize_proof(proved)}")
        else:
            lines.append(f"{i} prove {type(proved).__name__}")
    nneg = load_theory("nneg.th")
    for n in range(21):
        goal = parse_goal_spec(nneg.theory, f"nneg({n})", "true")
        lines.append(serialize_proof(prove_heuristic(nneg.theory, goal,
                                                     ValidityBudgets(bound=26))))
    splitabst = load_theory("splitabst.th")
    lines.append(serialize_proof(prove_heuristic(splitabst.theory, splitabst.goals["all"],
                                                 ValidityBudgets())))
    return "\n".join(lines)


def test_gaps_traces_and_derivations_are_pinned(corpus):
    digest = hashlib.sha256(_pinned_text(corpus).encode()).hexdigest()
    assert digest == PINNED_DIGEST
