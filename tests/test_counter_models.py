"""Counter-model search, model checking and refutation, pinned: a digest of
every algebra the search returns (as algebra_text prints it), its refuting
valuation, its node count and whether its budget ran out, and of what
check_is_model and check_refutes say about that algebra.  The goals are
refute_bool.th's and the seed-77 finite corpus of test_proof_path.py, at
bounds where the search finds a model, finds none, and runs out of nodes."""

import hashlib
import random

from lcer.algebra import algebra_text, check_is_model, check_refutes, search_counter_model
from lcer.equations import ConstrainedEquation
from lcer.syntax import parse_goal_spec

from tests.conftest import load_theory
from tests.genrandom import finite_theory, random_equation

# sha256 of _pinned_text(), recorded before the counter-model search moved
# onto FiniteCEAlgebra.apply
PINNED_DIGEST = "3bc229517b7974aea4bb0f97d30cc66227c9dc68acda7c6a9675faa1b976aa3a"


def _valuation_text(rho) -> str:
    if rho is None:
        return "None"
    return "{" + ", ".join(f"{v.name}:{v.sort.name}={e!r}"
                           for v, e in sorted(rho.items(), key=lambda kv: kv[0].name)) + "}"


def _outcome_lines(tag: str, theory, goal: ConstrainedEquation, extra: int, size: int,
                   max_nodes: int) -> list[str]:
    out = search_counter_model(theory, goal, extra, size, max_nodes=max_nodes)
    lines = [f"{tag} nodes={out.nodes} exhausted={out.exhausted} bounds={out.bounds}"]
    if out.algebra is None:
        return lines + [f"{tag} no algebra"]
    checked = check_is_model(out.algebra)
    refuting = check_refutes(out.algebra, goal)
    # every algebra the search returns is a model that refutes the goal
    assert checked.ok and refuting is not None, tag
    lines.append(f"{tag} refuted at {_valuation_text(out.refuting_valuation)}")
    lines.append(algebra_text(out.algebra))
    lines.append(f"{tag} model {checked.ok} {checked.eq_index} "
                 f"{_valuation_text(checked.valuation)}")
    lines.append(f"{tag} refutes {_valuation_text(refuting)}")
    return lines


def _pinned_text() -> str:
    lines = []
    rb = load_theory("refute_bool.th")
    goals = [rb.goals["gf"], *rb.theory.equations,
             parse_goal_spec(rb.theory, "f(x)", "x", None, "x"),
             parse_goal_spec(rb.theory, "g(f(x))", "f(g(x))")]
    for i, goal in enumerate(goals):
        for extra, size, max_nodes in ((1, 1, 500_000), (2, 1, 500_000), (0, 1, 500_000),
                                       (2, 1, 3)):
            lines += _outcome_lines(f"rb{i} {extra} {size} {max_nodes}", rb.theory, goal,
                                    extra, size, max_nodes)
    rng = random.Random(77)
    for i in range(150):
        theory = finite_theory(rng.choice(["intmod", "bool"]), rng, n_equations=2)
        goal = random_equation(theory, rng)
        lines += _outcome_lines(f"c{i}", theory, goal, 1, 2, 30_000)
        if i % 5 == 0:
            lines += _outcome_lines(f"c{i} small", theory, goal, 0, 1, 40)
    return "\n".join(lines)


def test_counter_models_are_pinned():
    digest = hashlib.sha256(_pinned_text().encode()).hexdigest()
    assert digest == PINNED_DIGEST
