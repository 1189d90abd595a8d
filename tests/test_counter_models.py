"""Counter-model search, model checking and refutation, pinned: a digest of
every algebra the search returns (as algebra_text prints it), its refuting
valuation, its node count and whether its budget ran out, and of what
check_is_model and check_refutes say about that algebra.  The goals are
refute_bool.th's and the seed-77 finite corpus of test_proof_path.py, at
bounds where the search finds a model, finds none, and runs out of nodes."""

import hashlib
import random

from lcer.algebra import (
    FiniteCEAlgebra,
    _admissible,
    _fill_first,
    algebra_text,
    check_is_model,
    check_refutes,
    search_counter_model,
)
from lcer.equations import ConstrainedEquation
from lcer.syntax import parse_goal_spec
from lcer.terms import TERM

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


# -- the resume cursor against a search that re-checks from scratch ------------

class _Need(Exception):
    pass


class _ReferenceShell(FiniteCEAlgebra):
    def missing(self, f, args):
        raise _Need(f, args)


def reference_search(theory, goal, extra: int, size: int, max_nodes: int):
    """search_counter_model as it was before child nodes resumed: every node
    checks every equation's admissible valuations and then the goal's from
    the first.  Returns (algebra_text or None, refuting valuation, nodes,
    exhausted)."""
    model = theory.model
    carriers = {sort: tuple(model.carriers[sort].elements) +
                tuple(f"#{name.lower()}{i}" for i in range(extra))
                for name, sort in model.sorts.items()}
    for sort in theory.signature.sorts:
        if sort.kind == TERM:
            carriers[sort] = tuple(f"#{sort.name.lower()}{i}" for i in range(size))
    shell = _ReferenceShell(theory, carriers, {})
    eq_plans = [(ce, list(_admissible(shell, ce))) for ce in theory.equations]
    goal_valuations = list(_admissible(shell, goal))
    nodes = 0
    exhausted = False

    def differs(ce, rho) -> bool:
        return shell.eval(ce.lhs, rho) != shell.eval(ce.rhs, rho)

    def solve():
        nonlocal nodes, exhausted
        nodes += 1
        if nodes > max_nodes:
            exhausted = True
            return None
        try:
            if any(differs(ce, rho) for ce, valuations in eq_plans for rho in valuations):
                return None
            return next((rho for rho in goal_valuations if differs(goal, rho)), None)
        except _Need as need:
            f, args = need.args
            table = shell.tables.setdefault(f.name, {})
            for value in carriers[f.result_sort]:
                table[args] = value
                rho = solve()
                if rho is not None:
                    return rho
                del table[args]
            return None

    rho = solve()
    if rho is None:
        return None, None, nodes, exhausted
    algebra = FiniteCEAlgebra(theory, carriers, shell.tables)
    _fill_first(algebra, [*theory.signature.term_symbols(), *model.symbols.values()])
    algebra.validate()
    return algebra_text(algebra), _valuation_text(rho), nodes, False


def _cut_cases():
    rb = load_theory("refute_bool.th")
    goals = [rb.goals["gf"], *rb.theory.equations,
             parse_goal_spec(rb.theory, "f(x)", "x", None, "x"),
             parse_goal_spec(rb.theory, "g(f(x))", "f(g(x))")]
    for i, goal in enumerate(goals):
        for extra in (1, 2):
            yield f"rb{i} extra={extra}", rb.theory, goal, extra, 1
    rng = random.Random(2205)
    for i in range(20):
        theory = finite_theory(rng.choice(["intmod", "bool"]), rng, n_equations=2)
        yield f"random{i}", theory, random_equation(theory, rng), 1, 2


def test_resumed_search_matches_a_search_from_scratch_at_every_budget():
    total = exhausted_unbounded = 0
    for tag, theory, goal, extra, size in _cut_cases():
        unbounded = reference_search(theory, goal, extra, size, 500_000)
        assert not unbounded[3], tag
        exhausted_unbounded += unbounded[0] is None
        for max_nodes in range(1, unbounded[2] + 1):
            out = search_counter_model(theory, goal, extra, size, max_nodes=max_nodes)
            got = (algebra_text(out.algebra) if out.algebra else None,
                   _valuation_text(out.refuting_valuation) if out.algebra else None,
                   out.nodes, out.exhausted)
            assert got == reference_search(theory, goal, extra, size, max_nodes), \
                (tag, max_nodes)
            total += 1
    # the cases reach both answers and cut deep searches at many budgets
    assert exhausted_unbounded > 0 and total > 500
