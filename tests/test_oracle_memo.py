"""The oracle's memo of verdicts: a model answers a query it was asked before
from its memo (UnderlyingModel.verdicts), keyed by the formula, the budget's
bounds and its solver session.  An answer from a warm memo is the answer a
fresh model gives, a solver is asked once per distinct query and session,
no caller can change a later answer through a witness, and the proof
checker still rejects what it rejected before."""

import random
from dataclasses import replace

import pytest

from lcer.equations import ConstrainedEquation
from lcer.models import bool_model, intmod_model, lia_model
from lcer.oracle import OracleBudget, check_validity, unknown
from lcer.proofs import check_proof, generate_calc_proof
from lcer.syntax import parse_term
from lcer.terms import App, Variable

from tests.genrandom import finite_theory, lia_test_theory, random_formula, theory_vars

FRESH = {"bool": bool_model, "intmod": lambda: intmod_model(3), "lia": lia_model}
BUDGETS = [OracleBudget(), OracleBudget(box=3, max_points=50, max_finite=4, max_atoms=3)]


def _theory(kind, rng):
    return lia_test_theory() if kind == "lia" else finite_theory(kind, rng, 0)


@pytest.mark.parametrize("kind", sorted(FRESH))
def test_a_warm_memo_answers_as_a_fresh_model(kind):
    rng = random.Random(27)
    theory = _theory(kind, rng)
    xs = theory_vars(theory, "abc")
    formulas = [random_formula(theory, rng, xs[:rng.randrange(1, 4)], 3) for _ in range(40)]
    statuses = set()
    for phi in formulas + formulas[::-1]:  # every query asked twice, the second time warm
        for budget in BUDGETS:
            warm = check_validity(theory.model, phi, budget)
            fresh = check_validity(FRESH[kind](), phi, budget)
            assert (warm.status, warm.witness, warm.reason) == \
                (fresh.status, fresh.witness, fresh.reason), phi
            statuses.add(warm.status)
    assert statuses == {"valid", "invalid", "unknown"}
    # one entry per distinct query: the recursive sub-queries add their own
    assert len(theory.model.verdicts) >= len(set(formulas)) * len(BUDGETS)


class CountingSolver:
    """A solver session that answers Unknown and counts its queries."""

    def __init__(self):
        self.asked = []

    def check_validity(self, model, phi):
        self.asked.append(phi)
        return unknown("counting solver")


def test_a_solver_session_is_asked_once_per_distinct_query():
    model = lia_model()
    x, y = Variable("x", model.sorts["Int"]), Variable("y", model.sorts["Int"])
    zero = model.value_term(model.sorts["Int"], 0)

    def square_sum(*vs):  # x*x + ... >= 0: valid, and no backend but the solver decides it
        total = App(model.symbols["*"], (vs[0], vs[0]))
        for v in vs[1:]:
            total = App(model.symbols["+"], (total, App(model.symbols["*"], (v, v))))
        return App(model.symbols[">="], (total, zero))

    one, two = square_sum(x), square_sum(x, y)
    first, second = CountingSolver(), CountingSolver()
    for phi in (one, two, one, two, one):
        assert check_validity(model, phi, OracleBudget(solver=first)).reason == "counting solver"
    assert first.asked == [one, two]
    # another session is another key: it is asked, and the first is not asked again
    for phi in (one, one):
        check_validity(model, phi, OracleBudget(solver=second))
    check_validity(model, two, OracleBudget(solver=first))
    assert (first.asked, second.asked) == ([one, two], [one])


def test_a_query_that_raises_is_not_remembered():
    model = lia_model()
    x = Variable("x", model.sorts["Int"])
    with pytest.raises(ValueError):
        check_validity(model, App(model.symbols["+"], (x, x)))
    assert model.verdicts == {}


def test_a_changed_witness_does_not_change_the_next_answer():
    model = lia_model()
    x = Variable("x", model.sorts["Int"])
    phi = App(model.symbols[">"], (x, model.value_term(model.sorts["Int"], 0)))
    first = check_validity(model, phi)
    assert first.is_invalid and first.witness == {x: model.value_term(x.sort, 0)}
    want = dict(first.witness)
    first.witness[x] = model.value_term(x.sort, 5)  # the answer that filled the memo
    second = check_validity(model, phi)
    assert second.witness == want
    second.witness.clear()  # an answer from the memo
    third = check_validity(model, phi)
    assert third.witness == want and third.witness is not second.witness


def _with_constraint(d, phi):
    """d with every node's constraint replaced by phi."""
    c = d.conclusion
    return replace(d, conclusion=ConstrainedEquation(c.logical_vars, c.lhs, c.rhs, phi),
                   premises=tuple(_with_constraint(p, phi) for p in d.premises))


def _axiom_paths(d, path=()):
    if d.rule == "Axiom":
        yield path
    for i, p in enumerate(d.premises):
        yield from _axiom_paths(p, path + (i,))


@pytest.mark.parametrize("lhs, rhs, constraint, tampered", [
    ("+(x, 3)", "5", "=Int(x, 2)", ">=(x, 2)"),
    ("w(+(x, 3))", "w(5)", "=Int(x, 2)", "=Int(x, 3)"),
    ("pairf(w(*(x, y)), 1)", "pairf(w(6), 1)", "and(=Int(x, 2), =Int(y, 3))", "=Int(x, 2)"),
])
def test_the_checker_rejects_a_tampered_axiom_after_generation_warmed_the_memo(
        lhs, rhs, constraint, tampered):
    theory = lia_test_theory()
    i = theory.model.sorts["Int"]
    env = {"x": i, "y": i}
    ce = ConstrainedEquation(frozenset(Variable(n, i) for n in ("x", "y") if n in lhs),
                             *(parse_term(theory, u, env) for u in (lhs, rhs, constraint)))
    d = generate_calc_proof(theory, ce)  # asks every side condition, and re-checks
    assert list(_axiom_paths(d)) and check_proof(theory, d).accepted
    bad = _with_constraint(d, parse_term(theory, tampered, env))
    path = next(_axiom_paths(bad))
    axiom = bad
    for i in path:
        axiom = axiom.premises[i]
    # the tampered Axiom's question, asked before the check: Invalid in the memo
    c, model = axiom.conclusion, theory.model
    assert check_validity(model, model.implies(c.constraint, model.equality(c.lhs, c.rhs))
                          ).is_invalid
    report = check_proof(theory, bad)
    assert (report.verdict, report.rule, report.code) == \
        ("rejected", "Axiom", "side-condition-failed")
    assert report.path == path
    assert check_proof(theory, d).accepted  # the memo does not remember a derivation


def test_every_answer_of_a_check_is_the_answer_without_the_memo():
    # the same derivations checked on a model that has a memo and on one
    # whose memo is emptied before every query give the same reports
    theory = lia_test_theory()
    i = theory.model.sorts["Int"]
    ce = ConstrainedEquation(frozenset({Variable("x", i)}),
                             *(parse_term(theory, u, {"x": i})
                               for u in ("w(+(x, 3))", "w(5)", "=Int(x, 2)")))
    d = generate_calc_proof(theory, ce)
    tampered = _with_constraint(d, parse_term(theory, "true"))
    warm = [check_proof(theory, x) for x in (d, tampered, d, tampered)]

    class Forgetful(dict):
        def get(self, key, default=None):
            self.clear()
            return default

    theory.model.verdicts = Forgetful()
    assert [check_proof(theory, x) for x in (d, tampered, d, tampered)] == warm
    assert [r.verdict for r in warm] == ["accepted", "rejected"] * 2

