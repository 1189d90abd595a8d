import random

import pytest

from lcer.models import intmod_model, lia_model
from lcer.oracle import check_validity
from lcer.terms import App, Variable, apply_subst

LIA = lia_model()
INT = LIA.sorts["Int"]
BOOL = LIA.sorts["Bool"]


def v(name, sort=INT):
    return Variable(name, sort)


def c(n):
    return LIA.value_term(INT, n)


def op(name, *args):
    return App(LIA.symbols[name], args)


def eq(a, b):
    return op("=Int", a, b)


def test_totality_of_order():
    x = v("x")
    phi = op("or", op(">=", x, c(0)), op("<", x, c(0)))
    assert check_validity(LIA, phi).is_valid


def test_invalid_with_witness():
    x = v("x")
    verdict = check_validity(LIA, op(">=", x, c(0)))
    assert verdict.is_invalid
    assert verdict.witness == {x: c(-1)}


def test_linear_identity():
    n = v("n")
    phi = eq(op("-", op("+", n, c(1)), c(1)), n)
    assert check_validity(LIA, phi).is_valid


def test_weakening_style_implication():
    n = v("n")
    phi = op("=>", op(">", n, c(0)), op(">", op("+", n, c(2)), c(0)))
    assert check_validity(LIA, phi).is_valid
    bad = op("=>", LIA.value_term(BOOL, True), op(">", n, c(0)))
    verdict = check_validity(LIA, bad)
    assert verdict.is_invalid


def test_propositional_over_shared_atoms():
    x, y = v("x"), v("y")
    a = eq(x, y)
    assert check_validity(LIA, op("=>", a, a)).is_valid
    # n > 0 and n >= 1 canonicalize to the same atom
    n = v("n")
    phi = op("=>", op(">", n, c(0)), op(">=", n, c(1)))
    assert check_validity(LIA, phi).is_valid


@pytest.mark.parametrize("phi", [
    op("or", op(">=", v("x"), v("y")), op("<", v("x"), v("y"))),
    op("or", op(">", v("x"), v("y")), op("<=", v("x"), v("y"))),
    op("not", op("and", op(">=", v("x"), v("y")), op("<", v("x"), v("y")))),
])
def test_a_comparison_and_its_integer_negation_share_one_atom(phi):
    # x >= y and x < y, that is y - x - 1 >= 0, are one atom and its negation
    assert check_validity(LIA, phi).is_valid


def test_two_comparisons_that_only_together_contradict_are_valid():
    # x < y and x > y are two atoms, y - x - 1 >= 0 and x - y - 1 >= 0, whose
    # sum is the negative constant -2: no assignment makes both true
    x, y = v("x"), v("y")
    phi = op("not", op("and", op("<", x, y), op(">", x, y)))
    assert check_validity(LIA, phi).is_valid
    # bounds that leave room stay open to a counterexample
    loose = op("not", op("and", op("<", x, y), op("<=", y, op("+", x, c(3)))))
    assert check_validity(LIA, loose).is_invalid


@pytest.mark.parametrize("strict", [">", "<"])
def test_an_equality_and_a_strict_comparison_contradict(strict):
    # x = y is x - y >= 0 and y - x >= 0, and one of them sums with the strict
    # comparison to -1
    x, y = v("x"), v("y")
    assert check_validity(LIA, op("not", op("and", eq(x, y), op(strict, x, y)))).is_valid
    assert check_validity(LIA, op("not", op("and", eq(x, y), op(">=", x, y)))).is_invalid


def test_equality_propagation():
    x, y = v("x"), v("y")
    ante = op("and", eq(x, c(4)), eq(y, c(7)))
    phi = op("=>", ante, eq(op("+", x, c(3)), y))
    assert check_validity(LIA, phi).is_valid
    bad = op("=>", ante, eq(op("+", x, c(4)), y))
    assert check_validity(LIA, bad).is_invalid


def test_opaque_mod_atoms():
    x, y = v("x"), v("y")
    m = op("mod", x, c(12))
    assert check_validity(LIA, op("=>", eq(m, y), eq(m, y))).is_valid


def test_ground_and_polynomial_folding():
    assert check_validity(LIA, eq(op("+", c(1), c(1)), c(2))).is_valid
    x = v("x")
    assert check_validity(LIA, eq(op("*", x, c(0)), c(0))).is_valid


def test_unknown_when_no_backend_decides():
    x = v("x")
    phi = op(">=", op("*", x, x), c(0))  # valid, but nonlinear
    verdict = check_validity(LIA, phi)
    assert verdict.is_unknown


def test_bool_variable_formulas():
    x = v("x", BOOL)
    tv = LIA.value_term(BOOL, True)
    fv = LIA.value_term(BOOL, False)
    bool_eq = LIA.symbols["=Bool"]
    cover = op("or", App(bool_eq, (x, tv)), App(bool_eq, (x, fv)))
    assert check_validity(LIA, op("=>", tv, cover)).is_valid
    pin = App(bool_eq, (x, tv))
    assert check_validity(LIA, op("=>", pin, pin)).is_valid


def test_finite_models_decide():
    m3 = intmod_model(3)
    i3 = m3.sorts["Int"]
    x = Variable("x", i3)
    le2 = App(m3.symbols["<="], (x, m3.value_term(i3, 2)))
    assert check_validity(m3, le2).is_valid
    gt0 = App(m3.symbols[">"], (x, m3.value_term(i3, 0)))
    verdict = check_validity(m3, gt0)
    assert verdict.is_invalid and verdict.witness == {x: m3.value_term(i3, 0)}


def test_never_both_valid():
    rng = random.Random(5)
    m3 = intmod_model(3)
    i3 = m3.sorts["Int"]
    xs = [Variable(n, i3) for n in "xy"]

    def rand_phi(depth):
        if depth == 0:
            a = rng.choice(xs + [m3.value_term(i3, rng.randrange(3))])
            b = rng.choice(xs + [m3.value_term(i3, rng.randrange(3))])
            name = rng.choice(["=Int", "<", "<=", ">", ">="])
            return App(m3.symbols[name], (a, b))
        if rng.random() < 0.3:
            return App(m3.symbols["not"], (rand_phi(depth - 1),))
        name = rng.choice(["and", "or", "=>"])
        return App(m3.symbols[name], (rand_phi(depth - 1), rand_phi(depth - 1)))

    for _ in range(120):
        phi = rand_phi(2)
        pos = check_validity(m3, phi)
        neg = check_validity(m3, App(m3.symbols["not"], (phi,)))
        assert not (pos.is_valid and neg.is_valid)
        assert not (pos.is_unknown or neg.is_unknown)  # finite models decide


def test_invalid_witness_always_falsifies():
    rng = random.Random(9)
    x, y = v("x"), v("y")

    def rand_phi():
        a = rng.choice([x, y, c(rng.randrange(-3, 4))])
        b = rng.choice([x, y, c(rng.randrange(-3, 4))])
        atom = op(rng.choice(["<", "<=", ">", ">="]), a, b)
        if rng.random() < 0.5:
            return atom
        return op(rng.choice(["and", "or", "=>"]), atom,
                  op(rng.choice(["<", ">"]), a, c(rng.randrange(-2, 3))))

    for _ in range(150):
        phi = rand_phi()
        verdict = check_validity(LIA, phi)
        if verdict.is_invalid:
            assert LIA.eval_constraint(apply_subst(verdict.witness, phi)) is False


def test_valid_iff_no_satisfying_negation():
    # on finite models validity and emptiness of the refutation set coincide
    rng = random.Random(31)
    from lcer.models import enumerate_satisfying

    m3 = intmod_model(3)
    i3 = m3.sorts["Int"]
    xs = [Variable(n, i3) for n in "xy"]
    for _ in range(100):
        a = rng.choice(xs + [m3.value_term(i3, rng.randrange(3))])
        b = rng.choice(xs + [m3.value_term(i3, rng.randrange(3))])
        phi = App(m3.symbols[rng.choice(["=Int", "<", "<=", ">", ">="])], (a, b))
        neg = App(m3.symbols["not"], (phi,))
        fv = {v for v in (a, b) if isinstance(v, Variable)}
        empty = not any(True for _ in enumerate_satisfying(m3, fv, neg))
        assert check_validity(m3, phi).is_valid == empty
