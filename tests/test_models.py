import itertools
import random

import pytest

from lcer.models import (
    bool_model,
    enumerate_satisfying,
    euclidean_div,
    euclidean_mod,
    intmod_model,
    lia_model,
    EvalError,
)
from lcer.syntax import parse_term
from lcer.terms import App, Variable

LIA = lia_model()
INT = LIA.sorts["Int"]
BOOL = LIA.sorts["Bool"]


def lt(theory_file, text, env=None):
    return parse_term(theory_file.theory, text, env)


def test_interpret_values(mod12):
    th = mod12.theory
    assert th.model.interpret(lt(mod12, "+(7,31)")) == 38
    assert th.model.interpret(lt(mod12, "38")) == 38  # values are fixed points
    assert th.model.interpret(lt(mod12, "+(1,-1)")) == 0


def test_interpret_errors(mod12):
    with pytest.raises(EvalError):
        mod12.theory.model.interpret(Variable("x", INT))
    with pytest.raises(EvalError):
        mod12.theory.model.interpret(lt(mod12, "cong(1)"))


def test_euclidean_semantics():
    # mod lands in [0, |n|); div/mod by zero are totalized
    cases = [(7, 3, 2, 1), (-7, 3, -3, 2), (7, -3, -2, 1), (-7, -3, 3, 2)]
    for a, b, q, r in cases:
        assert euclidean_div(a, b) == q
        assert euclidean_mod(a, b) == r
        assert a == b * q + r
    assert euclidean_div(5, 0) == 0
    assert euclidean_mod(5, 0) == 5
    assert LIA.interpret(LIA.value_term(INT, 38)) == 38
    assert euclidean_mod(-7, 12) == 5


def _old_div(a, b):
    # the formulas of euclidean_div and euclidean_mod before they read a % abs(b)
    if b == 0:
        return 0
    return a // b if b > 0 else -(a // -b)


def _old_mod(a, b):
    return a if b == 0 else a - b * _old_div(a, b)


def test_euclidean_div_and_mod_agree_with_their_old_formulas():
    big = [s * m for m in (10**30, 2**64) for s in (1, -1)]
    pairs = [*itertools.product(range(-300, 301), range(-40, 41)),
             *itertools.product(big + [-7, 0, 7], big + [-7, 0, 7])]
    for a, b in pairs:
        assert (euclidean_div(a, b), euclidean_mod(a, b)) == (_old_div(a, b), _old_mod(a, b)), (a, b)


def _old_interp(model_name, n=None):
    """Each model's interpretation functions as lambdas, as they were written
    before lia and the connectives took operator's functions."""
    wrap = (lambda x: x) if n is None else (lambda x: x % n)
    interp = {
        "not": lambda x: not x,
        "and": lambda x, y: x and y,
        "or": lambda x, y: x or y,
        "=>": lambda x, y: (not x) or y,
        "<=>": lambda x, y: x == y,
        "=Bool": lambda x, y: x == y,
    }
    if model_name == "bool":
        return interp
    return {**interp, "=Int": lambda x, y: x == y,
            "+": lambda x, y: wrap(x + y), "-": lambda x, y: wrap(x - y),
            "neg": lambda x: wrap(-x), "*": lambda x, y: wrap(x * y),
            "div": lambda x, y: wrap(_old_div(x, y)), "mod": lambda x, y: wrap(_old_mod(x, y)),
            "<": lambda x, y: x < y, "<=": lambda x, y: x <= y,
            ">": lambda x, y: x > y, ">=": lambda x, y: x >= y}


@pytest.mark.parametrize("model, old", [
    (bool_model(), _old_interp("bool")),
    (lia_model(), _old_interp("lia")),
    (intmod_model(5), _old_interp("intmod", 5)),
])
def test_every_interpretation_agrees_with_its_old_lambda(model, old):
    assert model.interp.keys() == old.keys()
    for sym in model.symbols.values():
        if sym.is_value:
            continue
        domains = [(False, True) if s.name == "Bool" else
                   (*range(-13, 14), 10**30, -2**64) for s in sym.arg_sorts]
        for args in itertools.product(*domains):
            got, want = model.interp[sym.name](*args), old[sym.name](*args)
            assert (got, type(got)) == (want, type(want)), (sym.name, args)


def test_calc_step_candidates(mod12):
    model = mod12.theory.model
    term = lt(mod12, "cong(+(7,31))")
    cands = model.calc_step_candidates(term)
    assert cands == [((1,), lt(mod12, "cong(38)"))]
    assert model.calc_step_candidates(lt(mod12, "cong(38)")) == []
    two = lt(mod12, "+(+(1,2),+(3,4))")
    positions = [pos for pos, _ in model.calc_step_candidates(two)]
    assert positions == [(1,), (2,)]


def test_calc_normalize(mod12, lists):
    model = mod12.theory.model
    assert model.calc_normalize(lt(mod12, "cong(+(7,31))")) == lt(mod12, "cong(38)")
    # evaluate (2+1)-1 by ordinary arithmetic: the index becomes 2
    expected_index = (2 + 1) - 1
    got = lists.theory.model.calc_normalize(lt(lists, "nth(xs,-(+(2,1),1))"))
    assert got == lt(lists, f"nth(xs,{expected_index})")
    open_term = lt(mod12, "+(x,y)")
    assert model.calc_normalize(open_term) == open_term


def test_calc_normalize_is_idempotent_and_order_independent():
    # exhaustively contracting redexes in any order agrees with interpret
    rng = random.Random(23)
    model = LIA
    ops = [model.symbols[n] for n in ("+", "-", "*", "div", "mod")]
    neg = model.symbols["neg"]

    def rand_ground(depth):
        if depth == 0 or rng.random() < 0.3:
            return model.value_term(INT, rng.randrange(-9, 10))
        if rng.random() < 0.15:
            return App(neg, (rand_ground(depth - 1),))
        f = rng.choice(ops)
        return App(f, (rand_ground(depth - 1), rand_ground(depth - 1)))

    def python_eval(t):
        if t.fun.is_value:
            return t.fun.value
        name = t.fun.name
        args = [python_eval(a) for a in t.args]
        table = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
                 "*": lambda a, b: a * b, "div": euclidean_div,
                 "mod": euclidean_mod, "neg": lambda a: -a}
        return table[name](*args)

    for _ in range(150):
        t = rand_ground(rng.randrange(1, 5))
        expected = python_eval(t)
        u = t
        while True:
            cands = model.calc_step_candidates(u)
            if not cands:
                break
            _, u = rng.choice(cands)
        assert u == model.value_term(INT, expected)
        nf = model.calc_normalize(t)
        assert nf == u
        assert model.calc_normalize(nf) == nf


def test_eval_constraint(mod12):
    model = mod12.theory.model
    assert model.eval_constraint(lt(mod12, "=(mod(38,12),mod(14,12))")) is True
    assert model.eval_constraint(lt(mod12, "=(1,0)")) is False
    assert model.eval_constraint(lt(mod12, "and(=(+(2,2),4),not(<(1,0)))")) is True
    with pytest.raises(EvalError):
        model.eval_constraint(lt(mod12, ">(x,0)"))


def test_enumerate_satisfying(mod12):
    model = mod12.theory.model
    x = Variable("x", INT)
    phi = App(model.symbols["=Int"], (x, model.value_term(INT, 1)))
    out = list(enumerate_satisfying(model, {x}, phi, box=8))
    assert out == [{x: model.value_term(INT, 1)}]

    phi = App(model.symbols[">="], (x, model.value_term(INT, 0)))
    vals = [s[x].fun.value for s in enumerate_satisfying(model, {x}, phi, box=3)]
    assert vals == [0, 1, 2, 3]

    truev = model.value_term(BOOL, True)
    assert list(enumerate_satisfying(model, set(), truev)) == [{}]


def test_intmod_and_bool_models():
    m3 = intmod_model(3)
    i = m3.sorts["Int"]
    assert m3.carrier_elements(i) == (0, 1, 2)
    assert m3.interpret(App(m3.symbols["+"], (m3.value_term(i, 2), m3.value_term(i, 2)))) == 1
    assert m3.finite
    b = bool_model()
    assert b.finite and b.carrier_elements(b.sorts["Bool"]) == (False, True)
    assert not LIA.finite
    with pytest.raises(ValueError):
        intmod_model(65)


def test_compile_leaves_a_ground_subterm_that_raises_to_evaluation():
    # a custom model whose div is Python's //: compile raises nothing, and
    # evaluation raises what interpret raises on the same ground subterm
    model = lia_model()
    model.interp = {**model.interp, "div": lambda a, b: a // b}
    sym = model.symbols
    x = Variable("x", INT)
    zero, one = model.value_term(INT, 0), model.value_term(INT, 1)
    quotient = App(sym["div"], (one, zero))
    phi = App(sym["and"], (App(sym["=Int"], (x, zero)), App(sym["=Int"], (x, quotient))))
    holds = model.compile(phi, [x])
    with pytest.raises(ZeroDivisionError):
        model.interpret(quotient)
    with pytest.raises(ZeroDivisionError):
        holds((0,))
    assert model.compile(App(sym["div"], (one, one)), [x])((0,)) == 1  # still folded
