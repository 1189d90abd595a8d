"""The valuation enumerator against the term-building reference.

Compiled evaluation (`UnderlyingModel.compile` on carrier-value tuples, and
`eval_with`, which wraps it) must agree with `eval_constraint` on the
constraint instantiated by value terms, including division and mod by zero
and by negative operands, folded ground subterms and nested connectives, and
must raise the errors of a plain tree walk at the same moment.  The
sequences that `enumerate_satisfying` yields and the verdicts and witnesses
of `check_validity` on a fixed corpus are pinned to the values the
term-building loops produced.
"""

import itertools
import random

import pytest

from lcer.models import (
    BOOL,
    INT,
    EvalError,
    UnderlyingModel,
    enumerate_satisfying,
    lia_model,
    satisfying,
    sort_domain,
)
from lcer.oracle import OracleBudget, check_validity
from lcer.syntax import parse_term, parse_theory
from lcer.terms import TERM, THEORY, App, FunSymbol, Variable, apply_subst

THEORIES = {name: parse_theory(f"(theory (model {spec}))").theory
            for name, spec in (("lia", "lia"), ("bool", "bool"), ("intmod", "intmod 5"))}


def _env(model, spec):
    """'x y:Bool' -> {x: Int, y: Bool}; a bare name is an Int (Bool in bool)."""
    default = "Int" if "Int" in model.sorts else "Bool"
    env = {}
    for item in spec.split():
        name, _, sort = item.partition(":")
        env[name] = model.sorts[sort or default]
    return env


def _constraint(model_name, spec, text):
    theory = THEORIES[model_name]
    env = _env(theory.model, spec)
    order = sorted((Variable(n, s) for n, s in env.items()),
                   key=lambda v: (v.name, v.sort.name))
    return theory.model, order, parse_term(theory, text, env)


# -- random constraints ------------------------------------------------------------

def _int_term(model, rng, ints, depth):
    int_sort = model.sorts["Int"]
    if depth == 0 or rng.random() < 0.3:
        if ints and rng.random() < 0.6:
            return rng.choice(ints)
        if model.carriers[int_sort].finite:
            return model.value_term(int_sort, rng.choice(model.carrier_elements(int_sort)))
        return model.value_term(int_sort, rng.randint(-3, 3))
    name = rng.choice(["+", "-", "*", "div", "mod", "div", "mod", "neg"])
    arity = 1 if name == "neg" else 2
    return App(model.symbols[name],
               tuple(_int_term(model, rng, ints, depth - 1) for _ in range(arity)))


def _bool_term(model, rng, ints, bools, depth):
    bool_sort = model.sorts["Bool"]
    if depth == 0 or rng.random() < 0.2:
        if bools and rng.random() < 0.7:
            return rng.choice(bools)
        return model.value_term(bool_sort, rng.random() < 0.5)
    names = ["not", "and", "or", "=>", "<=>", "=Bool"]
    if "Int" in model.sorts:
        names += ["<", "<=", ">", ">=", "=Int"] * 2
    name = rng.choice(names)
    fun = model.symbols[name]
    args = tuple(_int_term(model, rng, ints, 2) if s.name == "Int"
                 else _bool_term(model, rng, ints, bools, depth - 1)
                 for s in fun.arg_sorts)
    return App(fun, args)


def _reference(model, order, domains, phi):
    """Points where phi holds, by instantiating value terms and evaluating."""
    out = []
    for combo in itertools.product(*domains):
        sigma = {v: model.value_term(v.sort, e) for v, e in zip(order, combo)}
        if model.eval_constraint(apply_subst(sigma, phi)):
            out.append(combo)
    return out


FIXED = [
    ("lia", "x y", "=(div(x,y),neg(1))"),
    ("lia", "x y", "=(mod(x,y),x)"),
    ("lia", "x y", ">(mod(neg(x),y),div(y,neg(2)))"),
    ("lia", "x b:Bool", "<=>(b,=(div(x,0),mod(0,x)))"),
    ("intmod", "x y", "=(div(x,y),mod(y,x))"),
    ("intmod", "x", "=(mod(neg(x),0),-(0,x))"),
    ("bool", "p q", "<=>(=>(p,q),or(not(p),q))"),
    # ground subterms, folded by compile
    ("lia", "x", "=(+(x,*(2,3)),div(7,neg(2)))"),
    ("lia", "x y", "and(<(x,+(1,2)),not(=(mod(neg(7),3),y)))"),
    ("lia", "x", "=(div(7,0),mod(neg(7),0))"),
    ("intmod", "x", "or(=(x,+(4,3)),<=>(=(div(3,0),0),>(mod(4,0),x)))"),
    ("bool", "p", "and(p,not(false))"),
    ("bool", "p", "p"),
    # nested not, => and <=>
    ("bool", "p q", "not(<=>(=>(p,not(q)),not(=>(not(q),p))))"),
    ("lia", "x b:Bool", "=>(not(b),<=>(not(<(x,0)),=>(b,>(x,1))))"),
    ("intmod", "x b:Bool", "<=>(not(not(b)),=>(=(x,0),not(=>(b,>(x,2)))))"),
    # div and mod by zero and by negatives, on variables
    ("lia", "x y", "=(mod(x,neg(y)),div(neg(x),0))"),
    ("lia", "x y", "<=(div(x,neg(y)),mod(neg(x),y))"),
    ("intmod", "x y", "=(div(x,0),mod(neg(y),x))"),
]


@pytest.mark.parametrize("model_name", sorted(THEORIES))
def test_raw_evaluation_agrees_with_instantiation(model_name):
    rng = random.Random(f"enumerator-{model_name}")
    theory = THEORIES[model_name]
    model = theory.model
    order = [Variable("b", model.sorts["Bool"])]
    if "Int" in model.sorts:
        order += [Variable("x", model.sorts["Int"]), Variable("y", model.sorts["Int"])]
    ints = [v for v in order if v.sort.name == "Int"]
    bools = [v for v in order if v.sort.name == "Bool"]
    cases = [(order, _bool_term(model, rng, ints, bools, 3)) for _ in range(60)]
    cases += [_constraint(name, spec, text)[1:] for name, spec, text in FIXED
              if name == model_name]
    for order, phi in cases:
        domains = [sort_domain(model, v.sort, 3) for v in order]
        holds = model.compile(phi, order)
        for combo in itertools.product(*domains):
            sigma = {v: model.value_term(v.sort, e) for v, e in zip(order, combo)}
            expected = model.eval_constraint(apply_subst(sigma, phi))
            assert bool(holds(combo)) is expected, (phi, combo)
            assert bool(model.eval_with(phi, dict(zip(order, combo)))) is expected
        expected = _reference(model, order, domains, phi)
        assert list(satisfying(model, order, domains, phi)) == expected
        limit = rng.randint(0, 40)
        first = set(itertools.islice(itertools.product(*domains), limit))
        assert list(satisfying(model, order, domains, phi, limit)) == \
            [c for c in expected if c in first]


def test_enumerator_rejects_bad_constraints():
    """At the first next(), not when the generator is made."""
    model, order, phi = _constraint("lia", "x y", "<(x,y)")
    gen = satisfying(model, order[:1], [[0, 1]], phi)
    with pytest.raises(EvalError, match="outside the enumeration set"):
        next(gen)
    plus = App(model.symbols["+"], tuple(order))
    gen = satisfying(model, order, [[0], [0]], plus)
    with pytest.raises(EvalError, match="expected Bool"):
        next(gen)
    with pytest.raises(EvalError, match="outside the enumeration set"):
        next(enumerate_satisfying(model, {order[0]}, phi))


def _walk(model, t, valuation):
    """The recursive evaluator compile replaced, as the reference for when
    and with which message evaluation fails."""
    if isinstance(t, Variable):
        if t not in valuation:
            raise EvalError(f"valuation does not cover {t.name}")
        return valuation[t]
    if t.fun.is_value:
        return t.fun.value
    fn = model.interp.get(t.fun.name)
    if fn is None:
        raise EvalError(f"no interpretation for {t.fun.name}")
    return fn(*(_walk(model, a, valuation) for a in t.args))


def _outcome(f, *args):
    try:
        return "value", f(*args)
    except EvalError as exc:
        return "error", str(exc)


def test_compiled_errors_match_the_tree_walk():
    model, (x, y), _ = _constraint("lia", "x y", "true")
    h = App(FunSymbol("h", (INT,), BOOL, TERM), (x,))  # no interpretation
    s = model.symbols
    cases = [
        App(s["<"], (x, y)),
        h,
        App(s["and"], (h, App(s["<"], (x, y)))),
        App(s["and"], (App(s["<"], (y, x)), h)),
        App(s["not"], (App(s["=Int"], (App(s["+"], (y, App(s["*"], (x, y)))), x)),)),
        App(s["or"], (App(s["=Int"], (App(s["div"], (x, y)), y)), h)),
    ]
    for phi in cases:
        for valuation in ({x: 2, y: -3}, {x: 2}, {y: 0}, {}):
            order = list(valuation)
            values = tuple(valuation.values())
            want = _outcome(_walk, model, phi, valuation)
            assert _outcome(model.compile(phi, order), values) == want, (phi, valuation)
            assert _outcome(model.eval_with, phi, valuation) == want


def test_compile_folds_ground_subterms():
    model = lia_model()
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    model.interp = {name: counted(name, fn) for name, fn in model.interp.items()}
    x = Variable("x", INT)
    phi = parse_term(THEORIES["lia"], "=(+(x,*(2,3)),neg(div(7,0)))", {"x": INT})
    holds = model.compile(phi, [x])
    assert sorted(calls) == ["*", "div", "neg"]
    calls.clear()
    assert [v for v in range(-8, 8) if holds((v,))] == [-6]
    assert sorted(set(calls)) == ["+", "=Int"] and len(calls) == 32


def test_evaluation_errors_wait_for_a_point():
    """An evaluation error is raised only when a point is evaluated, so an
    empty product or limit 0 raises nothing."""
    model, order, phi = _constraint("lia", "x y", "<(x,y)")
    h = App(FunSymbol("h", (INT,), BOOL, TERM), (order[0],))
    model.compile(App(model.symbols["and"], (h, phi)), order[:1])  # raises nothing
    assert list(satisfying(model, order, [[], [0, 1]], App(model.symbols["and"], (phi, h)))) == []
    assert list(satisfying(model, order[:1], [[0, 1]], h, 0)) == []
    gen = satisfying(model, order[:1], [[0, 1]], h, 1)
    with pytest.raises(EvalError, match="no interpretation for h"):
        next(gen)
    # a short-circuit-free walk: the right operand is evaluated even when the
    # left one decides
    with pytest.raises(EvalError, match="no interpretation for h"):
        next(satisfying(model, order, [[1], [0]], App(model.symbols["and"], (phi, h))))


# -- pinned corpus -----------------------------------------------------------------

# (model, variables, constraint, box) -> value tuples in the yielded order,
# variables sorted by name
ENUMERATIONS = [
    ("lia", "x", ">=(x,0)", 3, [(0,), (1,), (2,), (3,)]),
    ("lia", "x y", "and(<(x,y),=(mod(y,2),1))", 2,
     [(0, 1), (-1, 1), (-2, 1), (-2, -1)]),
    ("lia", "x y", "=(div(x,y),neg(1))", 2,
     [(1, -1), (-1, 1), (-1, 2), (2, -2), (-2, 2)]),
    ("lia", "b:Bool x", "or(b,>(x,1))", 2,
     [(False, 2), (True, 0), (True, 1), (True, -1), (True, 2), (True, -2)]),
    ("lia", "x y z", "=(+(x,y),z)", 1,
     [(0, 0, 0), (0, 1, 1), (0, -1, -1), (1, 0, 1), (1, -1, 0), (-1, 0, -1), (-1, 1, 0)]),
    ("lia", "x", "<(x,x)", 5, []),
    ("bool", "p q", "=>(p,q)", 64, [(False, False), (False, True), (True, True)]),
    ("intmod", "x y", "=(*(x,y),1)", 64, [(1, 1), (2, 3), (3, 2), (4, 4)]),
    ("intmod", "x y", "=(mod(x,y),x)", 64,
     [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (1, 0), (1, 2), (1, 3), (1, 4),
      (2, 0), (2, 3), (2, 4), (3, 0), (3, 4), (4, 0)]),
]

# (model, variables, constraint, budget) -> status and witness (None or {name: value})
VERDICTS = [
    ("lia", "", "=(div(7,neg(2)),neg(3))", {}, "valid", None),
    ("lia", "", "=(mod(neg(7),0),7)", {}, "invalid", {}),
    ("lia", "x", ">=(x,0)", {}, "invalid", {"x": -1}),
    ("lia", "x", "or(>=(x,0),<(x,0))", {}, "valid", None),
    ("lia", "n", "=>(>(n,0),>(+(n,2),0))", {}, "valid", None),
    ("lia", "x", "=(*(x,x),2)", {}, "invalid", {"x": 0}),
    ("lia", "x", ">=(*(x,x),0)", {}, "unknown", None),
    ("lia", "x", "<(*(x,x),900)", {"max_points": 59}, "unknown", None),
    ("lia", "x", "<(*(x,x),900)", {"max_points": 60}, "invalid", {"x": 30}),
    ("lia", "x y", "<(+(*(x,x),*(y,y)),10000)", {}, "unknown", None),
    ("lia", "x y z", "=>(and(>(x,0),>(y,0)),>(*(x,*(y,z)),neg(100)))", {},
     "invalid", {"x": 1, "y": 7, "z": -15}),
    ("lia", "x", "=(div(x,0),0)", {}, "unknown", None),
    ("lia", "x", "=(mod(x,neg(3)),mod(x,3))", {}, "unknown", None),
    ("lia", "x y", "=>(=(x,3),>(+(x,y),y))", {}, "valid", None),
    ("lia", "x y", "=(div(x,y),div(neg(x),neg(y)))", {"box": 4}, "invalid",
     {"x": 1, "y": 2}),
    ("lia", "b:Bool x", "or(b,>=(x,0))", {}, "invalid", {"b": False, "x": -1}),
    ("lia", "b:Bool x", "=>(b,=(+(x,0),x))", {}, "valid", None),
    ("bool", "p q", "=>(and(p,q),p)", {}, "valid", None),
    ("bool", "p q", "=>(or(p,q),p)", {}, "invalid", {"p": False, "q": True}),
    ("intmod", "x", "=(*(x,x),4)", {}, "invalid", {"x": 0}),
    ("intmod", "x y", "=(+(x,neg(x)),mod(y,0))", {}, "invalid", {"x": 0, "y": 1}),
    ("intmod", "x y", "=>(=(*(x,y),1),=(*(y,x),1))", {}, "valid", None),
    ("intmod", "x y z", "=(*(x,+(y,z)),+(*(x,y),*(x,z)))", {"max_finite": 100},
     "unknown", None),
]


@pytest.mark.parametrize("model_name,spec,text,box,expected", ENUMERATIONS)
def test_pinned_enumerations(model_name, spec, text, box, expected):
    model, order, phi = _constraint(model_name, spec, text)
    got = [tuple(sigma[v].fun.value for v in order)
           for sigma in enumerate_satisfying(model, set(order), phi, box=box)]
    assert got == expected
    assert all(type(a) is type(b) for g, e in zip(got, expected) for a, b in zip(g, e))


@pytest.mark.parametrize("model_name,spec,text,budget,status,witness", VERDICTS)
def test_pinned_verdicts(model_name, spec, text, budget, status, witness):
    model, _, phi = _constraint(model_name, spec, text)
    verdict = check_validity(model, phi, OracleBudget(**budget))
    assert verdict.status == status
    got = None if verdict.witness is None else \
        {v.name: t.fun.value for v, t in verdict.witness.items()}
    assert got == witness


def test_compile_handles_wider_operators():
    """Built-in operators take at most two arguments; a model's own ternary
    one compiles through the general node."""
    base = lia_model()
    ite = FunSymbol("ite", (BOOL, INT, INT), INT, THEORY)
    model = UnderlyingModel("ite", [BOOL, INT], list(base.symbols.values()) + [ite],
                            dict(base.interp, ite=lambda c, a, b: a if c else b),
                            base.carriers)
    b, x = Variable("b", BOOL), Variable("x", INT)
    seven = model.value_term(INT, 7)
    phi = App(model.symbols["=Int"], (App(ite, (b, x, seven)), seven))
    holds = model.compile(phi, [b, x])
    got = [(c, v) for c in (False, True) for v in (6, 7) if holds((c, v))]
    assert got == [(False, 6), (False, 7), (True, 7)]
    assert model.compile(App(ite, (model.value_term(BOOL, True), seven, x)), [x])((3,)) == 7
