import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import lcer
from lcer.models import lia_model
from lcer.syntax import parse_term
from lcer.terms import (
    InvalidPosition,
    SortMismatch,
    Variable,
    apply_subst,
    decompose_differences,
    match,
    positions_of,
    replace_at,
    sort_of,
    subterm_at,
    unify,
    vars_of,
)

MODEL = lia_model()
INT = MODEL.sorts["Int"]


def t(theory_file, text):
    return parse_term(theory_file.theory, text)


def test_vars_of(lists, group):
    term = t(lists, "nth(cons(x,xs),1)")
    assert {v.name for v in vars_of(term)} == {"x", "xs"}
    # restriction to theory sorts picks out the exponent only
    term = t(group, "exp(x,n)")
    assert {v.name for v in vars_of(term, "theory")} == {"n"}
    assert {v.name for v in vars_of(term, "term")} == {"x"}
    assert vars_of(t(lists, "0")) == set()


def test_apply_subst_simultaneous(lists):
    env = {}
    term = parse_term(lists.theory, "nth(cons(x,xs),n)", env)
    xv = Variable("x", env["x"])
    n = Variable("n", env["n"])
    out = apply_subst({n: t(lists, "2"), xv: Variable("y", env["x"])}, term)
    assert out == parse_term(lists.theory, "nth(cons(y,xs),2)", env)
    assert apply_subst({}, term) == term
    # application is simultaneous, not iterated: a swap stays a swap
    env2 = {}
    pair = parse_term(lists.theory, "cons(a,cons(b,nil))", env2)
    a = Variable("a", env2["a"])
    b = Variable("b", env2["b"])
    swapped = apply_subst({a: b, b: a}, pair)
    assert swapped == parse_term(lists.theory, "cons(b,cons(a,nil))", env2)


def test_apply_subst_preserves_sort(lists):
    env = {}
    term = parse_term(lists.theory, "nth(cons(x,xs),n)", env)
    n = Variable("n", env["n"])
    assert sort_of(apply_subst({n: t(lists, "7")}, term)) == sort_of(term)


def test_match(mod12):
    env = {}
    pat = parse_term(mod12.theory, "cong(x)", env)
    sub = parse_term(mod12.theory, "cong(38)")
    x = Variable("x", env["x"])
    assert match(pat, sub) == {x: t(mod12, "38")}

    # nonlinear clash
    env = {}
    pat = parse_term(mod12.theory, "mod(x,x)", env)
    assert match(pat, parse_term(mod12.theory, "mod(1,2)")) is None

    # a bare variable matches anything of its sort
    y = Variable("y", INT)
    target = t(mod12, "+(1,2)")
    assert match(y, target) == {y: target}


def test_match_soundness_random(lists):
    rng = random.Random(7)
    model = lists.theory.model
    names = ["cons", "nil", "some", "none", "nth", "length"]

    def rand_term(sort, depth, vars_pool):
        opts = [f for f in lists.theory.signature.term_symbols()
                if f.result_sort == sort and (depth > 0 or not f.arg_sorts)]
        if sort.name == "Int" and (depth == 0 or rng.random() < 0.4):
            return model.value_term(sort, rng.randrange(-3, 4))
        if not opts or (depth == 0 and rng.random() < 0.5):
            if sort.kind == "theory":
                return model.value_term(sort, rng.randrange(-3, 4))
            v = Variable(rng.choice(vars_pool), sort)
            return v
        f = rng.choice(opts)
        from lcer.terms import App
        return App(f, tuple(rand_term(s, depth - 1, vars_pool) for s in f.arg_sorts))

    list_sort = lists.theory.signature.sort("List")
    for _ in range(200):
        pattern = rand_term(list_sort, 2, ["a", "b"])
        sigma = {v: rand_term(v.sort, 1, ["c"]) for v in vars_of(pattern)}
        subject = apply_subst(sigma, pattern)
        found = match(pattern, subject)
        assert found is not None
        assert apply_subst(found, pattern) == subject


def test_unify(lists):
    env = {}
    a = parse_term(lists.theory, "cons(x,nil)", env)
    b = parse_term(lists.theory, "cons(y,nil)", {"y": env["x"]})
    mgu = unify(a, b)
    assert mgu is not None and apply_subst(mgu, a) == apply_subst(mgu, b)

    # occurs check
    env = {}
    xs = parse_term(lists.theory, "xs", {"xs": lists.theory.signature.sort("List")})
    wrapped = parse_term(lists.theory, "cons(x,xs)", {"xs": lists.theory.signature.sort("List")})
    assert unify(xs, wrapped) is None


def test_unify_commuted_arguments(absmax):
    env = {}
    a = parse_term(absmax.theory, "max(x,y)", env)
    b = parse_term(absmax.theory, "max(y,x)", env)
    mgu = unify(a, b)
    assert mgu is not None
    assert apply_subst(mgu, a) == apply_subst(mgu, b)
    # the mgu identifies the two variables
    assert len(mgu) == 1


def test_unify_generality_by_enumeration(absmax):
    # any ground unifier over a small pool factors through the mgu
    rng = random.Random(11)
    model = absmax.theory.model
    pool = [model.value_term(INT, v) for v in (0, 1, 2)]
    from lcer.terms import App
    absf = absmax.theory.signature.symbol("abs")
    maxf = absmax.theory.signature.symbol("max")

    def rand_term(depth):
        r = rng.random()
        if depth == 0 or r < 0.35:
            return rng.choice(pool + [Variable(rng.choice("xyz"), INT)])
        if r < 0.6:
            return App(absf, (rand_term(depth - 1),))
        return App(maxf, (rand_term(depth - 1), rand_term(depth - 1)))

    import itertools
    checked = 0
    for _ in range(300):
        s, u = rand_term(2), rand_term(2)
        mgu = unify(s, u)
        fv = sorted(vars_of(s) | vars_of(u), key=lambda v: v.name)
        for combo in itertools.product(pool, repeat=len(fv)):
            sigma = dict(zip(fv, combo))
            if apply_subst(sigma, s) != apply_subst(sigma, u):
                continue
            assert mgu is not None, "ground unifier exists but unify said no"
            # sigma factors through the mgu: sigma = sigma . mgu on every var
            for v in fv:
                assert apply_subst(sigma, apply_subst(mgu, v)) == sigma[v]
            checked += 1
    assert checked > 50


def test_positions(mod12):
    term = t(mod12, "cong(+(7,31))")
    assert subterm_at(term, (1,)) == t(mod12, "+(7,31)")
    assert replace_at(term, (1,), t(mod12, "38")) == t(mod12, "cong(38)")
    assert replace_at(term, (), t(mod12, "cong(0)")) == t(mod12, "cong(0)")
    assert dict(positions_of(term))[(1, 2)] == t(mod12, "31")
    with pytest.raises(InvalidPosition):
        subterm_at(term, (2,))
    with pytest.raises(SortMismatch):
        replace_at(term, (1,), term)


def test_decompose_differences(lists, absmax):
    env = {}
    s = parse_term(lists.theory, "cons(x,nil)", env)
    u = parse_term(lists.theory, "cons(y,nil)", {"y": env["x"]})
    ctx, pairs = decompose_differences(s, u)
    assert len(pairs) == 1 and pairs[0][0].name == "x"
    assert ctx.plug([p[0] for p in pairs]) == s
    assert ctx.plug([p[1] for p in pairs]) == u

    # whole terms differ at the root
    a = t(absmax, "abs(1)")
    b = t(absmax, "max(1,2)")
    ctx, pairs = decompose_differences(a, b)
    assert pairs == [(a, b)]

    g1 = t(absmax, "abs(+(1,2))")
    g2 = t(absmax, "abs(0)")
    ctx, pairs = decompose_differences(g1, g2)
    assert pairs == [(t(absmax, "+(1,2)"), t(absmax, "0"))]


def test_decompose_round_trip_random(lists):
    rng = random.Random(3)
    model = lists.theory.model
    from lcer.terms import App
    cons = lists.theory.signature.symbol("cons")
    nil = lists.theory.signature.symbol("nil")
    elem = lists.theory.signature.sort("Elem")

    def rand_list(depth):
        if depth == 0 or rng.random() < 0.3:
            return App(nil)
        head = Variable(rng.choice("abc"), elem)
        return App(cons, (head, rand_list(depth - 1)))

    for _ in range(200):
        s, u = rand_list(3), rand_list(3)
        ctx, pairs = decompose_differences(s, u)
        assert ctx.plug([p[0] for p in pairs]) == s
        assert ctx.plug([p[1] for p in pairs]) == u


_REIMPORT = """
import gc, importlib, sys

def purge():
    for name in [n for n in sys.modules if n == "lcer" or n.startswith("lcer.")]:
        del sys.modules[name]

for _ in range(3):
    purge()
    importlib.import_module("lcer")
gc.collect()
print(sum(1 for o in gc.get_objects() if isinstance(o, type)
          and o.__module__ == "lcer.terms" and o.__name__ == "Variable"))
"""


def test_reimport_keeps_no_old_modules_alive():
    """A purged lcer must be collectable: no module-level cache (typing's
    subscription cache, say) may keep an old Variable class alive."""
    src = str(Path(lcer.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _REIMPORT], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "1"
