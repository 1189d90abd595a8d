import copy
import os
import pickle
import random
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

import lcer
from lcer.models import lia_model
from lcer.syntax import parse_term
from lcer.terms import (
    TERM,
    App,
    FunSymbol,
    InvalidPosition,
    SignatureError,
    Sort,
    SortMismatch,
    Variable,
    apply_subst,
    decompose_differences,
    match,
    positions_of,
    replace_at,
    sort_of,
    subterm_at,
    subterms_of,
    term_key,
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


# -- the checked boundary: messages as they were before trusted construction --

BOOL = MODEL.sorts["Bool"]
PLUS = MODEL.symbols["+"]
NEG = MODEL.symbols["neg"]
X = Variable("x", INT)


def test_public_app_checks_arity_and_sorts():
    with pytest.raises(SignatureError, match=r"^\+ expects 2 arguments, got 1$"):
        App(PLUS, (X,))
    with pytest.raises(SignatureError,
                       match=r"^argument true of \+ has sort Bool, expected Int$"):
        App(PLUS, (X, MODEL.value_term(BOOL, True)))


def test_apply_subst_checks_sorts():
    with pytest.raises(SignatureError,
                       match=r"^argument true of \+ has sort Bool, expected Int$"):
        apply_subst({X: MODEL.value_term(BOOL, True)}, App(PLUS, (X, X)))


def test_replace_at_checks_the_replaced_position():
    term = App(PLUS, (App(NEG, (X,)), X))
    with pytest.raises(SortMismatch, match=r"^cannot put a Bool term at a Int position$"):
        replace_at(term, (2,), MODEL.value_term(BOOL, True))
    # the message names the rest of the position from where it stops being valid
    with pytest.raises(InvalidPosition, match=r"^position \[3\] not valid$"):
        replace_at(term, (3,), X)
    with pytest.raises(InvalidPosition, match=r"^position \[2\] not valid$"):
        replace_at(term, (1, 2), X)
    with pytest.raises(InvalidPosition, match=r"^position \[2\] not valid$"):
        replace_at(term, (1, 1, 2), X)
    assert replace_at(term, (1, 1), MODEL.value_term(INT, 4)) == \
        App(PLUS, (App(NEG, (MODEL.value_term(INT, 4),)), X))


# -- cached term keys ------------------------------------------------------------

def recursive_key(t):
    """term_key as it was computed before it was cached, with each variable
    tagged by its sort."""
    if isinstance(t, Variable):
        return f"{t.name}\t{t.sort.name}"
    if not t.args:
        return t.fun.name
    return f"({t.fun.name} {' '.join(recursive_key(a) for a in t.args)})"


def test_term_key_matches_the_recursive_key(lists, group):
    rng = random.Random(11)
    for theory in (lists.theory, group.theory):
        model = theory.model
        symbols = list(theory.signature.symbols) + list(model.symbols.values())

        def rand_term(sort, depth):
            leaves = [Variable(v, sort) for v in ("x", "y")]
            if sort.kind == "theory":
                if sort.name == "Int":
                    leaves.append(model.value_term(sort, rng.randrange(-3, 4)))
                else:
                    leaves.append(model.value_term(sort, rng.random() < 0.5))
            leaves += [App(f) for f in symbols if f.result_sort == sort and not f.arg_sorts]
            inner = [f for f in symbols if f.result_sort == sort and f.arg_sorts]
            if depth == 0 or not inner or rng.random() < 0.3:
                return rng.choice(leaves)
            f = rng.choice(inner)
            return App(f, tuple(rand_term(s, depth - 1) for s in f.arg_sorts))

        sorts = [s for s in list(theory.signature.sorts) + list(model.sorts.values())]
        for _ in range(150):
            term = rand_term(rng.choice(sorts), 4)
            key = term_key(term)
            assert key == recursive_key(term)
            assert term_key(term) is key  # computed once
            for sub in subterms_of(term):
                assert term_key(sub) == recursive_key(sub)
            # a term rebuilt around a keyed subterm gets the same key as fresh
            for pos, sub in positions_of(term):
                new = replace_at(term, pos, sub)
                assert term_key(new) == key


def test_term_key_of_a_deep_term():
    # built, keyed and rebuilt without recursion: no RecursionError at depth 3000
    u = Sort("U", TERM)
    f = FunSymbol("f", (u,), u, TERM)
    c = App(FunSymbol("c", (), u, TERM))
    term = c
    for _ in range(3000):
        term = App(f, (term,))
    assert term_key(term) == "(f " * 3000 + "c" + ")" * 3000
    deeper = replace_at(term, (1,) * 3000, App(f, (c,)))
    assert deeper.size == 3002
    assert term_key(deeper) == "(f " * 3001 + "c" + ")" * 3001


def test_equality_of_deep_terms_built_apart():
    # compared without recursion: no RecursionError at depth 3000
    u = Sort("U", TERM)
    f = FunSymbol("f", (u,), u, TERM)
    g = FunSymbol("g", (u, u), u, TERM)
    c = App(FunSymbol("c", (), u, TERM))
    d = App(FunSymbol("d", (), u, TERM))

    def tower(leaf, n=3000):
        term = leaf
        for _ in range(n):
            term = App(f, (term,))
        return term

    a, b = tower(c), tower(c)
    assert a is not b and a == b and not a != b
    assert a != tower(d) and a != tower(c, 2999) and a != c
    # a small side argument at every level is compared too
    left, right = c, c
    for _ in range(3000):
        left, right = App(g, (left, App(f, (c,)))), App(g, (right, App(f, (c,))))
    assert left == right
    assert left != replace_at(right, (1,) * 1500 + (2, 1), d)


def test_terms_stay_frozen_and_copyable(lists):
    term = t(lists, "nth(cons(x,xs),1)")
    with pytest.raises(FrozenInstanceError):
        term.fun = term.args[0].fun
    with pytest.raises(FrozenInstanceError):
        term.args[0].name = "y"
    for copied in (copy.copy(term), copy.deepcopy(term), pickle.loads(pickle.dumps(term))):
        assert copied == term and hash(copied) == hash(term)
        assert term_key(copied) == term_key(term) and copied.size == term.size


def test_value_term_is_one_object_per_value():
    model = lia_model()
    assert model.value_term(INT, 5) is model.value_term(INT, 5)
    assert model.value_term(BOOL, True) is model.value_term(BOOL, True)
    assert model.value_term(INT, 1) is not model.value_term(BOOL, True)
    assert model.value_term(INT, 5) == MODEL.value_term(INT, 5)
    assert model.value_term(INT, 5).fun is model.value_symbol(INT, 5)


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


_SYMBOL_HASHES = """
from lcer.terms import FunSymbol, Sort
s = Sort("Int", "theory")
print(hash(FunSymbol("f", (s, s), s, "theory")),
      hash(FunSymbol("3", (), s, "theory", is_value=True, value=3)))
"""


def test_symbol_hashes_are_the_same_in_every_process():
    """Under one PYTHONHASHSEED a symbol hashes alike in every process, so a
    set of symbols iterates in one order: a symbol that is no value leaves
    its value, None, which hashes by address, out of its hash."""
    src = str(Path(lcer.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="3")
    outs = [subprocess.run([sys.executable, "-c", _SYMBOL_HASHES], env=env,
                           capture_output=True, text=True, check=True).stdout
            for _ in range(2)]
    assert len(outs[0].split()) == 2 and outs[0] == outs[1]
