"""Seeded random generators for property suites: finite test theories, checker
derivations built bottom-up so every node satisfies its side conditions, and
single-calculation goals over the integers."""

from __future__ import annotations

import random

from lcer.equations import CETheory, ConstrainedEquation
from lcer.models import bool_model, intmod_model, lia_model
from lcer.proofs import Derivation
from lcer.terms import (
    TERM,
    App,
    FunSymbol,
    Signature,
    Sort,
    Variable,
    apply_subst,
    vars_of,
)

U = Sort("U", TERM)


def finite_theory(kind: str, rng: random.Random, n_equations: int = 3) -> CETheory:
    """A small random theory over intmod(3) or the booleans."""
    model = intmod_model(3) if kind == "intmod" else bool_model()
    data = model.sorts["Int"] if kind == "intmod" else model.sorts["Bool"]
    symbols = [
        FunSymbol("h", (data,), U, TERM),
        FunSymbol("k", (U,), U, TERM),
        FunSymbol("c0", (), U, TERM),
        FunSymbol("pairf", (U, data), U, TERM),
    ]
    signature = Signature(tuple(model.sorts.values()) + (U,),
                          tuple(model.symbols.values()) + tuple(symbols))
    theory = CETheory(signature, model, ())
    eqs = []
    for _ in range(n_equations):
        eqs.append(random_equation(theory, rng))
    return CETheory(signature, model, tuple(eqs))


def theory_vars(theory, names="ab"):
    data = _data_sort(theory)
    return [Variable(n, data) for n in names]


def term_vars(theory, names="uv"):
    return [Variable(n, U) for n in names]


def _data_sort(theory):
    model = theory.model
    return model.sorts["Int"] if "Int" in model.sorts else model.sorts["Bool"]


def random_data_term(theory, rng, xs, depth=1):
    model = theory.model
    data = _data_sort(theory)
    fate = rng.random()
    if depth == 0 or fate < 0.45 or not xs:
        if xs and fate < 0.3:
            return rng.choice(xs)
        return model.value_term(data, rng.choice(model.carrier_elements(data)))
    if data.name == "Int":
        op = model.symbols[rng.choice(["+", "*", "-"])]
        return App(op, (random_data_term(theory, rng, xs, depth - 1),
                        random_data_term(theory, rng, xs, depth - 1)))
    op = model.symbols[rng.choice(["and", "or"])]
    return App(op, (random_data_term(theory, rng, xs, depth - 1),
                    random_data_term(theory, rng, xs, depth - 1)))


def random_u_term(theory, rng, xs, us, depth=2, data_depth=1):
    sig = theory.signature
    if depth == 0 or rng.random() < 0.25:
        if us and rng.random() < 0.5:
            return rng.choice(us)
        return App(sig.symbol("c0"))
    choice = rng.random()
    if choice < 0.4:
        return App(sig.symbol("h"), (random_data_term(theory, rng, xs, data_depth),))
    if choice < 0.7:
        return App(sig.symbol("k"),
                   (random_u_term(theory, rng, xs, us, depth - 1, data_depth),))
    return App(sig.symbol("pairf"),
               (random_u_term(theory, rng, xs, us, depth - 1, data_depth),
                random_data_term(theory, rng, xs, data_depth)))


def random_atom(theory, rng, xs):
    model = theory.model
    data = _data_sort(theory)
    if not xs:
        return model.value_term(model.sorts["Bool"], True)
    x = rng.choice(xs)
    other = rng.choice(xs + [model.value_term(data, rng.choice(model.carrier_elements(data)))])
    if data.name == "Int":
        name = rng.choice([f"={data.name}", "<", "<=", ">", ">="])
    else:
        name = f"={data.name}"
    return App(model.symbols[name], (x, other))


def random_constraint(theory, rng, xs):
    model = theory.model
    if rng.random() < 0.4 or not xs:
        return model.value_term(model.sorts["Bool"], True)
    atom = random_atom(theory, rng, xs)
    if rng.random() < 0.3:
        return App(model.symbols["or"], (atom, random_atom(theory, rng, xs)))
    return atom


def _random_int_term(model, rng, xs, depth):
    if depth == 0 or rng.random() < 0.4:
        if xs and rng.random() < 0.6:
            return rng.choice(xs)
        return model.value_term(model.sorts["Int"], rng.randrange(-4, 5))
    op = model.symbols[rng.choice(["+", "-", "*"])]
    return App(op, (_random_int_term(model, rng, xs, depth - 1),
                    _random_int_term(model, rng, xs, depth - 1)))


def random_formula(theory, rng, xs, depth=2):
    """A Bool constraint over xs: atoms under not, and, or and =>.  Over a
    finite model the atoms are random_atom's; over the integers
    (lia_test_theory) they compare sums, differences and products of xs and
    small values, which the oracle may leave Unknown."""
    model = theory.model
    if depth == 0 or rng.random() < 0.3:
        if model.carriers[_data_sort(theory)].finite:
            return random_atom(theory, rng, xs)
        cmp = model.symbols[rng.choice(["=Int", "<", "<=", ">", ">="])]
        return App(cmp, (_random_int_term(model, rng, xs, 2), _random_int_term(model, rng, xs, 1)))
    op = rng.choice(["not", "and", "or", "=>"])
    if op == "not":
        return App(model.symbols["not"], (random_formula(theory, rng, xs, depth - 1),))
    return App(model.symbols[op], (random_formula(theory, rng, xs, depth - 1),
                                   random_formula(theory, rng, xs, depth - 1)))


def random_equation(theory, rng) -> ConstrainedEquation:
    # equation sides keep data arguments flat (variables or values) so that
    # instances stay matchable after calc normalization
    xs = theory_vars(theory)
    us = term_vars(theory)
    lhs = random_u_term(theory, rng, xs, us, data_depth=0)
    rhs = random_u_term(theory, rng, xs, us, data_depth=0)
    used = (vars_of(lhs) | vars_of(rhs)) & set(xs)
    extra = [x for x in xs if rng.random() < 0.3]
    logical = frozenset(used | set(extra))
    phi = random_constraint(theory, rng, sorted(logical, key=lambda v: v.name))
    return ConstrainedEquation(logical, lhs, rhs, phi)


# -- random accepted derivations -------------------------------------------------

def _true(theory):
    return theory.model.value_term(theory.model.sorts["Bool"], True)


def _random_term_of(theory, rng, sort, xs, us):
    if sort == U:
        return random_u_term(theory, rng, xs, us, depth=1)
    if sort.name == "Bool" and _data_sort(theory).name != "Bool":
        return theory.model.value_term(sort, rng.choice((False, True)))
    return random_data_term(theory, rng, xs, depth=1)


def _leaf(theory, rng) -> Derivation:
    xs = theory_vars(theory)
    us = term_vars(theory)
    kind = rng.choice(["rule", "refl", "axiom", "abst"])
    if kind == "rule" and theory.equations:
        return Derivation("Rule", rng.choice(theory.equations))
    if kind == "axiom":
        chosen = [x for x in xs if rng.random() < 0.6] or [xs[0]]
        s = random_data_term(theory, rng, chosen, depth=1)
        if rng.random() < 0.5 and not vars_of(s):
            t = theory.model.interpret_term(s)
        else:
            t = s
        logical = frozenset(chosen)
        phi = random_constraint(theory, rng, sorted(logical, key=lambda v: v.name))
        return Derivation("Axiom", ConstrainedEquation(logical, s, t, phi))
    if kind == "abst":
        x = rng.choice(xs)
        s = random_u_term(theory, rng, [x], [], depth=1)
        data = _data_sort(theory)
        val = theory.model.value_term(data, rng.choice(theory.model.carrier_elements(data)))
        eq_sym = theory.model.symbols[f"={data.name}"]
        phi = App(eq_sym, (x, val))
        sigma = {x: val}
        premise = Derivation("Refl", ConstrainedEquation(
            frozenset({x}), apply_subst(sigma, s), apply_subst(sigma, s),
            apply_subst(sigma, phi)))
        return Derivation("Abst", ConstrainedEquation(frozenset({x}), s, s, phi),
                          witness=((x, val),), premises=(premise,))
    chosen = frozenset(x for x in xs if rng.random() < 0.4)
    t = random_u_term(theory, rng, sorted(chosen, key=lambda v: v.name), us)
    phi = random_constraint(theory, rng, sorted(chosen, key=lambda v: v.name))
    return Derivation("Refl", ConstrainedEquation(chosen, t, t, phi))


def _adapt(theory, rng, d: Derivation) -> Derivation:
    ce = d.conclusion
    X = ce.logical_vars
    model = theory.model
    which = rng.choice(["sym", "trans", "cong", "weaken", "tinst", "ginst",
                        "enlarge", "split"])
    if which == "sym":
        return Derivation("Sym", ConstrainedEquation(X, ce.rhs, ce.lhs, ce.constraint),
                          premises=(d,))
    if which == "trans":
        refl = Derivation("Refl", ConstrainedEquation(X, ce.rhs, ce.rhs, ce.constraint))
        return Derivation("Trans", ce, premises=(d, refl))
    if which == "cong":
        from lcer.terms import sort_of

        sig = theory.signature
        s_sort = sort_of(ce.lhs)
        candidates = [f for f in sig.term_symbols() if s_sort in f.arg_sorts]
        if not candidates:
            return d
        f = rng.choice(candidates)
        slot = f.arg_sorts.index(s_sort)
        xs = sorted(X, key=lambda v: v.name)
        args_l, args_r, premises = [], [], []
        for i, arg_sort in enumerate(f.arg_sorts):
            if i == slot:
                args_l.append(ce.lhs)
                args_r.append(ce.rhs)
                premises.append(d)
            else:
                sibling = _random_term_of(theory, rng, arg_sort, xs,
                                          term_vars(theory))
                args_l.append(sibling)
                args_r.append(sibling)
                premises.append(Derivation("Refl", ConstrainedEquation(
                    X, sibling, sibling, ce.constraint)))
        return Derivation("Cong", ConstrainedEquation(
            X, App(f, tuple(args_l)), App(f, tuple(args_r)), ce.constraint),
            premises=tuple(premises))
    if which == "weaken":
        extra = random_atom(theory, rng, sorted(X, key=lambda v: v.name)) \
            if X else _true(theory)
        phi = App(model.symbols["and"], (ce.constraint, extra))
        return Derivation("Weakening", ConstrainedEquation(X, ce.lhs, ce.rhs, phi),
                          premises=(d,))
    if which == "tinst":
        if not X:
            return d
        data = _data_sort(theory)
        sigma = {}
        for x in sorted(X, key=lambda v: v.name):
            r = rng.random()
            if r < 0.4:
                sigma[x] = model.value_term(data, rng.choice(model.carrier_elements(data)))
            elif r < 0.7 and data.name == "Int":
                sigma[x] = App(model.symbols["+"],
                               (x, model.value_term(data, rng.choice((1, 2)))))
        if not sigma:
            return d
        return Derivation("TheoryInstance", ConstrainedEquation(
            X, apply_subst(sigma, ce.lhs), apply_subst(sigma, ce.rhs),
            apply_subst(sigma, ce.constraint)),
            witness=tuple(sorted(sigma.items(), key=lambda kv: kv[0].name)),
            premises=(d,))
    if which == "ginst":
        outside = sorted((vars_of(ce.lhs) | vars_of(ce.rhs)) - X,
                         key=lambda v: v.name)
        if not outside:
            return d
        v0 = rng.choice(outside)
        image = _random_term_of(theory, rng, v0.sort,
                                sorted(X, key=lambda v: v.name), term_vars(theory))
        sigma = {v0: image}
        return Derivation("GeneralInstance", ConstrainedEquation(
            X, apply_subst(sigma, ce.lhs), apply_subst(sigma, ce.rhs), ce.constraint),
            witness=((v0, image),), premises=(d,))
    if which == "enlarge":
        if len(X) >= 3:
            return d
        data = _data_sort(theory)
        fresh = Variable(f"w{rng.randrange(10)}", data)
        if fresh in X:
            return d
        return Derivation("Enlarge", ConstrainedEquation(
            X | {fresh}, ce.lhs, ce.rhs, ce.constraint), premises=(d,))
    # split
    extra = random_atom(theory, rng, sorted(X, key=lambda v: v.name)) \
        if X else _true(theory)
    phi2 = App(model.symbols["and"], (ce.constraint, extra))
    d2 = Derivation("Weakening", ConstrainedEquation(X, ce.lhs, ce.rhs, phi2),
                    premises=(d,))
    disj = App(model.symbols["or"], (ce.constraint, phi2))
    return Derivation("Split", ConstrainedEquation(X, ce.lhs, ce.rhs, disj),
                      premises=(d, d2))


def random_accepted_derivation(theory, rng, adapters: int = 3) -> Derivation:
    d = _leaf(theory, rng)
    for _ in range(rng.randrange(adapters + 1)):
        d = _adapt(theory, rng, d)
    return d


# -- single-calculation goals over the integers -----------------------------------

def lia_test_theory() -> CETheory:
    model = lia_model()
    i = model.sorts["Int"]
    symbols = [
        FunSymbol("w", (i,), U, TERM),
        FunSymbol("pairf", (U, i), U, TERM),
        FunSymbol("c0", (), U, TERM),
    ]
    signature = Signature(tuple(model.sorts.values()) + (U,),
                          tuple(model.symbols.values()) + tuple(symbols))
    return CETheory(signature, model, ())


def one_calc_goal(theory, rng) -> ConstrainedEquation:
    """<X> C[f(values/X-vars)] ~ C[value/X-var] with the constraint pinning
    every variable, so instances differ by the one contracted redex."""
    model = theory.model
    i = model.sorts["Int"]
    fname = rng.choice(["+", "-", "*", "div", "mod", "neg"])
    arity = 1 if fname == "neg" else 2
    pins = []
    args = []
    vals = []
    X = []
    for idx in range(arity):
        val = rng.randrange(-8, 9)
        vals.append(val)
        if rng.random() < 0.5:
            x = Variable(f"x{idx}", i)
            X.append(x)
            pins.append(App(model.symbols["=Int"], (x, model.value_term(i, val))))
            args.append(x)
        else:
            args.append(model.value_term(i, val))
    result_val = model.interp[fname](*vals)
    redex = App(model.symbols[fname], tuple(args))
    if rng.random() < 0.4:
        y = Variable("y", i)
        X.append(y)
        pins.append(App(model.symbols["=Int"], (y, model.value_term(i, result_val))))
        contractum = y
    else:
        contractum = model.value_term(i, result_val)

    w = theory.signature.symbol("w")
    pairf = theory.signature.symbol("pairf")
    c0 = App(theory.signature.symbol("c0"))
    lhs, rhs = redex, contractum
    for _ in range(rng.randrange(3)):
        if sort_of_is_int(lhs):
            if rng.random() < 0.6:
                lhs, rhs = App(w, (lhs,)), App(w, (rhs,))
            else:
                lhs, rhs = App(pairf, (c0, lhs)), App(pairf, (c0, rhs))
        else:
            filler = model.value_term(i, rng.randrange(-3, 4))
            lhs, rhs = App(pairf, (lhs, filler)), App(pairf, (rhs, filler))

    phi = _true(theory)
    for pin in pins:
        phi = pin if phi == _true(theory) else App(model.symbols["and"], (phi, pin))
    return ConstrainedEquation(frozenset(X), lhs, rhs, phi)


def sort_of_is_int(t):
    from lcer.terms import sort_of

    return sort_of(t).name == "Int"
