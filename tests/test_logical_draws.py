"""Rule-step draws of logical variables against the term-building reference.

`_reference_assignments` is the instantiation `equations` made before each
side's constraint was compiled once (`models.Guard`) and before a variable
fixed by an equality conjunct was computed instead of searched: the
constraint instantiated by the match, then every point of the box (closest
to zero first, variables by name and sort) and then of the value pool,
evaluated on a term built per point, without duplicates and up to the cap.
Its enumeration builds terms and walks them (`_walk`), so it shares no code
with the compiled path.  The draws of `_draws_at` must be the same
assignments in the same order, and raise the same errors.

The walk raises with the messages of compiled evaluation, which the old
code gave wherever it enumerated.  Where a side had no logical extras it
evaluated with `eval_constraint` instead, which words a term symbol in a
constraint as `non-theory symbol p in theory term`; the compiled guard says
`no interpretation for p` there too.
"""

import itertools
import random

import pytest

from lcer.equations import CETheory, ConstrainedEquation, _draws_at, default_value_pool
from lcer.models import (
    BOOL,
    INT,
    EvalError,
    UnderlyingModel,
    int_domain,
    lia_model,
    sort_domain,
)
from lcer.syntax import parse_term, parse_theory
from lcer.terms import THEORY, App, FunSymbol, Variable, apply_subst, match, vars_of

MODELS = {"lia": "lia", "intmod": "intmod 5", "bool": "bool"}


def _ref_box(model, sort, box):
    car = model.carriers[sort]
    if car.finite:
        return list(car.elements)
    return [0] + [v for k in range(1, box + 1) for v in (k, -k)]


def _walk(model, t):
    """The value of the ground theory term t, by a recursive walk."""
    if t.fun.is_value:
        return t.fun.value
    fn = model.interp.get(t.fun.name)
    if fn is None:
        raise EvalError(f"no interpretation for {t.fun.name}")
    return fn(*(_walk(model, a) for a in t.args))


def _ref_satisfying(model, order, domains, phi):
    for combo in itertools.product(*domains):
        sigma = {v: model.value_term(v.sort, e) for v, e in zip(order, combo)}
        if _walk(model, apply_subst(sigma, phi)):
            yield combo


def _reference_assignments(model, extras, constraint, value_pool, solve_box, cap):
    """The instantiation of logical extras as `equations` made it, with its
    enumeration done by building and evaluating a term per point."""
    if not extras:
        if vars_of(constraint):
            return []
        return [{}] if _walk(model, constraint) else []
    found = {}
    if solve_box is not None:
        order = sorted(extras, key=lambda v: (v.name, v.sort.name))
        domains = [_ref_box(model, v.sort, solve_box) for v in order]
        for combo in _ref_satisfying(model, order, domains, constraint):
            sigma = {v: model.value_term(v.sort, e) for v, e in zip(order, combo)}
            found[tuple(sigma[v].fun.value for v in extras)] = sigma
            if len(found) >= cap:
                return list(found.values())
    domains = [value_pool.get(v.sort) for v in extras]
    if None in domains:
        return list(found.values())
    for v, elems in zip(extras, domains):
        for e in elems:
            model.value_symbol(v.sort, e)
    for combo in _ref_satisfying(model, extras, domains, constraint):
        if combo not in found:
            found[combo] = {v: model.value_term(v.sort, e) for v, e in zip(extras, combo)}
            if len(found) >= cap:
                break
    return list(found.values())


def _reference_draws(theory, sub, value_pool, solve_box, cap):
    """(equation index, direction, matched values + extra values) per draw."""
    model = theory.model
    out = []
    for i, eq in enumerate(theory.equations):
        for direction in ("lr", "rl"):
            src = eq.lhs if direction == "lr" else eq.rhs
            base = match(src, sub)
            if base is None:
                continue
            if any(not model.is_value_term(base[x]) for x in eq.logical_vars & vars_of(src)):
                continue
            matched = tuple(base[x] for x in sorted(vars_of(src), key=lambda v: v.name))
            extras = sorted(eq.logical_vars - vars_of(src), key=lambda v: v.name)
            for sigma in _reference_assignments(
                    model, extras, apply_subst(base, eq.constraint), value_pool, solve_box, cap):
                out.append((i, direction, matched + tuple(sigma[x] for x in extras)))
    return out


def _outcome(f, *args):
    try:
        return "draws", f(*args)
    except EvalError as exc:
        return "error", str(exc)


def _compare(theory, sub, value_pool, solve_box, cap):
    def new():
        return [(d.side.eq_index, d.side.direction, d.values)
                for d in _draws_at(theory, sub, value_pool, {}, solve_box, cap)]
    want = _outcome(_reference_draws, theory, sub, value_pool, solve_box, cap)
    got = _outcome(new)
    assert got == want, (theory.equations, sub, value_pool, solve_box, cap)
    if got[0] == "draws":  # value terms of the right type, not just equal values
        assert [[type(t.fun.value) for t in v] for *_, v in got[1]] == \
            [[type(t.fun.value) for t in v] for *_, v in want[1]]
    return got


def _theory(model_name, eqs, all_logical=False):
    """Equations over f, g, h: U with logical variables among x, y, z, those
    that occur (all three with all_logical)."""
    sort = "Bool" if model_name == "bool" else "Int"
    text = (f"(theory (model {MODELS[model_name]}) (sorts U)"
            f" (fun f ({sort}) U) (fun g ({sort}) U) (fun h ({sort} {sort}) U)"
            f" (fun p ({sort}) Bool)")
    for phi, lhs, rhs in eqs:
        words = set(f"{phi} {lhs} {rhs}".replace("(", " ").replace(")", " ").split())
        xs = [x for x in "xyz" if all_logical or x in words]
        text += (f" (eq (vars {' '.join(f'({x} {sort})' for x in xs)}) (pi {' '.join(xs)})"
                 f" (constraint {phi}) {lhs} {rhs})")
    return parse_theory(text + ")").theory


# -- random constraints ------------------------------------------------------------

def _const(rng, model_name):
    if model_name == "intmod":
        return str(rng.randrange(5))
    return str(rng.choice([0, 1, 2, 3, -1, -4, 7, 12, 40]))


def _int_term(rng, model_name, names, depth):
    if depth == 0 or rng.random() < 0.35:
        return rng.choice(names) if names and rng.random() < 0.6 else _const(rng, model_name)
    op = rng.choice(["+", "-", "neg", "*", "mod"])
    if op == "neg":
        return f"(neg {_int_term(rng, model_name, names, depth - 1)})"
    return (f"({op} {_int_term(rng, model_name, names, depth - 1)} "
            f"{_int_term(rng, model_name, names, depth - 1)})")


def _fixing(rng, model_name, target, others):
    """An equality in which target occurs once, under +, - and neg only."""
    e = target
    for _ in range(rng.randrange(4)):
        other = _int_term(rng, model_name, others, 0)
        e = rng.choice([f"(neg {e})", f"(+ {e} {other})", f"(+ {other} {e})",
                        f"(- {e} {other})", f"(- {other} {e})"])
    r = _int_term(rng, model_name, others, 1)
    return f"(= {e} {r})" if rng.random() < 0.5 else f"(= {r} {e})"


def _bool_atom(rng, names):
    a, b = rng.choice(names), rng.choice(names + ["true", "false"])
    return rng.choice([f"(= {a} {b})", f"(not {a})", a, f"(=> {a} {b})", f"(or {a} {b})"])


def _int_atom(rng, model_name, names):
    op = rng.choice(["=", "<", "<=", ">", ">="])
    return (f"({op} {_int_term(rng, model_name, names, 2)} "
            f"{_int_term(rng, model_name, names, 2)})")


def _constraint(rng, model_name):
    names = ["x", "y", "z"]
    if model_name == "bool":
        parts = [_bool_atom(rng, names) for _ in range(rng.randint(1, 3))]
    else:
        parts = [_int_atom(rng, model_name, names) for _ in range(rng.randint(0, 2))]
        for target in rng.sample(names, rng.randint(0, 2)):
            parts.insert(rng.randint(0, len(parts)),
                         _fixing(rng, model_name, target, [n for n in names if n != target]))
    if not parts:
        return "true"
    phi = parts[0]
    for p in parts[1:]:  # nested both ways
        phi = f"(and {phi} {p})" if rng.random() < 0.5 else f"(and {p} {phi})"
    return f"(not {phi})" if rng.random() < 0.1 else phi


SIDES = [("(f x)", "(g y)"), ("(f x)", "(h y z)"), ("(h x y)", "(g z)"), ("(f x)", "(f x)")]


def _value_text(rng, model_name):
    if model_name == "bool":
        return rng.choice(["true", "false"])
    if model_name == "intmod":
        return str(rng.randrange(5))
    return str(rng.choice([0, 1, -1, 2, 5, -6, 9, 30, -45, 70]))


def _pool(rng, model_name, theory, sub):
    model = theory.model
    if rng.random() < 0.25:
        return default_value_pool(theory, [sub])
    pool = {}
    for sort in model.sorts.values():
        if rng.random() < 0.15:
            continue  # no pool for this sort: no pool pass
        car = model.carriers[sort]
        base = list(car.elements) if car.finite else list(range(-70, 71))
        pool[sort] = tuple(rng.choice(base) for _ in range(rng.randint(0, 8)))  # duplicates too
        if rng.random() < 0.05:  # a value outside the carrier: an error
            pool[sort] += ({"Bool": 1, "Int": 9 if car.finite else True}[sort.name],)
    return pool


@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_draws_match_the_reference_on_random_constraints(model_name):
    rng = random.Random(f"logical-draws-{model_name}")
    computed = 0
    for _ in range(150):
        eqs = [(_constraint(rng, model_name), *rng.choice(SIDES)) for _ in range(2)]
        theory = _theory(model_name, eqs, all_logical=rng.random() < 0.3)
        computed += sum(s.guard is not None and s.guard.solve is not None
                        for s in theory._sides)
        for _ in range(3):
            head = rng.choice(["f", "g", "h"])
            args = [_value_text(rng, model_name) for _ in range(2 if head == "h" else 1)]
            sub = parse_term(theory, f"{head}({','.join(args)})")
            pool = _pool(rng, model_name, theory, sub)
            solve_box = rng.choice([None, 0, 1, 2, 3])
            _compare(theory, sub, pool, solve_box, rng.choice([1, 2, 3, 256]))
    # the sample reaches the computed path, except in bool, which has none
    assert (computed > 50) == (model_name != "bool")


# -- fixed cases -------------------------------------------------------------------

LIA = "lia"


def _draw_values(theory, text, pool=None, solve_box=64, cap=64):
    sub = parse_term(theory, text)
    pool = default_value_pool(theory, [sub]) if pool is None else pool
    kind, draws = _compare(theory, sub, pool, solve_box, cap)
    assert kind == "draws"
    return [tuple(t.fun.value for t in values) for *_, values in draws]


def test_an_extra_fixed_through_plus_minus_neg_and_nested_and():
    theory = _theory(LIA, [("(and (>= y -2) (and true (= (neg (- (+ 1 y) x)) 3)))",
                            "(f x)", "(g y)")])
    lr = theory._sides[0]
    assert lr.guard.solve is not None and lr.logical_extras == (Variable("y", INT),)
    assert _draw_values(theory, "f(5)") == [(5, 1)]
    assert _draw_values(theory, "f(0)") == []  # y = -4 fails y >= -2
    assert _draw_values(theory, "g(1)") == [(1, 5)]  # rl: x computed from y


def test_two_extras_compute_the_last_and_enumerate_the_first():
    theory = _theory(LIA, [("(and (= (+ y z) x) (< y z))", "(f x)", "(h y z)")])
    assert theory._sides[0].logical_extras == (Variable("y", INT), Variable("z", INT))
    box = [(3, 0, 3), (3, 1, 2), (3, -1, 4)]  # y in the box, z = 3 - y in it too
    pool = [(3, -2, 5), (3, -3, 6), (3, -4, 7), (3, -5, 8)]  # then over [-8, 8]
    assert _draw_values(theory, "f(3)", solve_box=4) == box + pool
    assert _draw_values(theory, "f(3)", solve_box=4, cap=2) == box[:2]


def test_a_solution_outside_the_box_but_in_the_pool():
    theory = _theory(LIA, [("(= (+ x 10) y)", "(f x)", "(g y)")])
    int_sort = theory.model.sorts["Int"]
    assert _draw_values(theory, "f(5)", {int_sort: (1, 15, 15, 2)}, solve_box=3) == [(5, 15)]
    assert _draw_values(theory, "f(5)", {int_sort: (1, 2)}, solve_box=3) == []  # in neither
    assert _draw_values(theory, "f(5)", {int_sort: (15,)}, solve_box=None) == [(5, 15)]
    assert _draw_values(theory, "f(5)", {}, solve_box=3) == []  # no pool for Int
    assert _draw_values(theory, "f(-2)", {int_sort: (8,)}, solve_box=64) == [(-2, 8)]


def test_an_explicit_pool_draws_from_the_pool_alone_in_its_order():
    theory = _theory(LIA, [("(>= (- y x) 0)", "(f x)", "(g y)")])
    int_sort = theory.model.sorts["Int"]
    assert _draw_values(theory, "f(2)", {int_sort: (9, 1, 2, 9, 40)}, solve_box=None) == \
        [(2, 9), (2, 2), (2, 40)]


def test_a_pool_value_outside_the_carrier_raises_the_same_error():
    for model_name, bad in (("intmod", 7), ("lia", True)):
        theory = _theory(model_name, [("(= (+ x 1) y)", "(f x)", "(g y)")])
        int_sort = theory.model.sorts["Int"]
        sub = parse_term(theory, "f(3)")
        kind, message = _compare(theory, sub, {int_sort: (1, bad)}, None, 64)
        assert kind == "error" and "is not in the carrier of Int" in message
        # the box pass reaches the cap first, so the pool is never read
        assert _compare(theory, sub, {int_sort: (1, bad)}, 64, 1)[0] == "draws"


def test_a_guard_that_cannot_be_evaluated_raises_as_enumeration_did():
    """p is a theory symbol the model does not interpret: enumerating raises
    at the first point, also where the value the equality fixes, 101, is in
    neither the box nor the pool, so nothing is computed for such a guard.
    (A term symbol in a constraint is refused when the equation is built.)"""
    base = _theory(LIA, [("(= (+ x 1) y)", "(f x)", "(g y)")])
    eq = base.equations[0]
    y = next(v for v in eq.logical_vars if v.name == "y")
    p = App(FunSymbol("p", (INT,), BOOL, THEORY), (y,))
    phi = App(base.model.symbols["and"], (eq.constraint, p))
    theory = CETheory(base.signature, base.model,
                      (ConstrainedEquation(eq.logical_vars, eq.lhs, eq.rhs, phi),))
    assert theory._sides[0].guard.solve is None
    pool = {theory.model.sorts["Int"]: (1,)}
    for redex in ("f(100)", "g(3)"):  # y is not computed on the left, nor x on the right
        assert _compare(theory, parse_term(theory, redex), pool, 3, 64) == \
            ("error", "no interpretation for p")


def test_cap_one_keeps_the_first_draw():
    theory = _theory("intmod", [("(= (- x y) (neg z))", "(f x)", "(h y z)")])
    assert len(_draw_values(theory, "f(2)", cap=256)) == 5
    assert _draw_values(theory, "f(2)", cap=1) == [(2, 0, 3)]


# -- the gate: only models whose + is a bijection compute ---------------------------

def _saturating_model():
    """lia with a + that saturates at 3, so y + 1 = 3 holds for every y >= 2."""
    base = lia_model()
    interp = dict(base.interp)
    interp["+"] = lambda a, b: min(a + b, 3)
    return UnderlyingModel("sat", [BOOL, INT], list(base.symbols.values()), interp,
                           base.carriers)


def test_a_custom_model_enumerates_instead_of_computing():
    lia = _theory(LIA, [("(= (+ y 1) x)", "(f x)", "(g y)")])
    model = _saturating_model()
    theory = CETheory(lia.signature, model, lia.equations)
    assert lia._sides[0].guard.solve is not None
    assert theory._sides[0].guard.solve is None
    assert _draw_values(theory, "f(3)", solve_box=4) == \
        [(3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (3, 7), (3, 8)]
    # computing would keep only y = 3 - 1: the gate is what keeps the draws
    model._bijective_arith = True
    wrong = CETheory(lia.signature, model, lia.equations)
    sub = parse_term(wrong, "f(3)")
    assert [d.values[1].fun.value for d in _draws_at(
        wrong, sub, default_value_pool(wrong, [sub]), {}, 4, 64)] == [2]


def test_the_computed_path_evaluates_the_guard_once_per_candidate():
    model = lia_model()
    calls = []
    model.interp = {name: (lambda fn, name: lambda *a: calls.append(name) or fn(*a))(fn, name)
                    for name, fn in model.interp.items()}
    nneg = parse_theory(open("fixtures/nneg.th").read()).theory
    theory = CETheory(nneg.signature, model, nneg.equations)
    sub = parse_term(theory, "nneg(5)")
    calls.clear()
    draws = _draws_at(theory, sub, default_value_pool(theory, [sub]), {}, 64, 64)
    assert [tuple(t.fun.value for t in d.values) for d in draws] == [(5, 6), (5, 4)]
    # x = 0 once; then for each side of x + 1 = y one check per pass (box,
    # pool), where enumerating would evaluate it on 129 + 17 points
    assert calls.count("=Int") == 5


# -- shared parts ----------------------------------------------------------------

def test_int_domain_is_one_shared_tuple_per_box():
    assert int_domain(3) == (0, 1, -1, 2, -2, 3, -3)
    assert int_domain(64) is int_domain(64) and len(int_domain(64)) == 129
    assert sort_domain(lia_model(), INT, 2) is int_domain(2)


def test_side_orders_do_not_depend_on_set_order():
    theory = _theory(LIA, [("(= (+ x (+ y z)) 0)", "(h x y)", "(g z)"),
                           ("(= (+ z (+ y x)) 0)", "(g z)", "(h y x)")])
    for side in theory._sides:
        for xs in (side.checked_logical, side.logical_extras):
            assert list(xs) == sorted(xs, key=lambda v: (v.name, v.sort.name))
