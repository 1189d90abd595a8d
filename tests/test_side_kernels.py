"""Compiled equation sides against the generic matcher and substitution.

A side's match kernel must read the bindings that terms.match finds on a
subject of its source's sort (rooted in a symbol where the source is), in
the side's `matched` order, None where match fails; its template must build the
term that apply_subst builds from them.  A side with nothing to check or
draw (`_Side.direct`) makes its one draw from the match at once, which must
be the draw that the general path, through the guard and the pools, makes.
Sides: every side of every fixture theory and of the seed-77 criterion-11
theories of test_conversion_traces.py.  Subjects: every subterm of their
goals and equations, a few chosen group.th terms, and genrandom's terms.
"""

import os
import random
from collections import Counter

import lcer.equations as equations
from lcer.equations import (
    CETheory, _draws_at, default_value_pool, rule_step_candidates, term_candidate_pool)
from lcer.syntax import parse_term, parse_theory
from lcer.terms import (
    App, Variable, apply_subst, fill_template, match, match_compiled, sort_of, subterms_of)

from tests.conftest import FIXTURES, load_theory
from tests.genrandom import finite_theory, random_equation, random_u_term, term_vars, theory_vars

FIXTURE_THEORIES = sorted(n for n in os.listdir(FIXTURES) if n.endswith(".th"))

# group.th subjects: a repeated variable, a value and a nested source, each
# matched and missed (a symbol, a variable or a repeat that differs)
GROUP_SUBJECTS = [
    "op(inv(a), a)", "op(inv(a), b)", "op(inv(op(a, b)), op(a, b))", "op(inv(op(a, b)), op(b, a))",
    "exp(a, 0)", "exp(a, 1)", "exp(a, n)", "exp(op(a, b), 0)",
    "op(op(a, b), e)", "op(a, op(b, e))", "op(op(inv(a), a), op(a, b))",
]
CASES = ["op(inv(x), x)", "exp(x, 0)", "x", "op(op(x, y), z)"]


def _corpus(seed: int = 77, n: int = 150):
    """The criterion-11 theories and goals, as test_corpus_traces makes them."""
    rng = random.Random(seed)
    for _ in range(n):
        theory = finite_theory(rng.choice(["intmod", "bool"]), rng, n_equations=2)
        yield theory, [random_equation(theory, rng)]


def _cases():
    """(theory, subjects) for every fixture theory and corpus theory."""
    for name in FIXTURE_THEORIES:
        tf = load_theory(name)
        terms = [u for ce in (*tf.goals.values(), *tf.theory.equations) for u in (ce.lhs, ce.rhs)]
        if name == "group.th":
            sig = tf.theory.signature
            env = {"a": sig.sort("G"), "b": sig.sort("G"), "n": sig.sort("Int")}
            terms += [parse_term(tf.theory, text, env) for text in GROUP_SUBJECTS]
        yield tf.theory, terms
    rng = random.Random(2801)
    for theory, goals in _corpus():
        xs, us = theory_vars(theory), term_vars(theory)
        terms = [u for ce in (*goals, *theory.equations) for u in (ce.lhs, ce.rhs)]
        yield theory, terms + [random_u_term(theory, rng, xs, us, depth=3) for _ in range(8)]


def test_kernels_and_templates_agree_with_match_and_apply_subst():
    seen = Counter()
    for theory, terms in _cases():
        subjects = {u: None for t in terms for u in subterms_of(t)}
        by_sort = {}
        for u in subjects:
            by_sort.setdefault(sort_of(u), u)
        for side in theory._sides:
            # nothing bound but to itself: the destination itself, nothing built
            assert fill_template(side.template, side.variables) is side.dst
        for sub in subjects:
            # sides_for's, and the others of sub's sort that a term rooted
            # in a symbol can meet, whose root differs
            for side in (s for s in theory._sides if sort_of(s.src) == sort_of(sub)
                         and (isinstance(sub, App) or isinstance(s.src, Variable))):
                found = match(side.src, sub)
                got = match_compiled(side.kernel, sub)
                seen[repr(side.src), found is not None] += 1
                if found is None:
                    assert got is None, (side.src, sub)
                    continue
                assert got == tuple(found[x] for x in side.matched), (side.src, sub)
                extras = tuple(by_sort.get(x.sort, x) for x in side.variables[len(got):])
                values = got + extras
                expected = apply_subst(dict(zip(side.variables, values)), side.dst)
                assert fill_template(side.template, values) == expected, (side, sub)
    for case in CASES:
        assert seen[case, True], case
        assert case == "x" or seen[case, False], case


def test_a_side_is_compiled_on_its_first_draw():
    # parsing builds no kernel; a draw compiles its sides' kernels, and a
    # replacement read compiles its side's template
    tf = load_theory("group.th")
    sides = tf.theory._sides
    assert not any({"kernel", "template"} & vars(side).keys() for side in sides)
    goal = tf.goals["expinv"]
    cands = rule_step_candidates(tf.theory, goal.lhs)
    drawn = {id(side) for u in subterms_of(goal.lhs) for side in tf.theory.sides_for(u)}
    assert cands and drawn
    assert {id(side) for side in sides if "kernel" in vars(side)} == drawn
    assert not any("template" in vars(side) for side in sides)
    built = [cand.draw.replacement for cand in cands]
    assert {id(side) for side in sides if "template" in vars(side)} == \
        {id(cand.draw.side) for cand in cands}
    assert built == [apply_subst(cand.draw.sigma, cand.draw.side.dst) for cand in cands]


def test_a_side_with_nothing_to_check_or_draw_is_drawn_at_once():
    # each such side's draw at each subject equals the general path's, run
    # on a copy of the theory whose sides are all taken the general way
    direct = 0
    for theory, terms in _cases():
        general = CETheory(theory.signature, theory.model, theory.equations)
        for side in general._sides:
            side.direct = False
        for side in theory._sides:
            assert side.direct == (side.guard is None and not side.checked_at
                                   and not side.term_extras), side
        value_pool = default_value_pool(theory, terms)
        term_pool = term_candidate_pool(terms)
        for sub in {u: None for t in terms for u in subterms_of(t)}:
            got, want = (
                [((d.side.eq_index, d.side.direction), d.values, d.size, d.plain)
                 for d in _draws_at(th, sub, value_pool, term_pool, 8, 8)]
                for th in (theory, general))
            assert got == want, sub
            direct += sum(theory._sides[2 * i + (way == "rl")].direct for (i, way), *_ in got)
    assert direct > 500


def test_a_logical_extra_under_a_true_constraint_is_drawn_from_the_pools(monkeypatch):
    theory = parse_theory(
        "(theory (model lia) (sorts U) (fun f (Int) U) (fun g (Int) U)"
        " (eq (vars (x Int) (y Int)) (pi x y) (constraint true) (f x) (g y)))").theory
    lr = theory._sides[0]
    assert lr.guard is not None and lr.logical_extras and not lr.direct
    calls = []
    logical_draws = equations._logical_draws
    monkeypatch.setattr(equations, "_logical_draws",
                        lambda *args: calls.append(args[1]) or logical_draws(*args))
    sub = parse_term(theory, "f(3)")
    draws = _draws_at(theory, sub, default_value_pool(theory, [sub]), {}, 4, 5)
    assert calls == [lr.guard]
    assert [tuple(u.fun.value for u in d.values) for d in draws] == \
        [(3, 0), (3, 1), (3, -1), (3, 2), (3, -2)]
