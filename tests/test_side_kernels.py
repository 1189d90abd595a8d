"""Compiled equation sides against the generic matcher and substitution.

A side's match kernel must read the bindings that terms.match finds on a
subject of its source's sort (rooted in a symbol where the source is), in
the side's `matched` order, None where match fails; its template must build the
term that apply_subst builds from them.  Sides: every side of every fixture
theory and of the seed-77 criterion-11 theories of
test_conversion_traces.py.  Subjects: every subterm of their goals and
equations, a few chosen group.th terms, and genrandom's terms.
"""

import os
import random
from collections import Counter

from lcer.equations import rule_step_candidates
from lcer.syntax import parse_term
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
