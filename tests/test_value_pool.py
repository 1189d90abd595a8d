"""The value pool a search draws logical variables from.

default_value_pool reads the theory's own literals once per theory
(CETheory.literals) and walks only the goal terms per call, with the pool
and the order of each sort's values of the walk over theory and goal.  A
pool is checked against the carriers once per draw context: a default pool
is made from the carriers and needs no check, and an explicit pool is
checked when its search is set up.  A pool value outside the carrier still
fails where it failed.  Sorts and symbols hash as their dataclass did."""

import io
import itertools
import json
import os
from contextlib import redirect_stdout

import pytest

import lcer.equations as equations
from lcer import cli
from lcer.equations import SearchLimits, conversion_search, default_value_pool
from lcer.models import INT, UnderlyingModel
from lcer.syntax import parse_term
from lcer.terms import App, FunSymbol, Sort, subterms_of

from tests.conftest import FIXTURES, load_theory

THEORIES = sorted(n for n in os.listdir(FIXTURES) if n.endswith(".th"))


def _walked_pool(theory, goal_terms=()):
    """The pool as a walk over every equation and goal term gives it."""
    model = theory.model
    lits = {}
    for t in itertools.chain([t for eq in theory.equations
                              for t in (eq.lhs, eq.rhs, eq.constraint)], goal_terms):
        for u in subterms_of(t):
            if isinstance(u, App) and u.fun.is_value:
                lits.setdefault(u.fun.result_sort, set()).add(u.fun.value)
    pool = {}
    for sort in model.sorts.values():
        car = model.carriers[sort]
        if car.finite:
            pool[sort] = tuple(car.elements)
        else:
            vals = set(range(-8, 9)) | lits.get(sort, set())
            pool[sort] = tuple(sorted(vals, key=lambda v: (abs(v), v < 0)))
    return pool


def _typed(pool):
    return [(sort, [(type(v), v) for v in vals]) for sort, vals in pool.items()]


@pytest.mark.parametrize("name", THEORIES)
def test_the_pool_is_the_walk_over_theory_and_goal(name):
    tf = load_theory(name)
    theory = tf.theory
    cases = [()] + [(ce.lhs, ce.rhs) for ce in tf.goals.values()] + \
        [(ce.lhs, ce.rhs, ce.constraint) for ce in tf.goals.values()]
    for goal_terms in cases * 2:  # the second round from a warm theory
        assert _typed(default_value_pool(theory, goal_terms)) == \
            _typed(_walked_pool(theory, goal_terms)), goal_terms


def test_a_pool_walks_only_the_goal_terms(monkeypatch):
    theory = load_theory("absmax.th").theory
    theory.literals  # read once, when the theory is made
    walked = []

    def counting(t):
        walked.append(t)
        return subterms_of(t)

    monkeypatch.setattr(equations, "subterms_of", counting)
    goal = [parse_term(theory, "max(abs(-3), 2)"), parse_term(theory, "3")]
    default_value_pool(theory, goal)
    assert walked == goal


def _run(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main([*argv, "--format", "json"])
    return code, json.loads(buf.getvalue())


@pytest.mark.parametrize("argv", [
    ["rewrite", os.path.join(FIXTURES, "mod12.th"), "-t", "cong(1)"],
    ["convert", os.path.join(FIXTURES, "mod12.th"), "-l", "cong(1)", "-r", "cong(13)"],
])
def test_a_pool_value_outside_the_carrier_fails_as_before(monkeypatch, argv):
    # the CLI gives only integers, to the integers; a pool from elsewhere
    # that holds the boolean true for an integer fails where a draw reads it
    monkeypatch.setattr(cli, "_pool_from_args", lambda tf, args: {INT: (0, 1, True)})
    code, doc = _run(*argv)
    assert (code, doc["verdict"], doc["detail"]) == \
        (5, "internal-error", "EvalError: True is not in the carrier of Int")


def test_a_pool_that_no_draw_reads_is_not_refused(monkeypatch):
    # group.th's equations draw no logical variable, so the pool is never read
    monkeypatch.setattr(cli, "_pool_from_args", lambda tf, args: {INT: (0, 1, True)})
    code, doc = _run("rewrite", os.path.join(FIXTURES, "group.th"), "-t", "e")
    assert code == 0 and doc["successors"]


@pytest.mark.parametrize("explicit", [False, True])
def test_no_draw_checks_a_checked_pool(monkeypatch, explicit):
    # nneg's second equation draws y with x + 1 = y at every step
    theory = load_theory("nneg.th").theory
    checks = []
    value_symbol = UnderlyingModel.value_symbol

    def counting(self, sort, element):
        checks.append(element)
        return value_symbol(self, sort, element)

    monkeypatch.setattr(UnderlyingModel, "value_symbol", counting)
    pool = {INT: tuple(range(-8, 9))} if explicit else None
    s, t = parse_term(theory, "nneg(3)"), parse_term(theory, "true")
    trace = conversion_search(theory, s, t, SearchLimits(bound=6), value_pool=pool)
    assert trace is not None and checks == []


def test_sorts_and_symbols_hash_their_fields():
    s = Sort("Int", "theory")
    f = FunSymbol("f", (s, s), s, "theory")
    v = FunSymbol("3", (), s, "theory", is_value=True, value=3)
    assert hash(s) == hash(("Int", "theory"))
    # a symbol that is no value leaves value (None, hashed by address) out
    assert hash(f) == hash(("f", (s, s), s, "theory", False))
    assert hash(v) == hash(("3", (), s, "theory", True, 3))
    assert f == FunSymbol("f", (s, s), s, "theory") and hash(f) == hash(
        FunSymbol("f", (s, s), s, "theory"))
    assert {s: 1}[Sort("Int", "theory")] == 1
