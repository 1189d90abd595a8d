import itertools

import pytest

from lcer.algebra import (
    AlgebraError,
    FiniteCEAlgebra,
    FiniteCongruence,
    NotACongruence,
    algebra_text,
    check_is_model,
    check_refutes,
    check_value_consistency,
    identity_congruence,
    parse_algebra,
    quotient,
    search_counter_model,
)
from lcer.equations import CETheory, replay_trace
from lcer.models import EvalError, has_element
from lcer.sexpr import ParseError
from lcer.syntax import parse_goal_spec, parse_term, parse_theory
from lcer.terms import THEORY, Variable
from tests.conftest import load_fixture


@pytest.fixture(scope="module")
def boolcm(refute_bool):
    return parse_algebra(refute_bool.theory, load_fixture("boolcm.alg"))


def test_eval_in_algebra(refute_bool, boolcm):
    model = refute_bool.theory.model
    bool_sort = model.sorts["Bool"]
    tv = model.value_term(bool_sort, True)
    assert boolcm.eval(tv, {}) is True
    x = Variable("x", bool_sort)
    g_of_x = parse_term(refute_bool.theory, "g(x)", {"x": bool_sort})
    f_of_x = parse_term(refute_bool.theory, "f(x)", {"x": bool_sort})
    assert boolcm.eval(g_of_x, {x: "#b1"}) is True
    assert boolcm.eval(f_of_x, {x: "#b1"}) is False
    with pytest.raises(AlgebraError):
        boolcm.eval(g_of_x, {})


def test_check_is_model(refute_bool, boolcm):
    assert check_is_model(boolcm).ok
    # empty theory: everything is a model
    empty = CETheory(refute_bool.theory.signature, refute_bool.theory.model, ())
    alg = parse_algebra(empty, load_fixture("boolcm.alg"))
    assert check_is_model(alg).ok


def test_not_a_model_reports_valuation(refute_bool):
    text = """(algebra
      (carrier Bool true false)
      (table f ((true) false) ((false) true))
      (table g ((true) true) ((false) true)))"""
    alg = parse_algebra(refute_bool.theory, text)
    res = check_is_model(alg)
    assert not res.ok and res.eq_index == 0


def test_model_check_budget_counts_every_valuation(refute_bool, boolcm):
    # 2 + 2 valuations of the logical x, then 3 of the unconstrained x in (g x)
    assert check_is_model(boolcm, max_valuations=7).ok
    with pytest.raises(AlgebraError, match="valuation budget"):
        check_is_model(boolcm, max_valuations=6)
    bad = parse_algebra(refute_bool.theory, """(algebra (carrier Bool true false)
      (table f ((true) false) ((false) true)) (table g ((true) true) ((false) true)))""")
    assert check_is_model(bad, max_valuations=1).eq_index == 0


def test_boolean_is_not_an_integer_element():
    tf = parse_theory("(theory (model intmod 3) (sorts U) (fun f (Int) U)"
                      " (eq (pi x) (constraint true) (f x) (f 0)))")
    text = ("(algebra (carrier Int 0 1 2) (carrier Bool true false) (carrier U #u0)"
            " (table f ((true) #u0) ((0) #u0) ((2) #u0)))")
    with pytest.raises(ParseError, match="not in the carrier of Int"):
        parse_algebra(tf.theory, text)
    model = tf.theory.model
    assert not model.element_in_carrier(model.sorts["Int"], True)
    with pytest.raises(EvalError):
        model.value_symbol(model.sorts["Int"], True)


def _underlying_by_has_element(model, sort, elem) -> bool:
    car = model.carriers.get(sort)
    if sort.kind != THEORY or car is None:
        return False
    if car.finite:
        return has_element(car.elements, elem)
    return has_element(range(-64, 65), elem)  # the integers, as far as these tests go


@pytest.mark.parametrize("source, carriers", [
    ("(theory (model intmod 2) (sorts U) (fun h (Int) U))",
     "(carrier Int 0 1 #int0) (carrier Bool false true #bool0) (carrier U #u0)"),
    # a slice of the integers: 5 is underlying, though the slice does not hold it
    ("(theory (model lia) (sorts U) (fun h (Int) U))",
     "(carrier Int 0 1 #int0) (carrier Bool false true) (carrier U #u0)"),
])
def test_model_membership_compares_type_and_value(source, carriers):
    theory = parse_theory(source).theory
    alg = parse_algebra(theory, f"(algebra {carriers}"
                                " (table h ((#int0) #u0) ((0) #u0) ((1) #u0)))")
    model = theory.model
    universe = (0, 1, 5, True, False, "#int0", "#bool0", "#u0")
    for sort, elems in alg.carriers.items():
        assert alg.underlying_part(sort) == tuple(
            e for e in elems if _underlying_by_has_element(model, sort, e))
    for f in [*model.symbols.values(), theory.signature.symbol("h")]:
        for args in itertools.product(universe, repeat=f.arity):
            expected = f.kind == THEORY and all(
                _underlying_by_has_element(model, s, a) for s, a in zip(f.arg_sorts, args))
            assert alg.model_decides(f, args) == expected, (f.name, args)
    int_sort, bool_sort = model.sorts["Int"], model.sorts["Bool"]
    plus, neg = model.symbols["+"], model.symbols["not"]
    assert alg.model_decides(plus, (1, 0)) and not alg.model_decides(plus, (True, 0))
    assert not alg.model_decides(plus, (1, False)) and not alg.model_decides(plus, ("#int0", 1))
    assert alg.model_decides(neg, (True,)) and not alg.model_decides(neg, (1,))
    assert alg.underlying_part(int_sort) == (0, 1)
    assert alg.underlying_part(bool_sort) == (False, True)
    assert alg.model_decides(plus, (5, 1)) == (model.name == "lia")


UNARY_U = "(theory (model bool) (sorts U) (fun c () U) (fun k (U) U))"


@pytest.mark.parametrize("carriers, table, where", [
    ("(carrier Bool true false) (carrier U 1 #u)", "", "U"),
    ("(carrier Bool true false) (carrier U true #u)", "", "U"),
    ("(carrier Bool true false) (carrier U 1 true)", "", "U"),
    ("(carrier Bool true false 1) (carrier U #u)", "", "Bool"),
    ("(carrier Bool true false) (carrier U #u)", "(table k ((1) #u))", "U"),
    ("(carrier Bool true false) (carrier U #u)", "(table c (() false))", "U"),
], ids=["int-in-U", "bool-in-U", "int-and-bool-in-U", "int-in-Bool", "int-argument",
        "bool-result"])
def test_carrier_elements_follow_their_sort(carriers, table, where):
    # a term sort has only fresh atoms, Bool only true, false and fresh atoms
    theory = parse_theory(UNARY_U).theory
    with pytest.raises(ParseError, match=f"is not in the carrier of {where}$"):
        parse_algebra(theory, f"(algebra {carriers} {table})")


def test_carrier_duplicates_compare_type_and_value():
    theory = parse_theory(UNARY_U).theory
    with pytest.raises(ParseError, match="duplicate carrier element"):
        parse_algebra(theory, "(algebra (carrier Bool true false) (carrier U #u #u))")
    alg = parse_algebra(theory, """(algebra (carrier Bool true false) (carrier U #u #v)
      (table c (() #u)) (table k ((#u) #v) ((#v) #u)))""")
    assert alg.carriers[theory.signature.sort("U")] == ("#u", "#v")
    assert alg.tables["k"] == {("#u",): "#v", ("#v",): "#u"}


def test_validate_compares_table_results_by_type():
    tf = parse_theory("(theory (model intmod 2) (sorts U) (fun c () U) (fun h (U) Int))")
    sorts = tf.theory.model.sorts
    carriers = {sorts["Bool"]: (False, True), sorts["Int"]: (0, 1),
                tf.theory.signature.sort("U"): ("#u",)}
    ok = FiniteCEAlgebra(tf.theory, carriers, {"c": {(): "#u"}, "h": {("#u",): 1}})
    ok.validate()
    # True == 1 in Python, but the boolean true is no element of Int
    bad = FiniteCEAlgebra(tf.theory, carriers, {"c": {(): "#u"}, "h": {("#u",): True}})
    with pytest.raises(AlgebraError, match="leaves the carrier"):
        bad.validate()


def test_check_refutes(refute_bool, boolcm):
    goal = refute_bool.goals["gf"]
    rho = check_refutes(boolcm, goal)
    assert rho is not None and set(rho.values()) == {"#b1"}
    # with x constrained into the underlying carrier there is no refutation
    pinned = parse_goal_spec(refute_bool.theory, "f(x)", "true", "=(x,true)", "x")
    assert check_refutes(boolcm, pinned) is None
    trivial = parse_goal_spec(refute_bool.theory, "g(x)", "g(x)")
    assert check_refutes(boolcm, trivial) is None


def test_search_counter_model(refute_bool):
    out = search_counter_model(refute_bool.theory, refute_bool.goals["gf"], 1, 1)
    assert out.algebra is not None
    assert check_is_model(out.algebra).ok
    assert check_refutes(out.algebra, refute_bool.goals["gf"]) is not None
    f_table = out.algebra.tables["f"]
    assert f_table[("#bool0",)] is False


def test_search_respects_theory_membership(refute_bool):
    # an equation of the theory is valid in every model, so no counter-model
    eq = refute_bool.theory.equations[2]
    out = search_counter_model(refute_bool.theory, eq, 1, 1)
    assert out.algebra is None and not out.exhausted


def test_search_inconsistent_theory_has_no_model():
    text = """(theory (model intmod 2) (fun a () Int)
      (eq (pi) (constraint true) a 0)
      (eq (pi) (constraint true) a 1)
      (goal g (pi) (constraint true) a 0))"""
    tf = parse_theory(text)
    out = search_counter_model(tf.theory, tf.goals["g"], 2, 1)
    assert out.algebra is None


def test_search_refuses_infinite_models(inconsistent):
    goal = parse_goal_spec(inconsistent.theory, "a", "0")
    with pytest.raises(AlgebraError, match="finite underlying model"):
        search_counter_model(inconsistent.theory, goal, 1, 1)


@pytest.mark.parametrize("name, text", [("refute_bool", "(algebra)"),
                                        ("inconsistent", "(algebra (carrier Int 0 #i))")])
def test_algebra_without_a_model_carrier_is_an_algebra_error(request, name, text):
    # the default fill of fresh entries must not trip over the missing carrier
    theory = request.getfixturevalue(name).theory
    with pytest.raises(AlgebraError, match="no carrier declared for sort Bool"):
        parse_algebra(theory, text)


def test_algebra_round_trip(refute_bool, boolcm):
    text = algebra_text(boolcm)
    again = parse_algebra(refute_bool.theory, text)
    assert again.carriers == boolcm.carriers
    assert again.tables == boolcm.tables


def test_quotient_identity(refute_bool, boolcm):
    q = quotient(boolcm, identity_congruence(boolcm))
    assert q.carriers == boolcm.carriers
    assert check_is_model(q).ok


def test_quotient_collapses_clones(refute_bool):
    text = """(algebra
      (carrier Bool true false #b1 #b2)
      (table f ((true) true) ((false) true) ((#b1) false) ((#b2) false))
      (table g ((true) true) ((false) true) ((#b1) true) ((#b2) true)))"""
    alg = parse_algebra(refute_bool.theory, text)
    assert check_is_model(alg).ok
    bool_sort = refute_bool.theory.model.sorts["Bool"]
    blocks = {bool_sort: (frozenset({True}), frozenset({False}),
                          frozenset({"#b1", "#b2"}))}
    q = quotient(alg, FiniteCongruence(blocks))
    assert len(q.carriers[bool_sort]) == 3
    assert check_is_model(q).ok


def test_quotient_rejects_merging_underlying(refute_bool, boolcm):
    bool_sort = refute_bool.theory.model.sorts["Bool"]
    blocks = {bool_sort: (frozenset({True, False}), frozenset({"#b1"}))}
    with pytest.raises(NotACongruence, match="underlying"):
        quotient(boolcm, FiniteCongruence(blocks))


def test_quotient_rejects_incompatible(refute_bool):
    text = """(algebra
      (carrier Bool true false #b1 #b2)
      (table f ((true) true) ((false) true) ((#b1) false) ((#b2) true))
      (table g ((true) true) ((false) true) ((#b1) true) ((#b2) true)))"""
    alg = parse_algebra(refute_bool.theory, text)
    bool_sort = refute_bool.theory.model.sorts["Bool"]
    blocks = {bool_sort: (frozenset({True}), frozenset({False}),
                          frozenset({"#b1", "#b2"}))}
    with pytest.raises(NotACongruence, match="compatible"):
        quotient(alg, FiniteCongruence(blocks))


def test_quotient_of_a_carrier_slice_names_the_escaping_application():
    # the slice Int {0, 1} is a model (no equations), but +(1, 1) = 2 leaves it,
    # so the quotient has no representative for the result
    tf = parse_theory("(theory (model lia) (sorts U) (fun c () U) (fun h (U) Int))")
    alg = parse_algebra(tf.theory, """(algebra (carrier Int 0 1) (carrier Bool false true)
      (carrier U #u) (table c (() #u)) (table h ((#u) 0)))""")
    assert check_is_model(alg).ok
    with pytest.raises(AlgebraError, match=r"^\+\(1 1\) leaves the declared carrier slice$"):
        quotient(alg, identity_congruence(alg))


def test_value_consistency_witness(inconsistent):
    rep = check_value_consistency(inconsistent.theory, depth=2)
    assert not rep.consistent
    assert {rep.left.fun.value, rep.right.fun.value} == {0, 1}
    assert len(rep.trace) == 2
    end = replay_trace(inconsistent.theory, rep.left, rep.trace)
    assert end == rep.right


def test_value_consistency_clean(group):
    empty = CETheory(group.theory.signature, group.theory.model, ())
    assert check_value_consistency(empty, depth=8).consistent
    assert check_value_consistency(group.theory, depth=8).consistent


def test_lia_carrier_slice_verification(inconsistent):
    # over the integers, only verification of a supplied finite slice is
    # offered: no table for the constant makes both equations hold
    for val in ("0", "1"):
        text = f"""(algebra
          (carrier Bool true false)
          (carrier Int 0 1)
          (table a (() {val})))"""
        alg = parse_algebra(inconsistent.theory, text)
        assert not check_is_model(alg).ok


def test_search_budget_reports_exhaustion(refute_bool):
    out = search_counter_model(refute_bool.theory, refute_bool.goals["gf"],
                               1, 1, max_nodes=1)
    assert out.algebra is None and out.exhausted


def test_conversion_endpoints_coincide_in_verified_models():
    # replaying conversions inside a model-checked algebra never separates
    # the endpoints
    import random as _random
    import sys
    sys.path.insert(0, "tests")
    from genrandom import finite_theory, random_equation, random_u_term
    from lcer.equations import reachable_terms, replay_trace
    from lcer.terms import vars_of

    rng = _random.Random(88)
    checked = 0
    attempts = 0
    while checked < 40 and attempts < 300:
        attempts += 1
        theory = finite_theory(rng.choice(["intmod", "bool"]), rng, n_equations=2)
        goal = random_equation(theory, rng)
        out = search_counter_model(theory, goal, 1, 2, max_nodes=20_000)
        if out.algebra is None:
            continue
        alg = out.algebra
        assert check_is_model(alg).ok
        start = random_u_term(theory, rng, [], [], data_depth=0)
        if vars_of(start):
            continue
        reached = reachable_terms(theory, start, depth=2, width=30)
        for end, trace in reached.items():
            assert replay_trace(theory, start, trace) == end
            assert alg.eval(start, {}) == alg.eval(end, {})
        checked += 1


# check_value_consistency's answers where the width cut decides them,
# recorded before the sweep moved onto equations.breadth_first: (depth,
# width) -> (left, right, trace as (eq_index, direction, from, to)), or None
# for consistent
_ORDERED_TEXT = """(theory (model lia) (fun a () Int) (fun b () Int)
  (eq (pi) (constraint true) b 0)
  (eq (pi) (constraint true) a 0)
  (eq (pi) (constraint true) b 1)
  (eq (pi) (constraint true) a 2))"""
_ZERO_ONE_BY_A = ("0", "1", [(0, "rl", "0", "a"), (1, "lr", "a", "1")])
_ZERO_ONE_BY_B = ("0", "1", [(0, "rl", "0", "b"), (2, "lr", "b", "1")])
_ONE_ZERO_BY_B = ("1", "0", [(2, "rl", "1", "b"), (0, "lr", "b", "0")])
_CONSISTENCY_AT_WIDTH = {
    "inconsistent.th": {
        (1, 4000): None, (2, 1): None, (2, 2): None, (2, 3): _ZERO_ONE_BY_A,
        (2, 4): _ZERO_ONE_BY_A, (8, 2): None, (8, 3): _ZERO_ONE_BY_A,
    },
    "group.th": {(d, w): None for d in (1, 2, 8) for w in (1, 2, 3, 5, 50)},
    "ordered": {
        (1, 4000): None, (2, 2): None, (2, 3): _ONE_ZERO_BY_B, (2, 4): _ZERO_ONE_BY_B,
        (3, 3): _ONE_ZERO_BY_B, (3, 4000): _ZERO_ONE_BY_B,
    },
}


@pytest.mark.parametrize("name", sorted(_CONSISTENCY_AT_WIDTH))
def test_value_consistency_at_small_widths(name):
    text = _ORDERED_TEXT if name == "ordered" else load_fixture(name)
    theory = parse_theory(text).theory
    for (depth, width), want in _CONSISTENCY_AT_WIDTH[name].items():
        rep = check_value_consistency(theory, depth=depth, width=width)
        assert rep.depth == depth
        if want is None:
            assert rep.consistent and rep.trace is None, (depth, width)
            continue
        left, right, steps = want
        assert not rep.consistent, (depth, width)
        assert (str(rep.left), str(rep.right)) == (left, right)
        assert [(st.kind, st.position) for st in rep.trace] == [("rule", ())] * len(steps)
        assert [(st.eq_index, st.direction, str(st.replaced), str(st.result))
                for st in rep.trace] == steps
        assert replay_trace(theory, rep.left, rep.trace) == rep.right
