import pytest

from lcer.sexpr import ParseError, parse_call_term, show
from lcer.syntax import (
    TheoryError,
    ce_text,
    parse_goal_spec,
    parse_term,
    parse_theory,
    term_text,
    theory_text,
)


def test_fixture_theories_parse(lists, group):
    assert len(lists.theory.equations) == 6
    assert {s.name for s in lists.theory.signature.sorts} >= {"Elem", "List", "ElemOp"}
    assert len(group.theory.equations) == 6
    pi_eq = group.theory.equations[5]
    assert {v.name for v in pi_eq.logical_vars} == {"n", "m"}


def test_theory_round_trip(mod12, group, lists, absmax, nneg):
    bare_side = parse_theory("""(theory (model bool) (sorts U) (fun k (U) U)
      (eq (vars (u U)) (pi) (constraint true) u (k u)))""")
    for tf in (mod12, group, lists, absmax, nneg, bare_side):
        text = theory_text(tf)
        again = parse_theory(text)
        assert again.theory.equations == tf.theory.equations
        assert again.goals == tf.goals
        assert [s.name for s in again.theory.signature.sorts] == \
            [s.name for s in tf.theory.signature.sorts]


def test_constraint_vars_must_be_logical():
    text = """(theory (model lia) (fun f (Int) Int)
      (eq (pi) (constraint (> x 0)) (f x) x))"""
    with pytest.raises(TheoryError) as err:
        parse_theory(text)
    assert err.value.code == "constraint-vars-not-in-X"


def test_unknown_sort_and_symbol():
    with pytest.raises(TheoryError) as err:
        parse_theory("(theory (model lia) (fun f (Wat) Int))")
    assert err.value.code == "unknown-sort"
    with pytest.raises(TheoryError) as err:
        parse_theory("""(theory (model lia) (fun f (Int) Int)
          (eq (pi) (constraint true) (g 1) 1))""")
    assert err.value.code == "unknown-symbol"


@pytest.mark.parametrize("decl", ["(fun 3 () Int)", "(fun -2 () Int)", "(fun true () Bool)"])
def test_symbol_name_that_reads_as_a_value(decl):
    # every occurrence of the name would read as the value, and print alike
    with pytest.raises(TheoryError) as err:
        parse_theory(f"(theory (model lia) {decl})")
    assert err.value.code == "parse-error" and "reads as a value" in str(err.value)


def test_ill_sorted_equation():
    with pytest.raises(TheoryError) as err:
        parse_theory("""(theory (model lia) (sorts U) (fun f (Int) U)
          (eq (pi) (constraint true) (f 1) 1))""")
    assert err.value.code == "ill-sorted-equation"


def test_parse_error_location():
    with pytest.raises(ParseError) as err:
        parse_theory("(theory (model lia) (fun f (Int) Int)")
    assert err.value.line == 1


@pytest.mark.parametrize("decl, col, message", [
    ("(model intmod x)", 23, "expected an integer modulus"),
    ("(model intmod 3 4)", 25, "too many arguments for model intmod"),
    ("(model bool 3)", 21, "too many arguments for model bool"),
    ("(model lia 12)", 20, "too many arguments for model lia"),
])
def test_malformed_model_declaration_is_a_located_parse_error(decl, col, message):
    with pytest.raises(ParseError) as err:
        parse_theory(f"(theory {decl})")
    assert (err.value.line, err.value.col, err.value.message) == (1, col, message)


def test_model_declarations():
    for decl, name in [("(model intmod 3)", "intmod 3"), ("(model bool)", "bool"),
                       ("(model lia)", "lia")]:
        assert parse_theory(f"(theory {decl})").theory.model.name == name
    with pytest.raises(TheoryError, match="modulus must be in 1..64"):
        parse_theory("(theory (model intmod -3))")


def test_call_syntax(mod12):
    assert parse_term(mod12.theory, "cong(+(7,31))") == \
        parse_term(mod12.theory, "(cong (+ 7 31))")
    assert show(parse_call_term("f(a, g(b), 3)")) == "(f a (g b) 3)"
    with pytest.raises(ParseError):
        parse_call_term("f(a,,b)")


def test_term_printing(mod12, absmax):
    term = parse_term(mod12.theory, "cong(+(7,31))")
    assert term_text(term) == "(cong (+ 7 31))"
    neg = parse_term(absmax.theory, "abs(-(x))", {"x": absmax.theory.model.sorts["Int"]})
    assert term_text(neg) == "(abs (- x))"
    assert parse_term(absmax.theory, term_text(neg)) == neg


def test_negative_literals(absmax):
    lit = parse_term(absmax.theory, "-8")
    assert lit.fun.is_value and lit.fun.value == -8
    unary = parse_term(absmax.theory, "-(8)")
    assert not unary.fun.is_value
    assert absmax.theory.model.calc_normalize(unary) == lit


def test_goal_spec_defaults(absmax):
    goal = parse_goal_spec(absmax.theory, "abs(x)", "x", ">=(x,0)")
    assert {v.name for v in goal.logical_vars} == {"x"}
    closed = parse_goal_spec(absmax.theory, "abs(1)", "1")
    assert not closed.logical_vars


def test_ce_text_shape(absmax):
    line = ce_text(absmax.theory.equations[0])
    assert line.startswith("(eq (vars (x Int)) (pi x) (constraint (< x 0))")


def test_vars_block_colon_form(lists):
    from lcer.syntax import parse_proof
    text = """(Refl (conclusion (vars n:Int) (nth xs n) (nth xs n) true))"""
    d = parse_proof(lists.theory, text)
    assert next(iter(d.conclusion.logical_vars)).name == "n"


def test_duplicate_goal_rejected():
    text = """(theory (model lia) (fun f (Int) Int)
      (goal g (pi) (constraint true) (f 1) (f 1))
      (goal g (pi) (constraint true) (f 2) (f 2)))"""
    with pytest.raises(ParseError, match="duplicate goal"):
        parse_theory(text)


def test_intmod_theory_round_trip():
    text = """(theory (model intmod 3) (sorts U) (fun h (Int) U)
      (eq (pi a) (constraint (<= a 1)) (h a) (h 0)))"""
    tf = parse_theory(text)
    assert tf.theory.model.name == "intmod 3"
    again = parse_theory(theory_text(tf))
    assert again.theory.equations == tf.theory.equations
