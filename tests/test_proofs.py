import pytest

from lcer.equations import ConstrainedEquation
from lcer.proofs import (
    Derivation,
    GenerationError,
    check_proof,
    generate_calc_proof,
    prove_heuristic,
)
from lcer.sexpr import ParseError
from lcer.syntax import (
    parse_goal_spec,
    parse_proof,
    parse_term,
    parse_theory,
    serialize_proof,
)
from lcer.terms import Variable
from lcer.validity import ValidityBudgets, check_ce_validity
from tests.conftest import load_fixture


def ce(tf, lhs, rhs, constraint="true", pi=""):
    return parse_goal_spec(tf.theory, lhs, rhs, constraint, pi)


def accepted(tf, d):
    return check_proof(tf.theory, d)


# -- fixture derivations -------------------------------------------------------

def test_group_derivation_accepted(group):
    d = parse_proof(group.theory, load_fixture("expinv.prf"))
    assert accepted(group, d).accepted


def test_list_derivation_accepted(lists):
    d = parse_proof(lists.theory, load_fixture("nth2.prf"))
    assert accepted(lists, d).accepted


def test_split_abst_derivation_accepted(splitabst):
    d = parse_proof(splitabst.theory, load_fixture("splitabst.prf"))
    assert accepted(splitabst, d).accepted


def test_serialization_round_trip(group, lists, splitabst):
    for tf, name in ((group, "expinv.prf"), (lists, "nth2.prf"),
                     (splitabst, "splitabst.prf")):
        d = parse_proof(tf.theory, load_fixture(name))
        assert parse_proof(tf.theory, serialize_proof(d)) == d


def test_parse_unknown_rule(group):
    with pytest.raises(ParseError, match="unknown rule"):
        parse_proof(group.theory, "(Frobnicate (conclusion (vars) e e true))")


def test_parse_keeps_shape_errors_for_check(group):
    # Trans with one premise parses; the checker rejects the shape
    text = ("(Trans (conclusion (vars) e e true)"
            " (Refl (conclusion (vars) e e true)))")
    d = parse_proof(group.theory, text)
    rep = accepted(group, d)
    assert rep.verdict == "rejected" and rep.code == "shape-mismatch"


def test_sym_node(group):
    eq = group.theory.equations[1]  # op(e, x) ~ x
    rule = Derivation("Rule", eq)
    sym = Derivation("Sym", ConstrainedEquation(
        eq.logical_vars, eq.rhs, eq.lhs, eq.constraint), premises=(rule,))
    assert accepted(group, sym).accepted


def test_oracle_unknown_surfaces(absmax):
    # true => x*x >= 0 is valid but no backend proves it over the integers,
    # so the checker reports the undecided query instead of pass or fail
    premise = Derivation("Refl", ce(absmax, "abs(x)", "abs(x)",
                                    ">=(*(x,x),0)", "x"))
    weaker = Derivation("Weakening", ce(absmax, "abs(x)", "abs(x)", "true", "x"),
                        premises=(premise,))
    rep = accepted(absmax, weaker)
    assert rep.verdict == "oracle-unknown"
    assert rep.code == "oracle-unknown"


# -- the twelve mutants ---------------------------------------------------------

def test_mutant_refl(absmax):
    d = Derivation("Refl", ce(absmax, "0", "1"))
    rep = accepted(absmax, d)
    assert (rep.verdict, rep.rule, rep.code) == ("rejected", "Refl", "side-condition-failed")


def test_mutant_trans(absmax):
    p1 = Derivation("Refl", ce(absmax, "0", "0"))
    p2 = Derivation("Refl", ce(absmax, "1", "1"))
    d = Derivation("Trans", ce(absmax, "0", "1"), premises=(p1, p2))
    rep = accepted(absmax, d)
    assert (rep.verdict, rep.rule, rep.code) == ("rejected", "Trans", "side-condition-failed")


def test_mutant_sym(absmax):
    p = Derivation("Refl", ce(absmax, "0", "0"))
    d = Derivation("Sym", ce(absmax, "0", "1"), premises=(p,))
    rep = accepted(absmax, d)
    assert (rep.verdict, rep.rule, rep.code) == ("rejected", "Sym", "side-condition-failed")


def test_mutant_cong(lists):
    env = {}
    goal = parse_goal_spec(lists.theory, "cons(x,xs)", "cons(y,xs)")
    true_term = parse_term(lists.theory, "true")
    x = Variable("x", lists.theory.signature.sort("Elem"))
    xs = Variable("xs", lists.theory.signature.sort("List"))
    p1 = Derivation("Refl", ConstrainedEquation(frozenset(), x, x, true_term))
    p2 = Derivation("Refl", ConstrainedEquation(frozenset(), xs, xs, true_term))
    d = Derivation("Cong", goal, premises=(p1, p2))
    rep = accepted(lists, d)
    assert (rep.verdict, rep.rule, rep.code) == ("rejected", "Cong", "side-condition-failed")


def test_mutant_rule(lists):
    # right shape, but the constraint differs from every theory equation
    d = Derivation("Rule", ce(lists, "nth(nil,n)", "none", "<(n,0)", "n"))
    rep = accepted(lists, d)
    assert (rep.verdict, rep.rule, rep.code) == ("rejected", "Rule", "not-in-theory")


def test_mutant_theory_instance(group):
    eq = group.theory.equations[5]  # the two-exponent equation
    n = next(v for v in eq.logical_vars if v.name == "n")
    m = next(v for v in eq.logical_vars if v.name == "m")
    y = Variable("y", m.sort)  # theory variable outside the conclusion's set
    sigma = ((m, y),)
    conc = ConstrainedEquation(
        frozenset({n}),
        parse_goal_spec(group.theory, "op(exp(x,n),exp(x,y))", "exp(x,+(y,n))",
                        "true", "n").lhs,
        parse_goal_spec(group.theory, "op(exp(x,n),exp(x,y))", "exp(x,+(y,n))",
                        "true", "n").rhs,
        eq.constraint)
    d = Derivation("TheoryInstance", conc, witness=sigma,
                   premises=(Derivation("Rule", eq),))
    rep = accepted(group, d)
    assert (rep.verdict, rep.rule, rep.code) == (
        "rejected", "TheoryInstance", "side-condition-failed")


def test_mutant_general_instance(lists):
    eq = lists.theory.equations[5]  # nth(cons(x,xs),n) ~ nth(xs,n-1) [n>0]
    n = next(v for v in eq.logical_vars)
    five = parse_term(lists.theory, "5")
    sigma = ((n, five),)
    conc = ConstrainedEquation(eq.logical_vars,
                               parse_goal_spec(lists.theory, "nth(cons(x,xs),5)",
                                               "nth(xs,-(5,1))", ">(n,0)", "n").lhs,
                               parse_goal_spec(lists.theory, "nth(cons(x,xs),5)",
                                               "nth(xs,-(5,1))", ">(n,0)", "n").rhs,
                               eq.constraint)
    d = Derivation("GeneralInstance", conc, witness=sigma,
                   premises=(Derivation("Rule", eq),))
    rep = accepted(lists, d)
    assert (rep.verdict, rep.rule, rep.code) == (
        "rejected", "GeneralInstance", "side-condition-failed")


def test_mutant_weakening(absmax):
    # entailment direction is forced: true does not entail x >= 0
    eq = absmax.theory.equations[1]  # abs(x) ~ x [x >= 0]
    d = Derivation("Weakening", ce(absmax, "abs(x)", "x", "true", "x"),
                   premises=(Derivation("Rule", eq),))
    rep = accepted(absmax, d)
    assert (rep.verdict, rep.rule, rep.code) == (
        "rejected", "Weakening", "side-condition-failed")
    assert "witness" in (rep.detail or "")


def test_mutant_split(absmax):
    p1 = Derivation("Rule", absmax.theory.equations[1])   # [x >= 0]
    p2 = Derivation("Rule", absmax.theory.equations[0])   # [x < 0] proves abs ~ -x
    goal = ce(absmax, "abs(x)", "x", "or(<(x,0),>=(x,0))", "x")
    d = Derivation("Split", goal, premises=(p1, p2))
    rep = accepted(absmax, d)
    assert (rep.verdict, rep.rule, rep.code) == ("rejected", "Split", "side-condition-failed")


def test_mutant_axiom(absmax):
    env = {}
    rhs = parse_term(absmax.theory, "+(x,1)", env)
    x = Variable("x", env["x"])
    goal = ConstrainedEquation(frozenset({x}), x, rhs,
                               parse_term(absmax.theory, "true"))
    d = Derivation("Axiom", goal)
    rep = accepted(absmax, d)
    assert (rep.verdict, rep.rule, rep.code) == ("rejected", "Axiom", "side-condition-failed")


def test_mutant_abst(absmax):
    goal = ce(absmax, "abs(x)", "x", "=(x,1)", "x")
    x = next(iter(goal.logical_vars))
    two = parse_term(absmax.theory, "2")
    premise_ce = ConstrainedEquation(
        goal.logical_vars,
        parse_goal_spec(absmax.theory, "abs(2)", "2", "=(2,1)", "").lhs,
        parse_goal_spec(absmax.theory, "abs(2)", "2", "=(2,1)", "").rhs,
        parse_goal_spec(absmax.theory, "abs(2)", "2", "=(2,1)", "").constraint)
    d = Derivation("Abst", goal, witness=((x, two),),
                   premises=(Derivation("Axiom", premise_ce),))
    rep = accepted(absmax, d)
    assert (rep.verdict, rep.rule, rep.code) == ("rejected", "Abst", "side-condition-failed")


def test_mutant_enlarge(group):
    eq = group.theory.equations[5]
    n = next(v for v in eq.logical_vars if v.name == "n")
    conc = ConstrainedEquation(frozenset({n}), eq.lhs, eq.rhs, eq.constraint)
    d = Derivation("Enlarge", conc, premises=(Derivation("Rule", eq),))
    rep = accepted(group, d)
    assert (rep.verdict, rep.rule, rep.code) == ("rejected", "Enlarge", "side-condition-failed")


# -- generation ------------------------------------------------------------------

def test_generate_single_axiom(lists):
    goal = ce(lists, "-(+(n,1),1)", "n", "true", "n")
    d = generate_calc_proof(lists.theory, goal)
    assert d.rule == "Axiom"
    assert accepted(lists, d).accepted


def test_generate_cong_over_axiom(lists):
    goal = ce(lists, "nth(xs,+(n,0))", "nth(xs,n)", "true", "n")
    d = generate_calc_proof(lists.theory, goal)
    assert d.rule == "Cong"
    assert [p.rule for p in d.premises] == ["Refl", "Axiom"]
    assert accepted(lists, d).accepted


def test_generate_refl(lists):
    goal = ce(lists, "nth(xs,n)", "nth(xs,n)")
    assert generate_calc_proof(lists.theory, goal).rule == "Refl"


def test_generate_rejects_unsatisfiable(lists):
    goal = ce(lists, "nth(xs,n)", "nth(xs,n)", "<(n,n)", "n")
    with pytest.raises(GenerationError, match="unsatisfiable"):
        generate_calc_proof(lists.theory, goal)


def test_generate_rejects_violating_instance(lists):
    goal = ce(lists, "nth(xs,n)", "none", "true", "n")
    with pytest.raises(GenerationError, match="cannot close the gap"):
        generate_calc_proof(lists.theory, goal)


# -- heuristic proving -------------------------------------------------------------

def test_prove_counter_chain(nneg):
    goal = parse_goal_spec(nneg.theory, "nneg(3)", "true")
    d = prove_heuristic(nneg.theory, goal, ValidityBudgets(bound=10))
    assert d is not None and accepted(nneg, d).accepted
    assert d.count_nodes("Trans") == 3


def test_prove_case_split(splitabst):
    # validate samples both instances, which are all of them, so prove joins
    # one Abst per instance with Split, and the cover needs both cases
    goal = splitabst.goals["all"]
    status = check_ce_validity(splitabst.theory, goal, ValidityBudgets())
    assert status.kind == "confirmed-on-samples" and len(status.instances) == 2
    # with as many samples as max_samples, more instances might remain
    assert check_ce_validity(splitabst.theory, goal, ValidityBudgets(max_samples=2)) \
        .instances is None
    d = prove_heuristic(splitabst.theory, goal, ValidityBudgets())
    assert d is not None and accepted(splitabst, d).accepted
    assert d.count_nodes("Split") == 1
    assert d.count_nodes("Abst") == 2
    assert d.rule == "Weakening" and d.premises[0].rule == "Split"
    for case in d.premises[0].premises:
        assert case.rule == "Abst"
        one_case = Derivation("Weakening", goal, premises=(case,))
        assert accepted(splitabst, one_case).verdict == "rejected"


def test_no_case_split_over_a_term_variable():
    # every instance of x converts, but u is no logical variable, so Abst
    # cannot lift an instance to its case
    tf = parse_theory("""(theory (model bool) (sorts U) (fun g (Bool U) U)
      (eq (vars (u U)) (pi) (constraint true) (g true u) u)
      (eq (vars (u U)) (pi) (constraint true) (g false u) u)
      (goal g (vars (x Bool) (u U)) (pi x) (constraint true) (g x u) u))""")
    goal = tf.goals["g"]
    status = check_ce_validity(tf.theory, goal, ValidityBudgets())
    assert status.kind == "confirmed-on-samples" and status.samples == 2
    assert status.instances is None
    assert prove_heuristic(tf.theory, goal, ValidityBudgets()) is None


def test_prove_parameterized_counter_fails(nneg):
    assert prove_heuristic(nneg.theory, nneg.goals["param"], ValidityBudgets()) is None


def test_prove_parameterized_list_indexing(lists):
    goal = parse_goal_spec(lists.theory, "nth(cons(x,cons(y,zs)),+(n,2))",
                           "nth(zs,n)", ">(n,0)", "n")
    d = prove_heuristic(lists.theory, goal, ValidityBudgets())
    assert d is not None and check_proof(lists.theory, d).accepted
    assert d.count_nodes("TheoryInstance") == 2


def test_hand_built_counter_chain_n2(nneg):
    # the instance chain for nneg(2), written out rule by rule
    th = nneg.theory
    eq_base, eq_step = th.equations
    true_t = parse_term(th, "true")

    def inst_step(k):
        # nneg(k) ~ nneg(k-1) [true] via the step equation read right-to-left
        sigma = {v: parse_term(th, str(k - 1 if v.name == "x" else k))
                 for v in eq_step.logical_vars}
        inst = eq_step.subst(sigma)
        tinst = Derivation(
            "TheoryInstance",
            ConstrainedEquation(frozenset(), inst.lhs, inst.rhs, inst.constraint),
            witness=tuple(sorted(sigma.items(), key=lambda kv: kv[0].name)),
            premises=(Derivation("Rule", eq_step),))
        weak = Derivation("Weakening",
                          ConstrainedEquation(frozenset(), inst.lhs, inst.rhs, true_t),
                          premises=(tinst,))
        return Derivation("Sym", ConstrainedEquation(
            frozenset(), inst.rhs, inst.lhs, true_t), premises=(weak,))

    sigma0 = {v: parse_term(th, "0") for v in eq_base.logical_vars}
    base_inst = eq_base.subst(sigma0)
    base = Derivation("Weakening", ConstrainedEquation(
        frozenset(), base_inst.lhs, base_inst.rhs, true_t),
        premises=(Derivation(
            "TheoryInstance",
            ConstrainedEquation(frozenset(), base_inst.lhs, base_inst.rhs,
                                base_inst.constraint),
            witness=tuple(sorted(sigma0.items(), key=lambda kv: kv[0].name)),
            premises=(Derivation("Rule", eq_base),)),))

    two_to_one = inst_step(2)
    one_to_zero = inst_step(1)
    inner = Derivation("Trans", ConstrainedEquation(
        frozenset(), one_to_zero.conclusion.lhs, base.conclusion.rhs, true_t),
        premises=(one_to_zero, base))
    whole = Derivation("Trans", ConstrainedEquation(
        frozenset(), two_to_one.conclusion.lhs, inner.conclusion.rhs, true_t),
        premises=(two_to_one, inner))
    assert whole.conclusion.lhs == parse_term(th, "nneg(2)")
    assert whole.conclusion.rhs == parse_term(th, "true")
    rep = check_proof(th, whole)
    assert rep.accepted
    assert whole.count_nodes("Trans") == 2


def test_axiom_agrees_with_oracle_on_finite_models():
    import random as _random

    import sys
    sys.path.insert(0, "tests")
    from genrandom import finite_theory, random_data_term, theory_vars, random_constraint
    from lcer.oracle import check_validity

    rng = _random.Random(55)
    for _ in range(150):
        theory = finite_theory("intmod", rng, n_equations=1)
        xs = [x for x in theory_vars(theory) if rng.random() < 0.7]
        s = random_data_term(theory, rng, xs, depth=rng.randrange(3))
        t = random_data_term(theory, rng, xs, depth=rng.randrange(3))
        phi = random_constraint(theory, rng, xs)
        goal = ConstrainedEquation(frozenset(xs), s, t, phi)
        d = Derivation("Axiom", goal)
        accepted = check_proof(theory, d).accepted
        oracle = check_validity(theory.model, theory.model.implies(
            phi, theory.model.equality(s, t)))
        assert not oracle.is_unknown  # finite models decide
        assert accepted == oracle.is_valid


def test_checker_revalidates_malformed_conclusions(absmax):
    # a buggy producer could hand over a conclusion that bypassed validation;
    # the checker re-establishes well-formedness itself
    good = ce(absmax, "abs(1)", "abs(1)")
    bad = object.__new__(ConstrainedEquation)
    object.__setattr__(bad, "logical_vars", frozenset())
    object.__setattr__(bad, "lhs", good.lhs)
    object.__setattr__(bad, "rhs", good.rhs)
    object.__setattr__(bad, "constraint",
                       parse_term(absmax.theory, ">(x,0)",
                                  {"x": absmax.theory.model.sorts["Int"]}))
    d = Derivation("Refl", bad)
    rep = accepted(absmax, d)
    assert (rep.verdict, rep.code) == ("rejected", "malformed-ce")


def test_rejection_path_is_preorder(absmax):
    bad_leaf = Derivation("Refl", ce(absmax, "0", "1"))
    ok_leaf = Derivation("Refl", ce(absmax, "0", "0"))
    wrap = Derivation("Trans", ce(absmax, "0", "1"), premises=(ok_leaf, bad_leaf))
    outer = Derivation("Sym", ce(absmax, "1", "0"), premises=(wrap,))
    rep = accepted(absmax, outer)
    assert rep.verdict == "rejected"
    assert rep.path == (0, 1)
    assert rep.rule == "Refl"
