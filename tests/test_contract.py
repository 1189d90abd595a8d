"""The contract pinned: the package's public names, every CLI subcommand with
its option strings, and the exit codes.  A change that should keep the
contract keeps this file passing unchanged."""

import argparse

import lcer
from lcer import cli

PUBLIC_NAMES = [
    "App", "CETheory", "CheckReport", "ConsistencyReport", "ConstrainedEquation",
    "ConversionTrace", "Derivation", "FiniteCEAlgebra", "FiniteCongruence",
    "FunSymbol", "OracleBudget", "Position", "SearchLimits", "Signature", "Sort",
    "Term", "TheoryFile", "TraceStep", "UnderlyingModel", "ValidityBudgets",
    "ValidityStatus", "Variable", "Verdict", "algebra", "apply_subst", "bool_model",
    "check_ce_validity", "check_is_model", "check_proof", "check_refutes",
    "check_validity", "check_value_consistency", "conversion_search",
    "decompose_differences", "enumerate_satisfying", "equations",
    "generate_calc_proof", "intmod_model", "is_trivial", "lia_model", "match",
    "models", "oracle", "parse_proof", "parse_term", "parse_theory", "proofs",
    "prove_heuristic", "quotient", "replace_at", "replay_trace",
    "rule_step_candidates", "search_counter_model", "serialize_proof", "sexpr",
    "subterm_at", "syntax", "terms", "unify", "validity", "vars_of",
]

COMMON = ["-h", "--help", "theory", "--format", "--seed", "--solver", "--timeout"]
GOAL = ["-g", "--goal", "-l", "--lhs", "-r", "--rhs", "-c", "--constraint", "--pi"]

SUBCOMMANDS = {
    "parse": COMMON,
    "rewrite": COMMON + ["-t", "--term", "--pool", "--steps", "--limit"],
    "convert": COMMON + GOAL + ["--bound", "--pool", "--max-growth"],
    "validate": COMMON + GOAL + ["--bound", "--box", "--rewrite-depth"],
    "check": COMMON + ["-p", "--proof"],
    "prove": COMMON + GOAL + ["--bound", "--box", "--rewrite-depth", "-o", "--out"],
    "consistent": COMMON + ["--depth"],
    "refute": COMMON + GOAL + ["--extra", "--term-size", "-o", "--out"],
    "model-check": COMMON + ["-a", "--algebra"] + GOAL,
}


def test_public_names():
    assert sorted(lcer.__all__) == PUBLIC_NAMES


def test_subcommands_and_their_options():
    parser = cli.build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = {name: [s for action in p._actions for s in action.option_strings or [action.dest]]
             for name, p in sub.choices.items()}
    assert found == SUBCOMMANDS
    assert list(found) == list(SUBCOMMANDS)


def test_exit_codes():
    codes = {name: value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    assert codes == {"EXIT_YES": 0, "EXIT_NO": 1, "EXIT_UNKNOWN": 2,
                     "EXIT_INPUT": 3, "EXIT_ORACLE": 4, "EXIT_INTERNAL": 5}
