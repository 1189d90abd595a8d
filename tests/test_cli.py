import json
import os
import re
import subprocess
import sys

import pytest

from lcer.cli import main
from lcer.equations import CEError, reachable_terms
from lcer.syntax import parse_term, term_text
from tests.conftest import FIXTURES, load_theory


def fx(name):
    return os.path.join(FIXTURES, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    doc = json.loads(out)
    assert doc["schema"] == "lcer-report/1"
    assert doc["exit_code"] == code
    return code, doc


def test_parse(capsys):
    code, doc = run_json(capsys, "parse", fx("mod12.th"))
    assert code == 0 and doc["model"] == "lia" and doc["goals"] == ["clock"]


def test_parse_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.th"
    bad.write_text("(theory (model lia) (fun f (Wat) Int))")
    code, doc = run_json(capsys, "parse", str(bad))
    assert code == 3 and doc["verdict"] == "input-error"


def test_malformed_model_declaration_is_a_located_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.th"
    bad.write_text("(theory (model intmod x))")
    code, doc = run_json(capsys, "parse", str(bad))
    assert code == 3 and doc["verdict"] == "input-error"
    assert doc["detail"] == "1:23: expected an integer modulus"


@pytest.mark.parametrize("name, sort", [("3", "Int"), ("-2", "Int"), ("true", "Bool")])
def test_symbol_name_that_reads_as_a_value(capsys, tmp_path, name, sort):
    bad = tmp_path / "bad.th"
    bad.write_text(f"(theory (model lia) (fun {name} () {sort}))")
    code, doc = run_json(capsys, "parse", str(bad))
    assert code == 3 and doc["verdict"] == "input-error"
    assert "reads as a value" in doc["detail"]


def test_internal_error_is_reported_not_raised(capsys, monkeypatch):
    # a fault inside lcer exits 5 with a verdict in both modes, never with a
    # traceback and Python's exit 1 (which reads as a negative result)
    import lcer.cli as cli

    def broken(args):
        raise KeyError("lost")

    monkeypatch.setattr(cli, "cmd_parse", broken)
    code, doc = run_json(capsys, "parse", fx("mod12.th"))
    assert code == 5 and doc["verdict"] == "internal-error"
    assert doc["detail"] == "KeyError: 'lost'"
    code, out = run(capsys, "parse", fx("mod12.th"))
    assert code == 5 and out == "internal error: KeyError: 'lost'\n"


def test_a_valueerror_raised_by_lcer_is_an_internal_error(capsys, monkeypatch):
    # only the input errors exit 3; a ValueError from inside lcer is its fault
    import lcer.cli as cli

    def broken(*args):
        raise ValueError("lost")

    monkeypatch.setattr(cli, "check_ce_validity", broken)
    code, doc = run_json(capsys, "validate", fx("mod12.th"), "-l", "cong(1)", "-r", "cong(1)")
    assert code == 5 and doc["detail"] == "ValueError: lost"


def test_an_integer_literal_too_long_to_convert_is_an_input_error(capsys, tmp_path):
    # int() converts at most 4300 digits; the readers refuse a longer literal
    big = "1" * 5000
    theory = tmp_path / "big.th"
    theory.write_text(f"(theory (model intmod {big}))")
    for argv in (["parse", str(theory)],
                 ["rewrite", fx("mod12.th"), "-t", f"cong({big})"],
                 ["rewrite", fx("mod12.th"), "-t", "cong(1)", "--pool", big]):
        code, doc = run_json(capsys, *argv)
        assert code == 3 and doc["verdict"] == "input-error", argv


def test_a_missing_theory_file_is_an_input_error(capsys, tmp_path):
    missing = str(tmp_path / "missing.th")
    code, doc = run_json(capsys, "parse", missing)
    assert code == 3 and doc["verdict"] == "input-error"
    assert doc["detail"] == f"[Errno 2] No such file or directory: '{missing}'"
    code, out = run(capsys, "parse", missing)
    assert code == 3 and out == f"error: [Errno 2] No such file or directory: '{missing}'\n"


def test_convert_modular(capsys):
    code, doc = run_json(capsys, "convert", fx("mod12.th"),
                         "-l", "cong(+(7,31))", "-r", "cong(14)", "--bound", "3")
    assert code == 0
    assert doc["steps"] == 2


def test_convert_bound_exhausted(capsys):
    code, doc = run_json(capsys, "convert", fx("mod12.th"),
                         "-l", "cong(1)", "-r", "cong(2)", "--bound", "2")
    assert code == 2 and doc["verdict"] == "no-conversion-within-bound"


def test_convert_with_named_goal(capsys):
    code, out = run(capsys, "convert", fx("mod12.th"), "-g", "clock", "--bound", "3")
    assert code == 0 and "2 steps" in out


def test_validate(capsys):
    code, doc = run_json(capsys, "validate", fx("absmax.th"), "-g", "absneg",
                         "--bound", "8", "--box", "5")
    assert code == 0 and doc["verdict"] == "confirmed-on-samples" and doc["samples"] == 11
    code, doc = run_json(capsys, "validate", fx("absmax.th"), "-g", "absneg0",
                         "--bound", "8")
    assert code == 1 and doc["verdict"] == "no-conversion-within-bound"


def test_check_proof(capsys):
    code, out = run(capsys, "check", fx("group.th"), "-p", fx("expinv.prf"))
    assert code == 0 and "accepted" in out


def test_check_rejected(capsys, tmp_path):
    bad = tmp_path / "bad.prf"
    bad.write_text("(Refl (conclusion (vars) e (op e e) true))")
    code, doc = run_json(capsys, "check", fx("group.th"), "-p", str(bad))
    assert code == 1 and doc["rule"] == "Refl"


def test_prove_and_check_round_trip(capsys, tmp_path):
    out_file = tmp_path / "n3.prf"
    code, _ = run(capsys, "prove", fx("nneg.th"), "-l", "nneg(3)", "-r", "true",
                  "--bound", "10", "-o", str(out_file))
    assert code == 0 and out_file.exists()
    code, _ = run(capsys, "check", fx("nneg.th"), "-p", str(out_file))
    assert code == 0


def test_prove_no_proof(capsys):
    code, doc = run_json(capsys, "prove", fx("nneg.th"), "-g", "param")
    assert code == 2 and doc["verdict"] == "no-proof"


GROUP_GAP_GOAL = ["-l", "op(exp(x, n), exp(x, m))", "-r", "exp(x, +(n, m))",
                  "-c", "and(>=(n, 0), <=(m, 1))", "--pi", "n m"]


def test_a_gap_closed_by_cong_over_axiom_is_proved(capsys, tmp_path):
    # the gap closes by Cong over the Axiom m + n = n + m, though the
    # constraint entails neither of its differing leaves, m = n and n = m
    code, doc = run_json(capsys, "validate", fx("group.th"), *GROUP_GAP_GOAL)
    assert code == 0 and doc["verdict"] == "proved-by-triviality"
    assert doc["gap"] == ["(exp x (+ m n))", "(exp x (+ n m))"]
    out_file = tmp_path / "gap.prf"
    code, out = run(capsys, "prove", fx("group.th"), *GROUP_GAP_GOAL, "-o", str(out_file))
    assert code == 0 and out.startswith("proof found and checked")
    code, out = run(capsys, "check", fx("group.th"), "-p", str(out_file))
    assert code == 0 and "accepted" in out


def test_consistent(capsys):
    code, doc = run_json(capsys, "consistent", fx("inconsistent.th"), "--depth", "2")
    assert code == 1 and doc["verdict"] == "inconsistent"
    assert len(doc["trace"]) == 2
    code, doc = run_json(capsys, "consistent", fx("group.th"), "--depth", "8")
    assert code == 0 and doc["verdict"] == "consistent-up-to"


def test_refute(capsys, tmp_path):
    out_file = tmp_path / "cm.alg"
    code, doc = run_json(capsys, "refute", fx("refute_bool.th"), "-g", "gf",
                         "--extra", "1", "-o", str(out_file))
    assert code == 0 and doc["verdict"] == "refuted"
    code, doc = run_json(capsys, "model-check", fx("refute_bool.th"),
                         "-a", str(out_file), "-g", "gf")
    assert code == 0 and doc["refutes"] is True


def test_refute_infinite_model_refused(capsys):
    code, doc = run_json(capsys, "refute", fx("inconsistent.th"),
                         "-l", "a", "-r", "0")
    assert code == 3 and "finite underlying model" in doc["detail"]


def test_model_check_shipped_algebra(capsys):
    code, doc = run_json(capsys, "model-check", fx("refute_bool.th"),
                         "-a", fx("boolcm.alg"), "-g", "gf")
    assert code == 0 and doc["verdict"] == "model" and doc["refutes"] is True


def test_rewrite(capsys):
    code, doc = run_json(capsys, "rewrite", fx("mod12.th"), "-t", "cong(+(7,31))",
                         "--pool", "0,1,2,14")
    assert code == 0 and doc["normal_form"] == "(cong 38)"
    assert "(cong 14)  [1 steps]" in doc["successors"]


def test_rewrite_does_not_list_the_start_term(capsys):
    # the default pool draws y = 38 for cong(x) -> cong(y) at x = 38: a step
    # back to the start, which is no successor
    code, doc = run_json(capsys, "rewrite", fx("mod12.th"), "-t", "cong(+(7,31))")
    assert code == 0 and "(cong 14)  [1 steps]" in doc["successors"]
    assert not any(s.startswith("(cong 38)") for s in doc["successors"])


def test_rewrite_one_step_lists_the_first_level_of_two_steps(capsys):
    # for every side of a fixture goal: the entries of --steps 2 whose trace
    # holds one rule step, in their order
    listed = 0
    for name in sorted(n for n in os.listdir(FIXTURES) if n.endswith(".th")):
        tf = load_theory(name)
        for text in sorted({term_text(side) for ce in tf.goals.values()
                            for side in (ce.lhs, ce.rhs)}):
            _, one = run_json(capsys, "rewrite", fx(name), "-t", text)
            _, two = run_json(capsys, "rewrite", fx(name), "-t", text, "--steps", "2")
            start = tf.theory.model.calc_normalize(parse_term(tf.theory, text))
            first = {f"{term_text(u)}  [{len(trace)} steps]"
                     for u, trace in reachable_terms(tf.theory, start, 2, width=50).items()
                     if sum(step.kind == "rule" for step in trace) == 1}
            assert one["successors"] == [s for s in two["successors"] if s in first], (name, text)
            listed += len(one["successors"])
    assert listed > 20


def test_deep_term_is_an_input_error(capsys, tmp_path):
    theory = tmp_path / "nat.th"
    theory.write_text("(theory (model bool) (sorts N) (fun z () N) (fun s (N) N))")
    deep = "(s " * 3000 + "z" + ")" * 3000
    code, doc = run_json(capsys, "rewrite", str(theory), "-t", deep)
    assert code == 3 and doc["verdict"] == "input-error"


def test_algebra_with_a_wrongly_sorted_element_is_an_input_error(capsys, tmp_path):
    theory = tmp_path / "u.th"
    theory.write_text("(theory (model intmod 3) (sorts U) (fun f (Int) U)"
                      " (eq (pi x) (constraint true) (f x) (f 0)))")
    alg = tmp_path / "u.alg"
    alg.write_text("(algebra (carrier Int 0 1 2) (carrier Bool true false) (carrier U #u0)"
                   " (table f ((true) #u0) ((0) #u0) ((2) #u0)))")
    code, doc = run_json(capsys, "model-check", str(theory), "-a", str(alg))
    assert code == 3 and doc["verdict"] == "input-error"


def test_term_symbol_in_a_constraint_is_an_input_error(capsys, tmp_path):
    # constraints are theory terms: p is a term symbol, refused when the
    # equation is built rather than failing every rule step that checks it
    theory = tmp_path / "p.th"
    theory.write_text("(theory (model lia) (sorts U) (fun f (Int) U) (fun g (Int) U)"
                      " (fun p (Int) Bool) (eq (vars (x Int) (y Int)) (pi x y)"
                      " (constraint (and (= (+ x 1) y) (p y))) (f x) (g y)))")
    code, doc = run_json(capsys, "convert", str(theory), "-l", "f(1)", "-r", "g(2)")
    assert code == 3 and doc["verdict"] == "input-error"
    assert "constraint mentions term symbols: p" in doc["detail"]


def test_exit_codes_are_total(capsys):
    # the verdict-to-exit-code mapping, exercised end to end
    table = [
        (["parse", fx("mod12.th")], 0),
        (["convert", fx("mod12.th"), "-g", "clock", "--bound", "3"], 0),
        (["convert", fx("mod12.th"), "-l", "cong(1)", "-r", "cong(2)",
          "--bound", "1"], 2),
        (["validate", fx("absmax.th"), "-g", "absneg0"], 1),
        (["check", fx("group.th"), "-p", fx("expinv.prf")], 0),
        (["consistent", fx("inconsistent.th"), "--depth", "2"], 1),
        (["consistent", fx("mod12.th"), "--depth", "2"], 0),
        (["refute", fx("refute_bool.th"), "-g", "gf"], 0),
        (["model-check", fx("refute_bool.th"), "-a", fx("boolcm.alg")], 0),
    ]
    for argv, expected in table:
        code, _ = run(capsys, *argv)
        assert code == expected, argv


BOOL_GOAL = ("(theory (model bool) (fun f (Bool) Bool)"
             " (eq (pi x) (constraint true) (f x) true)"
             " (goal g (pi x) (constraint true) (f x) x))")


def test_refute_prints_bool_valuations_as_algebra_files_do(capsys, tmp_path):
    theory = tmp_path / "bool.th"
    theory.write_text(BOOL_GOAL)
    code, out = run(capsys, "refute", str(theory), "-g", "g")
    assert code == 0
    assert out.splitlines()[0] == 'counter-model found; goal refuted at valuation {"x": "false"}'
    code, doc = run_json(capsys, "refute", str(theory), "-g", "g")
    assert code == 0 and doc["valuation"] == {"x": "false"}
    assert "(carrier Bool false true #bool0)" in doc["algebra"]


def test_model_check_prints_bool_valuations_as_algebra_files_do(capsys, tmp_path):
    alg = tmp_path / "bad.alg"
    alg.write_text("(algebra (carrier Bool true false)"
                   " (table f ((true) false) ((false) true))"
                   " (table g ((true) true) ((false) true)))")
    code, out = run(capsys, "model-check", fx("refute_bool.th"), "-a", str(alg))
    assert code == 1 and out == 'not a model: equation #0 fails at {"x": "true"}\n'
    code, doc = run_json(capsys, "model-check", fx("refute_bool.th"), "-a", str(alg))
    assert code == 1 and doc["valuation"] == {"x": "true"}


def test_algebra_errors_print_elements_as_algebra_files_do(capsys, tmp_path):
    alg = tmp_path / "no_f_true.alg"
    alg.write_text("(algebra (carrier Bool true false #b1)"
                   " (table f ((false) true) ((#b1) false))"
                   " (table g ((true) true) ((false) true) ((#b1) true)))")
    code, doc = run_json(capsys, "model-check", fx("refute_bool.th"), "-a", str(alg))
    assert code == 3 and doc["verdict"] == "input-error"
    assert doc["detail"] == "table for f is missing entry (true)"
    code, out = run(capsys, "model-check", fx("refute_bool.th"), "-a", str(alg))
    assert code == 3 and out == "error: table for f is missing entry (true)\n"


def test_an_element_outside_its_carrier_is_printed_as_written(capsys, tmp_path):
    alg = tmp_path / "no_true.alg"
    alg.write_text("(algebra (carrier Bool false #b1)\n"
                   " (table f ((false) true) ((#b1) false))\n"
                   " (table g ((false) false) ((#b1) false)))")
    code, out = run(capsys, "model-check", fx("refute_bool.th"), "-a", str(alg))
    assert code == 3
    assert out == "error: 2:11: element true is not in the carrier of Bool\n"


def test_refute_reports_nodes_in_json_only(capsys):
    code, out = run(capsys, "refute", fx("refute_bool.th"), "-g", "gf")
    assert code == 0 and "nodes" not in out
    code, doc = run_json(capsys, "refute", fx("refute_bool.th"), "-g", "gf")
    assert code == 0 and doc["verdict"] == "refuted" and doc["nodes"] == 12


NUMERIC_OPTIONS = [
    ("validate", "absmax.th", "--bound"), ("validate", "absmax.th", "--box"),
    ("prove", "absmax.th", "--rewrite-depth"), ("consistent", "mod12.th", "--depth"),
    ("rewrite", "mod12.th", "--steps"), ("rewrite", "mod12.th", "--limit"),
    ("refute", "refute_bool.th", "--extra"), ("refute", "refute_bool.th", "--term-size"),
    ("convert", "mod12.th", "--max-growth"), ("parse", "mod12.th", "--timeout"),
]


@pytest.mark.parametrize("command, theory, option", NUMERIC_OPTIONS)
@pytest.mark.parametrize("value", ["-1", "x", "1.5", ""])
def test_bad_numeric_option_is_an_input_error(capsys, command, theory, option, value):
    # a verdict on a negative bound, or argparse's exit 2 (which reads as
    # "unknown"), would hide the mistake
    with pytest.raises(SystemExit) as exc:
        main([command, fx(theory), option, value])
    assert exc.value.code == 3
    assert f"argument {option}: expected a non-negative integer" in capsys.readouterr().err


def test_malformed_command_line_is_an_input_error(capsys):
    for argv in (["parse"], ["validate", fx("absmax.th"), "--no-such-flag"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3, argv
    capsys.readouterr()


@pytest.mark.parametrize("argv, command", [
    (["refute", fx("refute_bool.th"), "-g", "gf", "--extra", "-1"], "refute"),
    (["parse"], "parse"),
    (["validate", fx("absmax.th"), "--no-such-flag"], None),
])
def test_command_line_error_is_a_json_document_when_json_is_asked_for(capsys, argv, command):
    for form in (["--format", "json"], ["--format=json"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + form)
        assert exc.value.code == 3
        out, err = capsys.readouterr()
        doc = json.loads(out)
        assert doc["schema"] == "lcer-report/1" and doc["exit_code"] == 3
        assert doc["verdict"] == "input-error" and doc["command"] == command
        assert doc["detail"] and err == ""
    # text mode is unchanged: usage and message on stderr, nothing on stdout
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: lcer") and "error: " in err


def test_zero_is_a_valid_numeric_option(capsys):
    code, doc = run_json(capsys, "convert", fx("mod12.th"), "-g", "clock", "--bound", "0")
    assert code == 2 and doc["bound"] == 0
    code, doc = run_json(capsys, "consistent", fx("mod12.th"), "--depth", "0")
    assert code == 0 and doc["depth"] == 0


def test_text_and_json_agree(capsys):
    code_t, out = run(capsys, "consistent", fx("inconsistent.th"), "--depth", "2")
    code_j, doc = run_json(capsys, "consistent", fx("inconsistent.th"), "--depth", "2")
    assert code_t == code_j == 1
    assert "inconsistent" in out and doc["verdict"] == "inconsistent"


def test_rewrite_multi_step(capsys):
    code, doc = run_json(capsys, "rewrite", fx("nneg.th"), "-t", "nneg(2)",
                         "--steps", "3", "--limit", "20")
    assert code == 0
    assert any(s.startswith("true") for s in doc["successors"])


def test_unknown_goal_name(capsys):
    code, doc = run_json(capsys, "validate", fx("absmax.th"), "-g", "nope")
    assert code == 3 and "no goal named" in doc["detail"]


def test_ill_sorted_inline_goal(capsys):
    code, doc = run_json(capsys, "convert", fx("mod12.th"),
                         "-l", "cong(true)", "-r", "cong(1)")
    assert code == 3


def _weakening_proof_text():
    # conclusion constraint true entails x*x >= 0 over the integers, but no
    # built-in backend proves it; an external solver is required
    return (
        "(Weakening (conclusion (vars (x Int)) (abs x) (abs x) true)\n"
        "  (Refl (conclusion (vars (x Int)) (abs x) (abs x) (>= (* x x) 0))))"
    )


def test_solver_flag_discharges_oracle(capsys, tmp_path):
    import sys
    import textwrap

    prf = tmp_path / "needs_solver.prf"
    prf.write_text(_weakening_proof_text())
    code, doc = run_json(capsys, "check", fx("absmax.th"), "-p", str(prf))
    assert code == 2 and doc["verdict"] == "oracle-unknown"

    fake = tmp_path / "unsat.py"
    fake.write_text(textwrap.dedent("""
        import sys
        for line in iter(sys.stdin.readline, ""):
            if "(check-sat)" in line:
                print("unsat", flush=True)
    """))
    code, doc = run_json(capsys, "check", fx("absmax.th"), "-p", str(prf),
                         "--solver", f"{sys.executable} -u {fake}")
    assert code == 0 and doc["verdict"] == "accepted"


def test_solver_env_var(capsys, tmp_path, monkeypatch):
    import sys
    import textwrap

    prf = tmp_path / "needs_solver.prf"
    prf.write_text(_weakening_proof_text())
    fake = tmp_path / "unsat.py"
    fake.write_text(textwrap.dedent("""
        import sys
        for line in iter(sys.stdin.readline, ""):
            if "(check-sat)" in line:
                print("unsat", flush=True)
    """))
    monkeypatch.setenv("LCRE_SOLVER", f"{sys.executable} -u {fake}")
    code, _ = run(capsys, "check", fx("absmax.th"), "-p", str(prf))
    assert code == 0


def test_solver_failure_exit_code(capsys, tmp_path):
    prf = tmp_path / "needs_solver.prf"
    prf.write_text(_weakening_proof_text())
    code, doc = run_json(capsys, "check", fx("absmax.th"), "-p", str(prf),
                         "--solver", "/nonexistent/solver")
    assert code == 4 and doc["verdict"] == "oracle-failure"


def test_seed_echoed_in_json(capsys):
    code, doc = run_json(capsys, "parse", fx("mod12.th"), "--seed", "7")
    assert doc["seed"] == 7


# The README commands with their output recorded before the frontier expander
# became lazy; a change of tie-break order in search shows up here.
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
README_COMMANDS = {
    "convert_mod12": ["convert", "mod12.th", "-l", "cong(+(7,31))", "-r", "cong(14)",
                      "--bound", "3"],
    "convert_expinv": ["convert", "group.th", "-g", "expinv", "--bound", "12"],
    "validate_maxcomm": ["validate", "absmax.th", "-g", "maxcomm", "--bound", "8",
                         "--box", "5"],
    "check_expinv": ["check", "group.th", "-p", "expinv.prf"],
    "prove_nneg5": ["prove", "nneg.th", "-l", "nneg(5)", "-r", "true", "--bound", "10",
                    "-o", "{out}"],
    "consistent_inconsistent": ["consistent", "inconsistent.th", "--depth", "2"],
    "refute_gf": ["refute", "refute_bool.th", "-g", "gf", "--extra", "1"],
    "model_check_gf": ["model-check", "refute_bool.th", "-a", "boolcm.alg", "-g", "gf"],
    "rewrite_mod12": ["rewrite", "mod12.th", "-t", "cong(+(7,31))", "--pool", "0,1,2,14",
                      "--steps", "2"],
    "parse_lists": ["parse", "lists.th"],
}


def _golden(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(README_COMMANDS))
def test_readme_command_output_is_unchanged(capsys, tmp_path, name):
    out_file = tmp_path / "out.prf"
    argv = [fx(a) if a.endswith((".th", ".prf", ".alg")) else a
            for a in README_COMMANDS[name]]
    argv = [str(out_file) if a == "{out}" else a for a in argv]
    code, out = run(capsys, *argv, "--format", "json")
    assert out == _golden(name + ".json")
    assert json.loads(out)["exit_code"] == code
    if out_file.exists():
        assert out_file.read_text(encoding="utf-8").rstrip("\n") == json.loads(out)["proof"]


def test_consistent_text_output_is_unchanged(capsys):
    code, out = run(capsys, "consistent", fx("inconsistent.th"), "--depth", "2")
    assert code == 1 and out == _golden("consistent_inconsistent.txt")


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_convert_output_does_not_depend_on_the_hash_seed(hash_seed):
    # a fresh interpreter per hash seed: set and dict order must not reach the trace
    root = os.path.join(os.path.dirname(__file__), "..")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(filter(None, [os.path.join(root, "src"),
                                                        os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "lcer.cli", "convert", "fixtures/group.th", "-g", "expinv",
         "--bound", "12", "--format", "json"],
        cwd=root, env=env, capture_output=True, check=True)
    with open(os.path.join(GOLDEN, "convert_expinv.json"), "rb") as fh:
        assert done.stdout == fh.read()


# -- one reading of a constrained equation on every surface -----------------------

SURFACE_THEORY = ("(theory (model lia) (sorts U) (fun f (Int) Int) (fun g (Int) U)"
                  " (fun p (Int) Bool){})")

# each mistake with its one code, written as an equation of a theory file, a
# proof conclusion and an inline goal; a proof's logical variables carry their
# sorts, so a pi name that occurs nowhere has no proof form
MISTAKES = {
    "constraint-var-outside-pi": ("constraint-vars-not-in-X", {
        "theory": "(eq (vars (y Int)) (pi y) (constraint (> x 0)) (f x) (f y))",
        "proof": "(Refl (conclusion (f x) (f x) (> x 0)))",
        "inline": ["-l", "f(x)", "-r", "f(y)", "-c", ">(x, 0)", "--pi", "y"]}),
    "term-symbol-in-constraint": ("ill-sorted-equation", {
        "theory": "(eq (pi x) (constraint (p x)) (f x) (f x))",
        "proof": "(Refl (conclusion (vars (x Int)) (f x) (f x) (p x)))",
        "inline": ["-l", "f(x)", "-r", "f(x)", "-c", "p(x)"]}),
    "pi-name-nowhere": ("ill-sorted-equation", {
        "theory": "(eq (pi z) (constraint true) (f 1) 1)",
        "inline": ["-l", "f(1)", "-r", "1", "--pi", "z"]}),
    "sides-of-different-sorts": ("ill-sorted-equation", {
        "theory": "(eq (pi) (constraint true) (g 1) 1)",
        "proof": "(Refl (conclusion (g 1) 1 true))",
        "inline": ["-l", "g(1)", "-r", "1"]}),
    "equality-as-an-argument-of-another-sort": ("ill-sorted-equation", {
        "theory": "(eq (pi) (constraint true) (f (= 1 1)) (f 1))",
        "proof": "(Refl (conclusion (f (= 1 1)) (f (= 1 1)) true))",
        "inline": ["-l", "f(=(1, 1))", "-r", "f(1)"]}),
}


@pytest.mark.parametrize("mistake, surface", [
    (mistake, surface) for mistake, (_, forms) in MISTAKES.items() for surface in forms])
def test_a_mistake_has_one_code_on_every_surface(capsys, tmp_path, mistake, surface):
    code_of_mistake, forms = MISTAKES[mistake]
    theory = tmp_path / "t.th"
    theory.write_text(SURFACE_THEORY.format(" " + forms[surface] if surface == "theory" else ""))
    if surface == "theory":
        argv = ["parse", str(theory)]
    elif surface == "proof":
        prf = tmp_path / "t.prf"
        prf.write_text(forms["proof"])
        argv = ["check", str(theory), "-p", str(prf)]
    else:
        argv = ["validate", str(theory), *forms["inline"]]
    code, doc = run_json(capsys, *argv)
    assert code == 3 and doc["verdict"] == "input-error"
    assert re.match(r"(?:\d+:\d+: )?([\w-]+): ", doc["detail"]).group(1) == code_of_mistake


def test_an_equality_where_an_integer_is_expected_is_an_input_error(capsys):
    code, doc = run_json(capsys, "convert", fx("mod12.th"), "-l", "cong(=(1,1))", "-r", "cong(1)")
    assert code == 3 and doc["verdict"] == "input-error"
    assert "ill-sorted-equation" in doc["detail"] and "expected Int" in doc["detail"]


# a valid goal whose rule steps bind equation variables to terms over the
# goal's logical variables; prove once raised CEError on it from _simulate_step
DEFECT_THEORY = """(theory (model bool) (sorts U)
  (fun h (Bool) U) (fun k (U) U) (fun c0 () U) (fun pairf (U Bool) U)
  (eq (vars (b Bool) (u U)) (pi b) (constraint (= b b)) u (pairf (pairf c0 false) b))
  (eq (vars (b Bool)) (pi b) (constraint true) (k (k u)) (pairf (k u) false))
  (goal g (vars (a Bool)) (pi a) (constraint (= a false)) (h a) (k (pairf c0 false))))"""


def test_a_goal_whose_steps_bind_goal_variables_is_proved(capsys, tmp_path):
    theory = tmp_path / "defect.th"
    theory.write_text(DEFECT_THEORY)
    proof = tmp_path / "g.prf"
    code, _ = run(capsys, "prove", str(theory), "-g", "g", "--box", "4",
                  "--rewrite-depth", "2", "-o", str(proof))
    assert code == 0
    code, _ = run(capsys, "check", str(theory), "-p", str(proof))
    assert code == 0


def test_a_ceerror_raised_while_proving_is_an_internal_error(capsys, tmp_path, monkeypatch):
    import lcer.cli as cli

    def broken(*args):
        raise CEError("constraint mentions variables outside the logical set: a")

    monkeypatch.setattr(cli, "prove_heuristic", broken)
    theory = tmp_path / "defect.th"
    theory.write_text(DEFECT_THEORY)
    argv = ["prove", str(theory), "-g", "g", "--box", "4", "--rewrite-depth", "2"]
    code, doc = run_json(capsys, *argv)
    assert code == 5 and doc["verdict"] == "internal-error"
    assert doc["detail"].startswith("CEError: ")
    code, out = run(capsys, *argv)
    assert code == 5 and out.startswith("internal error: CEError: ")


@pytest.mark.parametrize("item", ["1_4", "+2", "٣", "", "true"])
def test_a_pool_item_that_is_no_integer_literal_is_an_input_error(capsys, item):
    code, doc = run_json(capsys, "rewrite", fx("mod12.th"), "-t", "cong(+(7,31))",
                         "--pool", f"0,{item}")
    assert code == 3 and doc["verdict"] == "input-error"


def test_pool_items_may_have_spaces_around_them(capsys):
    spaced = run_json(capsys, "rewrite", fx("mod12.th"), "-t", "cong(+(7,31))",
                      "--pool", "0, 1, 2")
    plain = run_json(capsys, "rewrite", fx("mod12.th"), "-t", "cong(+(7,31))",
                     "--pool", "0,1,2")
    assert spaced[0] == 0 and spaced == plain


@pytest.mark.parametrize("element", ["1_0", "+1", "١"])
def test_an_algebra_int_element_that_is_no_integer_literal_is_an_input_error(
        capsys, tmp_path, element):
    theory = tmp_path / "u.th"
    theory.write_text("(theory (model lia) (sorts U) (fun f (Int) U)"
                      " (eq (pi x) (constraint true) (f x) (f 0)))")
    alg = tmp_path / "u.alg"
    alg.write_text(f"(algebra (carrier Int 0 {element}) (carrier Bool true false)"
                   f" (carrier U #u0) (table f ((0) #u0) (({element}) #u0)))")
    code, doc = run_json(capsys, "model-check", str(theory), "-a", str(alg))
    assert code == 3 and doc["verdict"] == "input-error"


# -- files named on the command line -----------------------------------------------

@pytest.mark.parametrize("argv", [
    ["parse", "{dir}"],
    ["check", fx("group.th"), "-p", "{dir}"],
    ["model-check", fx("refute_bool.th"), "-a", "{dir}", "-g", "gf"],
    ["prove", fx("nneg.th"), "-l", "nneg(5)", "-r", "true", "--bound", "10", "-o", "{dir}"],
    ["refute", fx("refute_bool.th"), "-g", "gf", "--extra", "1", "-o", "{dir}"],
], ids=lambda argv: argv[0])
def test_a_named_file_that_cannot_be_opened_is_an_input_error(capsys, tmp_path, argv):
    code, doc = run_json(capsys, *[str(tmp_path) if a == "{dir}" else a for a in argv])
    assert code == 3 and doc["verdict"] == "input-error"


def test_rewrite_zero_steps_has_no_successors(capsys):
    argv = ["rewrite", fx("mod12.th"), "-t", "cong(+(7,31))", "--steps", "0"]
    code, out = run(capsys, *argv)
    assert code == 0
    assert out.splitlines() == ["calc normal form: (cong 38)",
                                "successors within 0 step(s):", "  (none)"]
    code, doc = run_json(capsys, *argv)
    assert code == 0 and doc["normal_form"] == "(cong 38)" and doc["successors"] == []
