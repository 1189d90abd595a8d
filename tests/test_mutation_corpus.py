"""A seeded mutation corpus of the fixtures, run through every CLI command in
process.  Whatever a mutated theory, proof or algebra says, the CLI answers
with an exit code from 0 to 3 (a verdict or an input error), never an oracle
failure or an internal error, and its JSON document carries the same code.
The bounds are small so that the corpus runs in seconds."""

import json
import os
import random
import re

import pytest

from lcer.cli import main
from lcer.syntax import term_text
from tests.conftest import FIXTURES, load_theory

SEED = 2025
MUTANTS_PER_FILE = 20

# the file a theory's `check` or `model-check` run reads
COMPANIONS = {"group.th": "expinv.prf", "lists.th": "nth2.prf",
              "splitabst.th": "splitabst.prf", "refute_bool.th": "boolcm.alg"}

# duplicate declarations, each an input error
FIXED = {
    "duplicate_sort.th": "(theory (model bool) (sorts U U))",
    "model_sort.th": "(theory (model lia) (sorts Int))",
    "duplicate_fun.th": "(theory (model bool) (sorts U) (fun f () U) (fun f () U))",
}

TOKEN = re.compile(r"[()]|[^\s()]+")
ODD_ATOMS = ["0", "-1", "12", "99999999999999999999", "true", "false", "x", "n", "Int",
             "Bool", "U", "#u0", "#b1", "pi", "vars", "constraint", "subst", "eq", "goal",
             "fun", "sorts", "-", "+", "mod", "=", "and", "not"]


def tokens(text):
    return TOKEN.findall(re.sub(r";[^\n]*", "", text))


def span(toks, i):
    """The end of the expression that starts at toks[i], an atom or "("."""
    depth = 0
    for j in range(i, len(toks)):
        depth += {"(": 1, ")": -1}.get(toks[j], 0)
        if depth <= 0:
            return j + 1
    return len(toks)


def mutate(rng, toks):
    """toks with one or two edits, most of which keep the parentheses
    balanced: an atom replaced by another of the file or by an odd atom, an
    expression deleted, doubled or replaced by another; and a lone token
    deleted or doubled."""
    toks = list(toks)
    for _ in range(rng.randint(1, 2)):
        starts = [i for i, x in enumerate(toks) if x != ")"]
        i, j = rng.choice(starts), rng.choice(starts)
        op = rng.randrange(10)
        if op < 3:
            atoms = [x for x in toks if x not in "()"]
            if toks[i] != "(":
                toks[i] = rng.choice(atoms if op < 2 else ODD_ATOMS)
        elif op < 5 and i > 0:
            del toks[i:span(toks, i)]
        elif op < 7:
            toks[i:i] = toks[i:span(toks, i)]
        elif op < 9:
            toks[i:span(toks, i)] = toks[j:span(toks, j)]
        elif len(toks) > 1:
            toks[i:i + 1] = [] if rng.random() < 0.5 else [toks[i]] * 2
    return " ".join(toks)


def companion_run(theory, goal, companion):
    if companion.endswith(".prf"):
        return ["check", theory, "-p", companion]
    return ["model-check", theory, "-a", companion, *([] if goal is None else ["-g", goal])]


def commands(theory, goal, term, companion):
    """Every subcommand that reads theory, with small bounds."""
    yield ["parse", theory]
    yield ["rewrite", theory, "-t", term, "--steps", "2", "--limit", "20"]
    yield ["consistent", theory, "--depth", "2"]
    if goal is not None:
        g = ["-g", goal]
        yield ["convert", theory, *g, "--bound", "3"]
        yield ["validate", theory, *g, "--bound", "3", "--box", "2", "--rewrite-depth", "1"]
        yield ["prove", theory, *g, "--bound", "3", "--box", "2", "--rewrite-depth", "1"]
        yield ["refute", theory, *g]
    if companion is not None:
        yield companion_run(theory, goal, companion)


def corpus(tmp_path):
    """(argv, file) for the fixed cases and each mutant, with paths under tmp_path."""
    rng = random.Random(SEED)
    for name, text in FIXED.items():
        path = tmp_path / name
        path.write_text(text)
        for argv in commands(str(path), None, "x", None):
            yield argv, name
    for name in sorted(n for n in os.listdir(FIXTURES) if n.endswith(".th")):
        tf = load_theory(name)
        goal = next(iter(tf.goals), None)
        sides = [ce.lhs for ce in tf.goals.values()] + [ce.lhs for ce in tf.theory.equations]
        term = term_text(sides[0])
        companion = COMPANIONS.get(name)
        for mutated in filter(None, (name, companion)):
            with open(os.path.join(FIXTURES, mutated), encoding="utf-8") as fh:
                toks = tokens(fh.read())
            for k in range(MUTANTS_PER_FILE):
                path = tmp_path / f"{k}_{mutated}"
                path.write_text(mutate(rng, toks))
                if mutated == name:
                    runs = commands(str(path), goal, term,
                                    companion and os.path.join(FIXTURES, companion))
                else:
                    runs = [companion_run(os.path.join(FIXTURES, name), goal, str(path))]
                for argv in runs:
                    yield argv, path.name


def test_no_mutant_ends_outside_exit_codes_0_to_3(capsys, tmp_path):
    codes = {}
    for argv, where in corpus(tmp_path):
        code = main([*argv, "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["exit_code"] == code, (where, argv)
        assert 0 <= code <= 3, (where, argv, doc)
        codes[code] = codes.get(code, 0) + 1
    # the corpus reaches verdicts as well as input errors
    assert codes.get(3, 0) > 50 and codes.get(0, 0) + codes.get(1, 0) + codes.get(2, 0) > 50


@pytest.mark.parametrize("name", sorted(FIXED))
def test_a_duplicate_declaration_is_an_input_error(capsys, tmp_path, name):
    path = tmp_path / name
    path.write_text(FIXED[name])
    assert main(["parse", str(path)]) == 3
    out = capsys.readouterr().out
    assert out.startswith("error: 1:") and "parse-error" in out
