"""The benchmark's tracer (perfbench/tracer.py) finds lcer's layers by name:
these names must keep resolving, and rule_step_candidates must stay the one
call that each search expansion makes, or the per-layer counts go silently
wrong."""

import gc
import os
import sys
from collections import Counter

import lcer
import lcer.equations as equations
import lcer.oracle as oracle
import lcer.terms as terms
from lcer.equations import SearchLimits
from lcer.models import lia_model
from lcer.syntax import parse_term

from conftest import load_theory

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def _tracer_module():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracer
    finally:
        sys.path.remove(PERFBENCH)
    return tracer


def test_every_tracer_hook_resolves():
    tracer = _tracer_module()
    hooks = list(tracer.SPANS) + [(mod, attr) for mod, attr, _ in tracer.COUNTERS]
    for mod, attr in hooks:
        owner, fn = tracer._resolve(sys.modules[f"lcer.{mod}"], attr)
        assert callable(fn), (mod, attr)
    names = {f"{mod}.{attr}" for mod, attr in hooks}
    assert {"terms.App.__post_init__", "models.UnderlyingModel.calc_normalize_steps",
            "equations.rule_step_candidates"} <= names


def test_one_rule_step_candidates_call_per_expansion(monkeypatch):
    # a theory of its own, so that no earlier search's outcome is kept in its memo
    theory = load_theory("group.th").theory
    s, t = _group_search_endpoints(theory)

    expansions = []
    search_expander = equations.search_expander

    def counting(*args):
        expand = search_expander(*args)

        def counted(u):
            expansions.append(u)
            return expand(u)

        return counted

    monkeypatch.setattr(equations, "search_expander", counting)
    tracer = _tracer_module()
    tr = tracer.Tracer()
    original = equations.rule_step_candidates
    tr.install(lcer)
    try:
        trace = equations.conversion_search(theory, s, t, SearchLimits(bound=4))
    finally:
        tr.uninstall()
    assert equations.rule_step_candidates is original
    assert trace is not None

    counts = tr.metrics()
    assert expansions
    assert counts["equations.rule_step_candidates.calls"] == len(expansions)
    assert counts["equations.conversion_search.calls"] == 1
    assert counts["terms.App.new"] > 0
    assert counts["models.calc_normalize_steps.calls"] >= 2  # both endpoints
    assert counts["equations.expansions_per_s"] > 0


def _group_search_endpoints(theory):
    G = theory.signature.sort("G")
    return (parse_term(theory, "op(e, op(inv(x), op(x, e)))", {"x": G}),
            parse_term(theory, "e"))


def test_each_redex_is_matched_once_per_side_per_search(monkeypatch):
    # a search draws the rule steps of a redex once, however many positions
    # and expansions it recurs at (a theory of its own, as above)
    theory = load_theory("group.th").theory
    s, t = _group_search_endpoints(theory)
    matched = Counter()
    match = equations.match_compiled

    def counting(kernel, subject):
        matched[subject] += 1
        return match(kernel, subject)

    monkeypatch.setattr(equations, "match_compiled", counting)
    trace = equations.conversion_search(theory, s, t, SearchLimits(bound=4))
    assert trace is not None
    assert matched
    for subject, calls in matched.items():
        assert calls <= len(theory.sides_for(subject)), subject


def test_no_rule_step_outlives_its_search():
    # a theory of its own, so that no earlier search has drawn its steps
    def alive():
        return sum(isinstance(o, (equations.RuleCandidate, equations.Draw))
                   for o in gc.get_objects())

    theory = load_theory("group.th").theory
    s, t = _group_search_endpoints(theory)
    gc.collect()
    before = alive()
    trace = equations.conversion_search(theory, s, t, SearchLimits(bound=4))
    assert trace is not None
    del trace
    gc.collect()
    assert alive() == before


def test_app_new_counts_trusted_constructions(group):
    # replace_at rebuilds the d ancestors of a position of depth d with the
    # trusted constructor; the counter sees each of them, and one call
    theory = group.theory
    G = theory.signature.sort("G")
    env = {"x": G}
    term = parse_term(theory, "op(inv(inv(op(x, e))), e)", env)
    e = parse_term(theory, "e")
    tracer = _tracer_module()
    for pos in [(), (1,), (1, 1), (1, 1, 1), (1, 1, 1, 2), (2,)]:
        tr = tracer.Tracer()
        tr.install(lcer)
        try:
            out = terms.replace_at(term, pos, e)
        finally:
            tr.uninstall()
        assert terms.subterm_at(out, pos) == e
        counts = tr.metrics()
        assert counts.get("terms.App.new", 0) == len(pos)
        assert counts["terms.replace_at.calls"] == 1


def test_a_query_answered_from_the_memo_still_counts_as_a_call():
    # the memo of verdicts lives inside oracle.check_validity, under its
    # span: a repeated top-level query is a call, and only its recursive
    # sub-queries (here phi with y replaced by x, as x = y propagates) are saved
    model = lia_model()
    i = model.sorts["Int"]
    x, y = terms.Variable("x", i), terms.Variable("y", i)
    phi = model.implies(model.equality(x, y), terms.App(model.symbols[">="], (x, y)))
    tracer = _tracer_module()
    counts = []
    for _ in range(3):
        tr = tracer.Tracer()
        tr.install(lcer)
        try:
            assert oracle.check_validity(model, phi).is_valid
        finally:
            tr.uninstall()
        counts.append(tr.metrics())
    assert [c["oracle.check_validity.calls"] for c in counts] == [2, 1, 1]
    assert [c["oracle.check_validity.valid"] for c in counts] == [2, 1, 1]
    assert len(model.verdicts) == 2
