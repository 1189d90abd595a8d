"""The three workloads: how a goal is parsed (set-up), run (timed) and
checked (after the timed region).

lcer is passed in as `lc`, and its submodules are imported inside the
methods, because set-up re-imports the package: a module-level import here
would keep the classes of a stale import.

`run` returns an outcome dict whose "kind" is the verdict and whose other
entries are the certificates the check needs.  `signature` reduces an outcome
to what must not change between commits or between traced and untraced runs:
the verdict kind plus its trace length, sample count or derivation size.
"""

from __future__ import annotations

from dataclasses import dataclass

import goals as G

DECIDED_KINDS = {"trace-found", "proved-ground-conversion", "proved-by-triviality",
                 "proved-derivation", "refuted"}
# a problem with one of these prefixes fails its goal without being a wrong
# answer: lcer crashed, or gave up on a goal its construction says it proves
NOT_WRONG = ("raised ", "gave up ")


@dataclass
class Prepared:
    goal: G.Goal
    theory: object  # lcer CETheory
    data: dict


def signature(outcome: dict) -> str:
    parts = [outcome["kind"]]
    for key in ("steps", "samples", "nodes", "algebra_nodes"):
        if key in outcome:
            parts.append(f"{key}={outcome[key]}")
    return " ".join(parts)


def _replay(lc, theory, lhs, rhs, trace) -> list[str]:
    try:
        end = lc.replay_trace(theory, lhs, trace)
    except Exception as exc:  # an IllegalStep or any crash is a wrong trace
        return [f"trace does not replay: {exc}"]
    return [] if end == rhs else ["trace replays to a different term"]


def _check_derivation(lc, theory, d, goal_ce) -> list[str]:
    report = lc.check_proof(theory, d)
    problems = [] if report.accepted else [f"derivation rejected: {report.code} {report.detail}"]
    if d.conclusion != goal_ce:
        problems.append("derivation concludes a different equation")
    return problems


class Convert:
    name = "convert"

    def pool(self, rng):
        return G.convert_pool(rng)

    def prepare(self, lc, theories, goal):
        tf = theories[goal.theory]
        sig = tf.theory.signature
        env = {v: sig.sort(s) for v, s in goal.spec["env"].items()}
        lhs = lc.parse_term(tf.theory, goal.spec["lhs"], dict(env))
        rhs = lc.parse_term(tf.theory, goal.spec["rhs"], dict(env))
        return Prepared(goal, tf.theory, {"lhs": lhs, "rhs": rhs,
                                          "limits": lc.SearchLimits(bound=goal.spec["bound"])})

    def run(self, lc, p):
        d = p.data
        trace = lc.conversion_search(p.theory, d["lhs"], d["rhs"], d["limits"])
        if trace is None:
            return {"kind": "no-conversion-within-bound"}
        return {"kind": "trace-found", "steps": len(trace), "trace": trace}

    def check(self, lc, p, out):
        expect = p.goal.expect
        if out["kind"] == "raised":
            return [f"raised {out['error']}"]
        if not expect["found"]:
            return [] if out["kind"] == "no-conversion-within-bound" else \
                ["converted a pair that a model separates"]
        if out["kind"] != "trace-found":
            return ["no conversion for a pair built within the bound"]
        problems = _replay(lc, p.theory, p.data["lhs"], p.data["rhs"], out["trace"])
        if out["steps"] != expect["steps"]:
            problems.append(f"trace length {out['steps']}, built {expect['steps']} apart")
        return problems


class Decide:
    name = "decide"

    def pool(self, rng):
        return G.decide_pool(rng)

    def prepare(self, lc, theories, goal):
        from lcer.syntax import parse_goal_spec

        spec = goal.spec
        if goal.theory == "inline":
            tf = lc.parse_theory(spec["theory_text"])
            ce = tf.goals["g"]
        else:
            tf = theories[goal.theory]
            ce = parse_goal_spec(tf.theory, spec["lhs"], spec["rhs"],
                                 spec["constraint"], spec["pi"] or None)
        return Prepared(goal, tf.theory, {"ce": ce,
                                          "budgets": lc.ValidityBudgets(**spec["budgets"])})

    def run(self, lc, p):
        theory, ce, budgets = p.theory, p.data["ce"], p.data["budgets"]
        status = lc.check_ce_validity(theory, ce, budgets)
        out = {"kind": status.kind, "status": status}
        if status.kind == "confirmed-on-samples":
            out["samples"] = status.samples
        if status.trace is not None:
            out["steps"] = len(status.trace)
        if status.is_proof or not theory.model.finite:
            return out
        cm = G.COUNTER_MODEL
        search = lc.search_counter_model(theory, ce, cm["extra"], cm["term_sort_size"],
                                         max_nodes=cm["max_nodes"])
        derivation = lc.prove_heuristic(theory, ce, budgets)
        out["algebra_nodes"] = search.nodes
        if search.algebra is not None:
            out.update(kind="refuted", algebra=search.algebra)
        if derivation is not None:
            out["derivation"] = derivation
            out["nodes"] = derivation.count_nodes()
            if search.algebra is None:
                out["kind"] = "proved-derivation"
        return out

    def check(self, lc, p, out):
        expect = p.goal.expect
        if out["kind"] == "raised":
            return [f"raised {out['error']}"]
        problems = []
        theory, ce = p.theory, p.data["ce"]
        status = out["status"]
        if status.trace is not None:
            problems += _replay(lc, theory, ce.lhs, ce.rhs, status.trace)
        if "derivation" in out:
            problems += _check_derivation(lc, theory, out["derivation"], ce)
        if "algebra" in out:
            if not lc.check_is_model(out["algebra"]).ok:
                problems.append("counter-model is not a model of the theory")
            if lc.check_refutes(out["algebra"], ce) is None:
                problems.append("counter-model does not refute the goal")
        proved = status.is_proof or "derivation" in out
        refuted = "algebra" in out
        if proved and refuted:
            problems.append("goal both proved and refuted")
        if "kind" in expect and (out["kind"], out.get("samples")) != \
                (expect["kind"], expect.get("samples")):
            problems.append(f"answer {signature(out)}, stated {expect}")
        if expect.get("refuted") and not refuted:
            problems.append("stated counter-model not found")
        if expect.get("valid") and refuted:
            problems.append("refuted a goal that holds in every model")
        if expect.get("valid") is False and proved:
            problems.append("proved a goal that a model refutes")
        count = expect.get("samples_if_confirmed")
        if status.kind == "confirmed-on-samples" and count is not None \
                and status.samples != count:
            problems.append(f"{status.samples} samples, {count} satisfying valuations")
        if status.kind == "unknown" and count:
            problems.append(f"unknown with {count} satisfying valuations")
        return problems


class Certify:
    name = "certify"

    def pool(self, rng):
        return G.certify_pool(rng)

    def prepare(self, lc, theories, goal):
        from lcer.syntax import parse_goal_spec

        spec = goal.spec
        if goal.family == "prf":
            theory = theories[goal.theory].theory
            return Prepared(goal, theory, {"d": lc.parse_proof(theory, G.input_text(spec["proof"]))})
        if goal.theory == "inline":
            theory = lc.parse_theory(spec["theory_text"]).theory
        else:
            theory = theories[goal.theory].theory
        ce = parse_goal_spec(theory, spec["lhs"], spec["rhs"], spec.get("constraint"),
                             spec.get("pi"))
        return Prepared(goal, theory, {"ce": ce})

    def run(self, lc, p):
        theory, fam = p.theory, p.goal.family
        if fam == "prf":
            d = p.data["d"]
        elif fam == "nneg":
            d = lc.prove_heuristic(theory, p.data["ce"],
                                   lc.ValidityBudgets(bound=G.CERTIFY_NNEG_BOUND))
            if d is None:
                return {"kind": "not-proved"}
        else:
            from lcer.proofs import GenerationError

            try:
                d = lc.generate_calc_proof(theory, p.data["ce"], box=G.CERTIFY_CALC_BOX)
            except GenerationError:
                return {"kind": "not-generated"}
        report = lc.check_proof(theory, d)
        kind = "proved-derivation" if report.accepted else f"check-{report.verdict}"
        return {"kind": kind, "derivation": d, "nodes": d.count_nodes()}

    def check(self, lc, p, out):
        expect = p.goal.expect
        if out["kind"] == "raised":
            return [f"raised {out['error']}"]
        if not expect["valid"]:
            return [] if out["kind"] == "not-generated" else \
                ["generated a proof of an invalid calculation"]
        if out["kind"] in ("not-generated", "not-proved"):
            return [f"gave up ({out['kind']}) on a goal built valid"]
        if out["kind"] != "proved-derivation":
            return [f"answer {out['kind']}, expected an accepted derivation"]
        d = out["derivation"]
        problems = []
        if p.goal.family != "prf":
            problems += _check_derivation(lc, p.theory, d, p.data["ce"])
        for rule, count in expect.get("rule_counts", {}).items():
            if d.count_nodes(rule) != count:
                problems.append(f"{d.count_nodes(rule)} {rule} nodes, expected {count}")
        if "nodes" in expect and out["nodes"] != expect["nodes"]:
            problems.append(f"{out['nodes']} nodes, expected {expect['nodes']}")
        return problems


WORKLOADS = {w.name: w for w in (Convert(), Decide(), Certify())}
