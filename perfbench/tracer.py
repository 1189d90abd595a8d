"""Per-layer tracing of lcer from outside the package.

`Tracer.install` replaces the public entry points of each lcer module with
wrappers and rebinds every name under which a module imported them, so calls
between modules go through the wrappers too (`enumerate_satisfying` is bound
in models, equations, validity and proofs; `check_validity` in oracle,
validity and proofs).  Recursive calls also go through them, because a
module-level function finds itself through its module's globals.

Two kinds of wrapper:

* spans, for functions whose time matters: each call records (id, parent id,
  goal, name, start, end) in memory, and its self time is its duration minus
  the time its child spans cover.  A generator's span covers only the time
  spent inside its own iteration steps, not the consumer's work between them.
* counters, for the functions called millions of times (term construction,
  matching, replacement, substitution, constraint evaluation), which only
  count calls so the trace stays bounded.

Every wrapper also counts the exceptions that leave the function (`raised`),
except the ones a function documents as an outcome (`GenerationError` from
`generate_calc_proof`, counted as `errors`).
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute): attribute is a function name, or "Class.method"
SPANS = [
    ("syntax", "parse_theory"),
    ("syntax", "parse_term"),
    ("models", "UnderlyingModel.calc_normalize_steps"),
    ("models", "enumerate_satisfying"),
    ("oracle", "check_validity"),
    ("equations", "conversion_search"),
    ("equations", "rule_step_candidates"),
    ("validity", "check_ce_validity"),
    ("validity", "is_trivial"),
    ("proofs", "check_proof"),
    ("proofs", "generate_calc_proof"),
    ("proofs", "prove_heuristic"),
    ("algebra", "search_counter_model"),
    ("algebra", "check_is_model"),
]
COUNTERS = [
    ("terms", "App.__post_init__", "terms.App.new"),
    ("terms", "match", "terms.match.calls"),
    ("terms", "replace_at", "terms.replace_at.calls"),
    ("terms", "apply_subst", "terms.apply_subst.calls"),
    ("models", "UnderlyingModel.eval_constraint", "models.eval_constraint.calls"),
]
GENERATORS = {"models.enumerate_satisfying"}
# counts taken from a span's arguments or result, besides calls and raised
SPAN_STATS = {
    "models.enumerate_satisfying": ["yields"],
    "oracle.check_validity": ["valid", "invalid", "unknown"],
    "equations.conversion_search": ["found"],
    "equations.rule_step_candidates": ["results"],
    "validity.check_ce_validity": ["samples"],
    "proofs.check_proof": ["nodes", "rejected"],
    "proofs.generate_calc_proof": ["errors"],
    "proofs.prove_heuristic": ["found"],
    "algebra.search_counter_model": ["nodes", "found", "exhausted"],
}
LAYERS = ["terms", "models", "oracle", "equations", "validity", "proofs", "algebra", "syntax"]


def _short(attr: str) -> str:
    return attr.split(".")[-1]


class Tracer:
    def __init__(self) -> None:
        self.counts: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []  # (id, parent, goal, name, start, end)
        self.goal = ""
        self._stack: list[list] = []  # [span id, name, child seconds]
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- span bookkeeping -------------------------------------------------------

    def _enter(self, name: str) -> list:
        self._next_id += 1
        frame = [self._next_id, name, 0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        dur = end - start
        name = frame[1]
        self.self_s[name] += dur - frame[2]
        self.total_s[name] += dur
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        self.spans.append((frame[0], parent[0] if parent else 0, self.goal,
                           name, start, end))

    # -- wrappers ---------------------------------------------------------------

    def _span(self, name: str, fn, on_result, outcome_exc):
        tracer = self
        counts = self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            frame = tracer._enter(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._leave(frame, start, clock())
                if outcome_exc is not None and isinstance(exc, outcome_exc):
                    counts[name + ".errors"] += 1
                else:
                    counts[name + ".raised"] += 1
                raise
            tracer._leave(frame, start, clock())
            if on_result is not None:
                for stat, amount in on_result(args, result).items():
                    counts[f"{name}.{stat}"] += amount
            return result

        return wrapper

    def _generator(self, name: str, fn):
        tracer = self
        counts = self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            inner = fn(*args, **kwargs)
            try:
                while True:
                    frame = tracer._enter(name)
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        tracer._leave(frame, start, clock())
                        return
                    except BaseException:
                        tracer._leave(frame, start, clock())
                        counts[name + ".raised"] += 1
                        raise
                    tracer._leave(frame, start, clock())
                    counts[name + ".yields"] += 1
                    yield item
            finally:
                inner.close()

        return wrapper

    def _counter(self, key: str, fn):
        counts = self.counts
        raised = key.rsplit(".", 1)[0] + ".raised"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                counts[raised] += 1
                raise

        return wrapper

    # -- installation -----------------------------------------------------------

    def install(self, lcer) -> None:
        """Wrap lcer's entry points; `uninstall` puts the originals back."""
        modules = {name: sys.modules[f"lcer.{name}"] for name in LAYERS}
        proofs = modules["proofs"]
        hooks = {
            "oracle.check_validity": lambda a, r: {r.status: 1},
            "equations.conversion_search": lambda a, r: {"found": r is not None},
            "equations.rule_step_candidates": lambda a, r: {"results": len(r)},
            "validity.check_ce_validity": lambda a, r: {"samples": r.samples},
            "proofs.check_proof": lambda a, r: {"nodes": a[1].count_nodes(),
                                                "rejected": r.verdict == "rejected"},
            "proofs.prove_heuristic": lambda a, r: {"found": r is not None},
            "algebra.search_counter_model": lambda a, r: {
                "nodes": r.nodes, "found": r.algebra is not None,
                "exhausted": bool(r.exhausted)},
        }
        replacements = {}  # id(original) -> wrapper, for module-level functions
        for mod_name, attr in SPANS:
            name = f"{mod_name}.{_short(attr)}"
            owner, original = _resolve(modules[mod_name], attr)
            if name in GENERATORS:
                wrapped = self._generator(name, original)
            else:
                outcome = proofs.GenerationError if attr == "generate_calc_proof" else None
                wrapped = self._span(name, original, hooks.get(name), outcome)
            self._replace(owner, attr, original, wrapped, replacements)
        for mod_name, attr, key in COUNTERS:
            owner, original = _resolve(modules[mod_name], attr)
            self._replace(owner, attr, original, self._counter(key, original), replacements)
        # rebind names imported elsewhere, including the package namespace
        for module in [lcer] + [m for n, m in sys.modules.items() if n.startswith("lcer.")]:
            for key, value in list(vars(module).items()):
                wrapped = replacements.get(id(value))
                if wrapped is not None:
                    self._undo.append((module, key, value))
                    setattr(module, key, wrapped)

    def _replace(self, owner, attr, original, wrapped, replacements) -> None:
        if "." in attr:  # a method: patch the class attribute
            cls_attr = _short(attr)
            self._undo.append((owner, cls_attr, original))
            setattr(owner, cls_attr, wrapped)
        else:
            replacements[id(original)] = wrapped

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Counts, self times and the derived rates, by metric name."""
        out: dict[str, float] = dict(self.counts)
        for name, seconds in self.self_s.items():
            out[name + ".self_s"] = seconds
        search_ids = {s[0] for s in self.spans if s[3] == "equations.conversion_search"}
        expansions = sum(1 for s in self.spans
                         if s[3] == "equations.rule_step_candidates" and s[1] in search_ids)
        search_s = self.total_s.get("equations.conversion_search", 0.0)
        out["equations.expansions_per_s"] = expansions / search_s if search_s else 0.0
        check_s = self.total_s.get("proofs.check_proof", 0.0)
        nodes = self.counts.get("proofs.check_proof.nodes", 0)
        out["proofs.check_nodes_per_s"] = nodes / check_s if check_s else 0.0
        return out

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_s.items():
            out[name.split(".")[0]] += seconds
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tgoal\tname\tstart\tend\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")


def _resolve(module, attr):
    if "." in attr:
        cls_name, method = attr.split(".")
        cls = getattr(module, cls_name)
        return cls, vars(cls)[method]
    return module, getattr(module, attr)


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric of a traced run, with its unit."""
    names = [(key, "count") for _, _, key in COUNTERS]
    names += [(key.rsplit(".", 1)[0] + ".raised", "count") for _, _, key in COUNTERS]
    for mod, attr in SPANS:
        name = f"{mod}.{_short(attr)}"
        names += [(f"{name}.{stat}", "count")
                  for stat in ["calls", "raised"] + SPAN_STATS.get(name, [])]
        names.append((f"{name}.self_s", "s"))
    names += [("equations.expansions_per_s", "1/s"), ("proofs.check_nodes_per_s", "1/s"),
              ("trace.overhead_frac", "ratio")]
    return names
