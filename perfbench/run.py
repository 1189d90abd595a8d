"""lcer benchmark: a seeded goal pool, timed to a checked verdict.

    python3 perfbench/run.py --workload convert --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; lcer is imported from `src/`.  A run
is one process and one client in a closed loop: the next goal is issued only
when the previous verdict has returned.  The seed gives one pool of about a
hundred distinct goals (see goals.py), and the run issues the whole pool in
passes until --seconds have passed (at least MIN_PASSES).  Each pass starts
from a fresh import of lcer and a fresh parse of every theory and goal, so no
state of lcer carries over from one pass to the next, and the set-up is timed
on every pass.  Every time is converted to reference time (calibrate.py),
which keeps the slowdowns of a shared machine, seconds to minutes long, out
of the result; a goal's time is the median of its passes.  Answers are
checked after the timed loop: the last pass's certificates in full, and every
pass's verdict against the others.

The interpreter is re-started with PYTHONHASHSEED set to the seed, so the
iteration order of every set and dict is the same in every run of a seed.

--trace 0 prints the end-to-end metrics.  --trace 1 runs TRACE_PASSES passes
untraced and then with every lcer entry point wrapped (see tracer.py),
compares the verdicts, and prints the per-layer metrics, each layer's share
of self time, and the tracing overhead.  Spans and the full result are
written under .perfbench/ in the checkout.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; attempted and failed count distinct goals.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import goals as G  # noqa: E402
from calibrate import normalize, timed_reference  # noqa: E402
from tracer import Tracer, metric_names  # noqa: E402
from workloads import DECIDED_KINDS, NOT_WRONG, WORKLOADS, signature  # noqa: E402

SETUP_REPEATS = 5  # set-ups before the first pass; every pass adds one more
MIN_PASSES = 3
TRACE_PASSES = 2
OUT_DIR = ROOT / ".perfbench"
# where the profiles that chose each workload put the time (see NOTES.md)
PREDICTED = {
    "convert": "equations (rule_step_candidates) first, then models (calc normalization)",
    "decide": "validity and equations (sampled searches), with algebra doing real work",
    "certify": "oracle (check_validity) and models (enumerate_satisfying) first",
}


def _purge_lcer() -> None:
    for name in [n for n in sys.modules if n == "lcer" or n.startswith("lcer.")]:
        del sys.modules[name]


def _prepare(workload, lc, texts, pool):
    theories = {name: lc.parse_theory(text) for name, text in texts.items()}
    return [workload.prepare(lc, theories, g) for g in pool]


def fresh(workload, texts, pool, tracer=None):
    """Import lcer anew and parse every theory and goal; returns the seconds
    this took, the module and the prepared pool.  A tracer, if given, is
    installed before parsing and left installed."""
    _purge_lcer()
    gc.collect()  # each set-up starts from the same heap
    start = time.perf_counter()
    lc = importlib.import_module("lcer")
    if tracer is not None:
        tracer.install(lc)
    prepared = _prepare(workload, lc, texts, pool)
    return time.perf_counter() - start, lc, prepared


def run_pass(workload, lc, prepared, tracer=None):
    """One closed-loop pass over the pool: the outcomes, the latencies in
    milliseconds, and the reference's times (calibrate.py) taken before each
    goal and after the last, all in pool order."""
    outcomes, ms, refs = [], [], []
    # the harness's own objects (parsed goals) stay out of the collector's way
    gc.collect()
    gc.freeze()
    for p in prepared:
        if tracer is not None:
            tracer.goal = p.goal.gid
        refs.append(timed_reference())
        t0 = time.perf_counter()
        try:
            outcome = workload.run(lc, p)
        except Exception as exc:  # a crash is an answer the check counts as failed
            outcome = {"kind": "raised", "error": f"{type(exc).__name__}: {exc}"}
        ms.append((time.perf_counter() - t0) * 1e3)
        outcomes.append(outcome)
    refs.append(timed_reference())
    gc.unfreeze()
    return outcomes, ms, refs


def check(workload, lc, prepared, outcomes, others=()):
    """Answer checks, outside any timed region: {goal id: [problem, ...]}.
    `outcomes` are checked in full with `lc`, the module that made them; each
    list in `others` (earlier passes) must give the same verdicts."""
    failures = {}
    for i, (p, outcome) in enumerate(zip(prepared, outcomes)):
        problems = workload.check(lc, p, outcome)
        for other in others:
            if signature(other[i]) != signature(outcome):
                problems.append(f"verdict changed between passes: {signature(other[i])}, "
                                f"then {signature(outcome)}")
                break
        if problems:
            failures[p.goal.gid] = problems
    return failures


def environment(goal_digest: str) -> dict:
    src = sorted((ROOT / "src" / "lcer").glob("*.py"))
    h = hashlib.sha256()
    for path in src:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown"  # the benchmark may run from an export without .git
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            ref = ref_path.read_text().strip() if ref_path.is_file() else ref
        commit = ref
    return {"input_sha256": goal_digest, "source_sha256": h.hexdigest(), "commit": commit,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg": os.getloadavg()}


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _times(per_goal, setups):
    """setup_s, goals_per_s and the verdict percentiles, from per-goal
    milliseconds and set-up seconds."""
    deciles = statistics.quantiles(per_goal, n=10, method="inclusive")
    return {"setup_s": statistics.median(setups),
            "goals_per_s": len(per_goal) / (sum(per_goal) / 1e3),
            "verdict_ms_p50": deciles[4], "verdict_ms_p90": deciles[8]}


def end_to_end(setups, outcomes, passes, failures):
    """A goal's time is the median over the passes of its reference time
    (calibrate.normalize); the percentiles are taken over those per-goal
    times, goals_per_s is the pool's size over their sum, and setup_s is the
    median of the set-ups in reference time.  The same figures in plain
    wall-clock time are printed beside them, unbounded.  Returns the
    metrics, the figures printed beside them, and each goal's time."""
    n = len(outcomes)
    per_goal = [statistics.median(ref[i] for _, ref in passes) for i in range(n)]
    times = _times(per_goal, [ref for _, ref in setups])
    wall = _times([statistics.median(ms[i] for ms, _ in passes) for i in range(n)],
                  [s for s, _ in setups])
    units = {"setup_s": "s", "goals_per_s": "1/s", "verdict_ms_p50": "ms", "verdict_ms_p90": "ms"}
    decided = sum(1 for o in outcomes if o["kind"] in DECIDED_KINDS)
    metrics = {name: _metric(value, units[name]) for name, value in times.items()}
    metrics["decided_frac"] = _metric(decided / n, "ratio")
    metrics["peak_rss_mb"] = _metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    extra = {f"wall.{name}": _metric(value, units[name]) for name, value in wall.items()}
    extra.update(failed_frac=_metric(len(failures) / n, "ratio"), goals=_metric(n, "count"),
                 passes=_metric(len(passes), "count"))
    return metrics, extra, per_goal


def timed(workload, texts, pool, seconds):
    setups = []  # (wall seconds, reference seconds) of each set-up

    def set_up():
        before = timed_reference()
        wall, lc, prepared = fresh(workload, texts, pool)
        setups.append((wall, normalize(wall, before, timed_reference())))
        return lc, prepared

    for _ in range(SETUP_REPEATS):
        set_up()
    passes, earlier = [], []  # (wall ms, reference ms) per goal; earlier verdicts
    start = time.perf_counter()
    while True:
        lc, prepared = set_up()
        outcomes, ms, refs = run_pass(workload, lc, prepared)
        passes.append((ms, [normalize(t, refs[i], refs[i + 1]) for i, t in enumerate(ms)]))
        elapsed = time.perf_counter() - start
        # start another pass only if it should end within --seconds
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
        earlier.append([{k: o[k] for k in o if k in (
            "kind", "steps", "samples", "nodes", "algebra_nodes")} for o in outcomes])
    failures = check(workload, lc, prepared, outcomes, earlier)
    metrics, extra, per_goal = end_to_end(setups, outcomes, passes, failures)
    latency = {p.goal.gid: ms for p, ms in zip(prepared, per_goal)}
    return prepared, failures, metrics, extra, latency


def traced(workload, texts, pool):
    """TRACE_PASSES times a pass untraced, then a pass traced, so that drift
    of the machine hits both alike.  The traced pass's set-up runs under the
    tracer too, to count the syntax layer."""
    tracer = Tracer()
    plain_wall = wall = 0.0
    failures = {}
    for _ in range(TRACE_PASSES):
        _, lc, prepared = fresh(workload, texts, pool)
        start = time.perf_counter()
        plain, _, _ = run_pass(workload, lc, prepared)
        plain_wall += time.perf_counter() - start
        try:
            _, lc, prepared = fresh(workload, texts, pool, tracer=tracer)
            start = time.perf_counter()
            outcomes, _, _ = run_pass(workload, lc, prepared, tracer=tracer)
            wall += time.perf_counter() - start
        finally:
            tracer.uninstall()
        for gid, problems in check(workload, lc, prepared, outcomes, [plain]).items():
            failures.setdefault(gid, problems)
    values = tracer.metrics()
    values["trace.overhead_frac"] = wall / plain_wall - 1
    metrics = {name: _metric(values.get(name, 0), unit) for name, unit in metric_names()}
    shares = {layer: s / wall for layer, s in tracer.layer_self_s().items()
              if layer != "syntax"}  # parsing happens outside the timed passes
    shares["outside spans"] = 1 - sum(shares.values())
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_spans(OUT_DIR / f"spans-{workload.name}.tsv")
    print(f"traced {TRACE_PASSES} passes of {len(pool)} goals: {wall:.3f} s traced, "
          f"{plain_wall:.3f} s untraced")
    print("share of traced wall time by layer self time "
          f"(predicted: {PREDICTED[workload.name]}):")
    for layer, share in shares.items():
        print(f"  {layer:14s} {share:7.1%}")
    return prepared, failures, metrics, {}, {}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "lcer" / "__init__.py").is_file():
        print(f"lcer sources not found under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    hash_seed = str(args.seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv],
                  {**os.environ, "PYTHONHASHSEED": hash_seed})
    sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS[args.workload]
    pool = workload.pool(random.Random(f"{args.workload}:{args.seed}"))
    texts = {name: G.input_text(name) for name in sorted(
        {g.theory for g in pool if g.theory != "inline"})}
    info = environment(G.digest(pool))
    print(f"lcer benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("environment: " + json.dumps(info))

    if args.trace:
        prepared, failures, metrics, extra, latency = traced(workload, texts, pool)
    else:
        prepared, failures, metrics, extra, latency = timed(workload, texts, pool, args.seconds)
    for name, m in {**metrics, **extra}.items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    for gid, problems in sorted(failures.items()):
        print(f"FAILED {gid}: {'; '.join(problems)}")
    wrong = {gid: ps for gid, ps in failures.items()
             if not all(p.startswith(NOT_WRONG) for p in ps)}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"environment": info, "metrics": {**metrics, **extra},
                    "failures": failures, "ms_by_goal": latency},
                   indent=1, default=str))
    print(json.dumps({"correct": not wrong, "attempted": len(prepared),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
