"""kgraphkit benchmark: verification workloads timed end to end and per layer.

Usage, from the repository root:

    python3 bench/run.py --workload combinatorics|fock|boundary \
        --seed N --seconds S --trace 0|1

A closed loop with one client.  Each repeat of a workload is a fresh
interpreter (bench/worker.py) that runs the workload's CLI runs one after
another; repeats start only after the previous one ended, and no two
processes run at once.

With ``--trace 0`` the run repeats the workload until ``--seconds`` have
passed (at least MIN_REPEATS times), starting a few set-up-only interpreters
before each repeat, and reports the end-to-end metrics as medians over
repeats (set-up: over every interpreter started).  Repeat r draws its
seeded inputs from (seed, r).  The times are rescaled to reference machine
speed by bench/speed.py, which probes the machine while the program runs;
the raw times go to stderr beside them.

With ``--trace 1`` it runs repeat 0 once untraced and then traced
(bench/spans.py wraps each layer's public functions) until ``--seconds`` have
passed, and reports the per-layer metrics, the tracing overhead and a
self-test: traced and untraced runs of one input must give identical outcome
digests and check counts.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  A readable summary goes to stderr.  The program is
imported from src/ next to this directory; the benchmark exits with code 2
and prints no result when it is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_ONLY = 3     # set-up-only interpreters before each untraced repeat
MIN_REPEATS = 3    # workload repeats per untraced run, even past --seconds
TIME_LIMIT = 170   # seconds one benchmark run may take before it gives up


class BenchError(Exception):
    pass


def spawn(args: list[str], seed: int, repeat: int, deadline: float) -> dict:
    """Start one worker, wait for it, and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED=str((seed * 7919 + repeat) % 2**32))
    env["KGRAPHKIT_BENCH_SPAWN"] = repr(time.monotonic())
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} ran past the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def write_plan(work: Path, workload: str, seed: int, repeat: int) -> Path:
    plan = workloads.plan(workload, seed, repeat)
    if repeat == 0:
        workloads.write_inputs(work, plan)
    path = work / f"plan-{repeat}.json"
    path.write_text(json.dumps(plan), encoding="utf-8")
    return path


def expectations(plan_file: Path, reference: dict) -> dict:
    plan = json.loads(plan_file.read_text(encoding="utf-8"))
    return {run["name"]: run.get("expect") or reference["runs"][run["name"]]
            for run in plan["runs"]}


def score(result: dict, expect: dict) -> tuple[int, int]:
    """(attempted, failed) outcomes of one workload repeat."""
    attempted = sum(e["count"] for e in expect.values())
    failed = 0
    names = [o["name"] for o in result["outcomes"]]
    if names != list(expect):
        raise BenchError(f"worker ran {names}, plan has {list(expect)}")
    for outcome in result["outcomes"]:
        bad = workloads.failed_outcomes(outcome, expect[outcome["name"]])
        if bad:
            sys.stderr.write(f"FAILED {outcome['name']}: {bad} outcome(s) "
                             f"{outcome.get('error') or ''}\n")
        failed += bad
    return attempted, failed


def checks_done(result: dict) -> int:
    return sum(o.get("count", 0) for o in result["outcomes"])


def fingerprint(result: dict) -> list:
    return [(o["name"], o.get("code"), o.get("digest"), o.get("count"))
            for o in result["outcomes"]]


def untraced(work: Path, args, reference: dict, deadline: float) -> dict:
    started = time.monotonic()
    setups, raw_setups, results, attempted, failed = [], [], [], 0, 0
    while len(results) < MIN_REPEATS or time.monotonic() - started < args.seconds:
        r = len(results)
        plan = write_plan(work, args.workload, args.seed, r)
        # set-up-only samples are spread over the run, so a slow phase of the
        # machine cannot own all of them
        for i in range(SETUP_ONLY):
            res = spawn([str(plan), "--setup-only"], args.seed, -1 - i, deadline)
            setups.append(res["setup_s"])
            raw_setups.append(res["setup_raw_s"])
        res = spawn([str(plan)], args.seed, r, deadline)
        a, f = score(res, expectations(plan, reference))
        attempted, failed = attempted + a, failed + f
        results.append(res)
        setups.append(res["setup_s"])
        raw_setups.append(res["setup_raw_s"])
    walls = [r["wall_s"] for r in results]
    checks = [checks_done(r) for r in results]
    summary(args, f"{len(results)} repeats, {len(setups)} set-ups", {
        "wall_s": walls, "wall_raw_s": [r["wall_raw_s"] for r in results],
        "setup_s": setups, "setup_raw_s": raw_setups,
        "peak_rss_mb": [r["rss_mb"] for r in results], "checks_done": checks})
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in results), "MB"),
        "checks_done": (statistics.median(checks), "count"),
    }
    return {"attempted": attempted, "failed": failed, "correct": failed == 0,
            "metrics": metrics}


def traced(work: Path, args, reference: dict, deadline: float) -> dict:
    started = time.monotonic()
    plan = write_plan(work, args.workload, args.seed, 0)
    expect = expectations(plan, reference)
    trace_dir = HERE / ".work" / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    spans_file = trace_dir / f"{args.workload}.spans"

    base = spawn([str(plan)], args.seed, 0, deadline)
    attempted, failed = score(base, expect)
    runs = []
    while not runs or time.monotonic() - started < args.seconds:
        res = spawn([str(plan), "--trace", str(spans_file)], args.seed, 0, deadline)
        a, f = score(res, expect)
        attempted, failed = attempted + a, failed + f
        runs.append(res)
    same = all(fingerprint(r) == fingerprint(base) for r in runs)
    if not same:
        sys.stderr.write("SELF-TEST FAILED: traced and untraced outcomes differ\n")
    metrics = {}
    for name, unit, _ in spans.metric_names():
        values = [r["layers"][name] for r in runs if name in r["layers"]]
        if values:
            metrics[name] = (statistics.median(values), unit)
    for name, value in spans.src_lines(ROOT / "src").items():
        metrics[name] = (value, "lines")
    traced_wall = statistics.median(r["wall_s"] for r in runs)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_ratio"] = (traced_wall / base["wall_raw_s"], "ratio")
    summary(args, f"{len(runs)} traced repeats, spans in {spans_file.relative_to(ROOT)}",
            {"untraced wall_raw_s": [base["wall_raw_s"]],
             "traced wall_s": [r["wall_s"] for r in runs]})
    layer_table(metrics)
    return {"attempted": attempted, "failed": failed, "correct": failed == 0 and same,
            "metrics": metrics}


def summary(args, what: str, samples: dict) -> None:
    sys.stderr.write(f"{args.workload} seed {args.seed}: {what}\n")
    for name, values in samples.items():
        q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
        sys.stderr.write(f"  {name:16s} n={len(values):2d} median={statistics.median(values):.4f} "
                         f"q1={q[0]:.4f} q3={q[2]:.4f} max={max(values):.4f}\n")


def layer_table(metrics: dict) -> None:
    for layer, fns in spans.LAYERS.items():
        share = metrics[f"{layer}.incl_share"][0]
        sys.stderr.write(f"  {layer}: inclusive share {share:.3f}\n")
        for fn in fns:
            key = f"{layer}.{fn}"
            calls = metrics[f"{key}.calls"][0]
            if calls:
                extra = " ".join(f"{m.rsplit('.', 1)[1]}={metrics[m][0]:.4g}" for m in metrics
                                 if m.startswith(key + ".") and m.rsplit(".", 1)[1]
                                 not in ("calls", "self_share"))
                sys.stderr.write(f"    {fn:32s} calls={calls:<9.0f} "
                                 f"self_share={metrics[key + '.self_share'][0]:.4f} {extra}\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "kgraphkit" / "cli.py").is_file():
        sys.stderr.write(f"error: no kgraphkit sources under {ROOT / 'src'}\n")
        return 2
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    deadline = time.monotonic() + TIME_LIMIT
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        body = (traced if args.trace else untraced)(work, args, reference, deadline)
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    body["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in body["metrics"].items()}
    print(json.dumps({"correct": body["correct"], "attempted": body["attempted"],
                      "failed": body["failed"], "metrics": body["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
