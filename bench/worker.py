"""One repeat of one workload in a fresh interpreter.

Run by run.py, never by hand: ``worker.py PLAN.json [--setup-only] [--trace
SPANS_FILE]``.  The parent passes its monotonic clock reading at spawn time in
KGRAPHKIT_BENCH_SPAWN, so set-up is timed from interpreter start.  Set-up
ends once ``kgraphkit.cli`` is imported and every graph and seed file of the
workload has been loaded and validated.  The CLI runs then go through
``kgraphkit.cli.main`` one after another in this process; their stdout is
captured in memory and reduced to outcome projections.  The result is one
JSON object on this process's stdout.

Times are reported twice: ``*_raw_s`` as measured, and ``setup_s``/``wall_s``
rescaled to reference machine speed by speed.py.  Set-up is rescaled by
probes taken right after it; untraced CLI runs by a Speedometer probing
during them.  Traced runs are not probed, so that probes do not land in
spans; their ``wall_s`` is the raw time.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 10   # probes after set-up, about 20 ms


def main(argv: list[str]) -> int:
    spawned = float(os.environ["KGRAPHKIT_BENCH_SPAWN"])
    plan_file = Path(argv[0])
    setup_only = "--setup-only" in argv
    spans_file = Path(argv[argv.index("--trace") + 1]) if "--trace" in argv else None

    sys.path.insert(0, str(SRC))
    import kgraphkit.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"kgraphkit imported from {cli.__file__}, not from {SRC}")
    import speed
    import workloads

    plan = json.loads(plan_file.read_text(encoding="utf-8"))
    inputs = plan_file.parent

    tracer = None
    if spans_file is not None:
        import spans

        tracer = spans.Tracer()
        missing = tracer.install()
        if missing:
            sys.stderr.write(f"not traced (absent): {', '.join(missing)}\n")

    graphs = {name: cli.load_graph(str(inputs / f"{name}.kg")) for name in plan["graphs"]}
    for graph, seeds in plan["seed_files"]:
        cli.load_seed_handles(graphs[graph], str(inputs / f"{seeds}.json"))
    setup_raw_s = time.monotonic() - spawned
    result = {"setup_s": speed.scale(setup_raw_s, speed.calibrate(SETUP_PROBES)),
              "setup_raw_s": setup_raw_s}
    if setup_only:
        print(json.dumps(result))
        return 0

    outcomes = []
    wall = raw_wall = 0.0
    for run in plan["runs"]:
        argv_ = workloads.resolve_argv(run["argv"], inputs)
        out, err = io.StringIO(), io.StringIO()
        outcome = {"name": run["name"]}
        meter = speed.Speedometer()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is not None:
                    with tracer.span(f"run:{run['name']}"):
                        code = cli.main(argv_)
                else:
                    with meter:
                        code = cli.main(argv_)
        except Exception as exc:  # a raising run is a failed outcome, not a crash
            outcome.update(code=None, error=f"{type(exc).__name__}: {exc}")
        else:
            outcome["code"] = code
        elapsed = time.perf_counter() - t0
        if tracer is None:
            wall, raw_wall = wall + meter.scaled_s, raw_wall + meter.raw_s
        else:
            wall, raw_wall = wall + elapsed, raw_wall + elapsed
        if "error" in outcome:
            outcomes.append(outcome)
            continue
        try:
            projection, statuses = workloads.project(run["kind"],
                                                     json.loads(out.getvalue())["results"])
        except (ValueError, KeyError, TypeError) as exc:
            outcome["error"] = f"unreadable report: {type(exc).__name__}: {exc}"
            outcomes.append(outcome)
            continue
        outcome.update(digest=workloads.digest(projection), statuses=statuses,
                       count=workloads.count(run["kind"], projection))
        outcomes.append(outcome)

    result.update(wall_s=wall, wall_raw_s=raw_wall, outcomes=outcomes,
                  rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(raw_wall)
        tracer.write(spans_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
