"""Record bench/reference.json: the expected outcome of every fixed-input run.

Usage, from the repository root, once per change of the benchmark's runs:

    python3 bench/record.py [--commit SHA]

Each run of each workload is made through ``kgraphkit.cli.main`` on the
generated inputs and reduced to its outcome projection (see
workloads.project).  The digest, item count, exit code and the ids of the
expected non-passing checks are stored.  Before anything is stored, every
recorded combinatorial result is cross-checked against the brute-force
oracles (``mce_set_brute``, ``is_exhaustive_brute``), seeded runs are
recorded under two seeds that must agree, and the seeded ``vee`` and
``exhaustive`` constructions are checked against the oracles on both seeds.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from kgraphkit import compose, paths_up_to_degree  # noqa: E402
from kgraphkit.alignment import is_exhaustive_brute, mce_set_brute  # noqa: E402
from kgraphkit.cli import load_graph, main as cli_main  # noqa: E402


class Mismatch(Exception):
    pass


def need(ok, what) -> None:
    if not ok:
        raise Mismatch(f"oracle disagrees: {what}")


def cli(argv: list[str]) -> tuple[int, object]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    return code, json.loads(out.getvalue())["results"]


def check_fe(g, v: str, sets: list) -> None:
    for labels in sets:
        E = [g.parse_path(x) for x in labels]
        need(is_exhaustive_brute(g, v, E).exhaustive, labels)
        for drop in range(len(E)):
            rest = E[:drop] + E[drop + 1:]
            need(not rest or not is_exhaustive_brute(g, v, rest).exhaustive, labels)


def check_aperiodic(g, results: dict) -> None:
    bound = results["tau_bound"]
    for pair in results["pairs"]:
        mu, nu = g.parse_path(pair["mu"]), g.parse_path(pair["nu"])
        if pair["tau"] is not None:
            tau = g.parse_path(pair["tau"])
            need(mce_set_brute(g, [compose(mu, tau), compose(nu, tau)]) == [], pair)
            continue
        for tau in paths_up_to_degree(g, bound, range_vertex=mu.source_vertex):
            need(mce_set_brute(g, [compose(mu, tau), compose(nu, tau)]), (pair, tau))


def check_vee(g, labels: list[str], got: list[str]) -> None:
    F = [g.parse_path(x) for x in labels]
    want = set()
    for size in range(1, len(F) + 1):
        for G in itertools.combinations(F, size):
            want.update(p.label() for p in mce_set_brute(g, list(G)))
    need(sorted(want) == sorted(got), (labels, got))


def record(workload: str, commit_runs: dict) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp)
        first = workloads.plan(workload, 0, 0)
        workloads.write_inputs(inputs, first)
        graphs = {n: load_graph(str(inputs / f"{n}.kg")) for n in first["graphs"]}
        seeded = {}
        for seed in (0, 1):
            for run in workloads.plan(workload, seed, 0)["runs"]:
                argv = workloads.resolve_argv(run["argv"], inputs)
                code, results = cli(argv)
                projection, statuses = workloads.project(run["kind"], results)
                g = graphs[run["argv"][1]]
                if "expect" in run:
                    # seeded construction: check it against the oracles
                    if run["kind"] == "vee":
                        check_vee(g, run["argv"][2:], results)
                    else:
                        E = [g.parse_path(x) for x in run["argv"][3:]]
                        need(is_exhaustive_brute(g, run["argv"][2], E).exhaustive, run["name"])
                    outcome = {"code": code, "digest": workloads.digest(projection),
                               "count": workloads.count(run["kind"], projection),
                               "statuses": statuses}
                    need(workloads.failed_outcomes(outcome, run["expect"]) == 0, run["name"])
                    continue
                if seed == 0:
                    if run["kind"] == "fe":
                        check_fe(g, run["argv"][2], results)
                    elif run["kind"] == "aperiodic":
                        check_aperiodic(g, results)
                entry = {"digest": workloads.digest(projection), "code": code,
                         "count": workloads.count(run["kind"], projection)}
                if statuses is not None:
                    entry["nonpass"] = {i: s for i, s in statuses
                                        if s not in workloads.PASSING}
                if run["name"] in seeded:
                    need(seeded[run["name"]] == entry, f"{run['name']} depends on the seed")
                seeded[run["name"]] = entry
        commit_runs.update(seeded)
        for name, entry in seeded.items():
            print(f"{workload:14s} {name:28s} code={entry['code']} count={entry['count']} "
                  f"nonpass={len(entry.get('nonpass', {}))}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", default="unknown",
                        help="commit the reference describes, stored for the record")
    args = parser.parse_args()
    runs: dict = {}
    for workload in workloads.WORKLOADS:
        record(workload, runs)
    out = {"recorded_at": args.commit, "runs": runs}
    (HERE / "reference.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n",
                                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
