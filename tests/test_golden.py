"""CLI stdout is byte-identical to recorded reports on exact runs.

Each run's stdout is compared byte for byte with the gzip-compressed recording
``tests/data/golden/<name>.json.gz`` (read one with ``zcat``; the omega22
phi2 suite alone prints 15,625 checks).  Only exact runs are recorded: claim1
and couniversal print float norms that depend on the platform's linear
algebra.  Graph and seed files are written to a scratch directory and named
relative to it, so the ``config`` block of each report does not depend on
where the suite runs.

To re-record after an intended output change::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import os
from pathlib import Path

import pytest

from kgraphkit import kgraph_to_dict, make_bouquet, make_cycle, make_omega
from kgraphkit.cli import main

from conftest import flip_presentation

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

EXACT_SUITES = "tck,ck,lem1,lem3,phi2,exp,diag"

# name -> (argv, exit code)
RUNS = {
    "fe-bouquet2": (["fe", "bouquet2.kg", "v", "--cap", "2"], 0),
    "fe-flip": (["fe", "flip.kg", "v", "--cap", "1,1"], 0),
    "fe-omega22": (["fe", "omega22.kg", "v0_0", "--cap", "1,1"], 0),
    "vee-bouquet2": (["vee", "bouquet2.kg", "a", "a.b", "b", "b.a.a"], 0),
    "vee-flip": (["vee", "flip.kg", "a", "f", "b.f", "a.b"], 0),
    "vee-omega22": (["vee", "omega22.kg", "e1_0_0", "e2_0_0", "e1_0_0.e1_1_0"], 0),
    "aperiodic-bouquet2": (["aperiodic", "bouquet2.kg", "--pair-bound", "2",
                            "--tau-bound", "2"], 0),
    "aperiodic-flip": (["aperiodic", "flip.kg", "--pair-bound", "1,1",
                        "--tau-bound", "1,1"], 0),
    "aperiodic-omega22": (["aperiodic", "omega22.kg", "--pair-bound", "1,1",
                           "--tau-bound", "1,1"], 0),
    # PeriodicEvidence: every tau candidate is tried and none separates
    "aperiodic-c3": (["aperiodic", "c3.kg", "--pair-bound", "3", "--tau-bound", "3"], 1),
    "boundary-check-bouquet2": (["boundary-check", "bouquet2.kg", "--seeds", "tm.json"], 0),
    "rep-verify-boundary-bouquet2": (["rep-verify", "bouquet2.kg", "--family", "boundary",
                                      "--seeds", "tm.json", "--suite", "tck,ck,diag"], 0),
    "rep-verify-fock-bouquet2": (["rep-verify", "bouquet2.kg", "--cap", "4",
                                  "--gen-cap", "1", "--seeds", "tm.json", "--window", "32",
                                  "--suite", EXACT_SUITES, "--suite-size", "2"], 1),
    "rep-verify-boundary-omega22": (["rep-verify", "omega22.kg", "--family", "boundary",
                                     "--cap", "2,2", "--gen-cap", "1,1", "--fe-cap", "1,1",
                                     "--window", "2,2", "--suite", EXACT_SUITES,
                                     "--suite-size", "2"], 0),
}


def write_inputs(directory: Path) -> None:
    files = {
        "bouquet2.kg": kgraph_to_dict(make_bouquet(2)),
        "flip.kg": flip_presentation(),
        "omega22.kg": kgraph_to_dict(make_omega(2, (2, 2))),
        "c3.kg": kgraph_to_dict(make_cycle(3)),
        "tm.json": {"handles": [{"kind": "substitution", "seed": "a", "shifts": 4,
                                 "rules": {"a": "ab", "b": "ba"}}]},
    }
    for name, data in files.items():
        (directory / name).write_text(json.dumps(data), encoding="utf-8")


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_inputs(directory)
    return directory


@pytest.mark.parametrize("name", sorted(RUNS))
def test_stdout_matches_recording(inputs, monkeypatch, name):
    argv, want_code = RUNS[name]
    monkeypatch.chdir(inputs)
    code, out = run(argv)
    assert code == want_code
    assert out == gzip.decompress((GOLDEN / f"{name}.json.gz").read_bytes()).decode("utf-8")


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        here = os.getcwd()
        os.chdir(tmp)
        try:
            for name, (argv, _) in RUNS.items():
                code, out = run(argv)
                (GOLDEN / f"{name}.json.gz").write_bytes(
                    gzip.compress(out.encode("utf-8"), mtime=0))
                print(name, code)
        finally:
            os.chdir(here)
