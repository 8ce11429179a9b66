"""Workload definitions: generated inputs, the CLI runs, and their outcome gates.

Everything here is plain data built with the standard library, so the inputs
do not depend on the program under test.  A workload is a fixed sequence of
``kgraphkit`` CLI runs.  The seed picks the random boundary tables
(``--seed``), the 15-path ``vee`` set and the ``exhaustive`` member sets; it
never changes the shape of a run (degrees, caps, set sizes), so every seed
asks for the same kind and amount of combinatorial work.  The fock workload
takes nothing from the seed (see CLAIM1_TABLE_SEED).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from pathlib import Path

WORKLOADS = ("combinatorics", "fock", "boundary")

# Statuses that pass.  The only expected other outcomes are recorded per run
# in reference.json: CK gap products on Fock families (the path-space family
# is Toeplitz, not Cuntz-Krieger) and PeriodicEvidence on c3 and flip.
PASSING = ("pass", "heuristic-pass")

# The fock claim1 table is the same for every seed and repeat.  Power
# iteration on a random table takes 1.3 s to over 3 s depending on the
# table's spectrum, so a seeded table would let the seed change the work.
CLAIM1_TABLE_SEED = 1


# -- graph presentations -------------------------------------------------------


def bouquet(loops: int) -> dict:
    names = "abcdefghijklmnopqrstuvwxyz"[:loops]
    return {"rank": 1, "vertices": ["v"],
            "edges": [{"name": n, "color": 1, "range": "v", "source": "v"} for n in names],
            "squares": []}


def cycle(n: int) -> dict:
    return {"rank": 1, "vertices": [f"v{i}" for i in range(n)],
            "edges": [{"name": f"e{i}", "color": 1, "range": f"v{i}",
                       "source": f"v{(i + 1) % n}"} for i in range(n)],
            "squares": []}


def flip() -> dict:
    """Single-vertex 2-graph whose red edge f swaps the blue letters a and b."""
    loops = [("a", 1), ("b", 1), ("f", 2)]
    return {"rank": 2, "vertices": ["v"],
            "edges": [{"name": n, "color": c, "range": "v", "source": "v"} for n, c in loops],
            "squares": [{"top": ["a", "f"], "bottom": ["f", "b"]},
                        {"top": ["b", "f"], "bottom": ["f", "a"]}]}


def _ov(p) -> str:
    return "v" + "_".join(map(str, p))


def _oe(color: int, p) -> str:
    return f"e{color}_" + "_".join(map(str, p))


def _step(p, color: int) -> tuple:
    return tuple(c + (1 if i == color - 1 else 0) for i, c in enumerate(p))


def omega(m: tuple) -> dict:
    """Lattice graph on {p <= m}: one color-i edge from p to p + e_i."""
    k = len(m)
    points = list(itertools.product(*[range(c + 1) for c in m]))
    inside = lambda q: all(a <= b for a, b in zip(q, m))  # noqa: E731
    edges, squares = [], []
    for p in points:
        for i in range(1, k + 1):
            q = _step(p, i)
            if inside(q):
                edges.append({"name": _oe(i, p), "color": i,
                              "range": _ov(p), "source": _ov(q)})
            for j in range(i + 1, k + 1):
                if inside(_step(q, j)):
                    squares.append({"top": [_oe(i, p), _oe(j, q)],
                                    "bottom": [_oe(j, p), _oe(i, _step(p, j))]})
    return {"rank": k, "vertices": [_ov(p) for p in points],
            "edges": edges, "squares": squares}


def omega_word(p: tuple, d: tuple) -> str:
    """Label of the unique lattice path from p of degree d."""
    if not any(d):
        return _ov(p)
    word, at = [], list(p)
    for i, steps in enumerate(d):
        for _ in range(steps):
            word.append(_oe(i + 1, at))
            at[i] += 1
    return ".".join(word)


GRAPHS = {
    "c3": lambda: cycle(3),
    "bouquet2": lambda: bouquet(2),
    "bouquet3": lambda: bouquet(3),
    "flip": flip,
    "omega22": lambda: omega((2, 2)),
    "omega222": lambda: omega((2, 2, 2)),
}


def thue_morse(shifts: int) -> dict:
    return {"handles": [{"kind": "substitution", "rules": {"a": "ab", "b": "ba"},
                         "seed": "a", "shifts": shifts}]}


SEED_FILES = {"tm64": lambda: thue_morse(64), "tm32": lambda: thue_morse(32)}


# -- seeded member sets --------------------------------------------------------


def vee_set(rng: random.Random) -> list[str]:
    """15 distinct bouquet2 words: three of length 2, four of 3, eight of 4.

    The length profile is fixed, so every seed makes ``vee`` scan the same
    2^15 - 1 subsets with the same degree joins.
    """
    out = []
    for length, count in ((2, 3), (3, 4), (4, 8)):
        words = [".".join(w) for w in itertools.product("ab", repeat=length)]
        out += rng.sample(words, count)
    rng.shuffle(out)
    return out


def flip_word(blue: str, reds: int) -> str:
    word = list(blue) + ["f"] * reds
    return ".".join(word) if word else "v"


def exhaustive_set(graph: str, vertex, degree: tuple, extras: int,
                   rng: random.Random) -> tuple[str, list[str]]:
    """Every path of the given degree from the vertex, plus seeded extras below it.

    Returns the vertex name and the member labels.
    The paths of degree D from v are exhaustive at v (any path from v, grown to
    degree >= D, passes through one of them), and a superset of an exhaustive
    set is exhaustive, so the expected verdict is known from the construction.
    Extras stay below D, so the test degree join, and with it the test set,
    is the same for every seed.
    """
    if graph == "flip":
        home = "v"
        full = [flip_word("".join(w), degree[1])
                for w in itertools.product("ab", repeat=degree[0])]
        below = [flip_word("".join(w), r) for n in range(degree[0] + 1)
                 for w in itertools.product("ab", repeat=n) for r in range(degree[1] + 1)]
    else:
        home = _ov(vertex)
        full = [omega_word(vertex, degree)]
        below = [omega_word(vertex, d)
                 for d in itertools.product(*[range(c + 1) for c in degree])]
    # the vertex itself would make every verdict trivial, so it is left out
    pool = [w for w in below if w not in full and w != home]
    members = full + rng.sample(pool, extras)
    rng.shuffle(members)
    return home, members


# -- the runs of each workload -------------------------------------------------


def plan(workload: str, seed: int, repeat: int) -> dict:
    """The CLI runs of one repeat, with file names relative to the input dir.

    Returns {"graphs": [...], "seed_files": [[graph, seeds], ...],
    "runs": [{"name", "argv", "kind", "expect"?}]}.  ``expect`` is filled in
    here only for runs whose outcome follows from the seeded construction;
    the rest are looked up in reference.json by run name.
    """
    rng = random.Random(f"kgraphkit-bench:{workload}:{seed}:{repeat}")
    runs: list[dict] = []

    def add(name, argv, **extra):
        runs.append({"name": name, "argv": argv, "kind": argv[0], **extra})

    if workload == "combinatorics":
        graphs, seed_files = ["bouquet2", "bouquet3", "c3", "flip", "omega22", "omega222"], []
        add("fe-bouquet2-cap3", ["fe", "bouquet2", "v", "--cap", "3"])
        add("fe-bouquet3-cap2", ["fe", "bouquet3", "v", "--cap", "2"])
        members = vee_set(rng)
        add("vee-bouquet2-15", ["vee", "bouquet2", *members],
            expect=_vee_expect(members))
        for graph, vertex, degree, extras in (
                ("flip", None, (2, 2), 5), ("flip", None, (3, 1), 6),
                ("omega22", (0, 0), (2, 2), 4), ("omega22", (1, 0), (1, 2), 2),
                ("omega222", (0, 0, 0), (2, 1, 2), 6), ("omega222", (1, 1, 0), (1, 1, 2), 5)):
            v, members = exhaustive_set(graph, vertex, degree, extras, rng)
            name = f"exhaustive-{graph}-{v}-" + "".join(map(str, degree))
            add(name, ["exhaustive", graph, v, *members],
                expect=_exhaustive_expect())
        add("aperiodic-c3", ["aperiodic", "c3", "--pair-bound", "3", "--tau-bound", "6"])
        add("aperiodic-flip", ["aperiodic", "flip", "--pair-bound", "2,2", "--tau-bound", "2,2"])
        add("aperiodic-bouquet2", ["aperiodic", "bouquet2", "--pair-bound", "4",
                                   "--tau-bound", "4"])
        add("aperiodic-omega222", ["aperiodic", "omega222", "--pair-bound", "1",
                                   "--tau-bound", "1"])
    elif workload == "fock":
        graphs, seed_files = ["bouquet2", "omega222"], []
        add("fock-bouquet2-cap13", ["rep-verify", "bouquet2", "--cap", "13", "--gen-cap", "2",
                                    "--fe-cap", "2", "--suite", "tck,ck,lem1,lem3"])
        add("fock-bouquet2-cap9-claim1",
            ["rep-verify", "bouquet2", "--cap", "9", "--gen-cap", "1", "--suite", "phi2,claim1",
             "--suite-size", "1", "--seed", str(CLAIM1_TABLE_SEED)])
        add("fock-omega222", ["rep-verify", "omega222", "--cap", "2,2,2", "--gen-cap", "1,1,1",
                              "--suite", "tck,ck"])
    elif workload == "boundary":
        graphs, seed_files = ["bouquet2"], [["bouquet2", "tm64"], ["bouquet2", "tm32"]]
        add("boundary-tm64-w512", ["rep-verify", "bouquet2", "--family", "boundary",
                                   "--seeds", "tm64", "--window", "512", "--gen-cap", "2",
                                   "--suite", "tck,ck,diag"])
        add("boundary-tm32-exp", ["rep-verify", "bouquet2", "--family", "boundary",
                                  "--seeds", "tm32", "--window", "256", "--cap", "6",
                                  "--suite", "exp,couniversal", "--suite-size", "5",
                                  "--seed", str(rng.randrange(2**31))])
        add("boundary-check-tm32", ["boundary-check", "bouquet2", "--seeds", "tm32",
                                    "--window", "128", "--fe-cap", "1", "--shift-bound", "8"])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"graphs": graphs, "seed_files": seed_files, "runs": runs}


def _vee_expect(members: list[str]) -> dict:
    # In a 1-graph MCE(G) is the longest member of G when G is a prefix
    # chain and empty otherwise, so vee F = F.
    return {"digest": digest(sorted(members)), "count": len(members), "code": 0}


def _exhaustive_expect() -> dict:
    return {"digest": digest({"exhaustive": True, "witness": None}), "count": 1, "code": 0}


def write_inputs(directory: Path, plan_: dict) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name in plan_["graphs"]:
        (directory / f"{name}.kg").write_text(json.dumps(GRAPHS[name]()), encoding="utf-8")
    for _, name in plan_["seed_files"]:
        (directory / f"{name}.json").write_text(json.dumps(SEED_FILES[name]()),
                                                encoding="utf-8")


def resolve_argv(argv: list[str], directory: Path) -> list[str]:
    """Turn graph and seed-file names into paths inside the input dir."""
    out = list(argv)
    out[1] = str(directory / f"{argv[1]}.kg")
    if "--seeds" in out:
        i = out.index("--seeds") + 1
        out[i] = str(directory / f"{out[i]}.json")
    return out


# -- outcome projections and gates ---------------------------------------------


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def project(kind: str, results):
    """The part of a report that decides correctness, and its item statuses.

    Returns (projection, statuses); ``statuses`` lists [item id, status] for
    the reports whose items carry one, else None.  Extra report keys (for
    example coverage facts in ``detail``) are left out on purpose.
    """
    if kind == "fe":
        return results, None
    if kind == "vee":
        return sorted(results), None
    if kind == "exhaustive":
        return {"exhaustive": results["exhaustive"], "witness": results["witness"]}, None
    if kind == "aperiodic":
        pairs = [[p["mu"], p["nu"], p["separated"], p["tau"]] for p in results["pairs"]]
        return {"status": results["status"], "witness": results.get("witness"),
                "pairs": pairs}, None
    if kind == "boundary-check":
        rows = [[r["handle"], r["boundary_condition"]["status"],
                 r["windowed_aperiodicity"]["status"]] for r in results]
        statuses = []
        for handle, cond, aper in rows:
            statuses += [[f"{handle}/condition", cond], [f"{handle}/aperiodicity", aper]]
        return rows, statuses
    if kind == "rep-verify":
        rows = [[c["id"], c["status"]] for c in results]
        return rows, rows
    raise ValueError(f"unknown run kind {kind!r}")


def count(kind: str, projection) -> int:
    """Checks and combinatorial results one run emitted."""
    if kind in ("fe", "vee", "rep-verify"):
        return len(projection)
    if kind == "exhaustive":
        return 1
    if kind == "aperiodic":
        return len(projection["pairs"])
    if kind == "boundary-check":
        return 2 * len(projection)
    raise ValueError(f"unknown run kind {kind!r}")


def failed_outcomes(outcome: dict, expect: dict) -> int:
    """Outcomes of one run that differ from the expected ones.

    A run that raised or exited with an unexpected code fails all of its
    expected outcomes.  Otherwise every item whose status is not the expected
    one fails; the item lists and digests must also agree, else at least
    one outcome fails.
    """
    if outcome.get("error") or outcome["code"] != expect["code"]:
        return expect["count"]
    bad = 0
    if outcome["statuses"] is not None:
        allowed = expect.get("nonpass", {})
        for item, status in outcome["statuses"]:
            want = allowed.get(item)
            bad += not (status == want if want else status in PASSING)
        seen = {item for item, _ in outcome["statuses"]}
        bad += sum(1 for item in allowed if item not in seen)
    if bad == 0 and (outcome["digest"] != expect["digest"]
                     or outcome["count"] != expect["count"]):
        bad = max(1, abs(outcome["count"] - expect["count"]))
    return bad
