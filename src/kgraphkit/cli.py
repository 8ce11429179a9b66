"""File ingestion, command dispatch, and deterministic JSON reports.

Machine output goes to stdout as stably serialized JSON (identical inputs
give identical bytes); a short human summary goes to stderr.  Exit codes:
0 all hard checks pass, 1 a check failed, 2 configuration or parse error,
3 only inconclusive outcomes.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from typing import Optional, Sequence

from . import __version__
from .core import (
    Degree,
    KGraph,
    KGraphError,
    ParseError,
    Path,
    ValidationError,
    _keys,
    paths_of_degree,
    paths_up_to_degree,
    validate_presentation,
)
from .alignment import enumerate_fe, is_exhaustive, mce, vee
from .aperiodicity import INCONCLUSIVE, PERIODIC_EVIDENCE, aperiodicity_report
from .boundary import (
    BoundaryPathHandle,
    aperiodicity_window_check,
    check_boundary_condition,
    finite_boundary_paths,
    periodic_path,
    shift,
    substitution_path,
)
from . import repalg
from .repalg import (
    FormalElement,
    boolean_rep,
    build_boundary_family,
    build_fock_family,
    build_separating_system,
    couniversal_norm_check,
    lem3_check,
    q_decomposition,
    verify_ck,
    verify_claim1,
    verify_diagonal_formula,
    verify_exp_square,
    verify_phi2,
    verify_tck,
)

DEFAULT_SEED = 20110

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_INCONCLUSIVE = 3


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def load_graph(path: str) -> KGraph:
    return validate_presentation(_read_json(path))


def parse_degree(text: str, rank: int) -> Degree:
    parts = [p for p in text.replace("(", "").replace(")", "").split(",") if p.strip()]
    try:
        coords = [int(p) for p in parts]
        if len(coords) == 1 and rank > 1:
            coords = coords * rank
        if len(coords) != rank:
            raise ParseError(f"degree {text!r} does not have rank {rank}")
        return Degree(coords)
    except ValueError as exc:
        raise ParseError(f"bad degree {text!r}: {exc}") from exc


def emit(config: dict, results, status_counts: dict, out=None, err=None) -> None:
    out = out or sys.stdout
    err = err or sys.stderr
    report = {
        "tool": "kgraphkit",
        "version": __version__,
        "config": config,
        "results": results,
    }
    out.write(json.dumps(report, sort_keys=True, indent=2, default=str) + "\n")
    summary = ", ".join(f"{k}={v}" for k, v in sorted(status_counts.items()))
    err.write(f"kgraphkit {config.get('command')}: {summary or 'done'}\n")


def exit_code(status_counts: dict) -> int:
    if status_counts.get("fail", 0) or status_counts.get("heuristic-fail", 0):
        return EXIT_CHECK_FAILED
    if status_counts.get("inconclusive", 0) or status_counts.get("unknown", 0):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _config(args: argparse.Namespace) -> dict:
    cfg = {k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None}
    cfg["command"] = args.command
    return cfg


# -- subcommands ---------------------------------------------------------------


def cmd_validate(args) -> int:
    cfg = _config(args)
    try:
        g = load_graph(args.graph)
    except ValidationError as exc:
        results = {"valid": False,
                   "violations": [{"code": v.code, "detail": v.detail}
                                  for v in exc.violations]}
        emit(cfg, results, {"fail": 1})
        return EXIT_CHECK_FAILED
    results = {"valid": True, "rank": g.rank, "vertices": len(g.vertices),
               "edges": len(g.edges), "squares": len(g.squares)}
    emit(cfg, results, {"pass": 1})
    return EXIT_OK


def cmd_paths(args) -> int:
    g = load_graph(args.graph)
    n = parse_degree(args.degree, g.rank)
    got = paths_of_degree(g, n, range_vertex=args.range, source_vertex=args.source)
    emit(_config(args), [p.label() for p in got], {"pass": 1})
    return EXIT_OK


def cmd_mce(args) -> int:
    g = load_graph(args.graph)
    mu = g.parse_path(args.mu)
    nu = g.parse_path(args.nu)
    got = mce(g, mu, nu)
    emit(_config(args), [p.label() for p in got], {"pass": 1})
    return EXIT_OK


def cmd_vee(args) -> int:
    g = load_graph(args.graph)
    F = [g.parse_path(text) for text in args.paths]
    emit(_config(args), [p.label() for p in vee(g, F)], {"pass": 1})
    return EXIT_OK


def cmd_exhaustive(args) -> int:
    g = load_graph(args.graph)
    E = [g.parse_path(text) for text in args.members]
    verdict = is_exhaustive(g, args.vertex, E)
    results = {"exhaustive": verdict.exhaustive,
               "witness": verdict.witness.label() if verdict.witness else None,
               "test_set_size": verdict.test_set_size}
    emit(_config(args), results, {"pass" if verdict.exhaustive else "fail": 1})
    return EXIT_OK if verdict.exhaustive else EXIT_CHECK_FAILED


def cmd_fe(args) -> int:
    g = load_graph(args.graph)
    cap = parse_degree(args.cap, g.rank)
    sets = enumerate_fe(g, args.vertex, cap, budget=args.budget)
    emit(_config(args), [[p.label() for p in E] for E in sets], {"pass": 1})
    return EXIT_OK


def cmd_aperiodic(args) -> int:
    g = load_graph(args.graph)
    P = parse_degree(args.pair_bound, g.rank)
    D = parse_degree(args.tau_bound, g.rank)
    report = aperiodicity_report(g, P, D)
    status = {"pass": 1}
    if report.status == PERIODIC_EVIDENCE:
        status = {"fail": 1}
    elif report.status == INCONCLUSIVE:
        status = {"inconclusive": 1}
    emit(_config(args), report.to_jsonable(), status)
    return exit_code(status)


def _word(value, where: str) -> list:  # a seed file's word or rule image
    if not isinstance(value, (str, list)):
        raise ParseError(f"{where} must be a string or a list of edge names, got {value!r}")
    return list(value)


def load_seed_handles(g: KGraph, path: str) -> list[BoundaryPathHandle]:
    decl = _read_json(path)
    _keys(decl, f"{path}:")
    records = decl.get("handles", [])
    if not isinstance(records, list):
        raise ParseError(f"{path}: handles must be a list, got {type(records).__name__}")
    handles: list[BoundaryPathHandle] = []
    for i, rec in enumerate(records):
        where = f"{path}: handle {i}"
        _keys(rec, f"{where}:")
        kind, name = rec.get("kind"), rec.get("name")
        if name is not None and not isinstance(name, str):
            raise ParseError(f"{where}: name must be a string, got {name!r}")
        try:
            if kind == "substitution":
                _keys(rec["rules"], f"{where}: rules")
                rules = {k: _word(v, f"{where}: rule {k!r}") for k, v in rec["rules"].items()}
                base = substitution_path(g, rules, rec["seed"], name=name)
            elif kind == "periodic":
                base = periodic_path(g, _word(rec["word"], f"{where}: word"), name=name)
            else:
                raise ParseError(f"{where}: unknown handle kind {kind!r}")
        except KeyError as exc:
            raise ParseError(f"{where}: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ParseError(
                f"{where}: malformed handle declaration ({type(exc).__name__}: {exc})") from exc
        shifts = rec.get("shifts", 1)
        if type(shifts) is not int or shifts < 1:  # bool is an int subclass
            raise ParseError(f"{where}: shifts must be a positive integer, got {shifts!r}")
        handles.extend(shift(base, (j,) * g.rank) for j in range(shifts))
    if not handles:
        raise ParseError(f"{path} declares no handles")
    return handles


def boundary_handles(g: KGraph, seeds: Optional[str]) -> list[BoundaryPathHandle]:
    """The handles of the seeds file, else the finite boundary-path set."""
    if seeds:
        return load_seed_handles(g, seeds)
    if not g.has_finite_path_category():
        raise ParseError(
            "graph has infinitely many paths; --seeds is required for a boundary family")
    return finite_boundary_paths(g)


def cmd_boundary_check(args) -> int:
    g = load_graph(args.graph)
    window = parse_degree(args.window, g.rank)
    fe_cap = parse_degree(args.fe_cap, g.rank)
    shift_bound = parse_degree(args.shift_bound, g.rank)
    handles = boundary_handles(g, args.seeds)
    results = []
    counts: dict = {}
    for x, cond in zip(handles, check_boundary_condition(handles, window, fe_cap)):
        aper = aperiodicity_window_check(x, shift_bound, window)
        for verdict in (cond, aper):
            counts[verdict.status] = counts.get(verdict.status, 0) + 1
        results.append({
            "handle": x.describe(),
            "boundary_condition": {"status": cond.status,
                                   "witness": str(cond.witness) if cond.witness else None},
            "windowed_aperiodicity": {"status": aper.status,
                                      "witness": str(aper.witness) if aper.witness else None},
        })
    emit(_config(args), results, counts)
    return exit_code(counts)


def _random_table(pool: list[Path], rng: random.Random, integer: bool) -> dict:
    table = {}
    for mu in pool:
        for nu in pool:
            if mu.source_vertex != nu.source_vertex:
                continue
            if integer:
                table[(mu, nu)] = complex(rng.randint(-2, 2), rng.randint(-2, 2))
            else:
                table[(mu, nu)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return table


SUITES = ("tck", "ck", "lem1", "lem3", "phi2", "claim1", "exp", "diag", "couniversal")


def cmd_rep_verify(args) -> int:
    g = load_graph(args.graph)
    cap = parse_degree(args.cap, g.rank)
    gen_cap = parse_degree(args.gen_cap, g.rank)
    fe_cap = parse_degree(args.fe_cap, g.rank)
    window = parse_degree(args.window, g.rank)
    suites = [s.strip() for s in args.suite.split(",") if s.strip()]
    unknown = [s for s in suites if s not in SUITES]
    if unknown or not suites:
        raise ParseError(f"unknown suite {unknown[0]!r}" if unknown else "--suite names no suite")
    repeated = [s for i, s in enumerate(suites) if s in suites[:i]]
    if repeated:
        raise ParseError(f"suite {repeated[0]!r} is named twice")
    if args.suite_size < 1:
        raise ParseError(f"--suite-size must be at least 1, got {args.suite_size}")
    rng = random.Random(args.seed)

    # whole-family objects several suites share: each is built on first use
    get_fock = functools.cache(lambda: build_fock_family(g, cap))
    get_boundary = functools.cache(lambda: build_boundary_family(
        g, boundary_handles(g, args.seeds), window, gen_cap))
    fam = get_fock() if args.family == "fock" else get_boundary()

    # MCEs of paths below gen_cap lie below it, so F is MCE-closed and holds
    # the source vertex of each member
    F = paths_up_to_degree(g, gen_cap)
    checked_rep = functools.cache(lambda: boolean_rep(fam, cap=gen_cap))
    separating_system = functools.cache(lambda: build_separating_system(fam, F))
    results = []
    counts: dict = {}

    def absorb(checks) -> None:
        for c in checks:
            counts[c.status] = counts.get(c.status, 0) + 1
            results.append(c.to_jsonable())

    for suite in suites:
        try:
            if suite == "tck":
                absorb(verify_tck(fam, cap=gen_cap).checks)
            elif suite == "ck":
                absorb(verify_ck(fam, fe_cap).checks)
            elif suite == "lem1":
                q_decomposition(checked_rep(), F)
                absorb([repalg.CheckResult("lem1", "pass")])
            elif suite == "lem3":
                absorb(lem3_check(checked_rep(), F).checks)
            elif suite == "phi2":
                system = separating_system()
                checks = []
                for lam in system.F:
                    for mu in system.F:
                        for nu in system.F:
                            checks.append(verify_phi2(fam, system, mu, nu, lam))
                absorb(checks)
            elif suite == "claim1":
                system = separating_system()
                for _ in range(args.suite_size):
                    table = _random_table(F, rng, integer=False)
                    absorb([verify_claim1(fam, F, table, system=system)])
            elif suite == "exp":
                b = get_boundary()
                for _ in range(args.suite_size):
                    table = _random_table(F, rng, integer=True)
                    a = FormalElement(g, table)
                    absorb([verify_exp_square(b, a)])
            elif suite == "diag":
                b = get_boundary()
                for mu in F:
                    for nu in F:
                        if mu.source_vertex == nu.source_vertex:
                            absorb(verify_diagonal_formula(b, mu, nu).checks)
            else:  # couniversal
                b = get_boundary()
                for _ in range(args.suite_size):
                    table = _random_table(F, rng, integer=False)
                    a = FormalElement(g, table)
                    absorb([couniversal_norm_check(get_fock(), b, a)])
        except (repalg.SeparationSearchExhausted,) as exc:
            absorb([repalg.CheckResult(suite, "inconclusive", witness=str(exc))])
    emit(_config(args), results, counts)
    return exit_code(counts)


# -- argument wiring -----------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser; built once per process, since parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="kgraphkit",
        description="higher-rank graph combinatorics and operator checks")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a presentation file")
    p.add_argument("graph")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("paths", help="enumerate paths of one degree")
    p.add_argument("graph")
    p.add_argument("--degree", required=True)
    p.add_argument("--range", dest="range")
    p.add_argument("--source", dest="source")
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("mce", help="minimal common extensions of two paths")
    p.add_argument("graph")
    p.add_argument("mu")
    p.add_argument("nu")
    p.set_defaults(func=cmd_mce)

    p = sub.add_parser("vee", help="vee closure of a finite path set")
    p.add_argument("graph")
    p.add_argument("paths", nargs="+")
    p.set_defaults(func=cmd_vee)

    p = sub.add_parser("exhaustive", help="test a candidate exhaustive set")
    p.add_argument("graph")
    p.add_argument("vertex")
    p.add_argument("members", nargs="+")
    p.set_defaults(func=cmd_exhaustive)

    p = sub.add_parser("fe", help="minimal finite exhaustive sets below a cap")
    p.add_argument("graph")
    p.add_argument("vertex")
    p.add_argument("--cap", required=True)
    p.add_argument("--budget", type=int, default=100_000)
    p.set_defaults(func=cmd_fe)

    p = sub.add_parser("aperiodic", help="bounded aperiodicity report")
    p.add_argument("graph")
    p.add_argument("--pair-bound", required=True)
    p.add_argument("--tau-bound", required=True)
    p.set_defaults(func=cmd_aperiodic)

    p = sub.add_parser("boundary-check", help="boundary condition and windowed shifts")
    p.add_argument("graph")
    p.add_argument("--window", default="8")
    p.add_argument("--fe-cap", default="1")
    p.add_argument("--shift-bound", default="4")
    p.add_argument("--seeds", help="JSON file of substitution/periodic handles")
    p.set_defaults(func=cmd_boundary_check)

    p = sub.add_parser("rep-verify", help="operator identity suites")
    p.add_argument("graph")
    p.add_argument("--family", choices=("fock", "boundary"), default="fock")
    p.add_argument("--cap", default="4", help="path-space basis degree cap")
    p.add_argument("--gen-cap", default="1", help="generator degree for the checks")
    p.add_argument("--fe-cap", default="1")
    p.add_argument("--window", default="64")
    p.add_argument("--seeds")
    p.add_argument("--suite", default="tck,ck")
    p.add_argument("--suite-size", type=int, default=10)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_rep_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KGraphError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
