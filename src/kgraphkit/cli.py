"""File ingestion, command dispatch, and deterministic JSON reports.

Each ``cmd_*`` function returns ``(results, statuses)``: the JSON payload and
one status string per outcome.  ``main`` alone counts the statuses, writes the
report and the summary, and picks the exit code.  Machine output goes to
stdout in one byte format: two-space indentation, sorted keys, ASCII escapes
for every non-ASCII character and ``str`` for objects JSON cannot represent,
that is the bytes of ``json.dumps(report, sort_keys=True, indent=2,
default=str)`` plus a newline, laid out by ``encode`` through the standard
library's C encoder (identical inputs give identical bytes).  One summary
line ``kgraphkit COMMAND: status=count, ...``, sorted by status, goes to
stderr.  Exit codes: 0 all hard checks pass, 1 a check failed, 2
configuration or parse error, 3 only inconclusive outcomes.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import random
import sys
from collections import Counter
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
from .aperiodicity import aperiodicity_report
from .boundary import (
    BoundaryPathHandle,
    Identities,
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


def encode(obj) -> str:
    """The text of ``json.dumps(obj, sort_keys=True, indent=2, default=str)``,
    laid out with the standard library's C encoder.

    ``json.JSONEncoder`` with ``indent=None`` encodes in C, and an item
    separator of ",\\n" plus padding lays out every member of one container
    at one depth.  So a container of scalars is one C call, to which only its
    opening and closing newlines are added.  Each maximal run of non-empty
    flat containers of one kind in a list (the rep-verify results, between
    the few that carry a detail dict) is one C call too: the seams between
    its items, such as "},\\n<padding>{", are re-indented with
    ``str.replace``.  That is unambiguous, because an encoded string never
    holds a raw newline and a scalar never ends in a bracket.  Everything
    else recurses, with dict items sorted on the keys as given and each key
    written by json itself, so json's rules hold throughout: for key types,
    for subclasses (a Degree is a tuple, so an array) and for ``default=str``.
    The pieces go to one list, joined once at the end, so no container's
    text is copied into its parent's.
    """

    def c_encode(obj, levels: int) -> str:
        """obj in one C call, members separated by ",\\n" and levels of padding."""
        return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * levels, ": "),
                                default=str).encode(obj)

    def all_scalars(members) -> bool:
        """No member is a container; decided on the set of member types."""
        return not any(issubclass(t, (dict, list, tuple)) for t in set(map(type, members)))

    def flat_run(items) -> Optional[str]:
        """The brackets of the items when all are non-empty containers of
        scalars of one kind, else None; decided on the sets of types."""
        kinds = set(map(type, items))
        if all(issubclass(k, dict) for k in kinds):
            brackets, members = "{}", itertools.chain.from_iterable(map(dict.values, items))
        elif all(issubclass(k, (list, tuple)) for k in kinds):
            brackets, members = "[]", itertools.chain.from_iterable(items)
        else:
            return None
        return brackets if all(items) and all_scalars(members) else None

    def flat(item) -> Optional[str]:
        """The brackets of a non-empty container of scalars, else None."""
        if isinstance(item, dict):
            return "{}" if item and all_scalars(item.values()) else None
        if isinstance(item, (list, tuple)):
            return "[]" if item and all_scalars(item) else None
        return None

    out: list[str] = []

    def layout(obj, depth: int) -> None:
        """Append the text of obj, nested depth levels deep, to out."""
        if not isinstance(obj, (dict, list, tuple)) or not obj:
            out.append(c_encode(obj, 0))
            return
        pad, inner = "\n" + "  " * depth, "\n" + "  " * (depth + 1)
        if all_scalars(obj.values() if isinstance(obj, dict) else obj):
            text = c_encode(obj, depth + 1)
            out.extend((text[0], inner, text[1:-1], pad, text[-1]))
            return
        if isinstance(obj, dict):
            # c_encode({key: 0}) is '{"<key as json writes it>": 0}'
            for i, (key, value) in enumerate(sorted(obj.items())):
                out.append(("," if i else "{") + inner + c_encode({key: 0}, 0)[1:-4] + ": ")
                layout(value, depth + 1)
            out.append(pad + "}")
            return
        deep = "\n" + "  " * (depth + 2)
        whole = flat_run(obj)
        runs = [(whole, obj)] if whole else itertools.groupby(obj, key=flat)
        for i, (brackets, run) in enumerate(runs):
            out.append(("," if i else "[") + inner)
            if brackets is None:
                for j, item in enumerate(run):
                    out.append("," + inner if j else "")
                    layout(item, depth + 1)
                continue
            opening, closing = brackets
            text = c_encode(list(run), depth + 2).replace(
                closing + "," + deep + opening, inner + closing + "," + inner + opening + deep)
            out.extend((opening, deep, text[2:-2], inner, closing))
        out.append(pad + "]")

    layout(obj, 0)
    return "".join(out)


def emit(config: dict, results, status_counts: dict) -> None:
    report = {
        "tool": "kgraphkit",
        "version": __version__,
        "config": config,
        "results": results,
    }
    sys.stdout.write(encode(report) + "\n")
    summary = ", ".join(f"{k}={v}" for k, v in sorted(status_counts.items()))
    sys.stderr.write(f"kgraphkit {config.get('command')}: {summary or 'done'}\n")


def exit_code(status_counts: dict) -> int:
    if status_counts.get("fail", 0) or status_counts.get("heuristic-fail", 0):
        return EXIT_CHECK_FAILED
    if status_counts.get("inconclusive", 0):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _config(args: argparse.Namespace) -> dict:
    cfg = {k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None}
    cfg["command"] = args.command
    return cfg


# -- subcommands ---------------------------------------------------------------


def cmd_validate(args):
    try:
        g = load_graph(args.graph)
    except ValidationError as exc:
        return {"valid": False,
                "violations": [{"code": v.code, "detail": v.detail}
                               for v in exc.violations]}, ["fail"]
    return {"valid": True, "rank": g.rank, "vertices": len(g.vertices),
            "edges": len(g.edges), "squares": len(g.squares)}, ["pass"]


def cmd_paths(args):
    g = load_graph(args.graph)
    n = parse_degree(args.degree, g.rank)
    got = paths_of_degree(g, n, range_vertex=args.range, source_vertex=args.source)
    return [p.label() for p in got], ["pass"]


def cmd_mce(args):
    g = load_graph(args.graph)
    mu = g.parse_path(args.mu)
    nu = g.parse_path(args.nu)
    got = mce(g, mu, nu)
    return [p.label() for p in got], ["pass"]


def cmd_vee(args):
    g = load_graph(args.graph)
    F = [g.parse_path(text) for text in args.paths]
    return [p.label() for p in vee(g, F)], ["pass"]


def cmd_exhaustive(args):
    g = load_graph(args.graph)
    E = [g.parse_path(text) for text in args.members]
    verdict = is_exhaustive(g, args.vertex, E)
    results = {"exhaustive": verdict.exhaustive,
               "witness": verdict.witness.label() if verdict.witness else None,
               "test_set_size": verdict.test_set_size}
    return results, ["pass" if verdict.exhaustive else "fail"]


def cmd_fe(args):
    g = load_graph(args.graph)
    cap = parse_degree(args.cap, g.rank)
    if args.budget < 1:
        raise ParseError(f"--budget must be at least 1, got {args.budget}")
    sets = enumerate_fe(g, args.vertex, cap, budget=args.budget)
    return [[p.label() for p in E] for E in sets], ["pass"]


def cmd_aperiodic(args):
    g = load_graph(args.graph)
    P, D, pairs = aperiodicity_report(g, parse_degree(args.pair_bound, g.rank),
                                      parse_degree(args.tau_bound, g.rank))
    certified = g.has_finite_path_category()  # the bounds then cover every path
    witness = next(([mu.label(), nu.label()] for mu, nu, tau in pairs if tau is None), None)
    if witness is not None:
        status, verdict = "PeriodicEvidence", "fail"
    elif certified:
        status, verdict = "AperiodicCertified", "pass"
    elif pairs:
        status, verdict = "AperiodicEvidence", "pass"
    else:
        status, verdict = "Inconclusive", "inconclusive"
    results = {"status": status, "pair_bound": list(P), "tau_bound": list(D),
               "certified_universe": certified,
               "pairs": [{"mu": mu.label(), "nu": nu.label(), "separated": tau is not None,
                          "tau": tau.label() if tau is not None else None}
                         for mu, nu, tau in pairs]}
    if witness is not None:
        results["witness"] = witness
    return results, [verdict]


def _word(value, where: str) -> list:  # a seed file's word or rule image
    if not isinstance(value, (str, list)):
        raise ParseError(f"{where} must be a string or a list of edge names, got {value!r}")
    return list(value)


def load_seed_handles(g: KGraph, path: str) -> list[BoundaryPathHandle]:
    decl = _read_json(path)
    unknown = _keys(decl, f"{path}:") - {"handles"}
    if unknown:
        raise ParseError(f"{path}: unknown top-level keys: {sorted(unknown)}")
    records = decl.get("handles", [])
    if not isinstance(records, list):
        raise ParseError(f"{path}: handles must be a list, got {type(records).__name__}")
    handles: list[BoundaryPathHandle] = []
    for i, rec in enumerate(records):
        where = f"{path}: handle {i}"
        keys = _keys(rec, f"{where}:")
        kind, name = rec.get("kind"), rec.get("name")
        if name is not None and not isinstance(name, str):
            raise ParseError(f"{where}: name must be a string, got {name!r}")
        if kind == "substitution":
            fields = {"rules", "seed"}
        elif kind == "periodic":
            fields = {"word"}
        else:
            raise ParseError(f"{where}: unknown handle kind {kind!r}")
        unknown = keys - fields - {"kind", "name", "shifts"}
        if unknown:
            raise ParseError(f"{where}: unknown keys: {sorted(unknown)}")
        try:
            if kind == "substitution":
                _keys(rec["rules"], f"{where}: rules")
                rules = {k: _word(v, f"{where}: rule {k!r}") for k, v in rec["rules"].items()}
                base = substitution_path(g, rules, rec["seed"], name=name)
            else:
                base = periodic_path(g, _word(rec["word"], f"{where}: word"), name=name)
        except KeyError as exc:
            raise ParseError(f"{where}: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ParseError(
                f"{where}: malformed handle declaration ({type(exc).__name__}: {exc})") from exc
        except ParseError:
            raise
        except KGraphError as exc:  # from the handle constructors
            raise ParseError(f"{where}: {exc}") from exc
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


def cmd_boundary_check(args):
    g = load_graph(args.graph)
    window = parse_degree(args.window, g.rank)
    fe_cap = parse_degree(args.fe_cap, g.rank)
    shift_bound = parse_degree(args.shift_bound, g.rank)
    handles = boundary_handles(g, args.seeds)
    results, statuses = [], []
    ids = Identities(window)  # one fingerprint per distinct shift of all the handles
    for x, cond in zip(handles, check_boundary_condition(handles, window, fe_cap)):
        aper = aperiodicity_window_check(x, shift_bound, window, ids)
        entry = {"handle": x.describe()}
        for key, witness in (("boundary_condition", cond), ("windowed_aperiodicity", aper)):
            status = "pass" if witness is None else "fail"
            statuses.append(status)
            entry[key] = {"status": status,
                          "witness": None if witness is None else str(witness)}
        results.append(entry)
    return results, statuses


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


def cmd_rep_verify(args):
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
    # the source vertex of each member: F is its own pool
    F = paths_up_to_degree(g, gen_cap)
    decomposed = functools.cache(lambda: q_decomposition(boolean_rep(fam, cap=gen_cap), F))
    checks: list[repalg.CheckResult] = []
    for suite in suites:
        try:
            if suite == "tck":
                checks += verify_tck(fam, cap=gen_cap)
            elif suite == "ck":
                checks += verify_ck(fam, fe_cap)
            elif suite == "lem1":
                decomposed()
                checks.append(repalg.CheckResult("lem1", "pass"))
            elif suite == "lem3":
                checks += lem3_check(fam, decomposed())
            elif suite == "phi2":
                phi = build_separating_system(fam, F)
                checks += [verify_phi2(fam, phi, mu, nu, lam)
                           for lam in phi for mu in phi for nu in phi]
            elif suite == "claim1":
                checks += verify_claim1(fam, F, [_random_table(F, rng, integer=False)
                                                 for _ in range(args.suite_size)])
            elif suite == "exp":
                b = get_boundary()
                for _ in range(args.suite_size):
                    table = _random_table(F, rng, integer=True)
                    a = FormalElement(g, table)
                    checks.append(verify_exp_square(b, a))
            elif suite == "diag":
                b = get_boundary()
                for mu in F:
                    for nu in F:
                        if mu.source_vertex == nu.source_vertex:
                            checks += verify_diagonal_formula(b, mu, nu)
            else:  # couniversal
                b = get_boundary()
                for _ in range(args.suite_size):
                    table = _random_table(F, rng, integer=False)
                    a = FormalElement(g, table)
                    checks.append(couniversal_norm_check(get_fock(), b, a))
        except repalg.SeparationSearchExhausted as exc:
            checks.append(repalg.CheckResult(suite, "inconclusive", witness=str(exc)))
        except repalg.BooleanRelationFailure as exc:  # a relation the suite assumes failed
            checks.append(repalg.CheckResult(suite, "fail", witness=str(exc)))
    return [c.to_jsonable() for c in checks], [c.status for c in checks]


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
    p.add_argument("--window", default="8", help="width in infinite coordinates")
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
    p.add_argument("--window", default="64", help="width in infinite coordinates")
    p.add_argument("--seeds")
    p.add_argument("--suite", default="tck,ck")
    p.add_argument("--suite-size", type=int, default=10)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_rep_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        results, statuses = args.func(args)
    except KGraphError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG_ERROR
    counts = Counter(statuses)
    emit(_config(args), results, counts)
    return exit_code(counts)


if __name__ == "__main__":
    sys.exit(main())
