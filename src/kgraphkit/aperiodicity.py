"""Bounded search for separating extensions and aperiodicity reporting.

A pair of distinct paths with a common source is separated by an extension
τ when μτ and ντ admit no common extension.  Both existence and absence of
such a τ are semi-decidable in general, so reports distinguish evidence
from certificates; only graphs with finitely many paths are ever certified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .core import (
    Degree,
    KGraph,
    KGraphError,
    Path,
    compose,
    degrees_up_to,
    paths_of_degree,
    paths_up_to_degree,
)
from .alignment import mce, mce_brute


class SourceMismatch(KGraphError):
    pass


class MixedSources(KGraphError):
    pass


class OracleMismatch(KGraphError):
    """The brute-force MCE oracle contradicts a separation found by mce."""


APERIODIC_EVIDENCE = "AperiodicEvidence"
APERIODIC_CERTIFIED = "AperiodicCertified"
PERIODIC_EVIDENCE = "PeriodicEvidence"
INCONCLUSIVE = "Inconclusive"


def _tau_candidates(g: KGraph, v: str, depth: Degree) -> Iterator[Path]:
    """Extensions at v ordered breadth-first in degree, lexicographic within;
    each degree is enumerated only when the search reaches it."""
    if g.has_finite_path_category():
        depth = depth.join(g.max_path_degree())
    for n in degrees_up_to(depth):
        yield from paths_of_degree(g, n, range_vertex=v)


def _confirm_separated(g: KGraph, mu: Path, nu: Path, tau: Path) -> None:
    """Re-verify MCE(μτ, ντ) = ∅ with the oracle; raises, so -O keeps it."""
    if mce_brute(g, compose(mu, tau), compose(nu, tau)):
        raise OracleMismatch(
            f"mce separates {mu.label()}, {nu.label()} by {tau.label()}, "
            "but the brute-force oracle finds a common extension")


def find_separating_extension(g: KGraph, mu: Path, nu: Path, depth
                              ) -> Optional[Path]:
    """Shortest τ from s(μ) with MCE(μτ, ντ) empty, or None below the depth.

    Every hit is re-verified against the brute-force MCE oracle before it is
    returned.
    """
    if mu.source_vertex != nu.source_vertex:
        raise SourceMismatch(
            f"s({mu.label()}) = {mu.source_vertex} != s({nu.label()}) = {nu.source_vertex}")
    return None if mu == nu else separate_family(g, [mu, nu], depth)


def separate_family(g: KGraph, H: Sequence[Path], depth) -> Optional[Path]:
    """One τ separating every distinct pair of H simultaneously, or None."""
    H = list(H)
    if not H:
        return None
    v = H[0].source_vertex
    if any(p.source_vertex != v for p in H):
        raise MixedSources("family members must share a source vertex")
    if len(H) == 1:
        return g.vertex_path(v)
    depth = Degree(depth)
    pairs = [(H[i], H[j]) for i in range(len(H)) for j in range(i + 1, len(H))
             if H[i] != H[j]]
    if not pairs:
        return g.vertex_path(v)
    for tau in _tau_candidates(g, v, depth):
        if all(not mce(g, compose(mu, tau), compose(nu, tau)) for mu, nu in pairs):
            for mu, nu in pairs:
                _confirm_separated(g, mu, nu, tau)
            return tau
    return None


@dataclass(frozen=True)
class PairOutcome:
    mu: Path
    nu: Path
    tau: Optional[Path]

    @property
    def separated(self) -> bool:
        return self.tau is not None


@dataclass(frozen=True)
class AperiodicityReport:
    status: str
    pair_bound: Degree
    tau_bound: Degree
    certified_universe: bool
    outcomes: tuple[PairOutcome, ...]
    witness: Optional[tuple[Path, Path]] = None

    def to_jsonable(self) -> dict:
        data = {
            "status": self.status,
            "pair_bound": list(self.pair_bound),
            "tau_bound": list(self.tau_bound),
            "certified_universe": self.certified_universe,
            "pairs": [
                {
                    "mu": o.mu.label(),
                    "nu": o.nu.label(),
                    "separated": o.separated,
                    "tau": o.tau.label() if o.tau is not None else None,
                }
                for o in self.outcomes
            ],
        }
        if self.witness is not None:
            data["witness"] = [self.witness[0].label(), self.witness[1].label()]
        return data


def aperiodicity_report(g: KGraph, pair_bound, tau_bound) -> AperiodicityReport:
    """Scan all source-sharing pairs below the bound and try to separate each.

    On graphs with finitely many paths both bounds are raised to cover the
    whole category, which is the only situation where the universal
    quantifier is exhausted and a certificate can be issued.
    """
    pair_bound = Degree(pair_bound)
    tau_bound = Degree(tau_bound)
    finite = g.has_finite_path_category()
    if finite:
        pair_bound = pair_bound.join(g.max_path_degree())
        tau_bound = tau_bound.join(g.max_path_degree())

    # pools by source vertex, each in path order
    pools: dict[str, list[Path]] = {v: [] for v in g.vertices}
    for p in paths_up_to_degree(g, pair_bound):
        pools[p.source_vertex].append(p)

    outcomes: list[PairOutcome] = []
    witness: Optional[tuple[Path, Path]] = None
    for pool in pools.values():
        for a in range(len(pool)):
            for b in range(a):
                mu, nu = pool[a], pool[b]
                tau = find_separating_extension(g, mu, nu, tau_bound)
                outcomes.append(PairOutcome(mu, nu, tau))
                if tau is None and witness is None:
                    witness = (mu, nu)

    if witness is not None:
        status = PERIODIC_EVIDENCE
    elif finite:
        status = APERIODIC_CERTIFIED
    elif outcomes:
        status = APERIODIC_EVIDENCE
    else:
        status = INCONCLUSIVE
    return AperiodicityReport(status, pair_bound, tau_bound, finite,
                              tuple(outcomes), witness)
