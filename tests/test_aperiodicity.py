"""Separating-extension search and report statuses on the corpus."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from kgraphkit import aperiodicity, compose, core
from kgraphkit.alignment import mce_brute
from kgraphkit.aperiodicity import (
    APERIODIC_CERTIFIED,
    PERIODIC_EVIDENCE,
    MixedSources,
    OracleMismatch,
    SourceMismatch,
    aperiodicity_report,
    find_separating_extension,
    separate_family,
)


class TestFindSeparatingExtension:
    def test_already_disjoint(self, bouquet2):
        tau = find_separating_extension(
            bouquet2, bouquet2.edge_path("a"), bouquet2.edge_path("b"), (2,))
        assert tau == bouquet2.vertex_path("v")

    def test_prefix_pair_needs_depth_one(self, bouquet2):
        aa = bouquet2.path(["a", "a"])
        a = bouquet2.edge_path("a")
        tau = find_separating_extension(bouquet2, aa, a, (2,))
        assert tau == bouquet2.edge_path("b")
        assert mce_brute(bouquet2, compose(aa, tau), compose(a, tau)) == []

    def test_cycle_pair_never_separates(self, c3):
        cyc = c3.path(["e0", "e1", "e2"])
        v0 = c3.vertex_path("v0")
        assert find_separating_extension(c3, cyc, v0, (6,)) is None

    def test_source_mismatch(self, c3):
        with pytest.raises(SourceMismatch):
            find_separating_extension(c3, c3.edge_path("e0"), c3.edge_path("e1"), (2,))

    def test_search_stops_at_first_hit(self, bouquet2, monkeypatch):
        # a and b are separated by the vertex itself, so only degree 0 is enumerated
        calls = []
        real = core.paths_of_degree

        def counted(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(core, "paths_of_degree", counted)
        monkeypatch.setattr(aperiodicity, "paths_of_degree", counted, raising=False)
        tau = find_separating_extension(
            bouquet2, bouquet2.edge_path("a"), bouquet2.edge_path("b"), (12,))
        assert tau == bouquet2.vertex_path("v")
        assert len(calls) == 1

    def test_monotone_in_depth(self, bouquet2):
        aa = bouquet2.path(["a", "a"])
        a = bouquet2.edge_path("a")
        t1 = find_separating_extension(bouquet2, aa, a, (1,))
        t2 = find_separating_extension(bouquet2, aa, a, (3,))
        assert t1 == t2 is not None


class TestSeparateFamily:
    def test_singleton(self, bouquet2):
        H = [bouquet2.edge_path("a")]
        assert separate_family(bouquet2, H, (2,)) == bouquet2.vertex_path("v")

    def test_chain_family(self, bouquet2):
        H = [bouquet2.vertex_path("v"), bouquet2.edge_path("a"), bouquet2.path(["a", "a"])]
        tau = separate_family(bouquet2, H, (2,))
        assert tau is not None and tau.degree.total() <= 2
        for i in range(len(H)):
            for j in range(i + 1, len(H)):
                assert mce_brute(bouquet2, compose(H[i], tau), compose(H[j], tau)) == []

    def test_cycle_family_not_found(self, c3):
        H = [c3.vertex_path("v0"), c3.path(["e0", "e1", "e2"])]
        assert separate_family(c3, H, (6,)) is None

    def test_mixed_sources_rejected(self, c3):
        with pytest.raises(MixedSources):
            separate_family(c3, [c3.edge_path("e0"), c3.edge_path("e1")], (2,))


class TestReport:
    def test_omega_certified(self, omega22):
        report = aperiodicity_report(omega22, (1, 1), (1, 1))
        assert report.status == APERIODIC_CERTIFIED
        assert report.certified_universe
        assert all(o.separated for o in report.outcomes)

    def test_cycle_periodic(self, c3):
        report = aperiodicity_report(c3, (3,), (6,))
        assert report.status == PERIODIC_EVIDENCE
        mu, nu = report.witness
        assert mu == c3.path(["e0", "e1", "e2"])
        assert nu == c3.vertex_path("v0")

    def test_flip_periodic_ff(self, flip):
        report = aperiodicity_report(flip, (0, 2), (2, 2))
        assert report.status == PERIODIC_EVIDENCE
        mu, nu = report.witness
        assert mu == flip.path(["f", "f"])
        assert nu == flip.vertex_path("v")

    def test_bouquet_evidence(self, bouquet2):
        report = aperiodicity_report(bouquet2, (2,), (3,))
        assert report.status == "AperiodicEvidence"
        assert all(o.separated for o in report.outcomes)

    def test_report_reproducible(self, c3):
        r1 = aperiodicity_report(c3, (3,), (6,))
        r2 = aperiodicity_report(c3, (3,), (6,))
        assert r1.to_json() == r2.to_json()

    def test_periodic_never_certified(self, c3, flip):
        for g, P, D in [(c3, (3,), (6,)), (flip, (0, 2), (2, 2))]:
            report = aperiodicity_report(g, P, D)
            assert report.status != APERIODIC_CERTIFIED


class TestOracleRecheck:
    """Every separating tau is re-verified by the brute-force MCE oracle."""

    @pytest.mark.parametrize("search", ["pair", "family"])
    def test_disagreeing_oracle_raises(self, bouquet2, monkeypatch, search):
        monkeypatch.setattr(aperiodicity, "mce_brute", lambda g, mu, nu: [mu])
        a, b = bouquet2.edge_path("a"), bouquet2.edge_path("b")
        with pytest.raises(OracleMismatch):
            if search == "pair":
                find_separating_extension(bouquet2, a, b, (2,))
            else:
                separate_family(bouquet2, [a, b], (2,))

    def test_recheck_survives_optimize_flag(self):
        script = textwrap.dedent("""
            import sys
            from kgraphkit import aperiodicity, make_bouquet
            g = make_bouquet(2)
            aperiodicity.mce_brute = lambda g, mu, nu: [mu]
            try:
                aperiodicity.find_separating_extension(
                    g, g.edge_path("a"), g.edge_path("b"), (2,))
            except aperiodicity.OracleMismatch:
                print("raised", sys.flags.optimize)
            else:
                print("returned", sys.flags.optimize)
        """)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["raised", "1"]
