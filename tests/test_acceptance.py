"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances are pinned here and nowhere else.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager

import pytest

from kgraphkit import (
    Degree,
    ValidationError,
    compose,
    degrees_up_to,
    kgraph_to_dict,
    paths_up_to_degree,
    repalg,
    segment,
    validate_presentation,
)
from kgraphkit.alignment import is_exhaustive, is_exhaustive_brute, mce, vee
from kgraphkit.aperiodicity import aperiodicity_report
from kgraphkit.boundary import shift, thue_morse_path
from kgraphkit.repalg import (
    FormalElement,
    boolean_rep,
    build_boundary_family,
    build_fock_family,
    build_separating_system,
    couniversal_norm_check,
    lem3_check,
    operator_norm,
    q_decomposition,
    verify_ck,
    verify_claim1,
    verify_diagonal_formula,
    verify_exp_square,
    verify_phi2,
    verify_tck,
)

from conftest import as_referee, flip_presentation, referee_evaluate
from oracles import boundary_family_from_graph, matrix_unit_span_rank, mce_brute

CLAIM1_SEED = 20110
EXP_SEED = 30117
COUNIVERSAL_SEED = 40123
EXHAUSTIVE_SEED = 50129


@contextmanager
def criterion(number: int, desc: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL {desc}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number}: PASS {desc} [{elapsed:.2f}s/{budget_s:.0f}s]")
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s"


@pytest.fixture(scope="module")
def fock_b2_n4(bouquet2):
    return build_fock_family(bouquet2, (4,))


@pytest.fixture(scope="module")
def fock_b2_n6(bouquet2):
    return build_fock_family(bouquet2, (6,))


@pytest.fixture(scope="module")
def boundary_omega(omega22):
    return boundary_family_from_graph(omega22)


@pytest.fixture(scope="module")
def boundary_tm(bouquet2):
    tm = thue_morse_path(bouquet2)
    seeds = [shift(tm, (j,)) for j in range(16)]
    return build_boundary_family(bouquet2, seeds, (128,), (3,))


@pytest.fixture(scope="module")
def f_seven(bouquet2):
    return [bouquet2.vertex_path("v")] + [
        bouquet2.path(list(w)) for w in ("a", "b", "aa", "ab", "ba", "bb")]


def test_criterion_1_validation_and_confluence(corpus):
    with criterion(1, "corpus validates; mutated flip rejected", 1.0):
        for name, g in corpus.items():
            data = flip_presentation() if name == "flip" else kgraph_to_dict(g)
            again = validate_presentation(data)
            assert len(again.vertices) == len(g.vertices)
        mutated = flip_presentation()
        del mutated["squares"][1]
        with pytest.raises(ValidationError) as err:
            validate_presentation(mutated)
        assert err.value.has("IncompleteSquares")


def test_criterion_2_factorization_round_trip(omega222):
    with criterion(2, "segment recomposition on the 3-graph", 10.0):
        zero = Degree.zero(3)
        for lam in paths_up_to_degree(omega222, (2, 2, 2)):
            splits = degrees_up_to(lam.degree)
            for m in splits:
                for n in splits:
                    if not m <= n:
                        continue
                    left = segment(lam, zero, m)
                    mid = segment(lam, m, n)
                    right = segment(lam, n, lam.degree)
                    assert compose(left, compose(mid, right)) == lam


def test_criterion_3_mce_oracle_equivalence(corpus):
    with criterion(3, "mce equals brute force on all corpus pairs", 30.0):
        for g in corpus.values():
            cap = Degree((3,) * g.rank)
            if g.has_finite_path_category():
                cap = cap.meet(g.max_path_degree())
            paths = paths_up_to_degree(g, cap)
            for mu in paths:
                for nu in paths:
                    if mu.range_vertex != nu.range_vertex:
                        continue
                    assert mce(g, mu, nu) == mce_brute(g, mu, nu)


def test_criterion_4_exhaustivity_soundness(corpus):
    with criterion(4, "is_exhaustive agrees with the brute-force oracle, 200/graph", 60.0):
        rng = random.Random(EXHAUSTIVE_SEED)
        for g in corpus.values():
            cap = Degree((2,) * g.rank)
            if g.has_finite_path_category():
                cap = cap.meet(g.max_path_degree())
            pools = {v: paths_up_to_degree(g, cap, range_vertex=v)
                     for v in g.vertices}
            for _ in range(200):
                v = rng.choice(g.vertices)
                pool = pools[v]
                E = rng.sample(pool, k=min(len(pool), rng.randint(1, 3)))
                fast = is_exhaustive(g, v, E)
                slow = is_exhaustive_brute(g, v, E)
                assert fast.exhaustive == slow.exhaustive, (
                    v, [p.label() for p in E])


def test_criterion_5_aperiodicity_outcomes(corpus, c3, flip, omega22):
    with criterion(5, "certified omega, periodic cycle and flip", 30.0):
        # certified: the bounds cover every path of omega22 and every pair separates
        assert omega22.has_finite_path_category()
        _, _, pairs = aperiodicity_report(omega22, (1, 1), (1, 1))
        assert all(tau is not None for _, _, tau in pairs)

        # periodic evidence: the first unseparated pair is the witness
        for g, P, D, witness in (
                (c3, (3,), (6,), (c3.path(["e0", "e1", "e2"]), c3.vertex_path("v0"))),
                (flip, (0, 2), (2, 2), (flip.path(["f", "f"]), flip.vertex_path("v")))):
            _, _, pairs = aperiodicity_report(g, P, D)
            assert next((mu, nu) for mu, nu, tau in pairs if tau is None) == witness
            for mu, nu, tau in pairs:
                if tau is not None:
                    assert mce_brute(g, compose(mu, tau), compose(nu, tau)) == []


def test_criterion_6_lem1_lem3(fock_b2_n4, bouquet2):
    with criterion(6, "Q decomposition and lem3 witnesses, three F sets", 5.0):
        q = boolean_rep(fock_b2_n4, cap=(2,))
        v = bouquet2.vertex_path("v")
        a, b = bouquet2.edge_path("a"), bouquet2.edge_path("b")
        aa, ab = bouquet2.path(["a", "a"]), bouquet2.path(["a", "b"])
        for F in ([v, a, b], [v, a], [v, a, b, aa, ab]):
            Q = q_decomposition(q, F)  # orthogonality and eq1 asserted inside
            assert list(Q) == vee(bouquet2, F)
            report = lem3_check(q, Q)
            assert all(c.ok for c in report), [c.to_jsonable() for c in report if not c.ok]
        report = lem3_check(q, q_decomposition(q, [v, a]))
        by_id = {c.id: c for c in report}
        assert by_id["lem3:v"].witness == "b"


def test_criterion_7_tck_ck_discrimination(fock_b2_n4, boundary_omega, boundary_tm):
    with criterion(7, "Fock is TCK-not-CK; boundary families are CK", 10.0):
        assert all(c.ok for c in verify_tck(fock_b2_n4, cap=(2,)))
        ck = verify_ck(fock_b2_n4, (1,))
        bad = [c for c in ck if not c.ok]
        assert [c.id for c in bad] == ["CK:v:{a,b}"]
        assert bad[0].witness == "v"

        assert all(c.ok for c in verify_tck(boundary_omega, cap=(1, 1)))
        assert all(c.ok for c in verify_ck(boundary_omega, (1, 1)))
        assert len(boundary_tm.handles) >= 16
        assert all(c.ok for c in verify_tck(boundary_tm, cap=(2,)))
        assert all(c.ok for c in verify_ck(boundary_tm, (1,)))


@pytest.fixture(scope="module")
def fock_b2_n8(bouquet2):
    return build_fock_family(bouquet2, (8,))


def test_criterion_8_phi2_case_analysis(fock_b2_n8, f_seven):
    with criterion(8, "phi2 case split over all 343 triples", 30.0):
        phi = build_separating_system(fock_b2_n8, f_seven)
        for lam in f_seven:
            for mu in f_seven:
                for nu in f_seven:
                    check = verify_phi2(fock_b2_n8, phi, mu, nu, lam)
                    assert check.ok, check.to_jsonable()


def _claim1_tables(bouquet2, f_seven):
    rng = random.Random(CLAIM1_SEED)
    tables = []
    for _ in range(100):
        tables.append({(mu, nu): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                       for mu in f_seven for nu in f_seven})
    return tables


def test_criterion_9_claim1_inequality(fock_b2_n6, bouquet2, f_seven, monkeypatch):
    with criterion(9, "diagonal norm below element norm, 100 tables", 60.0):
        boolean_rep(fock_b2_n6, cap=(1,))
        # every table is decided by one diagonal entry: no Lanczos norm is taken
        norms = []
        real = repalg.operator_norm
        monkeypatch.setattr(repalg, "operator_norm", lambda m: norms.append(m) or real(m))
        checks = verify_claim1(fock_b2_n6, f_seven, _claim1_tables(bouquet2, f_seven))
        assert len(checks) == 100
        for check in checks:
            assert check.ok, check.to_jsonable()
            assert check.detail["method"] == "diagonal"
        assert norms == []

        a, b = bouquet2.edge_path("a"), bouquet2.edge_path("b")
        ones = {(mu, nu): 1 for mu in (a, b) for nu in (a, b)}
        check, = verify_claim1(fock_b2_n6, [a, b], [ones])
        assert abs(check.detail["lhs"] - 1.0) < 1e-9
        rhs = operator_norm(fock_b2_n6.evaluate(FormalElement(bouquet2, ones)))["value"]
        assert abs(rhs - 2.0) < 1e-9


def test_criterion_10_expectation_laws(fock_b2_n6, boundary_tm, bouquet2,
                                       omega22, boundary_omega, f_seven):
    with criterion(10, "expectation idempotent, contractive, square commutes", 60.0):
        for table in _claim1_tables(bouquet2, f_seven)[:100]:
            a = FormalElement(bouquet2, table)
            assert a.diagonal().diagonal() == a.diagonal()
            diag_m = fock_b2_n6.evaluate(a.diagonal())
            assert as_referee(diag_m) == referee_evaluate(fock_b2_n6, a.diagonal())
            assert operator_norm(diag_m)["value"] <= operator_norm(
                fock_b2_n6.evaluate(a))["value"] + 1e-8

        rng = random.Random(EXP_SEED)
        pool_b2 = paths_up_to_degree(bouquet2, (2,))
        for _ in range(50):
            coeffs = {}
            for _k in range(6):
                mu, nu = rng.choice(pool_b2), rng.choice(pool_b2)
                coeffs[(mu, nu)] = complex(rng.randint(-2, 2), rng.randint(-2, 2))
            a = FormalElement(bouquet2, coeffs)
            assert verify_exp_square(boundary_tm, a).ok

        pool_om = paths_up_to_degree(omega22, (1, 1))
        for _ in range(50):
            coeffs = {}
            for _k in range(6):
                mu, nu = rng.choice(pool_om), rng.choice(pool_om)
                if mu.source_vertex != nu.source_vertex:
                    continue
                coeffs[(mu, nu)] = complex(rng.randint(-2, 2), rng.randint(-2, 2))
            a = FormalElement(omega22, coeffs)
            assert verify_exp_square(boundary_omega, a).ok


def test_criterion_11_diagonal_formula(boundary_tm, boundary_omega, bouquet2,
                                       omega22):
    with criterion(11, "zero diagonals for distinct paths; delta on omega", 10.0):
        pool = paths_up_to_degree(bouquet2, (3,))
        for mu in pool:
            for nu in pool:
                if mu == nu:
                    continue
                report = verify_diagonal_formula(boundary_tm, mu, nu)
                assert all(c.ok for c in report)
                assert not any(c.status == "inconclusive" for c in report)

        units = {h.range_vertex: i for i, h in enumerate(boundary_omega.handles)}
        for q in [(1, 0), (1, 1), (2, 2)]:
            below = [p for p in degrees_up_to(Degree(q))]
            for p1 in below:
                for p2 in below:
                    from kgraphkit.core import omega_path

                    mu = omega_path(omega22, tuple(p1), q)
                    nu = omega_path(omega22, tuple(p2), q)
                    a = FormalElement(omega22, {(mu, nu): 1})
                    matrix = boundary_omega.evaluate(a.diagonal())
                    if mu == nu:
                        i = units["v" + "_".join(map(str, p1))]
                        assert as_referee(matrix).entries == {(i, i): 1}
                    else:
                        assert not as_referee(matrix).entries


def test_criterion_12_matrix_unit_model(boundary_omega):
    with criterion(12, "boundary omega22 spans all 81 matrix units", 5.0):
        assert len(boundary_omega.basis) == 9
        assert matrix_unit_span_rank(boundary_omega) == 81


def test_criterion_13_couniversal_heuristic(fock_b2_n6, boundary_tm, bouquet2):
    with criterion(13, "boundary norm below Fock norm + 0.05, 50 elements", 60.0):
        rng = random.Random(COUNIVERSAL_SEED)
        pool = paths_up_to_degree(bouquet2, (2,))
        for _ in range(50):
            coeffs = {}
            for _k in range(5):
                mu, nu = rng.choice(pool), rng.choice(pool)
                coeffs[(mu, nu)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            a = FormalElement(bouquet2, coeffs)
            check = couniversal_norm_check(fock_b2_n6, boundary_tm, a)
            assert check.detail["tolerance"] == 0.05
            assert check.ok, (check.to_jsonable(),
                              {f"{m.label()},{n.label()}": str(c)
                               for (m, n), c in coeffs.items()})
