"""Operator families: TCK/CK, boolean reps, decompositions, norms, systems."""

from __future__ import annotations

import json
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st


from conftest import (OperatorMatrix, as_matrix, as_referee, referee_evaluate, stored_row,
                      weak_lower_end)
from oracles import (
    boolean_rep_all_pairs,
    boundary_family_from_graph,
    closure_all_pairs,
    dense_norm,
    diagonal_norm_by_sectors,
    extensions_by_scan,
    matrix_unit_span_rank,
    overlapping_pairs,
)
from kgraphkit import Degree, alignment, cli, kgraph_to_dict, repalg
from kgraphkit.alignment import extends, is_exhaustive_brute, vee
from kgraphkit.boundary import periodic_path, shift, thue_morse_path
from kgraphkit.cli import main
from kgraphkit.core import KGraphError, Path, paths_up_to_degree, segment
from kgraphkit.repalg import (
    BooleanRelationFailure,
    BoundaryFamily,
    FormalElement,
    SeparationSearchExhausted,
    boolean_rep,
    build_boundary_family,
    build_fock_family,
    build_separating_system,
    compose_maps,
    couniversal_norm_check,
    diagonal_lower_end,
    diagonal_norm,
    gamma,
    inverse_map,
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
    return build_boundary_family(bouquet2, seeds, (128,), (2,))


def path_index(fam, label):
    return fam.basis.labels.index(label)


def element(g, pairs) -> FormalElement:
    """The formal element sum a t_mu t_nu* from (mu word, nu word, a) triples,
    "" standing for the vertex of a single-vertex graph."""
    def path(w):
        return g.path(list(w)) if w else g.vertex_path(g.vertices[0])

    return FormalElement(g, {(path(mu), path(nu)): a for mu, nu, a in pairs})


def random_table(g, pool, rng, gaussian: bool) -> dict:
    """Coefficients on a random half of the source-matching pairs of the pool:
    Gaussian integers in [-2, 2]², which often cancel, or complex floats."""
    table = {}
    for mu in pool:
        for nu in pool:
            if mu.source_vertex == nu.source_vertex and rng.random() < 0.5:
                table[(mu, nu)] = (complex(rng.randint(-2, 2), rng.randint(-2, 2)) if gaussian
                                   else complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
    return table


class TestOperatorMatrix:
    def test_generators_are_partial_isometries(self, fock_b2_n4, bouquet2):
        t_a = fock_b2_n4.generator(bouquet2.edge_path("a"))
        img = t_a[t_a >= 0]
        assert len(img) and len(set(img.tolist())) == len(img)  # injective
        m = as_matrix(fock_b2_n4.basis, t_a)
        assert (m @ m.adjoint() @ m) == m

    def test_adjoint_involution(self, fock_b2_n4, bouquet2):
        t = fock_b2_n4.generator(bouquet2.path(["a", "b"]))
        assert np.array_equal(inverse_map(inverse_map(t)), t)

    def test_adjoint_is_the_inverse_map_taken_once(self, bouquet2):
        fam = build_fock_family(bouquet2, (4,))
        ab = bouquet2.path(["a", "b"])
        t_star = fam.adjoint(ab)
        assert np.array_equal(t_star, inverse_map(fam.generator(ab)))
        assert fam.adjoint(ab) is t_star and not t_star.flags.writeable

    def test_norm_of_zero(self, fock_b2_n4, bouquet2):
        assert operator_norm(fock_b2_n4.evaluate(element(bouquet2, [])))["value"] == 0.0

    def test_norm_of_projection(self, fock_b2_n4, bouquet2):
        q = fock_b2_n4.evaluate(element(bouquet2, [("a", "a", 1)]))
        assert as_referee(q) == as_matrix(fock_b2_n4.basis, fock_b2_n4.q(bouquet2.edge_path("a")))
        assert abs(operator_norm(q)["value"] - 1.0) < 1e-12

    def test_norm_sqrt_two(self, fock_b2_n4, bouquet2):
        # t_a t_v* + t_b t_v* = t_a + t_b
        m = fock_b2_n4.evaluate(element(bouquet2, [("a", "", 1), ("b", "", 1)]))
        basis = fock_b2_n4.basis
        assert as_referee(m) == (as_matrix(basis, fock_b2_n4.generator(bouquet2.edge_path("a")))
                                 + as_matrix(basis, fock_b2_n4.generator(bouquet2.edge_path("b"))))
        assert abs(operator_norm(m)["value"] - 2 ** 0.5) < 1e-9

    def test_lanczos_matches_dense(self, fock_b2_n4, bouquet2):
        m = fock_b2_n4.evaluate(element(bouquet2, [("a", "", 1), ("b", "b", 0.5)]))
        dense = np.linalg.norm(as_referee(m).to_dense(), 2)
        norm = operator_norm(m)
        assert norm["method"] == "lanczos"
        assert norm["lower"] <= dense <= norm["upper"]
        assert abs(norm["lower"] - dense) < 1e-12

    def test_lanczos_budget(self, fock_b2_n4, bouquet2, monkeypatch):
        m = fock_b2_n4.evaluate(element(bouquet2, [("a", "", 1)]))
        monkeypatch.setattr(repalg, "MAX_LANCZOS_STEPS", 1)
        with pytest.raises(KGraphError, match=r"^Lanczos residual did not settle in 1 steps$"):
            operator_norm(m)

    def test_cancellation_leaves_no_zero_entries(self, fock_b2_n4, boundary_omega,
                                                 bouquet2, omega22):
        assert not OperatorMatrix(fock_b2_n4.basis, {(0, 0): 0}).entries
        # t_a - t_aa t_a* - t_ab t_b* keeps only the vacuum entry t_a e_v = e_a
        m = fock_b2_n4.evaluate(element(bouquet2, [("a", "", 1), ("aa", "a", -1),
                                                   ("ab", "b", -1)]))
        labels = fock_b2_n4.basis.labels
        assert [(labels[i], labels[j]) for i, j in zip(m.rows, m.cols)] == [("a", "v")]
        assert m.vals.tolist() == [1]
        # {e1_0_0} is exhaustive at v0_0, so q_v0_0 = q_e1_0_0 on the boundary
        v, e = omega22.vertex_path("v0_0"), omega22.edge_path("e1_0_0")
        zero = boundary_omega.evaluate(FormalElement(omega22, {(v, v): 1, (e, e): -1}))
        assert len(zero.rows) == len(zero.cols) == len(zero.vals) == 0
        assert operator_norm(zero)["method"] == "zero"

    def test_unhashable(self, fock_b2_n4, bouquet2):
        # a record of mutable entry arrays can be no dict or memo key
        with pytest.raises(TypeError, match="unhashable"):
            hash(fock_b2_n4.evaluate(element(bouquet2, [("a", "a", 1)])))


@pytest.mark.parametrize("gaussian", [False, True], ids=["complex", "gaussian"])
@pytest.mark.parametrize("name, cap", [("fock_b2_n4", (2,)), ("boundary_tm", (2,)),
                                       ("boundary_omega", (1, 1))],
                         ids=["fock_b2_n4", "boundary_tm", "boundary_omega"])
def test_evaluate_matches_referee(request, name, cap, gaussian):
    """Entries, values and first-appearance order equal the dict referee's,
    on random tables whose Gaussian-integer entries often cancel."""
    fam = request.getfixturevalue(name)
    pool = paths_up_to_degree(fam.graph, cap)
    rng = random.Random(f"{name}:{gaussian}")
    cancelled = 0
    for _ in range(20):
        table = random_table(fam.graph, pool, rng, gaussian)
        a = FormalElement(fam.graph, table)
        m = fam.evaluate(a)
        ref = referee_evaluate(fam, a)
        assert m.basis is fam.basis
        assert m.rows.dtype == m.cols.dtype == np.intp and m.vals.dtype == complex
        assert not np.any(m.vals == 0)
        assert [(i, j) for i, j in zip(m.rows.tolist(), m.cols.tolist())] == list(ref.entries)
        assert m.vals.tolist() == list(ref.entries.values())
        touched = set()
        for mu, nu in table:
            tm, tn = fam.generator(mu), fam.generator(nu)
            k = (tm >= 0) & (tn >= 0)
            touched |= set(zip(tm[k].tolist(), tn[k].tolist()))
        cancelled += len(touched) - len(m.vals)
    assert (cancelled > 0) == gaussian


@pytest.fixture(scope="module")
def fock_b2_n9(bouquet2):
    return build_fock_family(bouquet2, (9,))


@pytest.fixture(scope="module")
def fock_b2_n9_sums(fock_b2_n9, bouquet2):
    """A complex table, an integer table and the 0/1 sum t_a + t_b + t_ab on
    the 1,023-vector basis, each with the referee's dense matrix."""
    fam = fock_b2_n9
    pool = [bouquet2.vertex_path("v")] + [bouquet2.path(list(w)) for w in ("a", "b", "ab", "ba")]
    rng = random.Random(0)
    cx = {(mu, nu): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
          for mu in pool for nu in pool}
    ints = {(mu, nu): rng.randint(-2, 2) for mu in pool for nu in pool}
    out = [(fam.evaluate(FormalElement(bouquet2, table)),
            referee_evaluate(fam, FormalElement(bouquet2, table)).to_dense())
           for table in (cx, ints)]
    zero_one = fam.evaluate(element(bouquet2, [("a", "", 1), ("b", "", 1), ("ab", "", 1)]))
    gens = [as_matrix(fam.basis, fam.generator(bouquet2.path(list(w)))) for w in ("a", "b", "ab")]
    out.append((zero_one, (gens[0] + gens[1] + gens[2]).to_dense()))
    return out


def diagonal_tables(bouquet2, seeds):
    """Random complex diagonal-only claim1 tables over {v, a, b}."""
    F = [bouquet2.vertex_path("v"), bouquet2.edge_path("a"), bouquet2.edge_path("b")]
    for seed in seeds:
        rng = random.Random(seed)
        yield F, {(mu, mu): complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for mu in F}


class TestLanczosBracket:
    def test_agrees_with_dense_norm(self, fock_b2_n9_sums):
        for m, referee in fock_b2_n9_sums:
            assert len(m.basis) == 1023
            assert np.array_equal(as_referee(m).to_dense(), referee)
            dense = np.linalg.norm(referee, 2)
            norm = operator_norm(m)
            assert norm["method"] == "lanczos" and 0 < norm["steps"]
            assert abs(norm["value"] - dense) < 1e-12
            assert norm["lower"] <= dense <= norm["upper"]
            assert abs(norm["lower"] - dense) < 1e-12
            assert norm["lower"] <= norm["value"] - norm["allowance"]

    def test_diagonal_bracket_is_tight(self, fock_b2_n9, bouquet2):
        for F, table in diagonal_tables(bouquet2, range(5)):
            m = fock_b2_n9.evaluate(FormalElement(bouquet2, table))
            norm = operator_norm(m)
            dense = np.linalg.norm(as_referee(m).to_dense(), 2)
            assert norm["method"] == "lanczos"
            assert norm["lower"] <= dense <= norm["upper"]
            assert norm["upper"] - norm["lower"] <= 1e-12

    def test_invariant_subspace_stop(self, fock_b2_n4, bouquet2):
        # (q_a - 2 q_b)*(q_a - 2 q_b) = q_a + 4 q_b has three eigenvalues, so
        # the Krylov space of the start vector is invariant after three steps
        m = fock_b2_n4.evaluate(element(bouquet2, [("a", "a", 1), ("b", "b", -2)]))
        norm = operator_norm(m)
        assert norm["steps"] <= 3
        assert norm["lower"] <= 2.0 <= norm["upper"]
        assert norm["upper"] - norm["lower"] <= 1e-12

    @pytest.mark.parametrize("cap", [4, 10])
    def test_start_vector_meets_top_singular_vector(self, bouquet2, cap):
        # M = t_a t_a* - t_a t_b* sends the constant vector to 0, and ‖M‖ = √2:
        # a constant start vector would stop after one step at value 0
        fam = build_fock_family(bouquet2, (cap,))
        norm = operator_norm(fam.evaluate(element(bouquet2, [("a", "a", 1), ("a", "b", -1)])))
        assert norm["method"] == "lanczos"
        assert norm["lower"] <= 2 ** 0.5 <= norm["upper"]
        assert abs(norm["value"] - 2 ** 0.5) <= 1e-12


class TestFockAction:
    def test_concatenation(self, bouquet2):
        fam = build_fock_family(bouquet2, (2,))
        t_a = fam.generator(bouquet2.edge_path("a"))
        v, a, b, ab = (path_index(fam, s) for s in ("v", "a", "b", "a.b"))
        assert t_a[v] == a
        assert t_a[b] == ab
        bb = path_index(fam, "b.b")
        assert t_a[bb] == -1  # cap kills degree-3 images

    def test_tck3_empty_sum(self, fock_b2_n4, bouquet2):
        t_a = fock_b2_n4.generator(bouquet2.edge_path("a"))
        t_b = fock_b2_n4.generator(bouquet2.edge_path("b"))
        assert np.all(compose_maps(inverse_map(t_a), t_b) == -1)

    def test_tck3_prefix_case(self, fock_b2_n4, bouquet2):
        t_a = fock_b2_n4.generator(bouquet2.edge_path("a"))
        t_ab = fock_b2_n4.generator(bouquet2.path(["a", "b"]))
        t_b = fock_b2_n4.generator(bouquet2.edge_path("b"))
        cols = fock_b2_n4.safe_columns((2,))
        assert np.array_equal(compose_maps(inverse_map(t_a), t_ab)[cols], t_b[cols])

    def test_safe_columns_cap(self, fock_b2_n4):
        with pytest.raises(KGraphError, match=r"^budget \(5,\) exceeds basis cap \(4,\); "
                                              r"the safe subspace is empty$"):
            fock_b2_n4.safe_columns((5,))


class TestVerifyTckCk:
    def test_fock_tck_passes(self, fock_b2_n4):
        report = verify_tck(fock_b2_n4, cap=(2,))
        assert all(c.ok for c in report), [c.to_jsonable() for c in report if not c.ok]

    @pytest.mark.parametrize("graph, fock_cap, cap", [("bouquet2", (4,), (2,)),
                                                      ("omega22", (2, 2), (1, 1))],
                             ids=["bouquet2", "omega22"])
    def test_tck_takes_each_adjoint_once(self, request, monkeypatch, graph, fock_cap, cap):
        fam = build_fock_family(request.getfixturevalue(graph), fock_cap)
        used, inverted = set(), []
        generator, inverse_map = fam.generator, repalg.inverse_map

        def recorded_generator(lam):
            used.add(lam)
            return generator(lam)

        def counted_inverse_map(t):
            inverted.append(t)
            return inverse_map(t)

        monkeypatch.setattr(fam, "generator", recorded_generator)
        monkeypatch.setattr(repalg, "inverse_map", counted_inverse_map)
        assert all(c.ok for c in verify_tck(fam, cap))
        assert 0 < len(inverted) <= len(used)

    def test_fock_ck_fails_at_vacuum(self, fock_b2_n4):
        report = verify_ck(fock_b2_n4, (1,))
        bad = [c for c in report if not c.ok]
        assert len(bad) == 1
        assert bad[0].id == "CK:v:{a,b}"
        assert bad[0].witness == "v"

    def test_ck_needs_diagonal_vertex_projection(self, bouquet2):
        # the gap product is read as a mask only while t_v is a partial identity
        fam = build_fock_family(bouquet2, (2,))
        v = bouquet2.vertex_path("v")
        t = stored_row(fam, v)
        t[[0, 1]] = t[[1, 0]]
        with pytest.raises(repalg.KGraphError, match="not a diagonal projection"):
            verify_ck(fam, (1,))

    def test_boundary_omega_tck_ck(self, boundary_omega):
        assert all(c.ok for c in verify_tck(boundary_omega, cap=(1, 1)))
        assert all(c.ok for c in verify_ck(boundary_omega, (1, 1)))

    def test_boundary_tm_tck_ck(self, boundary_tm):
        assert all(c.ok for c in verify_tck(boundary_tm, cap=(2,)))
        assert all(c.ok for c in verify_ck(boundary_tm, (1,)))

    def test_flip_fock_tck(self, flip):
        fam = build_fock_family(flip, (2, 2))
        assert all(c.ok for c in verify_tck(fam, cap=(1, 1)))


class TestBoundaryBasis:
    def test_omega_basis_is_nine(self, boundary_omega):
        assert len(boundary_omega.basis) == 9

    def test_omega_generators_are_matrix_units(self, boundary_omega, omega22):
        from kgraphkit.core import omega_path

        lam = omega_path(omega22, (0, 0), (1, 1))
        m = boundary_omega.generator(lam)
        (j,) = np.flatnonzero(m >= 0)
        i = m[j]
        assert boundary_omega.handles[i].range_vertex == "v0_0"
        assert boundary_omega.handles[j].range_vertex == "v1_1"

    def test_tm_seed_screen_drops_periodic(self, bouquet2):
        from kgraphkit.boundary import periodic_path

        with pytest.raises(KGraphError,
                           match=r"^every seed failed the windowed aperiodicity screen; "
                                 r"the aperiodic boundary-path space is empty at this resolution$"):
            build_boundary_family(bouquet2, [periodic_path(bouquet2, ["a"])],
                                  (64,), (1,))

    def test_seed_screen_keeps_only_aperiodic_seeds(self, bouquet2):
        # the two shifts of (ab)^inf fail the screen and Thue-Morse passes it,
        # so the family is the one built from Thue-Morse alone
        from kgraphkit.boundary import normal_form, periodic_path

        tm = thue_morse_path(bouquet2)
        ab = periodic_path(bouquet2, ["a", "b"])
        fam = build_boundary_family(bouquet2, [ab, shift(ab, (1,)), tm], (64,), (1,))
        assert {normal_form(x)[1] for x in fam.handles} == {tm}
        alone = build_boundary_family(bouquet2, [tm], (64,), (1,))
        assert [x.name for x in fam.handles] == [x.name for x in alone.handles]

    def test_empty_seeds(self, bouquet2):
        with pytest.raises(KGraphError, match=r"^no boundary-path handles supplied$"):
            build_boundary_family(bouquet2, [], (64,), (1,))

    def test_window_collision(self, bouquet2):
        tm = thue_morse_path(bouquet2)
        with pytest.raises(KGraphError, match=r"^seeds tm and tm agree on window \(64,\)$"):
            build_boundary_family(bouquet2, [tm, thue_morse_path(bouquet2)],
                                  (64,), (1,))

    def test_generator_collision(self, bouquet2):
        # the two handles differ only in the last window letter, so t_a sends
        # both to the handle whose window is a.a.a.a: no partial isometry
        from kgraphkit.boundary import periodic_path

        handles = [periodic_path(bouquet2, "aaab", name="x1"),
                   periodic_path(bouquet2, "a", name="x2")]
        fam = BoundaryFamily(bouquet2, handles, (4,))
        # both images under t_b have window b.a.a.a, which no handle has
        assert np.all(fam.generator(bouquet2.edge_path("b")) == -1)
        with pytest.raises(KGraphError,
                           match=r"^t_a sends x1 and x2 to one handle at window \(4,\)$"):
            fam.generator(bouquet2.edge_path("a"))

    def test_tm_sum_of_range_projections(self, boundary_tm, bouquet2):
        q_a = boundary_tm.q(bouquet2.edge_path("a"))
        q_b = boundary_tm.q(bouquet2.edge_path("b"))
        ident = boundary_tm.generator(bouquet2.vertex_path("v"))
        cols = boundary_tm.safe_columns((1,))
        total = q_a.astype(int) + q_b  # the diagonal of q_a + q_b
        assert total[cols].max() <= 1
        assert np.array_equal(ident[cols], np.where(total[cols] == 1, cols, -1))


class TestBooleanRep:
    def test_fock_relations(self, fock_b2_n4, bouquet2):
        q = boolean_rep(fock_b2_n4, cap=(2,))
        assert not np.any(q.q(bouquet2.edge_path("a")) & q.q(bouquet2.edge_path("b")))
        qa = q.q(bouquet2.edge_path("a"))
        assert np.array_equal(q.q(bouquet2.vertex_path("v")) & qa, qa)

    def test_omega_diagonal_units(self, boundary_omega, omega22):
        q = boolean_rep(boundary_omega, cap=(1, 1))
        m = q.q(omega22.edge_path("e1_0_0"))
        (i,) = np.flatnonzero(m)
        assert boundary_omega.handles[i].range_vertex == "v0_0"

    def test_tampered_projection_is_caught(self, bouquet2):
        fam = build_fock_family(bouquet2, (3,))
        a, b = bouquet2.edge_path("a"), bouquet2.edge_path("b")
        # q_a := q_b, so q_a q_b = q_b, but MCE(a, b) is empty
        stored_row(fam, a, adjoint=True)[:] = fam.adjoint(b)
        with pytest.raises(BooleanRelationFailure):
            boolean_rep(fam, cap=(1,))
        with pytest.raises(BooleanRelationFailure):
            q_decomposition(fam, [bouquet2.vertex_path("v"), a, b])


def _with_column(fam, lam, j):
    """Give q_lam the basis vector j as well: t_lam*, whose domain it is, is
    defined at j in the family's store."""
    t_star = stored_row(fam, lam, adjoint=True)
    assert t_star[j] < 0
    t_star[j] = j


def pair_rule_family(name, corpus, boundary_omega, boundary_tm):
    """(family, cap, whether the product rule breaks) for each case."""
    g = corpus["omega22"]
    if name == "tamper-range":
        # q_a gains a basis vector of another range, safe at d(a)
        fam = build_fock_family(g, (2, 2))
        a = g.edge_path("e1_0_0")
        cols = fam.safe_columns(a.degree)
        _with_column(fam, a, cols[fam._ranges[cols] != a.range_vertex][0])
        return fam, (1, 1), True
    if name == "tamper-vertices":
        # q_v gains a basis vector of range w: only the pair (v, w) sees it
        fam = build_fock_family(g, (2, 2))
        v, w = (g.vertex_path(x) for x in g.vertices[:2])
        _with_column(fam, v, np.flatnonzero(fam.q(w))[0])
        return fam, (1, 1), True
    if name == "tamper-product":
        b2 = corpus["bouquet2"]
        fam = build_fock_family(b2, (3,))
        a, b = b2.edge_path("a"), b2.edge_path("b")
        _with_column(fam, a, np.flatnonzero(fam.q(b))[0])  # q_a q_b != 0
        return fam, (1,), True
    if name == "omega22-boundary":
        return boundary_omega, (1, 1), False
    if name == "tm-boundary":
        return boundary_tm, (2,), False
    caps = {"bouquet2": ((4,), (2,)), "flip": ((2, 2), (1, 1)), "omega22": ((2, 2), (1, 1)),
            "omega222": ((2, 2, 2), (2, 2, 2))}
    cap, gen_cap = caps[name]
    return build_fock_family(corpus[name], cap), gen_cap, False


class TestPairRules:
    """boolean_rep tests same-range pairs and vertex pairs only, and the
    overlap checks count columns; the all-pairs loops referee both."""

    @pytest.mark.parametrize("name", [
        "bouquet2", "flip", "omega22", "omega222", "omega22-boundary", "tm-boundary",
        "tamper-range", "tamper-vertices", "tamper-product"])
    def test_boolean_rep_raises_with_all_pairs_referee(self, corpus, boundary_omega,
                                                       boundary_tm, name):
        fam, cap, broken = pair_rule_family(name, corpus, boundary_omega, boundary_tm)
        try:
            boolean_rep(fam, cap)
            raised = False
        except BooleanRelationFailure:
            raised = True
        assert raised == broken
        assert (boolean_rep_all_pairs(fam, cap) is not None) == broken

    def test_boolean_rep_tests_common_range_and_vertex_pairs(self, omega222, monkeypatch):
        # 1,480 pairs with a common range and 351 pairs of the 27 vertices;
        # all 23,436 pairs of the 216 paths would be tested otherwise.  They
        # are decided in bulk, each once, and no passing pair calls
        # first_difference_on
        decided, explained = [], []
        real = repalg._failing

        def counted(fam, groups, read):
            decided.extend(check[0] for group in groups.values() for check in group)
            return real(fam, groups, read)

        monkeypatch.setattr(repalg, "_failing", counted)
        monkeypatch.setattr(repalg, "first_difference_on", lambda *args: explained.append(args))
        fam = build_fock_family(omega222, (2, 2, 2))
        boolean_rep(fam, (2, 2, 2))
        assert sorted(decided) == list(range(1_480 + 351)) and explained == []

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.lists(st.lists(st.booleans(), min_size=n, max_size=n), max_size=6),
        st.sets(st.integers(0, n - 1)))))
    def test_first_overlap_matches_pairwise_referee(self, data):
        rows, cols = data
        masks = {f"m{i}": np.array(r, dtype=bool) for i, r in enumerate(rows)}
        cols = np.array(sorted(cols), dtype=np.intp)
        pairs = overlapping_pairs(masks, cols)
        got = repalg._first_overlap(masks, cols)
        if not pairs:
            assert got is None
            return
        # the first two members covering the first column any pair shares
        first = min(j for a, b in pairs for j in cols.tolist() if masks[a][j] and masks[b][j])
        assert got in pairs
        assert got == tuple(k for k, m in masks.items() if m[first])[:2]

    @pytest.mark.parametrize("build", ["Q", "phi"])
    def test_overlap_names_two_members_sharing_a_column(self, bouquet2, monkeypatch, build):
        # every piece left as its whole q_lam: Q_v = q_v holds Q_a, and
        # phi_v = q_v holds phi_a; the check names two overlapping members
        seen = {}
        real = repalg._first_overlap

        def spy(masks, cols):
            seen.update(masks=masks, cols=cols)
            return real(masks, cols)

        monkeypatch.setattr(repalg, "_without", lambda fam, mask, paths: mask)
        monkeypatch.setattr(repalg, "_first_overlap", spy)
        fam = build_fock_family(bouquet2, (7,))
        F = vee(bouquet2, paths_up_to_degree(bouquet2, (1,)))
        if build == "Q":
            with pytest.raises(BooleanRelationFailure) as err:
                q_decomposition(fam, F)
            pattern = r"Q_(\S+) and Q_(\S+) are not orthogonal"
        else:
            with pytest.raises(SeparationSearchExhausted) as err:
                build_separating_system(fam, F)
            pattern = r"phi_(\S+) and phi_(\S+) overlap"
        named = re.fullmatch(pattern + r".*", str(err.value)).groups()
        by_label = {lam.label(): lam for lam in seen["masks"]}
        pairs = overlapping_pairs(seen["masks"], seen["cols"])
        assert pairs and tuple(by_label[x] for x in named) in pairs


def _range_spy(monkeypatch) -> list:
    """Route every extends call, in alignment and repalg, through a spy; the
    returned list gets True for each call whose two paths share a range."""
    calls = []
    real = alignment.extends

    def spy(lam, mu):
        calls.append(lam.range_vertex == mu.range_vertex)
        return real(lam, mu)

    monkeypatch.setattr(alignment, "extends", spy)
    monkeypatch.setattr(repalg, "extends", spy)
    return calls


class TestExtensions:
    """Each pool's extension table, built from its same-range members, is the
    whole-pool scan of every member's extensions, lists and order included."""

    @pytest.mark.parametrize("graph, cap, closed", [
        ("bouquet2", (3,), False), ("flip", (2, 2), False), ("omega22", (2, 2), False),
        ("omega222", (2, 2, 2), False), ("bouquet2", (2,), True), ("flip", (1, 1), True),
        ("omega22", (1, 1), True), ("omega222", (1, 1, 1), True)],
        ids=["bouquet2", "flip", "omega22", "omega222", "bouquet2-closure", "flip-closure",
             "omega22-closure", "omega222-closure"])
    def test_table_matches_whole_pool_scan(self, request, graph, cap, closed):
        g = request.getfixturevalue(graph)
        pool = paths_up_to_degree(g, cap)
        if closed:
            pool = repalg._closure(g, pool)
        got = repalg._extensions(pool)
        assert list(got.items()) == list(extensions_by_scan(pool).items())
        assert list(got) == pool and any(got.values())

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.booleans(), min_size=36, max_size=36))
    def test_sub_pools_match_whole_pool_scan(self, omega22, keep):
        # 36 paths on 9 range vertices; each sub-pool keeps the pool order
        pool = [p for p, k in zip(paths_up_to_degree(omega22, (2, 2)), keep) if k]
        got = repalg._extensions(pool)
        assert list(got.items()) == list(extensions_by_scan(pool).items())

    def test_down_set_table_is_composed_once_per_run(self, bouquet2_cubed, monkeypatch):
        # rep-verify's F, every path up to (2,2,2): its table is composed with
        # no extends call, q_decomposition builds it once, and lem3_check
        # reads that table
        pool = paths_up_to_degree(bouquet2_cubed, (2, 2, 2))
        want = list(extensions_by_scan(pool).items())
        calls = _range_spy(monkeypatch)
        assert list(repalg._extensions(pool).items()) == want and calls == []
        fam = boolean_rep(build_fock_family(bouquet2_cubed, (2, 2, 2)), (2, 2, 2))
        built, real = [], repalg._extensions
        monkeypatch.setattr(repalg, "_extensions", lambda pool: built.append(pool) or real(pool))
        Q = q_decomposition(fam, pool)
        assert list(Q.extensions.items()) == want
        assert all(c.ok for c in lem3_check(fam, Q)) and built == [pool]

    def test_lem1_lem3_call_extends_on_same_range_pairs_only(self, omega222, monkeypatch):
        # the rep-verify lem1,lem3 run on omega222 at (2,2,2): a scan of the
        # whole pool per member made 150,030 extends calls, 137,352 of them on
        # pairs with different ranges; the by-range tables made 9,961, and the
        # composed table of this down-set makes none
        calls = _range_spy(monkeypatch)
        fam = boolean_rep(build_fock_family(omega222, (2, 2, 2)), (2, 2, 2))
        F = paths_up_to_degree(omega222, (2, 2, 2))
        assert all(c.ok for c in lem3_check(fam, q_decomposition(fam, F)))
        assert len(calls) <= 12_000 and all(calls)

    def test_separating_system_calls_extends_on_same_range_pairs_only(self, omega22,
                                                                       monkeypatch):
        calls = _range_spy(monkeypatch)
        build_separating_system(build_fock_family(omega22, (2, 2)),
                                paths_up_to_degree(omega22, (1, 1)))
        assert calls and all(calls)


class TestMceSweep:
    def test_tck_and_product_rule_read_one_sweep(self, omega222, tmp_path, capsys,
                                                 monkeypatch):
        # rep-verify tck,lem1 on omega222 at (2,2,2): verify_tck and boolean_rep
        # read every MCE and its tails from one mce_table sweep; one mce call
        # per pair and two segment calls per member made 4,575 mce_set and
        # 5,488 segment calls there.  Each call is tagged with the stage it is
        # made in; lem1's vee makes its own, outside both stages
        stage, sweeps, calls = [None], [], []

        def staged(name, real):
            def run(*args, **kwargs):
                stage[0] = name
                try:
                    return real(*args, **kwargs)
                finally:
                    stage[0] = None
            return run

        monkeypatch.setattr(cli, "verify_tck", staged("verify_tck", cli.verify_tck))
        monkeypatch.setattr(cli, "boolean_rep", staged("boolean_rep", cli.boolean_rep))
        real_sweep, real_mce_set, real_segment = (
            alignment._mce_sweep, alignment.mce_set, repalg.segment)
        monkeypatch.setattr(alignment, "_mce_sweep",
                            lambda g, cap: sweeps.append(cap) or real_sweep(g, cap))
        monkeypatch.setattr(alignment, "mce_set",
                            lambda g, F: calls.append(("mce_set", stage[0])) or real_mce_set(g, F))
        monkeypatch.setattr(repalg, "segment",
                            lambda *a: calls.append(("segment", stage[0])) or real_segment(*a))
        path = tmp_path / "omega222.kg"
        path.write_text(json.dumps(kgraph_to_dict(omega222)), encoding="utf-8")
        assert main(["rep-verify", str(path), "--cap", "2,2,2", "--gen-cap", "2,2,2",
                     "--suite", "tck,lem1"]) == 0
        assert capsys.readouterr().err == "kgraphkit rep-verify: pass=4123\n"
        assert sweeps == [Degree((2, 2, 2))]
        assert [c for c in calls if c[1] is not None] == []
        assert ("mce_set", None) in calls  # the spies see lem1's vee


class TestPool:
    @pytest.mark.parametrize("graph, cap", [
        ("c3", (4,)), ("bouquet2", (3,)), ("flip", (2, 2)), ("twin", (1, 1)),
        ("omega22", (2, 2)), ("omega222", (2, 2, 2))],
        ids=["c3", "bouquet2", "flip", "twin", "omega22", "omega222"])
    def test_paths_up_to_a_degree_are_their_own_pool(self, request, graph, cap):
        # rep-verify's F: MCEs of paths below a degree lie below it, and each
        # path's source vertex is among them
        g = request.getfixturevalue(graph)
        F = paths_up_to_degree(g, cap)
        assert repalg._pool(g, F) == sorted(F, key=Path.sort_key)

    def test_lem1_lem3_close_f_once(self, omega222, capsys, tmp_path, monkeypatch):
        # rep-verify lem1,lem3 on omega222 at (2,2,2): lem3 reads lem1's
        # decomposition, so F's pool takes one vee; closing it again for lem3
        # made 2 vee calls and 5,499 mce_set calls
        vees, mces = [], []
        real_vee, real_mce_set = repalg.vee, alignment.mce_set
        monkeypatch.setattr(repalg, "vee", lambda g, F: vees.append(1) or real_vee(g, F))
        monkeypatch.setattr(alignment, "mce_set",
                            lambda g, F: mces.append(1) or real_mce_set(g, F))
        path = tmp_path / "omega222.kg"
        path.write_text(json.dumps(kgraph_to_dict(omega222)), encoding="utf-8")
        assert main(["rep-verify", str(path), "--cap", "2,2,2", "--gen-cap", "2,2,2",
                     "--suite", "lem1,lem3"]) == 0
        assert capsys.readouterr().err == "kgraphkit rep-verify: pass=217\n"
        assert len(vees) == 1 and len(mces) <= 4_000


# F lacks its members' sources and, on omega22, the MCE of its two edges and
# that MCE's source v1_1; the chain closes F to its pool, the given labels
OPEN_F = pytest.mark.parametrize("graph, words, pool", [
    ("bouquet2", ["a"], ["v", "a"]),
    ("omega22", ["e1_0_0", "e2_0_0"],
     ["v0_1", "v1_0", "v1_1", "e2_0_0", "e1_0_0", "e1_0_0.e2_1_0"])],
    ids=["bouquet2", "omega22"])


def _open_f(request, graph, words, pool):
    """A boolean Fock family large enough for the separating system, the open
    F of the given edges, and its pool, checked against the given labels."""
    g = request.getfixturevalue(graph)
    fam = boolean_rep(build_fock_family(g, (8,) if g.rank == 1 else (2, 2)), cap=(1,) * g.rank)
    F = [g.edge_path(w) for w in words]
    closed = repalg._pool(g, F)
    assert [w.label() for w in closed] == pool
    return fam, F, closed


class TestQDecomposition:
    def test_spec_worked_example(self, bouquet2):
        fam = build_fock_family(bouquet2, (2,))
        q = boolean_rep(fam, cap=(1,))
        F = [bouquet2.vertex_path("v"), bouquet2.edge_path("a"), bouquet2.edge_path("b")]
        Q = q_decomposition(q, F)
        v_idx = path_index(fam, "v")
        Qv = Q[bouquet2.vertex_path("v")]
        assert np.flatnonzero(Qv).tolist() == [v_idx]
        assert np.array_equal(Q[bouquet2.edge_path("a")], q.q(bouquet2.edge_path("a")))
        total = Qv.astype(int) + Q[bouquet2.edge_path("a")] + Q[bouquet2.edge_path("b")]
        assert np.array_equal(total, q.q(bouquet2.vertex_path("v")).astype(int))

    def test_singleton_vertex(self, fock_b2_n4, bouquet2):
        q = boolean_rep(fock_b2_n4, cap=(1,))
        Q = q_decomposition(q, [bouquet2.vertex_path("v")])
        assert np.array_equal(Q[bouquet2.vertex_path("v")], q.q(bouquet2.vertex_path("v")))

    @OPEN_F
    def test_open_f_decomposes_as_its_pool(self, request, graph, words, pool):
        fam, F, closed = _open_f(request, graph, words, pool)
        Q = q_decomposition(fam, F)
        assert list(Q) == closed
        assert all(np.array_equal(Q[w], m) for w, m in q_decomposition(fam, closed).items())

    def test_omega_boundary_vertex_vanishes(self, boundary_omega, omega22):
        q = boolean_rep(boundary_omega, cap=(1, 1))
        F = [omega22.vertex_path("v0_0"), omega22.vertex_path("v1_0"),
             omega22.vertex_path("v0_1"),
             omega22.edge_path("e1_0_0"), omega22.edge_path("e2_0_0")]
        Q = q_decomposition(q, F)
        assert not Q[omega22.vertex_path("v0_0")].any()


class TestLem3:
    def test_nonexhaustive_branch(self, fock_b2_n4, bouquet2):
        q = boolean_rep(fock_b2_n4, cap=(1,))
        F = [bouquet2.vertex_path("v"), bouquet2.edge_path("a")]
        report = lem3_check(q, q_decomposition(q, F))
        by_id = {c.id: c for c in report}
        assert by_id["lem3:v"].ok and by_id["lem3:v"].witness == "b"
        assert by_id["lem3:a"].ok

    def test_exhaustive_branch_makes_no_claim(self, fock_b2_n4, bouquet2):
        q = boolean_rep(fock_b2_n4, cap=(1,))
        F = [bouquet2.vertex_path("v"), bouquet2.edge_path("a"), bouquet2.edge_path("b")]
        report = lem3_check(q, q_decomposition(q, F))
        by_id = {c.id: c for c in report}
        assert "none" in by_id["lem3:v"].detail["claim"]

    @OPEN_F
    def test_open_f_checks_as_its_pool(self, request, graph, words, pool):
        fam, F, closed = _open_f(request, graph, words, pool)
        report = lem3_check(fam, q_decomposition(fam, F))
        assert report == lem3_check(fam, q_decomposition(fam, closed))
        assert [c.id for c in report] == [f"lem3:{label}" for label in pool]
        assert all(c.ok for c in report)


def _diagonal(g, coeffs: dict) -> FormalElement:
    """sum c_lam t_lam t_lam*, for coeffs lam -> c_lam."""
    return FormalElement(g, {(lam, lam): c for lam, c in coeffs.items()})


class TestDiagonalNorm:
    def test_two_sector_example(self, fock_b2_n4, bouquet2):
        c = {bouquet2.vertex_path("v"): 1, bouquet2.edge_path("a"): -1}
        assert diagonal_norm(fock_b2_n4, _diagonal(bouquet2, c)) == 1.0

    def test_single_projection(self, fock_b2_n4, bouquet2):
        c = {bouquet2.vertex_path("v"): 1}
        assert diagonal_norm(fock_b2_n4, _diagonal(bouquet2, c)) == 1.0

    def test_orthogonal_sectors(self, fock_b2_n4, bouquet2):
        c = {bouquet2.edge_path("a"): 1, bouquet2.edge_path("b"): 1}
        assert diagonal_norm(fock_b2_n4, _diagonal(bouquet2, c)) == 1.0

    def test_formula_matches_numeric_norm(self, fock_b2_n4, bouquet2):
        rng = random.Random(20108)
        pool = [bouquet2.vertex_path("v"), bouquet2.edge_path("a"),
                bouquet2.edge_path("b"), bouquet2.path(["a", "a"]),
                bouquet2.path(["a", "b"])]
        for _ in range(20):
            c = {p: complex(rng.randint(-3, 3), rng.randint(-3, 3)) for p in pool}
            m = fock_b2_n4.evaluate(_diagonal(bouquet2, c))
            referee = OperatorMatrix.sum(fock_b2_n4.basis, [
                as_matrix(fock_b2_n4.basis, fock_b2_n4.q(p)) * k for p, k in c.items()])
            assert as_referee(m) == referee
            lhs = diagonal_norm(fock_b2_n4, _diagonal(bouquet2, c))
            assert abs(lhs - operator_norm(m)["value"]) < 1e-10

    def test_off_diagonal_terms_are_dropped(self, fock_b2_n4, bouquet2):
        a, b = bouquet2.edge_path("a"), bouquet2.edge_path("b")
        element = FormalElement(bouquet2, {(a, a): 2, (a, b): 5, (b, a): -7})
        assert diagonal_norm(fock_b2_n4, element) == 2.0
        assert diagonal_norm(fock_b2_n4, FormalElement(bouquet2, {(a, b): 1})) == 0.0


@pytest.fixture(scope="module")
def sector_families(bouquet2, omega22, flip, c3, fock_b2_n6, boundary_omega, boundary_tm):
    """(family, F) for the Fock families of bouquet2 at (6,), omega22 at
    (2,2), flip at (3,3) and c3 at (6,), the omega22 boundary family and the
    Thue-Morse boundary family; each cap holds F's closure degree."""
    return {"fock-bouquet2": (fock_b2_n6, paths_up_to_degree(bouquet2, (2,))),
            "fock-omega22": (build_fock_family(omega22, (2, 2)),
                             paths_up_to_degree(omega22, (1, 1))),
            "fock-flip": (build_fock_family(flip, (3, 3)), paths_up_to_degree(flip, (1, 1))),
            "fock-c3": (build_fock_family(c3, (6,)), paths_up_to_degree(c3, (2,))),
            "boundary-omega22": (boundary_omega, paths_up_to_degree(omega22, (1, 1))),
            "boundary-thue-morse": (boundary_tm, paths_up_to_degree(bouquet2, (2,)))}


class TestDiagonalNormReferee:
    @pytest.mark.parametrize("name", ["fock-bouquet2", "fock-omega22", "fock-flip", "fock-c3",
                                      "boundary-omega22", "boundary-thue-morse"])
    def test_bit_equal_to_the_sector_formula(self, sector_families, name):
        # 60 tables per family, over a random subset of F: Gaussian integers,
        # which often cancel, and uniform complex floats in turn.  The sector
        # totals are summed in sort order, the order of evaluate's terms
        fam, F = sector_families[name]
        g = fam.graph
        for seed in range(60):
            rng = random.Random(seed)
            sub = [mu for mu in F if rng.random() < 0.6]
            table = random_table(g, sub, rng, gaussian=seed % 2 == 0)
            diag = {mu: table[(mu, mu)] for mu in sorted(sub, key=Path.sort_key)
                    if (mu, mu) in table}
            lhs = diagonal_norm(fam, FormalElement(g, table))
            assert lhs == diagonal_norm_by_sectors(fam, diag), (name, seed)


class TestExpectation:
    def test_offdiagonal_killed(self, fock_b2_n4, bouquet2):
        a = FormalElement(bouquet2, {(bouquet2.edge_path("a"), bouquet2.edge_path("b")): 1})
        matrix = fock_b2_n4.evaluate(a.diagonal())
        assert len(a.diagonal()) == 0 and len(matrix.rows) == len(matrix.cols) == len(matrix.vals) == 0

    def test_diagonal_kept(self, fock_b2_n4, bouquet2):
        pa = bouquet2.edge_path("a")
        a = FormalElement(bouquet2, {(pa, pa): 1})
        matrix = fock_b2_n4.evaluate(a.diagonal())
        assert a.diagonal() == a and as_referee(matrix) == as_matrix(fock_b2_n4.basis, fock_b2_n4.q(pa))

    def test_linearity(self, fock_b2_n4, bouquet2):
        pa, pb = bouquet2.edge_path("a"), bouquet2.edge_path("b")
        a = FormalElement(bouquet2, {(pa, pa): 2, (pa, pb): 1j})
        matrix = fock_b2_n4.evaluate(a.diagonal())
        assert as_referee(matrix) == as_matrix(fock_b2_n4.basis, fock_b2_n4.q(pa)) * 2

    def test_formally_idempotent(self, fock_b2_n4, bouquet2):
        pa, pb = bouquet2.edge_path("a"), bouquet2.edge_path("b")
        a = FormalElement(bouquet2, {(pa, pa): 2, (pa, pb): 1j, (pb, pb): -1})
        once = a.diagonal()
        assert once.diagonal() == once

    def test_contractive_numerically(self, fock_b2_n6, bouquet2):
        rng = random.Random(55221)
        pool = [bouquet2.vertex_path("v"), bouquet2.edge_path("a"),
                bouquet2.edge_path("b"), bouquet2.path(["b", "a"])]
        for _ in range(10):
            coeffs = {}
            for mu in pool:
                for nu in pool:
                    coeffs[(mu, nu)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            a = FormalElement(bouquet2, coeffs)
            diag_m = fock_b2_n6.evaluate(a.diagonal())
            assert (operator_norm(diag_m)["value"]
                    <= operator_norm(fock_b2_n6.evaluate(a))["value"] + 1e-8)

    def test_source_mismatch_rejected(self, c3):
        with pytest.raises(Exception):
            FormalElement(c3, {(c3.edge_path("e0"), c3.edge_path("e1")): 1})

    def test_gram_diagonal_nonnegative(self, fock_b2_n6, bouquet2):
        rng = random.Random(7271)
        pool = [bouquet2.vertex_path("v"), bouquet2.edge_path("a"),
                bouquet2.edge_path("b"), bouquet2.path(["a", "b"])]
        for _ in range(10):
            coeffs = {(mu, nu): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                      for mu in pool for nu in pool}
            m = as_referee(fock_b2_n6.evaluate(FormalElement(bouquet2, coeffs)))
            gram = m.adjoint() @ m
            for value in (v for (i, j), v in gram.entries.items() if i == j):
                assert abs(complex(value).imag) < 1e-12
                assert complex(value).real >= -1e-12


@pytest.fixture(scope="module")
def fock_b2_n8(bouquet2):
    return build_fock_family(bouquet2, (8,))


@pytest.fixture(scope="module")
def b2_system(fock_b2_n8, bouquet2):
    F = [bouquet2.vertex_path("v")] + [bouquet2.path(list(w)) for w in
                                       ("a", "b", "aa", "ab", "ba", "bb")]
    return build_separating_system(fock_b2_n8, F)


class TestSeparatingSystem:
    def test_builds_with_dominated_phis(self, b2_system, fock_b2_n8, bouquet2):
        q_a = fock_b2_n8.q(bouquet2.edge_path("a"))
        phi_a = b2_system[bouquet2.edge_path("a")]
        assert np.array_equal(q_a & phi_a, phi_a)
        assert phi_a.any()

    def test_phi_mutually_orthogonal(self, b2_system):
        phis = list(b2_system.values())
        for i in range(len(phis)):
            for j in range(i + 1, len(phis)):
                assert not np.any(phis[i] & phis[j])

    def test_two_loop_f(self, fock_b2_n8, bouquet2):
        # the pool adds the loops' source vertex
        phi = build_separating_system(
            fock_b2_n8, [bouquet2.edge_path("a"), bouquet2.edge_path("b")])
        assert set(phi) == {bouquet2.vertex_path("v"), bouquet2.edge_path("a"),
                            bouquet2.edge_path("b")}

    def test_omega_system(self, omega22):
        fam = build_fock_family(omega22, (2, 2))
        F = [omega22.vertex_path("v0_0"), omega22.edge_path("e1_0_0")]
        phi = build_separating_system(fam, F)
        assert phi and all(m.any() for m in phi.values())

    def test_depth_budget_exhausts_search(self, fock_b2_n8, bouquet2, monkeypatch):
        # no tau within the depth budget separates the completions
        F = [bouquet2.vertex_path("v")] + [bouquet2.path(list(w)) for w in
                                           ("a", "b", "aa", "ab", "ba", "bb")]
        monkeypatch.setattr(repalg, "separate_family", lambda *args: None)
        with pytest.raises(SeparationSearchExhausted, match="no single extension separates"):
            build_separating_system(fock_b2_n8, F)

    def test_periodic_cycle_takes_q_branch(self, c3):
        # the cycle's extension sets are all exhaustive, so the construction
        # legitimately needs no separating extension here
        fam = build_fock_family(c3, (8,))
        F = [c3.vertex_path("v0"), c3.path(["e0", "e1", "e2"])]
        ext = repalg._extensions(repalg._closure(c3, F))
        assert all(repalg._lem3_witness(c3, lam, ext)[1] is None for lam in F)
        phi = build_separating_system(fam, F)
        assert all(np.array_equal(phi[lam], repalg._without(fam, fam.q(lam), ext[lam]))
                   for lam in F)

    @OPEN_F
    def test_open_f_separates_as_its_pool(self, request, graph, words, pool):
        fam, F, closed = _open_f(request, graph, words, pool)
        phi = build_separating_system(fam, F)
        assert list(phi) == closed
        assert all(np.array_equal(phi[w], m)
                   for w, m in build_separating_system(fam, closed).items())

    def test_singleton_vertex_f(self, fock_b2_n8, bouquet2):
        v = bouquet2.vertex_path("v")
        # phi_v = q_{v·tau} equals q_v only when the separating tau is the vertex
        phi = build_separating_system(fock_b2_n8, [v])
        assert np.array_equal(phi[v], fock_b2_n8.q(v))


@pytest.mark.parametrize("graph, f_cap, cap, exhaustive", [
    ("bouquet2", (2,), (8,), (3, 3)), ("omega22", (1, 1), (2, 2), (16, 16)),
    ("flip", (1, 1), (4, 4), (6, 4))], ids=["bouquet2", "omega22", "flip"])
def test_lem3_witness_matches_brute_exhaustiveness(request, graph, f_cap, cap, exhaustive):
    # the separating system reads λ's tails in the closure, lem3 in F itself;
    # both must call them exhaustive exactly when the brute referee does, and
    # the system takes the Q piece where they are; the pinned counts keep both
    # kinds of λ in play (flip's closure tails are all exhaustive, its tails in
    # F are not)
    g = request.getfixturevalue(graph)
    F = paths_up_to_degree(g, f_cap)
    fam = build_fock_family(g, cap)

    def brute(lam, pool):
        tails = [segment(w, lam.degree, w.degree) for w in pool
                 if w != lam and extends(w, lam)]
        return bool(tails) and is_exhaustive_brute(g, lam.source_vertex, tails).exhaustive

    closure = repalg._closure(g, F)
    ext = repalg._extensions(closure)
    in_closure = {lam: repalg._lem3_witness(g, lam, ext)[1] is None for lam in F}
    assert in_closure == {lam: brute(lam, closure) for lam in F}
    phi = build_separating_system(fam, F)
    assert all(np.array_equal(phi[lam], repalg._without(fam, fam.q(lam), ext[lam]))
               for lam in F if in_closure[lam])
    claims = {c.id: "claim" in c.detail for c in lem3_check(fam, q_decomposition(fam, F))}
    assert claims == {f"lem3:{lam.label()}": brute(lam, F) for lam in F}
    assert (sum(in_closure.values()), sum(claims.values())) == exhaustive
    assert len(F) > exhaustive[1]


@pytest.mark.parametrize("graph, f_cap", [
    ("bouquet2", (2,)), ("bouquet2", (3,)), ("flip", (2, 2)), ("twin", (1, 1)),
    ("omega22", (2, 2)), ("omega222", (1, 1, 1)), ("omega222", (2, 2, 2))])
def test_closure_matches_all_pairs_referee(request, graph, f_cap):
    g = request.getfixturevalue(graph)
    F = paths_up_to_degree(g, f_cap)
    assert repalg._closure(g, F) == closure_all_pairs(g, F)


def test_closure_walks_each_common_range_pair_once(omega222, monkeypatch):
    # every ordered pair of the 216 paths, cross-range ones included, made
    # 51,234 mce_set calls; the unordered common-range pairs and the final vee
    # make 4,362
    calls = []
    real = alignment.mce_set
    monkeypatch.setattr(alignment, "mce_set", lambda g, F: calls.append(1) or real(g, F))
    repalg._closure(omega222, paths_up_to_degree(omega222, (2, 2, 2)))
    assert len(calls) <= 5_000


class TestPhi2:
    def test_case_split_samples(self, b2_system, fock_b2_n8, bouquet2):
        a, b = bouquet2.edge_path("a"), bouquet2.edge_path("b")
        aa = bouquet2.path(["a", "a"])
        assert verify_phi2(fock_b2_n8, b2_system, a, a, a).ok
        assert verify_phi2(fock_b2_n8, b2_system, b, b, a).ok
        assert verify_phi2(fock_b2_n8, b2_system, a, b, a).ok
        assert verify_phi2(fock_b2_n8, b2_system, a, a, aa).ok


class TestClaim1:
    def test_worked_instance(self, fock_b2_n6, bouquet2):
        a, b = bouquet2.edge_path("a"), bouquet2.edge_path("b")
        table = {(mu, nu): 1 for mu in (a, b) for nu in (a, b)}
        check, = verify_claim1(fock_b2_n6, [a, b], [table])
        assert check.ok
        assert abs(check.detail["lhs"] - 1.0) < 1e-9
        rhs = operator_norm(fock_b2_n6.evaluate(FormalElement(bouquet2, table)))["value"]
        assert abs(rhs - 2.0) < 1e-9

    def test_diagonal_table_equality(self, fock_b2_n6, bouquet2):
        a, b = bouquet2.edge_path("a"), bouquet2.edge_path("b")
        table = {(a, a): 1, (b, b): -1j}
        check, = verify_claim1(fock_b2_n6, [a, b], [table])
        assert check.ok
        rhs = operator_norm(fock_b2_n6.evaluate(FormalElement(bouquet2, table)))["value"]
        assert abs(check.detail["lhs"] - rhs) < 1e-9

    def test_one_result_per_table(self, fock_b2_n6, bouquet2):
        F = paths_up_to_degree(bouquet2, (2,))
        tables = [random_table(bouquet2, F, random.Random(seed), gaussian=seed % 2 == 0)
                  for seed in range(6)]
        checks = verify_claim1(fock_b2_n6, F, tables)
        assert checks == [verify_claim1(fock_b2_n6, F, [t])[0] for t in tables]
        assert [c.status for c in checks] == ["pass"] * 6
        assert verify_claim1(fock_b2_n6, F, []) == []

    @staticmethod
    def _spy_closure_and_projections(monkeypatch):
        # record every _closure, vee, Q piece and Q decomposition built
        seen = []
        real_vee, real_q, real_decomposition = repalg.vee, repalg.IsometryFamily.q, \
            repalg.q_decomposition
        monkeypatch.setattr(repalg, "_closure", lambda g, F: seen.append("_closure"))
        monkeypatch.setattr(repalg, "vee", lambda g, F: seen.append("vee") or real_vee(g, F))
        monkeypatch.setattr(alignment, "vee", lambda g, F: seen.append("vee") or real_vee(g, F))
        monkeypatch.setattr(repalg.IsometryFamily, "q",
                            lambda fam, lam: seen.append("q") or real_q(fam, lam))
        monkeypatch.setattr(repalg, "q_decomposition", lambda fam, F: seen.append(
            "q_decomposition") or real_decomposition(fam, F))
        return seen

    def test_run_closes_f_once_and_reads_no_projection(self, omega22, tmp_path, capsys,
                                                       monkeypatch):
        # rep-verify claim1 on omega22 at gen-cap (1,1), four tables: F is
        # bounded once for the run, by one verify_claim1 call that checks the
        # join of F's degrees against the cap before any table is read, and
        # lhs is read off the evaluated diagonal, so no closure, projection,
        # Q piece or vee is built
        seen = self._spy_closure_and_projections(monkeypatch)
        calls = []
        real_claim1 = cli.verify_claim1
        monkeypatch.setattr(cli, "verify_claim1", lambda fam, F, tables: calls.append(
            len(tables)) or real_claim1(fam, F, tables))
        path = tmp_path / "omega22.kg"
        path.write_text(json.dumps(kgraph_to_dict(omega22)), encoding="utf-8")
        assert main(["rep-verify", str(path), "--cap", "2,2", "--gen-cap", "1,1",
                     "--suite", "claim1", "--suite-size", "4"]) == 0
        assert capsys.readouterr().err == "kgraphkit rep-verify: pass=4\n"
        assert calls == [4] and seen == []

    def test_no_closure_without_a_cap(self, boundary_omega, omega22, monkeypatch):
        # a boundary family has no cap, and claim1 closes nothing on it either
        seen = self._spy_closure_and_projections(monkeypatch)
        F = paths_up_to_degree(omega22, (1, 1))
        table = {(mu, nu): 1 for mu in F for nu in F if mu.source_vertex == nu.source_vertex}
        check, = verify_claim1(boundary_omega, F, [table])
        assert check.ok
        assert seen == []

    def test_cap_guard(self, bouquet2):
        # F's degree (2,) is checked against the cap (1,) before any table is read
        small = build_fock_family(bouquet2, (1,))
        a, b = bouquet2.edge_path("a"), bouquet2.edge_path("b")
        aa = bouquet2.path(["a", "a"])

        def tables():
            raise AssertionError("a table was read")
            yield

        with pytest.raises(KGraphError, match=r"^cap \(1,\) cannot hold F's degree \(2,\)$"):
            verify_claim1(small, [a, b, aa], tables())


class TestClaim1Bracket:
    def test_diagonal_tables_pass_on_lanczos_bracket(self, fock_b2_n9, bouquet2):
        # seed 3 failed with power iteration: lhs - rhs = 1.02e-8 > tol
        pairs = list(diagonal_tables(bouquet2, [3, *range(8)]))
        F, tables = pairs[0][0], [table for _, table in pairs]
        checks = verify_claim1(fock_b2_n9, F, tables)
        assert len(checks) == len(tables)
        for table, check in zip(tables, checks):
            assert check.status == "pass", check.to_jsonable()
            lhs = check.detail["lhs"]
            norm = operator_norm(fock_b2_n9.evaluate(FormalElement(bouquet2, table)))
            assert norm["method"] == "lanczos" and norm["steps"] > 0
            assert norm["lower"] <= lhs <= norm["upper"]
            assert abs(lhs - norm["value"]) < 1e-12

    def test_detail_keys(self, fock_b2_n9, bouquet2, monkeypatch):
        (F, table), = diagonal_tables(bouquet2, [3])
        detail = verify_claim1(fock_b2_n9, F, [table])[0].detail
        assert set(detail) == {"lhs", "method", "column", "lower", "allowance"}
        assert detail["method"] == "diagonal" and detail["column"] in fock_b2_n9.basis.labels
        assert 0 < detail["allowance"] < 1e-12
        norm = operator_norm(fock_b2_n9.evaluate(FormalElement(bouquet2, table)))
        assert set(norm) == {"value", "method", "steps", "lower", "upper", "allowance"}
        assert 0 < norm["allowance"] < 1e-12
        # t_a t_b* has no diagonal entry: lhs is 0 and the trivial lower end 0
        # decides it, with no norm taken
        norms = []
        real = repalg.operator_norm
        monkeypatch.setattr(repalg, "operator_norm", lambda m: norms.append(m) or real(m))
        a, b = bouquet2.edge_path("a"), bouquet2.edge_path("b")
        check, = verify_claim1(fock_b2_n9, [a, b], [{(a, b): 1}])
        assert check.status == "pass"
        assert check.detail == {"lhs": 0.0, "method": "diagonal", "column": None,
                                "lower": 0.0, "allowance": 0.0}
        assert norms == []

    def test_lhs_inside_bracket_is_inconclusive(self, fock_b2_n9, bouquet2, monkeypatch):
        weak_lower_end(monkeypatch)
        F = [bouquet2.vertex_path("v"), bouquet2.edge_path("a"), bouquet2.edge_path("b")]
        rng = random.Random(1)
        table = {(mu, nu): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                 for mu in F for nu in F}
        check, = verify_claim1(fock_b2_n9, F, [table])
        d = check.detail
        assert check.status == "inconclusive" and check.witness is None
        assert d["lower"] + 1e-8 < d["lhs"] < d["upper"]
        assert "inside the lanczos norm bracket" in d["reason"]

    def test_fails_only_above_upper_end(self, fock_b2_n6, bouquet2, monkeypatch):
        weak_lower_end(monkeypatch)
        a, b = bouquet2.edge_path("a"), bouquet2.edge_path("b")
        monkeypatch.setattr(repalg, "operator_norm", lambda m: {
            "value": 0.5, "method": "lanczos", "steps": 0, "lower": 0.5, "upper": 0.5,
            "allowance": 0.0})
        check, = verify_claim1(fock_b2_n6, [a, b], [{(a, a): 1}])
        assert check.status == "fail"
        assert check.witness == "lhs=1.0 upper=0.5"


@pytest.fixture(scope="module")
def claim1_families(bouquet2, omega22, fock_b2_n4, boundary_omega):
    """(family, F) for the Fock bouquet2 family at cap 4, the Fock omega22
    family at (2,2), the omega22 boundary family, and a bouquet2 family on
    the periodic handles a^∞, b^∞, (ab)^∞ and (ba)^∞, where t_a e_x = e_x
    for x = a^∞, so off-diagonal terms such as t_a t_aa* meet the diagonal."""
    periodic = BoundaryFamily(bouquet2, [periodic_path(bouquet2, w)
                                         for w in ("a", "b", "ab", "ba")], (8,))
    return {"fock-bouquet2": (fock_b2_n4, paths_up_to_degree(bouquet2, (2,))),
            "fock-omega22": (build_fock_family(omega22, (2, 2)),
                             paths_up_to_degree(omega22, (1, 1))),
            "boundary-omega22": (boundary_omega, paths_up_to_degree(omega22, (1, 1))),
            "periodic-bouquet2": (periodic, paths_up_to_degree(bouquet2, (2,)))}


def claim1_referee_tables(fam, F, seeds):
    """Random complex tables on F, in turn on all pairs, on the diagonal pairs
    only, on the off-diagonal pairs only, and Gaussian integers that cancel."""
    g = fam.graph
    for seed in seeds:
        rng = random.Random(seed)
        kind = seed % 4
        table = random_table(g, F, rng, gaussian=kind == 3)
        if kind == 1:
            table = {(mu, nu): a for (mu, nu), a in table.items() if mu == nu}
        elif kind == 2:
            table = {(mu, nu): a for (mu, nu), a in table.items() if mu != nu}
        yield table


class TestClaim1DiagonalEnd:
    FAMILY_NAMES = ["fock-bouquet2", "fock-omega22", "boundary-omega22", "periodic-bouquet2"]

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_never_above_the_dense_norm(self, claim1_families, name):
        fam, F = claim1_families[name]
        decided = crossing = 0
        for table in claim1_referee_tables(fam, F, range(50)):
            a = FormalElement(fam.graph, table)
            m = fam.evaluate(a)
            end = diagonal_lower_end(fam, a)
            if end["column"] is None:
                assert not (m.rows == m.cols).any()
                assert end == {"method": "diagonal", "column": None, "lower": 0.0,
                               "allowance": 0.0}
                continue
            decided += 1
            crossing += all(mu != nu for mu, nu in table)
            top = max(abs(v) for v in m.vals[m.rows == m.cols].tolist())
            assert end["lower"] <= dense_norm(m), (table, end)
            assert 0 < end["allowance"] < 1e-12
            assert 0 < top - end["lower"] <= 2 * end["allowance"]
            j = m.basis.labels.index(end["column"])
            assert abs(m.vals[(m.rows == j) & (m.cols == j)][0]) == top
        assert decided >= 25
        assert (crossing > 0) == (name == "periodic-bouquet2")

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_allowance_counts_the_terms_reaching_the_entry(self, claim1_families, name):
        # a term counts when its referee product t_mu t_nu* has a (j, j)
        # entry; off-diagonal terms reach it on the periodic family
        fam, F = claim1_families[name]
        crossing = 0
        for table in claim1_referee_tables(fam, F, range(12)):
            a = FormalElement(fam.graph, table)
            end = diagonal_lower_end(fam, a)
            if end["column"] is None:
                continue
            j = fam.basis.labels.index(end["column"])
            m = fam.evaluate(a)
            d = float(np.abs(m.vals[(m.rows == j) & (m.cols == j)][0]))
            reach = {(mu, nu): c for (mu, nu), c in a.coeffs.items()
                     if (j, j) in (as_matrix(fam.basis, fam.generator(mu))
                                   @ as_matrix(fam.basis, fam.generator(nu)).adjoint()).entries}
            crossing += any(mu != nu for mu, nu in reach)
            assert 0 < len(reach) < len(a) or len(a) == 1
            assert end["allowance"] == (gamma(4) * d + gamma(len(reach) + 6)
                                        * math.fsum(abs(c) for c in reach.values()))
        assert (crossing > 0) == (name == "periodic-bouquet2")

    def test_allowance_covers_the_rounding_of_the_sum(self, claim1_families, bouquet2):
        # the three terms act only at a^∞, so M = 3·E_00 exactly, but the
        # sum 1e16 + 3 - 1e16 in term order rounds to 4
        fam, _ = claim1_families["periodic-bouquet2"]
        a, aa, aaa = (bouquet2.path(list(w)) for w in ("a", "aa", "aaa"))
        element = FormalElement(bouquet2, {(a, aa): 1e16, (aa, a): 3.0, (aa, aaa): -1e16})
        m = fam.evaluate(element)
        assert (m.rows.tolist(), m.cols.tolist(), m.vals.tolist()) == ([0], [0], [4])
        end = diagonal_lower_end(fam, element)
        assert end["column"] == fam.basis.labels[0] and end["lower"] <= 3.0

    @pytest.mark.parametrize("name", FAMILY_NAMES)
    def test_lhs_above_the_true_norm_never_passes(self, claim1_families, name, monkeypatch):
        fam, F = claim1_families[name]
        for table in claim1_referee_tables(fam, F, range(8)):
            true = dense_norm(fam.evaluate(FormalElement(fam.graph, table)))
            monkeypatch.setattr(repalg, "diagonal_norm", lambda fam, c, lhs=true + 1e-6: lhs)
            check, = verify_claim1(fam, F, [table])
            assert check.status in ("fail", "inconclusive"), check.to_jsonable()
            assert check.detail["method"] == "lanczos"


class TestExpSquare:
    def test_offdiagonal_spanning_element(self, boundary_tm, bouquet2):
        a = FormalElement(bouquet2, {(bouquet2.edge_path("a"), bouquet2.edge_path("b")): 1})
        assert verify_exp_square(boundary_tm, a).ok

    def test_diagonal_spanning_element(self, boundary_tm, bouquet2):
        pa = bouquet2.edge_path("a")
        a = FormalElement(bouquet2, {(pa, pa): 1})
        assert verify_exp_square(boundary_tm, a).ok

    def test_random_integer_elements(self, boundary_tm, bouquet2):
        rng = random.Random(881100)
        pool = [bouquet2.vertex_path("v"), bouquet2.edge_path("a"),
                bouquet2.edge_path("b"), bouquet2.path(["a", "b"]),
                bouquet2.path(["b", "b"])]
        for _ in range(10):
            coeffs = {}
            for _k in range(6):
                mu, nu = rng.choice(pool), rng.choice(pool)
                coeffs[(mu, nu)] = coeffs.get((mu, nu), 0) + complex(
                    rng.randint(-2, 2), rng.randint(-2, 2))
            a = FormalElement(bouquet2, coeffs)
            assert verify_exp_square(boundary_tm, a).ok

    def test_failure_witness(self, boundary_tm, bouquet2):
        # t_a tampered to fix one handle it used to move: the off-diagonal
        # t_a t_v* then has a diagonal entry there, which E drops
        a_path = bouquet2.edge_path("a")

        class Tampered(BoundaryFamily):
            def _edge_generator(self, lam):
                dom, img = super()._edge_generator(lam)
                if lam == a_path:
                    k = next(k for k, j in enumerate(dom) if j not in img)
                    img[k] = dom[k]
                    self.fixed = dom[k]
                return dom, img

        fam = Tampered(bouquet2, boundary_tm.handles, boundary_tm.window)
        check = verify_exp_square(fam, FormalElement(
            bouquet2, {(a_path, bouquet2.vertex_path("v")): 1}))
        label = fam.basis.labels[fam.fixed]
        assert check.status == "fail"
        assert check.witness == f"('{label}', '{label}', 0j, (1+0j))"


class TestDiagonalFormula:
    def test_omega_offdiagonal_zero(self, boundary_omega, omega22):
        report = verify_diagonal_formula(
            boundary_omega, omega22.edge_path("e1_0_0"), omega22.edge_path("e2_0_0"))
        assert all(c.ok for c in report)
        assert not any(c.status == "inconclusive" for c in report)

    def test_omega_diagonal_unit(self, boundary_omega, omega22):
        mu = omega22.edge_path("e1_0_0")
        report = verify_diagonal_formula(boundary_omega, mu, mu)
        assert all(c.ok for c in report)
        matrix = boundary_omega.evaluate(FormalElement(omega22, {(mu, mu): 1}).diagonal())
        assert as_referee(matrix) == as_matrix(boundary_omega.basis, boundary_omega.q(mu))
        assert len(matrix.vals) == 1

    def test_tm_no_inconclusive_small_degrees(self, boundary_tm, bouquet2):
        a, b = bouquet2.edge_path("a"), bouquet2.edge_path("b")
        report = verify_diagonal_formula(boundary_tm, a, b)
        assert all(c.ok for c in report)
        assert not any(c.status == "inconclusive" for c in report)


class TestMatrixUnits:
    def test_omega_full_rank(self, boundary_omega):
        assert matrix_unit_span_rank(boundary_omega) == 81


class TestCouniversal:
    def test_vertex_element(self, fock_b2_n6, boundary_tm, bouquet2):
        v = bouquet2.vertex_path("v")
        a = FormalElement(bouquet2, {(v, v): 1})
        check = couniversal_norm_check(fock_b2_n6, boundary_tm, a)
        assert check.ok
        assert abs(check.detail["boundary"] - 1.0) < 1e-9
        assert abs(check.detail["fock"] - 1.0) < 1e-9

    def test_projection_difference(self, fock_b2_n6, boundary_tm, bouquet2):
        pa, pb = bouquet2.edge_path("a"), bouquet2.edge_path("b")
        a = FormalElement(bouquet2, {(pa, pa): 1, (pb, pb): -1})
        check = couniversal_norm_check(fock_b2_n6, boundary_tm, a)
        assert check.ok
        assert abs(check.detail["boundary"] - 1.0) < 1e-9
        assert abs(check.detail["fock"] - 1.0) < 1e-9

    def test_random_suite(self, fock_b2_n6, boundary_tm, bouquet2):
        rng = random.Random(424242)
        pool = [bouquet2.vertex_path("v"), bouquet2.edge_path("a"),
                bouquet2.edge_path("b"), bouquet2.path(["a", "a"]),
                bouquet2.path(["b", "a"])]
        for _ in range(10):
            coeffs = {}
            for _k in range(5):
                mu, nu = rng.choice(pool), rng.choice(pool)
                coeffs[(mu, nu)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            a = FormalElement(bouquet2, coeffs)
            check = couniversal_norm_check(fock_b2_n6, boundary_tm, a)
            assert check.ok, check.to_jsonable()
