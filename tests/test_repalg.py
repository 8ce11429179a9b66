"""Operator families: TCK/CK, boolean reps, decompositions, norms, systems."""

from __future__ import annotations

import random

import numpy as np
import pytest


from conftest import OperatorMatrix, as_matrix, as_referee, referee_evaluate, weak_lower_end
from oracles import boundary_family_from_graph, matrix_unit_span_rank
from kgraphkit import repalg
from kgraphkit.alignment import extends, is_exhaustive_brute
from kgraphkit.boundary import shift, thue_morse_path
from kgraphkit.core import paths_up_to_degree, segment
from kgraphkit.repalg import (
    BooleanRelationFailure,
    BoundaryFamily,
    CapTooSmall,
    EmptySeedSet,
    FormalElement,
    NonConvergence,
    NotMceClosed,
    SeparationSearchExhausted,
    SourceClosureViolation,
    WindowCollision,
    boolean_rep,
    build_boundary_family,
    build_fock_family,
    build_separating_system,
    compose_maps,
    couniversal_norm_check,
    diagonal_norm,
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
        with pytest.raises(NonConvergence, match="did not settle in 1 steps"):
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
        with pytest.raises(CapTooSmall):
            fock_b2_n4.safe_columns((5,))


class TestVerifyTckCk:
    def test_fock_tck_passes(self, fock_b2_n4):
        report = verify_tck(fock_b2_n4, cap=(2,))
        assert report.ok, [c.to_jsonable() for c in report.checks if not c.ok]

    def test_fock_ck_fails_at_vacuum(self, fock_b2_n4):
        report = verify_ck(fock_b2_n4, (1,))
        bad = [c for c in report.checks if not c.ok]
        assert len(bad) == 1
        assert bad[0].id == "CK:v:{a,b}"
        assert bad[0].witness == "v"

    def test_ck_needs_diagonal_vertex_projection(self, bouquet2):
        # the gap product is read as a mask only while t_v is a partial identity
        fam = build_fock_family(bouquet2, (2,))
        v = bouquet2.vertex_path("v")
        t = np.array(fam.generator(v))
        t[[0, 1]] = t[[1, 0]]
        fam._gens[v] = t
        with pytest.raises(repalg.KGraphError, match="not a diagonal projection"):
            verify_ck(fam, (1,))

    def test_boundary_omega_tck_ck(self, boundary_omega):
        assert verify_tck(boundary_omega, cap=(1, 1)).ok
        assert verify_ck(boundary_omega, (1, 1)).ok

    def test_boundary_tm_tck_ck(self, boundary_tm):
        assert verify_tck(boundary_tm, cap=(2,)).ok
        assert verify_ck(boundary_tm, (1,)).ok

    def test_flip_fock_tck(self, flip):
        fam = build_fock_family(flip, (2, 2))
        assert verify_tck(fam, cap=(1, 1)).ok


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

        with pytest.raises(EmptySeedSet):
            build_boundary_family(bouquet2, [periodic_path(bouquet2, ["a"])],
                                  (64,), (1,))

    def test_empty_seeds(self, bouquet2):
        with pytest.raises(EmptySeedSet):
            build_boundary_family(bouquet2, [], (64,), (1,))

    def test_window_collision(self, bouquet2):
        tm = thue_morse_path(bouquet2)
        with pytest.raises(WindowCollision):
            build_boundary_family(bouquet2, [tm, thue_morse_path(bouquet2)],
                                  (64,), (1,))

    def test_generator_collision(self, bouquet2):
        # the two handles differ only in the last window letter, so t_a sends
        # both to the handle whose window is a.a.a.a: no partial isometry
        from kgraphkit.boundary import periodic_path

        handles = [periodic_path(bouquet2, "aaab", name="x1"),
                   periodic_path(bouquet2, "a", name="x2")]
        fam = BoundaryFamily(bouquet2, handles, (4,),
                             {x.fingerprint((4,)): i for i, x in enumerate(handles)})
        # both images under t_b have window b.a.a.a, which no handle has
        assert np.all(fam.generator(bouquet2.edge_path("b")) == -1)
        with pytest.raises(WindowCollision, match=r"t_a sends x1 and x2 to one handle"):
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
        fam._qs[a] = fam.q(b)  # q_a q_b = q_b, but MCE(a, b) is empty
        with pytest.raises(BooleanRelationFailure):
            boolean_rep(fam, cap=(1,))
        with pytest.raises(BooleanRelationFailure):
            q_decomposition(fam, [bouquet2.vertex_path("v"), a, b])


class TestQDecomposition:
    def test_spec_worked_example(self, bouquet2):
        fam = build_fock_family(bouquet2, (2,))
        q = boolean_rep(fam, cap=(1,))
        F = [bouquet2.vertex_path("v"), bouquet2.edge_path("a"), bouquet2.edge_path("b")]
        dec = q_decomposition(q, F)
        v_idx = path_index(fam, "v")
        Qv = dec.Q[bouquet2.vertex_path("v")]
        assert np.flatnonzero(Qv).tolist() == [v_idx]
        assert np.array_equal(dec.Q[bouquet2.edge_path("a")], q.q(bouquet2.edge_path("a")))
        total = Qv.astype(int) + dec.Q[bouquet2.edge_path("a")] + dec.Q[bouquet2.edge_path("b")]
        assert np.array_equal(total, q.q(bouquet2.vertex_path("v")).astype(int))

    def test_singleton_vertex(self, fock_b2_n4, bouquet2):
        q = boolean_rep(fock_b2_n4, cap=(1,))
        dec = q_decomposition(q, [bouquet2.vertex_path("v")])
        assert np.array_equal(dec.Q[bouquet2.vertex_path("v")], q.q(bouquet2.vertex_path("v")))

    def test_source_closure_enforced(self, fock_b2_n4, bouquet2):
        q = boolean_rep(fock_b2_n4, cap=(1,))
        with pytest.raises(SourceClosureViolation):
            q_decomposition(q, [bouquet2.edge_path("a")])

    def test_omega_boundary_vertex_vanishes(self, boundary_omega, omega22):
        q = boolean_rep(boundary_omega, cap=(1, 1))
        F = [omega22.vertex_path("v0_0"), omega22.vertex_path("v1_0"),
             omega22.vertex_path("v0_1"),
             omega22.edge_path("e1_0_0"), omega22.edge_path("e2_0_0")]
        dec = q_decomposition(q, F)
        assert not dec.Q[omega22.vertex_path("v0_0")].any()


class TestLem3:
    def test_nonexhaustive_branch(self, fock_b2_n4, bouquet2):
        q = boolean_rep(fock_b2_n4, cap=(1,))
        report = lem3_check(q, [bouquet2.vertex_path("v"), bouquet2.edge_path("a")])
        by_id = {c.id: c for c in report.checks}
        assert by_id["lem3:v"].ok and by_id["lem3:v"].witness == "b"
        assert by_id["lem3:a"].ok

    def test_exhaustive_branch_makes_no_claim(self, fock_b2_n4, bouquet2):
        q = boolean_rep(fock_b2_n4, cap=(1,))
        F = [bouquet2.vertex_path("v"), bouquet2.edge_path("a"), bouquet2.edge_path("b")]
        report = lem3_check(q, F)
        by_id = {c.id: c for c in report.checks}
        assert "none" in by_id["lem3:v"].detail["claim"]

    def test_mce_closure_enforced(self, omega22):
        fam = build_fock_family(omega22, (2, 2))
        q = boolean_rep(fam, cap=(1, 1))
        with pytest.raises(NotMceClosed):
            lem3_check(q, [omega22.edge_path("e1_0_0"), omega22.edge_path("e2_0_0")])


class TestDiagonalNorm:
    def test_two_sector_example(self, fock_b2_n4, bouquet2):
        q = boolean_rep(fock_b2_n4, cap=(1,))
        c = {bouquet2.vertex_path("v"): 1, bouquet2.edge_path("a"): -1}
        assert diagonal_norm(q, c) == 1.0

    def test_single_projection(self, fock_b2_n4, bouquet2):
        q = boolean_rep(fock_b2_n4, cap=(1,))
        assert diagonal_norm(q, {bouquet2.vertex_path("v"): 1}) == 1.0

    def test_orthogonal_sectors(self, fock_b2_n4, bouquet2):
        q = boolean_rep(fock_b2_n4, cap=(1,))
        c = {bouquet2.edge_path("a"): 1, bouquet2.edge_path("b"): 1}
        assert diagonal_norm(q, c) == 1.0

    def test_formula_matches_numeric_norm(self, fock_b2_n4, bouquet2):
        q = boolean_rep(fock_b2_n4, cap=(1,))
        rng = random.Random(20108)
        pool = [bouquet2.vertex_path("v"), bouquet2.edge_path("a"),
                bouquet2.edge_path("b"), bouquet2.path(["a", "a"]),
                bouquet2.path(["a", "b"])]
        for _ in range(20):
            c = {p: complex(rng.randint(-3, 3), rng.randint(-3, 3)) for p in pool}
            m = fock_b2_n4.evaluate(FormalElement(bouquet2, {(p, p): k for p, k in c.items()}))
            referee = OperatorMatrix.sum(fock_b2_n4.basis, [
                as_matrix(fock_b2_n4.basis, q.q(p)) * k for p, k in c.items()])
            assert as_referee(m) == referee
            assert abs(diagonal_norm(q, c) - operator_norm(m)["value"]) < 1e-10


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
        sys = b2_system
        q_a = fock_b2_n8.q(bouquet2.edge_path("a"))
        phi_a = sys.phi[bouquet2.edge_path("a")]
        assert np.array_equal(q_a & phi_a, phi_a)
        assert phi_a.any()

    def test_phi_mutually_orthogonal(self, b2_system):
        phis = list(b2_system.phi.values())
        for i in range(len(phis)):
            for j in range(i + 1, len(phis)):
                assert not np.any(phis[i] & phis[j])

    def test_two_loop_f(self, fock_b2_n8, bouquet2):
        sys = build_separating_system(
            fock_b2_n8, [bouquet2.edge_path("a"), bouquet2.edge_path("b")])
        assert set(sys.phi) == {bouquet2.edge_path("a"), bouquet2.edge_path("b")}

    def test_omega_system(self, omega22):
        fam = build_fock_family(omega22, (2, 2))
        F = [omega22.vertex_path("v0_0"), omega22.edge_path("e1_0_0")]
        sys = build_separating_system(fam, F)
        assert sys.phi and all(m.any() for m in sys.phi.values())

    def test_depth_budget_exhausts_search(self, fock_b2_n8, bouquet2):
        F = [bouquet2.vertex_path("v")] + [bouquet2.path(list(w)) for w in
                                           ("a", "b", "aa", "ab", "ba", "bb")]
        with pytest.raises(SeparationSearchExhausted):
            build_separating_system(fock_b2_n8, F, tau_depth=(0,))

    def test_periodic_cycle_takes_q_branch(self, c3):
        # the cycle's extension sets are all exhaustive, so the construction
        # legitimately needs no separating extension here
        fam = build_fock_family(c3, (8,))
        F = [c3.vertex_path("v0"), c3.path(["e0", "e1", "e2"])]
        sys = build_separating_system(fam, F)
        assert all(sys.B_exhaustive[lam] for lam in F)

    def test_mce_closure_enforced(self, omega22):
        fam = build_fock_family(omega22, (2, 2))
        with pytest.raises(NotMceClosed):
            build_separating_system(
                fam, [omega22.edge_path("e1_0_0"), omega22.edge_path("e2_0_0")])

    def test_singleton_vertex_f(self, fock_b2_n8, bouquet2):
        v = bouquet2.vertex_path("v")
        sys = build_separating_system(fock_b2_n8, [v])
        assert np.array_equal(sys.phi[v], fock_b2_n8.q(v))
        assert all(tau.is_vertex() for tau in sys.tau_v.values())


@pytest.mark.parametrize("graph, f_cap, cap, exhaustive", [
    ("bouquet2", (2,), (8,), (3, 3)), ("omega22", (1, 1), (2, 2), (16, 16)),
    ("flip", (1, 1), (4, 4), (6, 4))], ids=["bouquet2", "omega22", "flip"])
def test_lem3_witness_matches_brute_exhaustiveness(request, graph, f_cap, cap, exhaustive):
    # the separating system reads λ's tails in the closure, lem3 in F itself;
    # both must call them exhaustive exactly when the brute referee does; the
    # pinned counts keep both kinds of λ in play (flip's closure tails are all
    # exhaustive, its tails in F are not)
    g = request.getfixturevalue(graph)
    F = paths_up_to_degree(g, f_cap)
    fam = build_fock_family(g, cap)

    def brute(lam, pool):
        tails = [segment(w, lam.degree, w.degree) for w in pool
                 if w != lam and extends(w, lam)]
        return bool(tails) and is_exhaustive_brute(g, lam.source_vertex, tails).exhaustive

    closure = repalg._closure(g, F)
    system = build_separating_system(fam, F)
    assert system.B_exhaustive == {lam: brute(lam, closure) for lam in F}
    claims = {c.id: "claim" in c.detail for c in lem3_check(fam, F).checks}
    assert claims == {f"lem3:{lam.label()}": brute(lam, F) for lam in F}
    assert (sum(system.B_exhaustive.values()), sum(claims.values())) == exhaustive
    assert len(F) > exhaustive[1]


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
        check = verify_claim1(fock_b2_n6, [a, b], table)
        assert check.ok
        assert abs(check.detail["lhs"] - 1.0) < 1e-9
        assert abs(check.detail["rhs"] - 2.0) < 1e-9

    def test_diagonal_table_equality(self, fock_b2_n6, bouquet2):
        a, b = bouquet2.edge_path("a"), bouquet2.edge_path("b")
        table = {(a, a): 1, (b, b): -1j}
        check = verify_claim1(fock_b2_n6, [a, b], table)
        assert check.ok
        assert abs(check.detail["lhs"] - check.detail["rhs"]) < 1e-9

    def test_closure_degree_memoized_per_family(self, bouquet2, monkeypatch):
        a, b = bouquet2.edge_path("a"), bouquet2.edge_path("b")
        calls = []
        real = repalg._closure
        monkeypatch.setattr(repalg, "_closure", lambda g, F: calls.append(F) or real(g, F))
        fam = build_fock_family(bouquet2, (2,))
        for F in ([a, b], [b, a, a], [a, b]):
            assert verify_claim1(fam, F, {(a, a): 1}).ok
        assert len(calls) == 1
        assert verify_claim1(build_fock_family(bouquet2, (2,)), [a, b], {(a, a): 1}).ok
        assert len(calls) == 2

    def test_cap_guard(self, bouquet2):
        small = build_fock_family(bouquet2, (1,))
        a, b = bouquet2.edge_path("a"), bouquet2.edge_path("b")
        aa = bouquet2.path(["a", "a"])
        with pytest.raises(CapTooSmall):
            verify_claim1(small, [a, b, aa], {(a, a): 1})


class TestClaim1Bracket:
    def test_diagonal_tables_pass_on_lanczos_bracket(self, fock_b2_n9, bouquet2):
        # seed 3 failed with power iteration: lhs - rhs = 1.02e-8 > tol
        for F, table in diagonal_tables(bouquet2, [3, *range(8)]):
            check = verify_claim1(fock_b2_n9, F, table)
            assert check.status == "pass", check.to_jsonable()
            d = check.detail
            assert d["method"] == "lanczos" and d["steps"] > 0
            assert d["lower"] <= d["lhs"] <= d["upper"]
            assert abs(d["lhs"] - d["rhs"]) < 1e-12

    def test_detail_keys(self, fock_b2_n9, bouquet2):
        (F, table), = diagonal_tables(bouquet2, [3])
        detail = verify_claim1(fock_b2_n9, F, table).detail
        assert set(detail) == {"lhs", "rhs", "method", "steps", "lower", "upper", "allowance"}
        assert 0 < detail["allowance"] < 1e-12

    def test_lhs_inside_bracket_is_inconclusive(self, fock_b2_n9, bouquet2, monkeypatch):
        weak_lower_end(monkeypatch)
        F = [bouquet2.vertex_path("v"), bouquet2.edge_path("a"), bouquet2.edge_path("b")]
        rng = random.Random(1)
        table = {(mu, nu): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                 for mu in F for nu in F}
        check = verify_claim1(fock_b2_n9, F, table)
        d = check.detail
        assert check.status == "inconclusive" and check.witness is None
        assert d["lower"] + 1e-8 < d["lhs"] < d["upper"]
        assert "inside the lanczos norm bracket" in d["reason"]

    def test_fails_only_above_upper_end(self, fock_b2_n6, bouquet2, monkeypatch):
        a, b = bouquet2.edge_path("a"), bouquet2.edge_path("b")
        monkeypatch.setattr(repalg, "operator_norm", lambda m: {
            "value": 0.5, "method": "lanczos", "steps": 0, "lower": 0.5, "upper": 0.5,
            "allowance": 0.0})
        check = verify_claim1(fock_b2_n6, [a, b], {(a, a): 1})
        assert check.status == "fail"
        assert check.witness == "lhs=1.0 upper=0.5"


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

        fam = Tampered(bouquet2, boundary_tm.handles, boundary_tm.window,
                       boundary_tm._fp_index)
        check = verify_exp_square(fam, FormalElement(
            bouquet2, {(a_path, bouquet2.vertex_path("v")): 1}))
        label = fam.basis.labels[fam.fixed]
        assert check.status == "fail"
        assert check.witness == f"('{label}', '{label}', 0j, (1+0j))"


class TestDiagonalFormula:
    def test_omega_offdiagonal_zero(self, boundary_omega, omega22):
        report = verify_diagonal_formula(
            boundary_omega, omega22.edge_path("e1_0_0"), omega22.edge_path("e2_0_0"))
        assert report.ok
        assert not any(c.status == "inconclusive" for c in report.checks)

    def test_omega_diagonal_unit(self, boundary_omega, omega22):
        mu = omega22.edge_path("e1_0_0")
        report = verify_diagonal_formula(boundary_omega, mu, mu)
        assert report.ok
        matrix = boundary_omega.evaluate(FormalElement(omega22, {(mu, mu): 1}).diagonal())
        assert as_referee(matrix) == as_matrix(boundary_omega.basis, boundary_omega.q(mu))
        assert len(matrix.vals) == 1

    def test_tm_no_inconclusive_small_degrees(self, boundary_tm, bouquet2):
        a, b = bouquet2.edge_path("a"), bouquet2.edge_path("b")
        report = verify_diagonal_formula(boundary_tm, a, b)
        assert report.ok
        assert not any(c.status == "inconclusive" for c in report.checks)


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
