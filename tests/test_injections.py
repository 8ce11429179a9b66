"""0/1 partial injections and masks against the sparse dict product as referee.

Every 0/1 check in ``repalg`` composes index arrays and ANDs masks; here each
of those operations is compared with the arithmetic of the dict-matrix
referee ``conftest.OperatorMatrix`` on the same 0/1 matrices, on random
partial injections and on every generator of small Fock and boundary families.
verify_tck, which composes on each check's safe columns only, is compared
with the whole-basis compositions of ``oracles.tck_whole_maps``, also on
families with a tampered generator.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import OperatorMatrix, as_matrix, stored_row
from oracles import (boundary_family_from_graph, ck_per_set, q_reconstruction_per_member,
                     tck_whole_maps)
from kgraphkit import repalg
from kgraphkit.boundary import shift, thue_morse_path
from kgraphkit.core import Degree, paths_up_to_degree
from kgraphkit.repalg import (
    Basis,
    BooleanRelationFailure,
    FockFamily,
    IsometryFamily,
    KGraphError,
    boolean_rep,
    build_boundary_family,
    build_fock_family,
    build_separating_system,
    compose_maps,
    first_difference_on,
    inverse_map,
    lem3_check,
    q_decomposition,
    range_mask,
    verify_ck,
    verify_phi2,
    verify_tck,
)
from kgraphkit.alignment import vee


@st.composite
def injections(draw, n):
    """A random partial injection on n points: a permutation with holes."""
    perm = draw(st.permutations(range(n)))
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return np.array([i if k else -1 for i, k in zip(perm, keep)], dtype=np.intp)


@st.composite
def injection_sets(draw, count):
    n = draw(st.integers(1, 8))
    return Basis([f"e{i}" for i in range(n)]), [draw(injections(n)) for _ in range(count)]


def check_against_referee(basis, a, b):
    """Composition, adjoint, range mask, AND and AND-NOT against dict products."""
    ma, mb = as_matrix(basis, a), as_matrix(basis, b)
    assert as_matrix(basis, compose_maps(a, b)) == ma @ mb
    assert as_matrix(basis, inverse_map(a)) == ma.adjoint()
    qa, qb = range_mask(a), range_mask(b)
    mqa, mqb = ma @ ma.adjoint(), mb @ mb.adjoint()
    assert as_matrix(basis, qa) == mqa
    assert as_matrix(basis, qa & qb) == mqa @ mqb
    assert as_matrix(basis, qa & ~qb) == mqa @ (mqa + mqb * -1)


class TestReferee:
    @settings(max_examples=300, deadline=None)
    @given(injection_sets(2))
    def test_operations_match_dict_products(self, data):
        basis, (a, b) = data
        check_against_referee(basis, a, b)

    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 5).flatmap(injection_sets), st.data())
    def test_first_difference_order_and_values(self, data, draw):
        """One term against a sum of them, on drawn columns: the rest of the
        drawn terms, or the one term cut into pieces, so that both agreement
        and each kind of difference are drawn."""
        basis, (lhs, *rhs) = data
        n = len(basis)
        cols = np.array(sorted(draw.draw(st.sets(st.integers(0, n - 1)))), dtype=np.intp)
        if draw.draw(st.booleans()):  # lhs cut into pieces, each column to one piece or none
            where = draw.draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n))
            rhs = [np.where(np.array(where) == k, lhs, -1) for k in range(3)]
        if draw.draw(st.booleans()):  # sums of diagonal 0/1 projections
            lhs, rhs = range_mask(lhs), [range_mask(t) for t in rhs]

        def restricted_sum(side):
            total = OperatorMatrix.sum(basis, [as_matrix(basis, t) for t in side])
            return OperatorMatrix(basis, {k: v for k, v in total.entries.items()
                                          if k[1] in set(cols.tolist())})

        # first_difference_on takes each side already read on cols
        assert (first_difference_on(basis, lhs[cols], [t[cols] for t in rhs], cols)
                == restricted_sum([lhs]).first_difference(restricted_sum(rhs)))

    def test_overlap_reports_value_two(self):
        basis = Basis(["e0", "e1"])
        t = np.array([1, -1], dtype=np.intp)
        assert first_difference_on(basis, t, [t, t], np.arange(2)) == ("e1", "e0", 1, 2)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda m: injection_sets(3 * m)), st.integers(0, 2),
           st.booleans(), st.data())
    def test_bulk_agreement_matches_first_difference(self, data, terms, masks, draw):
        """repalg._holds decides a block of checks at once, one per row, as
        first_difference_on decides each alone: each check is one drawn map
        against none, one or two terms drawn as its pieces, as pieces that
        overlap, or as other maps, and as final projections when masks."""
        basis, maps = data
        n = len(basis)
        cols = np.array(sorted(draw.draw(st.sets(st.integers(0, n - 1)))), dtype=np.intp)
        checks = []
        for lhs, *others in zip(maps[0::3], maps[1::3], maps[2::3]):
            where = np.array(draw.draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n)))
            rhs = draw.draw(st.sampled_from([
                [np.where(where == k, lhs, -1) for k in range(2)],  # pieces, some missing
                [lhs, np.where(where == 0, lhs, -1)],  # overlapping pieces
                others]))[:terms]
            if masks:
                lhs, rhs = range_mask(lhs), [range_mask(t) for t in rhs]
            checks.append((lhs[cols], [t[cols] for t in rhs]))
        got = repalg._holds(np.stack([lhs for lhs, _ in checks]),
                            [np.stack([rhs[k] for _, rhs in checks]) for k in range(terms)])
        assert got.tolist() == [first_difference_on(basis, lhs, rhs, cols) is None
                                for lhs, rhs in checks]


def boundary_tm_family(bouquet2):
    tm = thue_morse_path(bouquet2)
    seeds = [shift(tm, (j,)) for j in range(16)]
    return build_boundary_family(bouquet2, seeds, (128,), (2,))


@pytest.mark.parametrize("name, cap", [("bouquet2", (3,)), ("flip", (2, 1)),
                                       ("omega22", (2, 2)), ("boundary_tm", (2,))])
def test_every_generator_matches_referee(corpus, name, cap):
    if name == "boundary_tm":
        g = corpus["bouquet2"]
        fam = boundary_tm_family(g)
    else:
        g = corpus[name]
        fam = build_fock_family(g, cap)
    gens = [fam.generator(lam) for lam in paths_up_to_degree(g, cap)]
    for t in gens:
        m = as_matrix(fam.basis, t)
        assert (m @ m.adjoint() @ m) == m  # a partial isometry
    for a, b in itertools.product(gens, repeat=2):
        check_against_referee(fam.basis, a, b)


def test_generator_rejects_repeated_image(bouquet2):
    """A family whose hook sends two basis vectors to one is refused at build
    time, for every family, before the inverse map could drop one of them."""
    class Folded(FockFamily):
        def _edge_generator(self, e):
            dom, img = super()._edge_generator(e)
            return dom, [img[0]] * len(img)

    folded = Folded(bouquet2, Degree((2,)))
    with pytest.raises(KGraphError, match=r"t_a is not injective"):
        folded.generator(bouquet2.edge_path("a"))


class _NoProduct(Exception):
    pass


def test_zero_one_checks_use_no_sparse_products(bouquet2, monkeypatch):
    """tck, ck, lem1, lem3 and phi2 run with evaluation into linear
    combinations and the numeric norm disabled."""
    def refuse(*args, **kwargs):
        raise _NoProduct

    monkeypatch.setattr(IsometryFamily, "evaluate", refuse)
    monkeypatch.setattr(repalg, "operator_norm", refuse)
    fam = build_fock_family(bouquet2, (6,))
    F_small = paths_up_to_degree(bouquet2, (1,))
    F_closed = vee(bouquet2, F_small)
    assert all(c.ok for c in verify_tck(fam, cap=(2,)))
    assert [c.id for c in verify_ck(fam, (1,)) if not c.ok] == ["CK:v:{a,b}"]
    Q = q_decomposition(boolean_rep(fam, cap=(1,)), F_closed)
    assert all(c.ok for c in lem3_check(fam, Q))
    phi = build_separating_system(fam, F_closed)
    assert all(verify_phi2(fam, phi, mu, nu, lam).ok
               for lam in phi for mu in phi for nu in phi)


def tck_case(corpus, name):
    """(family, gen-cap) of each TCK referee case."""
    if name == "boundary_tm":
        return boundary_tm_family(corpus["bouquet2"]), (2,)
    if name == "boundary_omega":
        return boundary_family_from_graph(corpus["omega22"]), (1, 1)
    cap, gen_cap = {"c3": ((4,), (2,)), "bouquet2": ((4,), (2,)), "flip": ((3, 3), (2, 2)),
                    "omega22": ((2, 2), (1, 1)), "omega222": ((2, 2, 2), (1, 1, 1))}[name]
    return build_fock_family(corpus[name], cap), gen_cap


def tampered(fam, gen_cap, lam, entries):
    """fam with every generator below gen_cap built and t_lam changed at the
    given {basis index: image} entries, -1 for undefined, before any adjoint
    or projection is taken."""
    for p in paths_up_to_degree(fam.graph, gen_cap):
        fam.generator(p)
    t = stored_row(fam, lam)
    for j, i in entries.items():
        assert t[j] != i
        t[j] = i
    return fam


def triples(checks):
    return [(c.id, c.status, c.witness) for c in checks]


class TestTckReferee:
    @pytest.mark.parametrize("name", ["c3", "bouquet2", "flip", "omega22", "omega222",
                                      "boundary_tm", "boundary_omega"])
    def test_matches_whole_map_referee(self, corpus, name):
        fam, gen_cap = tck_case(corpus, name)
        got = triples(verify_tck(fam, gen_cap))
        assert got == tck_whole_maps(fam, gen_cap)
        assert all(status == "pass" for _, status, _ in got)

    @pytest.mark.parametrize("name", ["c3", "bouquet2", "flip", "omega22", "boundary_tm"])
    def test_tamper_on_a_safe_column_fails_with_referee_witness(self, corpus, name):
        # t_lam, lam a longest path below the gen-cap, loses one safe column:
        # t_lam* t_lam or a split t_mu t_nu = t_lam sees it
        fam, gen_cap = tck_case(corpus, name)
        lam = max(paths_up_to_degree(fam.graph, gen_cap), key=lambda p: sum(p.degree))
        cols = fam.safe_columns(lam.degree)
        j = int(cols[fam.generator(lam)[cols] >= 0][0])
        fam = tampered(fam, gen_cap, lam, {j: -1})
        got = triples(verify_tck(fam, gen_cap))
        assert got == tck_whole_maps(fam, gen_cap)
        failed = [(cid, witness) for cid, status, witness in got if status == "fail"]
        assert failed and all(cid.startswith(("TCK2:", "TCK3:")) and witness
                              for cid, witness in failed)

    @pytest.mark.parametrize("edge", ["a", "b"])
    def test_tamper_off_the_safe_columns_passes(self, corpus, edge):
        # t_e loses a handle that is not safe at d(e), so at no budget of a
        # check that reads t_e: every check passes, on both sides
        fam, gen_cap = tck_case(corpus, "boundary_tm")
        lam = fam.graph.edge_path(edge)
        safe = fam.safe_columns(lam.degree)
        j = next(j for j in np.flatnonzero(fam.generator(lam) >= 0).tolist() if j not in safe)
        fam = tampered(fam, gen_cap, lam, {j: -1})
        got = triples(verify_tck(fam, gen_cap))
        assert got == tck_whole_maps(fam, gen_cap)
        assert all(status == "pass" for _, status, _ in got)

    @pytest.mark.parametrize("kind", ["overlap", "swap"])
    def test_tampered_vertex_fails_tck1(self, corpus, kind):
        # t_w also fixes a basis vector of range v, so t_v t_w != 0; or t_v
        # swaps two basis vectors, so t_v = t_v* but t_v t_v != t_v
        fam, gen_cap = tck_case(corpus, "omega22")
        v, w = (fam.graph.vertex_path(x) for x in fam.graph.vertices[:2])
        on_v = np.flatnonzero(fam.generator(v) >= 0)
        i, j = on_v[:2].tolist()
        if kind == "overlap":
            fam = tampered(fam, gen_cap, w, {i: i})
            want = f"TCK1:{v.label()}·{w.label()} orthogonal"
        else:
            fam = tampered(fam, gen_cap, v, {i: j, j: i})
            want = f"TCK1:{v.label()} projection"
        got = triples(verify_tck(fam, gen_cap))
        assert got == tck_whole_maps(fam, gen_cap)
        assert (want, "fail", None) in got
        assert not [cid for cid, status, _ in got if status == "fail" and cid.startswith("TCK1")
                    and cid != want]


def test_zero_one_checks_compose_on_their_safe_columns(bouquet2, monkeypatch):
    """verify_tck, boolean_rep, q_decomposition and verify_phi2 compose no
    whole maps: each compose_maps, and each store read of the bulk checks,
    reads an array as long as a safe-column set and returns one entry per
    entry of it.  Each set is returned less its last column, so none is the
    whole basis and a whole map is longer than every one."""
    fam = build_fock_family(bouquet2, (7,))
    F = vee(bouquet2, paths_up_to_degree(bouquet2, (1,)))

    def run():
        verify_tck(fam, (2,))
        Q = q_decomposition(boolean_rep(fam, (1,)), F)
        phi = build_separating_system(fam, F)
        return Q, [verify_phi2(fam, phi, mu, nu, lam) for lam in phi for mu in phi for nu in phi]

    run()  # builds every generator, adjoint and projection the checks read

    safe, composed = [], []
    real_safe, real_compose = fam.safe_columns, repalg.compose_maps

    def safe_columns(budget):
        safe.append(real_safe(budget)[:-1])
        return safe[-1]

    def spy(a, b):
        composed.append((len(b), real_compose(a, b)))
        return composed[-1][1]

    read, real_read = [], repalg._read

    def read_spy(store, rows, at):
        read.append((np.shape(at)[-1], real_read(store, rows, at)))
        return read[-1][1]

    monkeypatch.setattr(repalg, "compose_maps", spy)
    monkeypatch.setattr(repalg, "_read", read_spy)
    monkeypatch.setattr(fam, "safe_columns", safe_columns)
    Q, phi2 = run()
    assert all(c.ok for c in phi2) and len(Q) == len(F)
    assert composed and read and max(map(len, safe)) < len(fam.basis)
    for n, out in composed + read:
        assert any(n == len(s) for s in safe)
        assert out.shape[-1] == n


class TestBulkKernel:
    """TCK2, TCK3, the product rule, the Q reconstruction and the CK gaps are
    decided a column set at a time (repalg._failing), against the per-pair,
    per-set and per-member loops of tests/oracles.py; only a failing check
    is explained, by first_difference_on."""

    @pytest.mark.parametrize("name", ["bouquet2", "flip", "omega22", "omega222"])
    def test_failing_pair_beside_passing_pairs_of_its_group(self, corpus, name):
        # t_e, e the first edge, loses its first safe column at d(e): TCK3(e,
        # e) fails, while TCK3(f, f) for each other edge f of e's color, in
        # its group (column set of d(e), one MCE member), passes
        fam, gen_cap = tck_case(corpus, name)
        g = fam.graph
        e = g.edge_path(sorted(g.edges)[0])
        cols = fam.safe_columns(e.degree)
        fam = tampered(fam, gen_cap, e, {int(cols[fam.generator(e)[cols] >= 0][0]): -1})
        got = triples(verify_tck(fam, gen_cap))
        assert got == tck_whole_maps(fam, gen_cap)
        status = {cid: s for cid, s, _ in got}
        others = [f for f, edge in g.edges.items()
                  if edge.color == g.edges[e.label()].color and f != e.label()]
        assert status[f"TCK3:{e.label()}*{e.label()}"] == "fail"
        assert others and all(status[f"TCK3:{f}*{f}"] == "pass" for f in others)

    def test_first_difference_explains_only_failures(self, bouquet2, monkeypatch):
        calls = []
        real = repalg.first_difference_on
        monkeypatch.setattr(repalg, "first_difference_on",
                            lambda *args: calls.append(args) or real(*args))
        F = paths_up_to_degree(bouquet2, (2,))
        fam = build_fock_family(bouquet2, (4,))
        assert all(c.ok for c in verify_tck(fam, (2,)))
        q_decomposition(boolean_rep(fam, (2,)), F)
        assert [c.id for c in verify_ck(fam, (1,)) if not c.ok] == ["CK:v:{a,b}"]
        assert calls == []
        # t_ab loses its image of the vertex: one call per failing TCK check
        ab = bouquet2.path(["a", "b"])
        report = verify_tck(tampered(build_fock_family(bouquet2, (4,)), (2,), ab, {0: -1}), (2,))
        assert len(calls) == sum(not c.ok for c in report) > 1
        # q_a loses a.a: the product rule fails at (a, a.a) and q_a is not the
        # sum of its Q pieces; each raises after one call
        fam = build_fock_family(bouquet2, (4,))
        stored_row(fam, bouquet2.edge_path("a"), adjoint=True)[fam.basis.labels.index("a.a")] = -1
        for check in (lambda: boolean_rep(fam, (2,)), lambda: q_decomposition(fam, F)):
            calls.clear()
            with pytest.raises(BooleanRelationFailure, match="first difference"):
                check()
            assert len(calls) == 1

    @pytest.mark.parametrize("name", ["bouquet2", "flip", "omega22", "omega222", "boundary_tm",
                                      "boundary_omega", "tampered"])
    def test_ck_matches_per_set_referee(self, corpus, name):
        fam, _ = tck_case(corpus, "bouquet2" if name == "tampered" else name)
        fe_cap = (1,) * fam.graph.rank
        if name == "tampered":  # q_b loses b.a, so the gap of {a, b} holds it too
            stored_row(fam, fam.graph.edge_path("b"), adjoint=True)[
                fam.basis.labels.index("b.a")] = -1
        got = triples(verify_ck(fam, fe_cap))
        assert got == ck_per_set(fam, fe_cap)
        assert any(status == "fail" for _, status, _ in got) == (not name.startswith("boundary"))

    @pytest.mark.parametrize("tamper", [None, "a", "v"])
    def test_q_reconstruction_matches_per_member_referee(self, bouquet2, tamper):
        # q_a loses a.a, or q_v loses a.b: the first member whose q is not the
        # sum of its pieces is named, and orthogonality still holds
        fam = build_fock_family(bouquet2, (4,))
        F = paths_up_to_degree(bouquet2, (2,))
        if tamper:
            lam = bouquet2.parse_path(tamper)
            column = fam.basis.labels.index("a.a" if tamper == "a" else "a.b")
            stored_row(fam, lam, adjoint=True)[column] = -1
        want = q_reconstruction_per_member(fam, F)
        assert (want is None) == (tamper is None)
        if want is None:
            q_decomposition(fam, F)
        else:
            assert want.label() == tamper
            with pytest.raises(BooleanRelationFailure,
                               match=f"^q_{tamper} is not the sum of its Q pieces; "):
                q_decomposition(fam, F)
