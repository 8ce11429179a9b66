"""The Fock family from degree blocks against the path-by-path referee.

``FockFamily`` lays its basis out in blocks (n, v), the paths of degree n
with range v, each block split by first edge; it builds t_e for each edge by
offset arithmetic between blocks (a square moves a sub-block when the edge's
color is above the block's lowest color) and every longer t_lam by composing
edge generators along lam's word.  The referee is the direct construction on
the basis of ``paths_up_to_degree``: t_lam e_beta = e_{lam·beta}, one
``compose`` and one ``Path``-keyed lookup per domain vector, defined exactly
when s(lam) = r(beta) and d(lam·beta) <= cap; t_v is the identity on the
paths with range v, and beta is safe at a budget when d(beta) + budget <= cap.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from kgraphkit import cli, kgraph_to_dict, make_bouquet
from kgraphkit.core import KGraphError, compose, degrees_up_to, paths_up_to_degree
from kgraphkit.repalg import build_fock_family


def fock_generator_reference(fam, paths, index, lam):
    t = np.full(len(paths), -1, dtype=np.intp)
    for j, beta in enumerate(paths):
        if beta.range_vertex == lam.source_vertex and lam.degree + beta.degree <= fam.cap:
            t[j] = index[compose(lam, beta)]
    return t


@pytest.fixture(scope="module")
def graphs(corpus, twin, ladder3):
    return {**corpus, "twin": twin, "ladder3": ladder3}


@pytest.mark.parametrize("name, cap, gen_cap", [
    ("bouquet2", (9,), (3,)),
    ("bouquet2", (13,), (2,)),
    ("flip", (2, 2), (2, 2)),  # f·a and f·b need square swaps
    ("flip", (3, 3), (3, 3)),
    ("twin", (3, 3), (2, 2)),  # two edges per color; squares relabel both letters
    ("ladder3", (1, 3), (1, 3)),  # multi-vertex, the cap reaches the sources
    ("c3", (7,), (4,)),
    ("omega22", (2, 2), (2, 2)),
    ("omega222", (2, 2, 2), (2, 2, 2)),
], ids=["bouquet2-cap9", "bouquet2-cap13", "flip", "flip-cap33", "twin-cap33",
        "ladder3", "c3", "omega22", "omega222"])
def test_generators_match_referee(graphs, name, cap, gen_cap):
    g = graphs[name]
    fam = build_fock_family(g, cap)
    paths = paths_up_to_degree(g, cap)
    assert [p.label() for p in paths] == list(fam.basis.labels)
    index = {p: i for i, p in enumerate(paths)}
    lams = paths_up_to_degree(g, gen_cap)
    assert any(len(lam.word) > 1 for lam in lams)
    for lam in lams:
        t = fam.generator(lam)
        assert np.array_equal(t, fock_generator_reference(fam, paths, index, lam)), lam.label()
    for v in g.vertices:
        t_v = np.array([j if beta.range_vertex == v else -1 for j, beta in enumerate(paths)])
        assert np.array_equal(fam.generator(g.vertex_path(v)), t_v), v
    for budget in degrees_up_to(gen_cap):
        safe = [j for j, beta in enumerate(paths) if beta.degree + budget <= fam.cap]
        assert fam.safe_columns(budget).tolist() == safe, budget


def test_composed_generator_above_cap_raises(bouquet2):
    """A word longer than the cap is refused, not composed into the zero map."""
    fam = build_fock_family(bouquet2, (2,))
    assert np.count_nonzero(fam.generator(bouquet2.path(["a", "a"])) >= 0) == 1
    with pytest.raises(KGraphError, match=r"^generator degree \(3,\) exceeds basis cap \(2,\)$"):
        fam.generator(bouquet2.path(["a", "a", "a"]))


def test_fock_run_enumerates_paths_only_up_to_gen_cap(tmp_path, capsys, monkeypatch):
    """The basis is built from blocks, not from enumerated paths: after a
    cap-13 run the graph's path memo holds no degree above the gen-cap."""
    built = []

    def spy(g, cap):
        built.append(g)
        return build_fock_family(g, cap)

    monkeypatch.setattr(cli, "build_fock_family", spy)
    path = tmp_path / "bouquet2.kg"
    path.write_text(json.dumps(kgraph_to_dict(make_bouquet(2))), encoding="utf-8")
    assert cli.main(["rep-verify", str(path), "--cap", "13", "--gen-cap", "2", "--fe-cap", "2",
                     "--suite", "tck,ck,lem1,lem3"]) == 1
    assert capsys.readouterr().err == "kgraphkit rep-verify: fail=4, pass=76\n"
    (g,) = built
    assert sorted({n for n, _ in g._paths}) == [(0,), (1,), (2,)]
