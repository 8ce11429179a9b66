"""End-to-end command dispatch, JSON determinism, and exit codes."""

from __future__ import annotations

import json

import numpy as np
import pytest

from kgraphkit import kgraph_to_dict, make_bouquet, make_cycle, make_omega
from kgraphkit import boundary, cli, repalg
from kgraphkit.cli import main

from conftest import (bouquet2_cubed_presentation, flip_presentation, nlc_presentation,
                      tamper_stored, weak_lower_end)


@pytest.fixture()
def graph_files(tmp_path):
    files = {}
    for name, data in [
        ("c3", kgraph_to_dict(make_cycle(3))),
        ("bouquet2", kgraph_to_dict(make_bouquet(2))),
        ("flip", flip_presentation()),
        ("omega22", kgraph_to_dict(make_omega(2, (2, 2)))),
    ]:
        path = tmp_path / f"{name}.kg"
        path.write_text(json.dumps(data), encoding="utf-8")
        files[name] = str(path)
    return files


@pytest.fixture()
def tm_seeds(tmp_path):
    spec = {"handles": [{"kind": "substitution", "seed": "a", "shifts": 16,
                         "rules": {"a": "ab", "b": "ba"}}]}
    path = tmp_path / "tm.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out else None
    return code, payload, captured.out


class TestValidate:
    def test_valid_graph(self, capsys, graph_files):
        code, payload, _ = run(capsys, ["validate", graph_files["omega22"]])
        assert code == 0
        assert payload["results"]["valid"] is True
        assert payload["results"]["vertices"] == 9

    def test_broken_square_set(self, capsys, tmp_path):
        pres = flip_presentation()
        del pres["squares"][1]
        bad = tmp_path / "bad.kg"
        bad.write_text(json.dumps(pres), encoding="utf-8")
        code, payload, _ = run(capsys, ["validate", str(bad)])
        assert code == 1
        codes = {v["code"] for v in payload["results"]["violations"]}
        assert "IncompleteSquares" in codes

    def test_unreadable_file(self, capsys, tmp_path):
        missing = tmp_path / "nope.kg"
        code, payload, _ = run(capsys, ["validate", str(missing)])
        assert code == 2

    def test_unknown_keys_rejected(self, capsys, tmp_path):
        pres = flip_presentation()
        pres["extra"] = 1
        bad = tmp_path / "extra.kg"
        bad.write_text(json.dumps(pres), encoding="utf-8")
        code, _, _ = run(capsys, ["validate", str(bad)])
        assert code == 2


class TestQueries:
    def test_paths(self, capsys, graph_files):
        code, payload, _ = run(capsys, ["paths", graph_files["bouquet2"],
                                        "--degree", "2"])
        assert code == 0
        assert payload["results"] == ["a.a", "a.b", "b.a", "b.b"]

    @pytest.mark.parametrize("endpoint", ["--range", "--source"])
    def test_paths_unknown_endpoint_exits_2(self, capsys, graph_files, endpoint):
        assert main(["paths", graph_files["omega22"], "--degree", "1,0",
                     endpoint, "zzz"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown vertex 'zzz'\n"

    def test_exhaustive_unknown_vertex_exits_2(self, capsys, graph_files):
        # the vertex is refused before any member is checked against it
        assert main(["exhaustive", graph_files["bouquet2"], "zzz", "a"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown vertex 'zzz'\n"

    def test_mce(self, capsys, graph_files):
        code, payload, _ = run(capsys, ["mce", graph_files["omega22"],
                                        "e1_0_0", "e2_0_0"])
        assert code == 0
        assert len(payload["results"]) == 1

    def test_vee(self, capsys, graph_files):
        code, payload, _ = run(capsys, ["vee", graph_files["bouquet2"],
                                        "v", "a", "b"])
        assert code == 0
        assert payload["results"] == ["v", "a", "b"]

    def test_exhaustive_pass_and_fail(self, capsys, graph_files):
        code, payload, _ = run(capsys, ["exhaustive", graph_files["bouquet2"],
                                        "v", "a", "b"])
        assert code == 0 and payload["results"]["exhaustive"] is True
        code, payload, _ = run(capsys, ["exhaustive", graph_files["bouquet2"],
                                        "v", "a"])
        assert code == 1 and payload["results"]["witness"] == "b"

    def test_fe(self, capsys, graph_files):
        code, payload, _ = run(capsys, ["fe", graph_files["bouquet2"], "v",
                                        "--cap", "1"])
        assert code == 0
        assert payload["results"] == [["v"], ["a", "b"]]

    def test_not_locally_convex(self, capsys, tmp_path):
        nlc = _write(tmp_path / "nlc.kg", nlc_presentation())
        code, payload, _ = run(capsys, ["exhaustive", nlc, "u", "e"])
        assert code == 1 and payload["results"]["witness"] == "f"
        code, payload, _ = run(capsys, ["fe", nlc, "u", "--cap", "1,1"])
        assert code == 0 and payload["results"] == [["u"], ["f", "e"]]
        loop = _write(tmp_path / "nlc_loop.kg", nlc_presentation(loop=True))
        for argv in (["exhaustive", loop, "u", "e"], ["fe", loop, "u", "--cap", "1,1"]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == (
                "error: exhaustiveness needs a locally convex graph or finitely many paths\n")


class TestAperiodic:
    def test_cycle_reports_periodic(self, capsys, graph_files):
        code, payload, _ = run(capsys, ["aperiodic", graph_files["c3"],
                                        "--pair-bound", "3", "--tau-bound", "6"])
        assert code == 1
        assert payload["results"]["status"] == "PeriodicEvidence"
        assert payload["results"]["witness"] == ["e0.e1.e2", "v0"]

    def test_omega_certified(self, capsys, graph_files):
        code, payload, _ = run(capsys, ["aperiodic", graph_files["omega22"],
                                        "--pair-bound", "1,1", "--tau-bound", "1,1"])
        assert code == 0
        assert payload["results"]["status"] == "AperiodicCertified"

    def test_deterministic_bytes(self, capsys, graph_files):
        argv = ["aperiodic", graph_files["c3"], "--pair-bound", "2",
                "--tau-bound", "4"]
        _, _, first = run(capsys, argv)
        _, _, second = run(capsys, argv)
        assert first == second


class TestBoundaryCheck:
    def test_omega_finite_handles(self, capsys, graph_files):
        code, payload, _ = run(capsys, ["boundary-check", graph_files["omega22"],
                                        "--window", "2,2", "--fe-cap", "1,1",
                                        "--shift-bound", "2,2"])
        assert code == 0
        assert len(payload["results"]) == 9

    def test_thue_morse_seeds(self, capsys, graph_files, tm_seeds):
        code, payload, _ = run(capsys, ["boundary-check", graph_files["bouquet2"],
                                        "--window", "64", "--fe-cap", "1",
                                        "--shift-bound", "4", "--seeds", tm_seeds])
        assert code == 0
        assert all(r["boundary_condition"]["status"] == "pass"
                   for r in payload["results"])

    def test_cyclic_graph_needs_seeds(self, capsys, graph_files):
        code, _, _ = run(capsys, ["boundary-check", graph_files["bouquet2"]])
        assert code == 2


class TestFiniteHandlesAreExact:
    """u <-a- w <-c- z1 and w <-d- z2: the boundary paths a.c and a.d share
    their first edge, so only a comparison in full keeps them apart at window 1."""

    def test_fork_report_does_not_depend_on_window(self, capsys, tmp_path):
        fork = {"rank": 1, "vertices": ["u", "w", "z1", "z2"],
                "edges": [{"name": n, "color": 1, "range": r, "source": src}
                          for n, r, src in (("a", "u", "w"), ("c", "w", "z1"),
                                            ("d", "w", "z2"))]}
        path = tmp_path / "fork.kg"
        path.write_text(json.dumps(fork), encoding="utf-8")
        reports = []
        for window in ("1", "2", "64"):
            code, payload, _ = run(capsys, ["rep-verify", str(path), "--family", "boundary",
                                            "--window", window,
                                            "--suite", "tck,ck,diag,exp,lem1,lem3"])
            assert code == 0
            assert payload["config"].pop("window") == window
            reports.append(payload)
        assert reports[0] == reports[1] == reports[2]
        assert [c["status"] for c in reports[0]["results"]] == ["pass"] * 137


def _q_a_without_aa():
    """IsometryFamily.q with the vector a.a dropped from q_a."""
    real = repalg.IsometryFamily.q

    def tampered(fam, lam):
        mask = real(fam, lam)
        if lam.label() == "a":
            mask = mask.copy()
            mask[fam.basis.labels.index("a.a")] = False
        return mask

    return tampered


def _stored_q_a_without_aa(fam, lam, adjoint, t):
    """A tamper_stored change: t_a* undefined at a.a, so that q_a, its
    domain, loses a.a in every check."""
    if adjoint and lam.label() == "a":
        t = t.copy()
        t[fam.basis.labels.index("a.a")] = -1
    return t


class TestRepVerify:
    def test_omega_boundary_tck_ck(self, capsys, graph_files):
        code, payload, _ = run(capsys, ["rep-verify", graph_files["omega22"],
                                        "--family", "boundary", "--suite", "tck,ck",
                                        "--gen-cap", "1,1", "--fe-cap", "1,1",
                                        "--cap", "2,2", "--window", "2,2"])
        assert code == 0
        assert all(c["status"] == "pass" for c in payload["results"])

    def test_fock_ck_fails_for_bouquet(self, capsys, graph_files):
        code, payload, _ = run(capsys, ["rep-verify", graph_files["bouquet2"],
                                        "--family", "fock", "--suite", "ck",
                                        "--cap", "4", "--gen-cap", "1"])
        assert code == 1
        bad = [c for c in payload["results"] if c["status"] == "fail"]
        assert bad and bad[0]["witness"] == "v"

    @pytest.mark.parametrize("graph, args, caps", [
        ("bouquet2", ["--gen-cap", "2", "--fe-cap", "2", "--suite", "tck,ck,lem1,lem3"],
         ["2", "4", "13"]),
        ("omega22", ["--gen-cap", "1,1", "--suite", "tck,ck"], ["2,2", "4,4"]),
    ])
    def test_fock_results_do_not_depend_on_cap(self, capsys, graph_files, graph, args, caps):
        # each identity is decided on its complete set, the paths of degree at
        # most its reach, which every cap holding the gen-cap holds in full
        results = set()
        for cap in caps:
            _, payload, _ = run(capsys, ["rep-verify", graph_files[graph], "--cap", cap, *args])
            results.add(json.dumps(payload["results"], sort_keys=True, separators=(",", ":")))
        assert len(results) == 1

    def test_bouquet_full_stack_with_seeds(self, capsys, graph_files, tm_seeds):
        code, payload, _ = run(capsys, [
            "rep-verify", graph_files["bouquet2"], "--family", "boundary",
            "--suite", "tck,exp,couniversal", "--cap", "6", "--gen-cap", "1",
            "--window", "128", "--seeds", tm_seeds, "--suite-size", "3"])
        assert code == 0, payload
        statuses = {c["status"] for c in payload["results"]}
        assert statuses <= {"pass", "heuristic-pass"}

    def test_lemma_suites_on_fock(self, capsys, graph_files):
        code, payload, _ = run(capsys, ["rep-verify", graph_files["bouquet2"],
                                        "--suite", "lem1,lem3,phi2",
                                        "--cap", "4", "--gen-cap", "1"])
        assert code == 0
        assert all(c["status"] == "pass" for c in payload["results"])

    def test_diag_suite_on_omega_boundary(self, capsys, graph_files):
        code, payload, _ = run(capsys, ["rep-verify", graph_files["omega22"],
                                        "--family", "boundary", "--suite", "diag",
                                        "--cap", "2,2", "--gen-cap", "1,1",
                                        "--window", "2,2"])
        assert code == 0
        assert all(c["status"] == "pass" for c in payload["results"])

    def test_shared_suite_setup_built_once(self, capsys, graph_files, tm_seeds, tmp_path,
                                           monkeypatch):
        calls = {"boolean_rep": 0, "build_separating_system": 0, "build_fock_family": 0}
        for name in calls:
            def counted(*args, _name=name, _real=getattr(cli, name), **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(cli, name, counted)
        code, payload, _ = run(capsys, ["rep-verify", graph_files["bouquet2"],
                                        "--suite", "lem1,lem3,phi2,claim1", "--cap", "6",
                                        "--gen-cap", "1", "--suite-size", "2"])
        assert code == 0, payload
        assert calls == {"boolean_rep": 1, "build_separating_system": 1,
                         "build_fock_family": 1}

        # claim1 alone reads no separating system
        calls.update(boolean_rep=0, build_separating_system=0, build_fock_family=0)
        code, payload, _ = run(capsys, ["rep-verify", graph_files["bouquet2"],
                                        "--suite", "claim1", "--cap", "6",
                                        "--gen-cap", "1", "--suite-size", "2"])
        assert code == 0, payload
        assert calls == {"boolean_rep": 0, "build_separating_system": 0,
                         "build_fock_family": 1}

        # a boundary family builds the Fock family only for the suite that compares the two
        for suite, builds in (("tck", 0), ("couniversal", 1)):
            calls["build_fock_family"] = 0
            code, payload, _ = run(capsys, ["rep-verify", graph_files["bouquet2"],
                                            "--family", "boundary", "--seeds", tm_seeds,
                                            "--suite", suite, "--suite-size", "1"])
            assert code == 0, payload
            assert calls["build_fock_family"] == builds, suite

        # the FE sets of the one vertex are enumerated once for all 32 handles
        fe_calls = []
        real_fe = boundary.enumerate_fe
        monkeypatch.setattr(boundary, "enumerate_fe",
                            lambda *args, **kwargs: fe_calls.append(args) or real_fe(*args, **kwargs))
        tm32 = tmp_path / "tm32.json"
        tm32.write_text(json.dumps({"handles": [{"kind": "substitution", "seed": "a", "shifts": 32,
                                                 "rules": {"a": "ab", "b": "ba"}}]}),
                        encoding="utf-8")
        code, payload, _ = run(capsys, ["boundary-check", graph_files["bouquet2"],
                                        "--seeds", str(tm32), "--window", "64"])
        assert code == 0, payload
        assert len(payload["results"]) == 32
        assert len(fe_calls) == 1

    def test_deterministic_bytes(self, capsys, graph_files):
        argv = ["rep-verify", graph_files["bouquet2"], "--suite", "tck,claim1",
                "--cap", "6", "--gen-cap", "1", "--suite-size", "2"]
        _, _, first = run(capsys, argv)
        _, _, second = run(capsys, argv)
        assert first == second

    def test_claim1_inside_bracket_exits_3(self, capsys, graph_files, monkeypatch):
        weak_lower_end(monkeypatch)
        code, payload, _ = run(capsys, ["rep-verify", graph_files["bouquet2"], "--cap", "9",
                                        "--gen-cap", "1", "--suite", "claim1",
                                        "--suite-size", "1", "--seed", "1"])
        assert code == 3
        (check,) = payload["results"]
        assert check["status"] == "inconclusive" and "reason" in check["detail"]

    def test_claim1_benchmark_table_takes_no_norm(self, capsys, graph_files, monkeypatch):
        # the benchmark's claim1 table passes on one diagonal entry, so the
        # Lanczos norm is never taken
        norms = []
        real = repalg.operator_norm
        monkeypatch.setattr(repalg, "operator_norm", lambda m: norms.append(m) or real(m))
        assert main(["rep-verify", graph_files["bouquet2"], "--cap", "9", "--gen-cap", "1",
                     "--suite", "claim1", "--suite-size", "1", "--seed", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "kgraphkit rep-verify: pass=1\n"
        (check,) = json.loads(captured.out)["results"]
        assert check["detail"]["method"] == "diagonal"
        assert norms == []

    @pytest.mark.parametrize("graph, cap, gen_cap, error", [
        ("bouquet2", "2", "2", "cap (2,) cannot hold the separating system's degree (7,)"),
        ("omega22", "1,1", "1,1", "cap (1, 1) cannot hold the separating system's degree (2, 2)")],
        ids=["bouquet2", "omega22"])
    def test_claim1_needs_only_f_degree(self, capsys, graph_files, graph, cap, gen_cap, error):
        # the cap holds the join of F's degrees but not the separating
        # system's witness degrees, which phi2 alone needs
        argv = ["rep-verify", graph_files[graph], "--cap", cap, "--gen-cap", gen_cap]
        assert main([*argv, "--suite", "claim1", "--suite-size", "2"]) == 0
        captured = capsys.readouterr()
        assert [c["status"] for c in json.loads(captured.out)["results"]] == ["pass", "pass"]
        assert captured.err == "kgraphkit rep-verify: pass=2\n"
        assert main([*argv, "--suite", "phi2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {error}\n"

    def test_phi2_runs_at_the_separating_system_degree(self, capsys, graph_files):
        # bouquet2 at gen-cap 2: the witness paths reach degree (7,)
        assert main(["rep-verify", graph_files["bouquet2"], "--cap", "7", "--gen-cap", "2",
                     "--suite", "phi2"]) == 0
        captured = capsys.readouterr()
        assert {c["status"] for c in json.loads(captured.out)["results"]} == {"pass"}
        assert captured.err == "kgraphkit rep-verify: pass=343\n"

    def test_claim1_cap_below_f_degree_exits_2(self, capsys, graph_files):
        assert main(["rep-verify", graph_files["bouquet2"], "--cap", "1", "--gen-cap", "2",
                     "--suite", "claim1", "--suite-size", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cap (1,) cannot hold F's degree (2,)\n"

    def test_claim1_results_do_not_depend_on_a_cap_holding_f(self, capsys, graph_files):
        # F's degree is (2,): caps 2 and 3, below the degree (4,) of F's vee
        # closure and its completions, give the bytes of caps 4 and 12
        outs = []
        for cap in ("2", "3", "4", "12"):
            assert main(["rep-verify", graph_files["bouquet2"], "--cap", cap, "--gen-cap", "2",
                         "--suite", "claim1", "--suite-size", "2", "--seed", "1"]) == 0
            captured = capsys.readouterr()
            assert captured.err == "kgraphkit rep-verify: pass=2\n"
            outs.append(json.dumps(json.loads(captured.out)["results"]))
        assert len(set(outs)) == 1
        results = json.loads(outs[0])
        assert [c["detail"]["method"] for c in results] == ["diagonal", "diagonal"]
        assert [c["detail"]["column"] for c in results] == ["a.b", "b.a"]

    def test_claim1_rank3_runs_at_f_degree(self, capsys, tmp_path):
        # bouquet2³ at gen-cap (1,1,1): F's vee closure reaches (2,2,2), yet
        # cap (1,1,1) already gives the results of cap (2,2,2)
        path = _write(tmp_path / "bouquet2c.kg", bouquet2_cubed_presentation())
        outs = []
        for cap in ("1,1,1", "2,2,2"):
            assert main(["rep-verify", path, "--cap", cap, "--gen-cap", "1,1,1",
                         "--suite", "claim1", "--suite-size", "3", "--seed", "1"]) == 0
            captured = capsys.readouterr()
            assert captured.err == "kgraphkit rep-verify: pass=3\n"
            outs.append(json.loads(captured.out)["results"])
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("graph, caps", [("bouquet2", ("6", "6")),
                                             ("bouquet2c", ("2,2,2", "2,2,2"))])
    def test_claim1_large_tables_pass_on_the_diagonal(self, capsys, graph_files, tmp_path,
                                                      monkeypatch, graph, caps):
        # 16,129 and 117,649 terms: counting all of them in the rounding
        # allowance left both tables to Lanczos; only the few terms that reach
        # the largest diagonal entry count, and no norm is taken
        def refuse(*args, **kwargs):
            raise AssertionError("operator_norm was called")

        monkeypatch.setattr(repalg, "operator_norm", refuse)
        path = (graph_files["bouquet2"] if graph == "bouquet2"
                else _write(tmp_path / "bouquet2c.kg", bouquet2_cubed_presentation()))
        cap, gen_cap = caps
        assert main(["rep-verify", path, "--cap", cap, "--gen-cap", gen_cap, "--suite", "claim1",
                     "--suite-size", "1", "--seed", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "kgraphkit rep-verify: pass=1\n"
        (check,) = json.loads(captured.out)["results"]
        assert check["detail"]["method"] == "diagonal"
        assert check["detail"]["lhs"] <= check["detail"]["lower"] + repalg.CLAIM1_TOL

    def test_ck_cap_below_fe_degree_exits_2(self, capsys, graph_files, monkeypatch):
        # the FE sets at fe-cap 3 reach degree (3,); no generator of that
        # degree is asked for, and no projection is read before the refusal
        def refuse(*args, **kwargs):
            raise AssertionError("a projection was read")

        monkeypatch.setattr(repalg.IsometryFamily, "q", refuse)
        assert main(["rep-verify", graph_files["bouquet2"], "--cap", "2", "--gen-cap", "1",
                     "--fe-cap", "3", "--suite", "ck"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cap (2,) cannot hold the FE sets' degree (3,)\n"

    @pytest.mark.parametrize("suite, witness", [
        ("lem1", "q_a q_a.a != sum over MCE; first difference ('a.a', 'a.a', 0, 1)"),
        ("lem3", "q_a q_a.a != sum over MCE; first difference ('a.a', 'a.a', 0, 1)")])
    def test_broken_product_rule_fails_the_suite(self, capsys, graph_files, monkeypatch,
                                                 suite, witness):
        # q_a loses the vector a.a: a failed check, exit 1, not malformed input
        tamper_stored(monkeypatch, _stored_q_a_without_aa)
        assert main(["rep-verify", graph_files["bouquet2"], "--cap", "8", "--gen-cap", "2",
                     "--suite", suite]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["results"] == [
            {"id": suite, "status": "fail", "witness": witness}]
        assert captured.err == "kgraphkit rep-verify: fail=1\n"

    def test_claim1_ignores_a_tampered_projection(self, capsys, graph_files, monkeypatch):
        # claim1 reads ‖E(a)‖ off the evaluated diagonal, not off q_lam: q_a
        # without a.a, as above but given by IsometryFamily.q, leaves its
        # report byte for byte as it was
        args = ["rep-verify", graph_files["bouquet2"], "--cap", "8", "--gen-cap", "2",
                "--suite", "claim1", "--suite-size", "3"]
        assert main(args) == 0
        want = capsys.readouterr()
        monkeypatch.setattr(repalg.IsometryFamily, "q", _q_a_without_aa())
        assert main(args) == 0
        assert capsys.readouterr() == want
        assert want.err == "kgraphkit rep-verify: pass=3\n"

    def test_non_diagonal_vertex_projection_fails_ck(self, capsys, graph_files, monkeypatch):
        # t_v swaps two basis vectors: ck reports one fail result, exit 1, and
        # the TCK results before it stay in the report
        def tampered(fam, lam, adjoint, t):
            if lam.is_vertex() and not adjoint:
                t = t.copy()
                t[[0, 1]] = t[[1, 0]]
            return t

        tamper_stored(monkeypatch, tampered)
        assert main(["rep-verify", graph_files["bouquet2"], "--cap", "4",
                     "--suite", "tck,ck"]) == 1
        captured = capsys.readouterr()
        results = json.loads(captured.out)["results"]
        assert all(r["id"].startswith("TCK") for r in results[:-1])
        assert results[-1] == {"id": "ck", "status": "fail",
                               "witness": "t_v is not a diagonal projection"}
        assert captured.err == "kgraphkit rep-verify: fail=10, pass=6\n"

    def test_vanishing_projection_fails_lem3(self, capsys, graph_files, monkeypatch):
        # q_a.b is zero: Lemma 3's hypothesis fails, a failed check, not malformed input
        tamper_stored(monkeypatch, lambda fam, lam, adjoint, t: (
            np.where(adjoint and lam.label() == "a.b", -1, t)))
        assert main(["rep-verify", graph_files["bouquet2"], "--cap", "4", "--gen-cap", "2",
                     "--suite", "lem3"]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["results"] == [
            {"id": "lem3", "status": "fail", "witness": "q_a.b vanishes; hypothesis violated"}]
        assert captured.err == "kgraphkit rep-verify: fail=1\n"

    def test_each_adjoint_inverted_once_per_run(self, capsys, graph_files, monkeypatch):
        # tck, diag and phi2 all read adjoints t_nu*, each taken once per path
        used, inverted = set(), []
        real_generator, real_inverse = repalg.IsometryFamily.generator, repalg.inverse_map
        monkeypatch.setattr(repalg.IsometryFamily, "generator",
                            lambda fam, lam: used.add(lam) or real_generator(fam, lam))
        monkeypatch.setattr(repalg, "inverse_map",
                            lambda t: inverted.append(t) or real_inverse(t))
        code, payload, _ = run(capsys, ["rep-verify", graph_files["omega22"],
                                        "--family", "boundary", "--cap", "2,2",
                                        "--gen-cap", "1,1", "--window", "2,2",
                                        "--suite", "tck,diag,phi2"])
        assert code == 0, payload
        assert 0 < len(inverted) <= len(used)

    def test_unknown_suite(self, capsys, graph_files):
        code, _, _ = run(capsys, ["rep-verify", graph_files["bouquet2"],
                                  "--suite", "nonsense"])
        assert code == 2

    def test_generator_above_cap_exits_2(self, capsys, graph_files):
        # the tck suite asks for t_aaa before any budget above the cap
        assert main(["rep-verify", graph_files["bouquet2"], "--cap", "2",
                     "--gen-cap", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: generator degree (3,) exceeds basis cap (2,)\n"

    @pytest.mark.parametrize("argv, message", [
        (["rep-verify", "--suite", ","], "--suite names no suite"),
        (["rep-verify", "--suite", "claim1", "--suite-size", "0"],
         "--suite-size must be at least 1, got 0"),
        (["rep-verify", "--suite", "claim1", "--suite-size", "-1"],
         "--suite-size must be at least 1, got -1"),
        (["rep-verify", "--suite", "tck,bogus"], "unknown suite 'bogus'"),
        (["rep-verify", "--suite", "tck,ck,tck"], "suite 'tck' is named twice"),
        (["rep-verify", "--suite", "claim1, claim1"], "suite 'claim1' is named twice"),
        (["fe", "v", "--cap", "2", "--budget", "-3"], "--budget must be at least 1, got -3"),
    ], ids=["no-suite", "size-0", "size-negative", "unknown-after-known", "suite-twice",
            "suite-twice-spaced", "fe-budget-negative"])
    def test_nothing_to_check_exits_2_before_building(self, capsys, graph_files,
                                                      monkeypatch, argv, message):
        def refuse(*args, **kwargs):
            raise AssertionError("a family was built or a search run")

        monkeypatch.setattr(cli, "build_fock_family", refuse)
        monkeypatch.setattr(cli, "enumerate_fe", refuse)
        command, *options = argv
        assert main([command, graph_files["bouquet2"], *options]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def _write(path, data) -> str:
    path.write_text(data if isinstance(data, str) else json.dumps(data), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("case", [
    "degree-not-int", "degree-negative", "rank-not-int", "color-not-int", "seeds-missing",
    "seeds-not-json", "seeds-no-rules", "seeds-no-word", "vertices-string", "vertices-object",
    "edges-object", "squares-string", "top-list", "top-int", "top-string", "edge-int",
    "square-int", "rank-float", "rank-bool", "rank-string", "rank-integral-float",
    "color-float", "vertex-int", "edge-name-null", "endpoint-int", "square-entry-int",
    "square-side-string", "path-empty-edge", "path-trailing-dot", "path-only-dot"])
def test_malformed_input_exits_2_with_one_line(capsys, graph_files, tmp_path, case):
    b2 = graph_files["bouquet2"]

    def seeds(data):
        return ["boundary-check", b2, "--seeds", _write(tmp_path / "seeds.json", data)]

    argv = {
        "degree-not-int": ["paths", b2, "--degree", "x"],
        "degree-negative": ["paths", b2, "--degree", "-1"],
        "rank-not-int": ["validate", _write(tmp_path / "rank.kg", {
            "rank": "x", "vertices": ["v"], "edges": [], "squares": []})],
        "color-not-int": ["validate", _write(tmp_path / "color.kg", {
            "rank": 1, "vertices": ["v"], "squares": [],
            "edges": [{"name": "a", "color": "x", "range": "v", "source": "v"}]})],
        "seeds-missing": ["boundary-check", b2, "--seeds", str(tmp_path / "none.json")],
        "seeds-not-json": seeds("{not json"),
        "seeds-no-rules": seeds({"handles": [{"kind": "substitution", "seed": "a"}]}),
        "seeds-no-word": seeds({"handles": [{"kind": "periodic"}]}),
        "vertices-string": ["validate", _write(tmp_path / "vs.kg", {
            "rank": 1, "vertices": "uv", "edges": [], "squares": []})],
        "vertices-object": ["validate", _write(tmp_path / "vo.kg", {
            "rank": 1, "vertices": {"u": 0, "v": 1}, "edges": [], "squares": []})],
        "edges-object": ["validate", _write(tmp_path / "eo.kg", {
            "rank": 1, "vertices": ["v"], "edges": {}, "squares": []})],
        "squares-string": ["validate", _write(tmp_path / "ss.kg", {
            "rank": 1, "vertices": ["v"], "edges": [], "squares": "ab"})],
        "top-list": ["validate", _write(tmp_path / "tl.kg", [])],
        "top-int": ["validate", _write(tmp_path / "ti.kg", 5)],
        # a top-level string must not be read as its characters
        "top-string": ["validate", _write(tmp_path / "ts.kg", json.dumps("rank"))],
        "edge-int": ["validate", _write(tmp_path / "ei.kg", {
            "rank": 1, "vertices": ["v"], "edges": [5], "squares": []})],
        "square-int": ["validate", _write(tmp_path / "si.kg", {
            "rank": 1, "vertices": ["v"], "edges": [], "squares": [1]})],
        **{f"rank-{label}": ["validate", _write(tmp_path / f"r{label}.kg", {
            "rank": rank, "vertices": ["v"], "edges": [], "squares": []})]
           for label, rank in (("float", 1.9), ("bool", True), ("string", "1"),
                               ("integral-float", 2.0))},
        "color-float": ["validate", _write(tmp_path / "cf.kg", {
            "rank": 1, "vertices": ["v"], "squares": [],
            "edges": [{"name": "a", "color": 1.7, "range": "v", "source": "v"}]})],
        "vertex-int": ["validate", _write(tmp_path / "vi.kg", {
            "rank": 1, "vertices": [7], "edges": [], "squares": []})],
        "edge-name-null": ["validate", _write(tmp_path / "en.kg", {
            "rank": 1, "vertices": ["v"], "squares": [],
            "edges": [{"name": None, "color": 1, "range": "v", "source": "v"}]})],
        "endpoint-int": ["validate", _write(tmp_path / "ep.kg", {
            "rank": 1, "vertices": ["v"], "squares": [],
            "edges": [{"name": "a", "color": 1, "range": "v", "source": 0}]})],
        "square-entry-int": ["validate", _write(tmp_path / "se.kg", {
            "rank": 1, "vertices": ["v"], "edges": [],
            "squares": [{"top": ["a", 1], "bottom": ["a", "a"]}]})],
        # a string side must not be read as its characters
        "square-side-string": ["validate", _write(tmp_path / "sq.kg", {
            "rank": 1, "vertices": ["v"], "squares": [{"top": "aa", "bottom": ["a", "a"]}],
            "edges": [{"name": "a", "color": 1, "range": "v", "source": "v"}]})],
        # an empty edge name is not dropped
        "path-empty-edge": ["vee", b2, "a..b"],
        "path-trailing-dot": ["mce", b2, "a.", "b"],
        "path-only-dot": ["mce", b2, ".", "b"],
    }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    if case in ("top-list", "top-int", "top-string", "edge-int", "square-int"):
        assert "must be a JSON object" in err, err
    if case.startswith(("rank-", "color-")):
        assert "must be an integer, got" in err, err
    if case in ("vertex-int", "edge-name-null", "endpoint-int", "square-entry-int"):
        assert "must be a string, got" in err, err
    if case.startswith("path-"):
        text = next(a for a in argv[2:] if "." in a)
        assert err == f"error: malformed path {text!r}: empty edge name\n", err


@pytest.mark.parametrize("shifts", [2.9, True, 0, -2, "3"])
def test_seed_shifts_must_be_positive_int(capsys, graph_files, tmp_path, shifts):
    # the bad record sits after a valid one, so it cannot be dropped silently
    tm = {"kind": "substitution", "seed": "a", "rules": {"a": "ab", "b": "ba"}}
    path = _write(tmp_path / "seeds.json",
                  {"handles": [dict(tm, shifts=2), dict(tm, shifts=shifts)]})
    assert main(["boundary-check", graph_files["bouquet2"], "--seeds", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {path}: handle 1: shifts must be a positive integer, "
                            f"got {shifts!r}\n")


@pytest.mark.parametrize("record, message", [
    ({"kind": "periodic", "word": ["a", "b"], "name": 5}, "name must be a string, got 5"),
    ({"kind": "periodic", "word": ["a", "b"], "name": ["x"]},
     "name must be a string, got ['x']"),
    ({"kind": "periodic", "word": {"a": 1}},
     "word must be a string or a list of edge names, got {'a': 1}"),
    ({"kind": "periodic", "word": 7}, "word must be a string or a list of edge names, got 7"),
    ({"kind": "substitution", "seed": "a", "rules": {"a": {"a": 1, "b": 2}, "b": "ba"}},
     "rule 'a' must be a string or a list of edge names, got {'a': 1, 'b': 2}"),
], ids=["name-int", "name-list", "word-dict", "word-int", "rule-dict"])
def test_seed_names_and_words_must_be_strings_or_lists(capsys, graph_files, tmp_path,
                                                       record, message):
    tm = {"kind": "substitution", "seed": "a", "rules": {"a": "ab", "b": "ba"}}
    path = _write(tmp_path / "seeds.json", {"handles": [tm, record]})
    assert main(["boundary-check", graph_files["bouquet2"], "--seeds", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: handle 1: {message}\n"


def test_seed_words_and_names_as_strings_or_lists(graph_files, tmp_path):
    g = cli.load_graph(graph_files["bouquet2"])
    path = _write(tmp_path / "seeds.json", {"handles": [
        {"kind": "periodic", "word": "ab", "name": "p"},
        {"kind": "periodic", "word": ["a", "b"], "name": None},
        {"kind": "substitution", "seed": "a", "rules": {"a": ["a", "b"], "b": "ba"}}]})
    handles = cli.load_seed_handles(g, path)
    assert [x.describe() for x in handles] == ["p", "(a.b)^inf", "fix(a)"]
    assert handles[0].fingerprint((4,)) == handles[1].fingerprint((4,))


def test_seed_shifts_default_and_positive_int(graph_files, tmp_path):
    g = cli.load_graph(graph_files["bouquet2"])
    tm = {"kind": "substitution", "seed": "a", "rules": {"a": "ab", "b": "ba"}}
    path = _write(tmp_path / "seeds.json", {"handles": [tm, dict(tm, shifts=3)]})
    assert len(cli.load_seed_handles(g, path)) == 1 + 3


_TM = {"kind": "substitution", "seed": "a", "rules": {"a": "ab", "b": "ba"}}


@pytest.mark.parametrize("graph, decl, message", [
    ("bouquet2", [], "must be a JSON object, got list"),
    ("bouquet2", {"handles": {"a": 1}}, "handles must be a list, got dict"),
    ("bouquet2", {"handles": [5]}, "handle 0: must be a JSON object, got int"),
    ("bouquet2", {"handles": [{"kind": "substitution", "seed": "a", "rules": ["ab"]}]},
     "handle 0: rules must be a JSON object, got list"),
    ("bouquet2", {"handles": [{"kind": "substitution", "rules": {"a": "ab", "b": "ba"}}]},
     "handle 0: missing key 'seed'"),
    ("bouquet2", {"handles": [{"kind": "fixed"}]}, "handle 0: unknown handle kind 'fixed'"),
    # errors raised by the handle constructors themselves
    ("bouquet2", {"handles": [_TM, {"kind": "periodic", "word": "az"}]},
     "handle 1: unknown edge 'z' in periodic word"),
    ("bouquet2", {"handles": [dict(_TM, rules={"a": "ba", "b": "ab"})]},
     "handle 0: rule 'a' -> ba has no growing fixed point at 'a'"),
    ("flip", {"handles": [_TM]}, "handle 0: substitutions need a single-vertex 1-graph"),
    # keys outside each kind's own: a typo must not fall back to a default
    ("bouquet2", {"handles": [dict(_TM, shift=4)]}, "handle 0: unknown keys: ['shift']"),
    ("bouquet2", {"handles": [_TM, {"kind": "periodic", "word": "a", "seed": "a"}]},
     "handle 1: unknown keys: ['seed']"),
    ("bouquet2", {"handles": [_TM], "extra": 1}, "unknown top-level keys: ['extra']"),
], ids=["top-list", "handles-object", "record-int", "rules-list", "seed-missing", "kind-unknown",
        "periodic-unknown-edge", "no-fixed-point", "not-single-vertex", "handle-key-typo",
        "periodic-key", "top-level-key"])
def test_seed_file_errors_name_the_handle(capsys, graph_files, tmp_path, graph, decl, message):
    path = _write(tmp_path / "seeds.json", decl)
    assert main(["boundary-check", graph_files[graph], "--seeds", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"


_SEEDS = {
    "tm-twice": {"handles": [dict(_TM, name="s1"), dict(_TM, name="s2")]},
    "tm": {"handles": [_TM]},
    "a-inf": {"handles": [{"kind": "periodic", "word": "a"}]},
    "one-letter-apart": {"handles": [{"kind": "periodic", "word": "aaab", "name": "x1"},
                                     {"kind": "periodic", "word": "aabb", "name": "x2"}]},
    "no-rule": {"handles": [{"kind": "substitution", "seed": "c", "rules": {"a": "ab"}}]},
    "never-leaves": {"handles": [{"kind": "substitution", "seed": "a", "rules": {"a": "aa"}}]},
}


@pytest.mark.parametrize("argv, message, steps", [
    (["fe", "bouquet2", "v", "--cap", "4", "--budget", "1"],
     "examined more than 1 search nodes at cap (4,)", None),
    (["exhaustive", "nlc-loop", "u", "e"],
     "exhaustiveness needs a locally convex graph or finitely many paths", None),
    (["fe", "nlc-loop", "u", "--cap", "1,1"],
     "exhaustiveness needs a locally convex graph or finitely many paths", None),
    (["rep-verify", "bouquet2", "--family", "boundary", "--seeds", "tm-twice", "--window", "16"],
     "seeds s1 and s2 agree on window (16,)", None),
    (["rep-verify", "bouquet2", "--family", "boundary", "--seeds", "a-inf"],
     "every seed failed the windowed aperiodicity screen; "
     "the aperiodic boundary-path space is empty at this resolution", None),
    (["rep-verify", "bouquet2", "--family", "boundary", "--seeds", "one-letter-apart",
      "--window", "3", "--suite", "tck"],
     "t_a sends x1 and x1>>(1,) to one handle at window (3,)", None),
    (["rep-verify", "bouquet2", "--family", "boundary", "--seeds", "tm", "--fe-cap", "3",
      "--suite", "ck"], "no safe basis vectors at budget (2,); enlarge gen_cap", None),
    (["rep-verify", "bouquet2", "--cap", "2", "--gen-cap", "3"],
     "generator degree (3,) exceeds basis cap (2,)", None),
    (["rep-verify", "bouquet2", "--cap", "1", "--fe-cap", "2", "--suite", "ck"],
     "cap (1,) cannot hold the FE sets' degree (2,)", None),
    (["rep-verify", "bouquet2", "--cap", "4", "--gen-cap", "2", "--suite", "phi2"],
     "cap (4,) cannot hold the separating system's degree (7,)", None),
    (["rep-verify", "bouquet2", "--cap", "1", "--gen-cap", "2", "--suite", "claim1"],
     "cap (1,) cannot hold F's degree (2,)", None),
    (["rep-verify", "bouquet2", "--family", "boundary", "--seeds", "tm", "--suite",
      "couniversal", "--suite-size", "1"], "Lanczos residual did not settle in 1 steps", 1),
    (["boundary-check", "bouquet2", "--seeds", "no-rule"],
     "{no-rule}: handle 0: no rule for seed 'c'", None),
    (["boundary-check", "bouquet2", "--seeds", "never-leaves"],
     "{never-leaves}: handle 0: substitution never leaves 'a'; use periodic_path for 'a'^inf",
     None),
], ids=["fe-budget", "exhaustive-not-locally-convex", "fe-not-locally-convex", "seeds-agree",
        "seed-screen", "generator-collision", "no-safe-columns", "generator-cap", "ck-cap",
        "phi2-cap", "claim1-cap", "lanczos-steps", "seed-no-rule", "seed-never-leaves"])
def test_refusal_exits_2_with_one_line(capsys, graph_files, tmp_path, monkeypatch,
                                       argv, message, steps):
    """Each refusal reaches the user as its message on one line, exit code 2
    and nothing on stdout, whichever check or builder refused."""
    files = dict(graph_files, **{"nlc-loop": _write(tmp_path / "nlc.kg",
                                                    nlc_presentation(loop=True))})
    files.update((name, _write(tmp_path / f"{name}.json", decl)) for name, decl in _SEEDS.items())
    if steps is not None:
        monkeypatch.setattr(repalg, "MAX_LANCZOS_STEPS", steps)
    assert main([files.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message.format(**files)}\n"


@pytest.mark.parametrize("argv, code, line, results", [
    (["validate", "flip"], 0, "kgraphkit validate: pass=1", None),
    (["validate", "broken"], 1, "kgraphkit validate: fail=1", None),
    (["paths", "bouquet2", "--degree", "1"], 0, "kgraphkit paths: pass=1", None),
    (["exhaustive", "bouquet2", "v", "a"], 1, "kgraphkit exhaustive: fail=1", None),
    (["exhaustive", "bouquet2", "v", "a", "b"], 0, "kgraphkit exhaustive: pass=1", None),
    (["aperiodic", "c3", "--pair-bound", "3", "--tau-bound", "3"], 1,
     "kgraphkit aperiodic: fail=1", None),
    (["aperiodic", "bouquet2", "--pair-bound", "0", "--tau-bound", "0"], 3,
     "kgraphkit aperiodic: inconclusive=1", None),
    (["boundary-check", "bouquet2", "--seeds", "tm"], 0, "kgraphkit boundary-check: pass=32",
     None),
    # the Fock family is TCK but not CK: one CK gap fails among passes
    (["rep-verify", "bouquet2", "--cap", "4", "--suite", "tck,ck"], 1,
     "kgraphkit rep-verify: fail=1, pass=16", None),
    (["rep-verify", "bouquet2", "--suite", "phi2"], 3, "kgraphkit rep-verify: inconclusive=1",
     [{"id": "phi2", "status": "inconclusive", "witness": "budget spent (depth (1,))"}]),
], ids=["validate-pass", "validate-fail", "paths", "exhaustive-fail", "exhaustive-pass",
        "aperiodic-fail", "aperiodic-inconclusive", "boundary-check-pass", "rep-verify-mixed",
        "phi2-search-exhausted"])
def test_exit_code_and_summary_line(capsys, graph_files, tm_seeds, tmp_path, monkeypatch,
                                    argv, code, line, results):
    def exhausted(*args, **kwargs):
        raise repalg.SeparationSearchExhausted((1,), "budget spent")

    # only the phi2 run builds a separating system; here its search gives up
    monkeypatch.setattr(cli, "build_separating_system", exhausted)
    pres = flip_presentation()
    del pres["squares"][1]
    files = dict(graph_files, broken=_write(tmp_path / "broken.kg", pres), tm=tm_seeds)
    assert main([files.get(a, a) for a in argv]) == code
    captured = capsys.readouterr()
    assert captured.err == line + "\n"
    if results is not None:
        assert json.loads(captured.out)["results"] == results
