"""End-to-end command dispatch, JSON determinism, and exit codes."""

from __future__ import annotations

import json

import pytest

from kgraphkit import kgraph_to_dict, make_bouquet, make_cycle, make_omega
from kgraphkit import boundary, cli
from kgraphkit.cli import main

from conftest import flip_presentation, nlc_presentation, weak_lower_end


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
        (["--suite", ","], "--suite names no suite"),
        (["--suite", "claim1", "--suite-size", "0"], "--suite-size must be at least 1, got 0"),
        (["--suite", "claim1", "--suite-size", "-1"], "--suite-size must be at least 1, got -1"),
        (["--suite", "tck,bogus"], "unknown suite 'bogus'"),
        (["--suite", "tck,ck,tck"], "suite 'tck' is named twice"),
        (["--suite", "claim1, claim1"], "suite 'claim1' is named twice"),
    ], ids=["no-suite", "size-0", "size-negative", "unknown-after-known", "suite-twice",
            "suite-twice-spaced"])
    def test_nothing_to_check_exits_2_before_building(self, capsys, graph_files,
                                                      monkeypatch, argv, message):
        def refuse(*args, **kwargs):
            raise AssertionError("a family was built")

        monkeypatch.setattr(cli, "build_fock_family", refuse)
        assert main(["rep-verify", graph_files["bouquet2"], *argv]) == 2
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
    "square-int"])
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
    }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    if case in ("top-list", "top-int", "top-string", "edge-int", "square-int"):
        assert "must be a JSON object" in err, err


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


@pytest.mark.parametrize("decl, message", [
    ([], "must be a JSON object, got list"),
    ({"handles": {"a": 1}}, "handles must be a list, got dict"),
    ({"handles": [5]}, "handle 0: must be a JSON object, got int"),
    ({"handles": [{"kind": "substitution", "seed": "a", "rules": ["ab"]}]},
     "handle 0: rules must be a JSON object, got list"),
    ({"handles": [{"kind": "substitution", "rules": {"a": "ab", "b": "ba"}}]},
     "handle 0: missing key 'seed'"),
    ({"handles": [{"kind": "fixed"}]}, "handle 0: unknown handle kind 'fixed'"),
], ids=["top-list", "handles-object", "record-int", "rules-list", "seed-missing", "kind-unknown"])
def test_seed_file_errors_name_the_handle(capsys, graph_files, tmp_path, decl, message):
    path = _write(tmp_path / "seeds.json", decl)
    assert main(["boundary-check", graph_files["bouquet2"], "--seeds", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"
