"""cli.encode lays reports out through the C encoder with json.dumps's bytes.

The referee is ``json.dumps(obj, sort_keys=True, indent=2, default=str)``,
the standard library's pure-Python indenting encoder.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from kgraphkit import cli, kgraph_to_dict, make_bouquet
from kgraphkit.cli import encode, main
from kgraphkit.core import Degree


def referee(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, default=str)


class Opaque:
    """Not JSON-serializable: both encoders write its str."""

    def __init__(self, text):
        self.text = text

    def __str__(self):
        return self.text


TRICKY = ["\n", '"', "\\", "},{", "},\n  {", "],\n    [", "\u2028", "é", "日本", "\x00", " "]

texts = st.lists(st.one_of(st.characters(), st.sampled_from(TRICKY)), max_size=4).map("".join)
numbers = st.one_of(st.integers(), st.floats(allow_nan=True, allow_infinity=True),
                    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300, True, False]))
scalars = st.one_of(st.none(), numbers, texts,
                    st.lists(st.integers(0, 4), max_size=3).map(Degree),
                    texts.map(Opaque), st.complex_numbers(allow_nan=False, max_magnitude=10))
keys = st.one_of(texts, numbers, st.none())


flat_dicts = st.dictionaries(texts, scalars, min_size=1, max_size=4)
flat_lists = st.lists(scalars, min_size=1, max_size=4)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(texts, children, max_size=4),
        # one kind of key per dict, so that json can sort them
        st.dictionaries(numbers, children, max_size=4),
        st.dictionaries(st.none(), children, max_size=1),
        # the seam path: lists of non-empty flat containers of one kind
        st.lists(flat_dicts, min_size=1, max_size=5),
        st.lists(st.one_of(flat_lists, flat_lists.map(tuple)), min_size=1, max_size=5),
        # empty members beside flat ones, which the seam path must not take
        st.lists(st.one_of(flat_dicts, st.just({})), min_size=1, max_size=4),
        st.lists(st.one_of(flat_dicts, flat_lists), min_size=1, max_size=4),
    )


documents = st.recursive(scalars, containers, max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(documents)
def test_encode_equals_json_dumps(obj):
    assert encode(obj) == referee(obj)


# rep-verify results: flat items with a few that carry a detail dict, and
# flat lists, empty containers and scalars between runs of them
result_lists = st.lists(st.one_of(
    flat_dicts, flat_dicts, flat_lists, st.tuples(flat_dicts, flat_dicts).map(
        lambda pair: {**pair[0], "detail": pair[1]}),
    st.sampled_from([{}, [], 0, "x", None])), min_size=1, max_size=12)


@settings(max_examples=300, deadline=None)
@given(result_lists, st.integers(0, 2))
def test_runs_of_flat_items_equal_json_dumps(items, depth):
    """Each maximal run of flat items of one kind is laid out in one C call."""
    obj = items
    for _ in range(depth):
        obj = {"results": obj, "n": [obj]}
    assert encode(obj) == referee(obj)


def test_flat_runs_beside_detail_items_take_one_call_each(monkeypatch):
    """A long list of flat results broken by a few detail items is laid out
    in one C call per run of flat items, not one per item."""
    items = [{"id": f"c{i}", "status": "pass"} for i in range(1000)]
    for i in (0, 500, 999):
        items[i] = {"id": f"c{i}", "detail": {"tau": "a"}, "status": "pass"}
    want, calls = referee(items), []
    real = json.JSONEncoder.encode
    monkeypatch.setattr(json.JSONEncoder, "encode",
                        lambda self, o: calls.append(o) or real(self, o))
    assert encode(items) == want
    assert sum(isinstance(o, list) and len(o) > 1 for o in calls) == 2
    assert len(calls) < 40


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(keys, st.integers(), max_size=4), st.integers(0, 3))
def test_key_rules_equal_json_dumps(mapping, depth):
    """Mixed key types fail to sort, with the same error as json's."""
    obj = mapping
    for _ in range(depth):
        obj = {"k": [obj, {"x": 1}]}
    try:
        want = referee(obj)
    except TypeError:
        with pytest.raises(TypeError):
            encode(obj)
    else:
        assert encode(obj) == want


@pytest.mark.parametrize("key", [Degree((1,)), (1, 2), Opaque("k")])
@pytest.mark.parametrize("nested", [False, True])
def test_unsupported_keys_raise_like_json(key, nested):
    obj = {key: [{"a": 1}]} if nested else {key: 1}
    with pytest.raises(TypeError):
        referee(obj)
    with pytest.raises(TypeError):
        encode(obj)


def test_empty_containers_at_every_depth():
    for empty in ({}, [], ()):
        obj = empty
        for depth in range(5):
            assert encode(obj) == referee(obj), depth
            obj = {"a": [obj, {"b": obj}, [obj]], "c": obj}


def test_no_pure_python_encoder(monkeypatch):
    """The report is laid out without json's pure-Python indenting path."""
    obj = {"config": {"command": "x", "members": ["a", "b"], "window": Degree((4,))},
           "results": [{"id": "t\u2028", "status": "pass"}, {"id": "ü", "witness": None}],
           "nested": [{"handle": "tm", "boundary_condition": {"status": "pass"}}, [], {}],
           "values": [1.5, math.nan, -math.inf, Opaque("o"), 3 + 4j]}
    want = referee(obj)

    def refuse(*args, **kwargs):
        raise AssertionError("pure-Python encoder used")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError):
        referee(obj)
    assert encode(obj) == want


@pytest.mark.parametrize("suite", ["claim1", "couniversal"])
def test_float_bearing_reports_equal_json_dumps(capsys, tmp_path, monkeypatch, suite):
    """claim1 and couniversal print float norms, so no golden pins them."""
    graph = tmp_path / "bouquet2.kg"
    graph.write_text(json.dumps(kgraph_to_dict(make_bouquet(2))), encoding="utf-8")
    seeds = tmp_path / "tm.json"
    seeds.write_text(json.dumps({"handles": [{"kind": "substitution", "seed": "a", "shifts": 8,
                                              "rules": {"a": "ab", "b": "ba"}}]}),
                     encoding="utf-8")
    want = []
    monkeypatch.setattr(cli, "encode", lambda obj: want.append(referee(obj)) or encode(obj))
    main(["rep-verify", str(graph), "--family", "boundary", "--seeds", str(seeds),
          "--cap", "5", "--window", "64", "--suite", suite, "--suite-size", "2"])
    out = capsys.readouterr().out
    assert len(want) == 1 and "." in want[0]
    assert out == want[0] + "\n"
