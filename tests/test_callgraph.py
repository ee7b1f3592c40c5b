"""Call-graph loading, reachability, depths, subgraphs, and code queries."""
from __future__ import annotations

import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixture_data as fd
import helpers
from vulnhunt.callgraph import (
    QUERY_KINDS,
    bfs_parents,
    bfs_path,
    compute_depths,
    load_call_graph,
    query,
    reachable_subgraph,
)
from vulnhunt.directions import Direction, build_pools
from vulnhunt.errors import ExportParseError, UnknownFuzzerError


def e2e_graph():
    return helpers.graph_from_records(fd.E2E_EXPORT_RECORDS)


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def test_load_e2e_graph_shape():
    graph = e2e_graph()
    assert len(graph.functions) == len(fd.E2E_EXPORT_RECORDS)
    assert sorted(graph.fuzzer_entries) == ["img_fuzzer", "meta_fuzzer", "net_fuzzer"]
    assert graph.fuzzer_entries["img_fuzzer"] == ["img_fuzzer_entry"]
    assert not any(rec.is_external for rec in graph.functions.values())
    assert graph.warnings == []


def test_load_from_file(tmp_path):
    path = fd.write_export(fd.E2E_EXPORT_RECORDS, tmp_path / "export.jsonl")
    graph = load_call_graph(path)
    assert set(graph.functions) == {rec["id"] for rec in fd.E2E_EXPORT_RECORDS}


def test_external_stub_creation():
    records = [
        {
            "id": "top",
            "name": "top",
            "file": "a.c",
            "source": "void top(void) { lib_helper(); }",
            "callees": ["lib_helper"],
            "reached_by_fuzzers": [],
            "is_entry_for": ["fz"],
        }
    ]
    graph = helpers.graph_from_records(records)
    stub = graph.functions["lib_helper"]
    assert stub.is_external
    assert stub.source_text == ""
    assert stub.callees == []
    # Stubs on the closure path are reachable and carry a depth.
    assert "fz" in stub.reached_by_fuzzers
    assert stub.call_depth["fz"] == 2


def test_malformed_json_line_reports_line_number():
    lines = helpers.export_lines(fd.E2E_EXPORT_RECORDS[:2])
    lines.insert(1, "{not json")
    with pytest.raises(ExportParseError) as exc_info:
        load_call_graph(lines)
    assert exc_info.value.line_no == 2
    assert "line 2" in str(exc_info.value)


def test_duplicate_id_rejected():
    records = [fd.E2E_EXPORT_RECORDS[0], dict(fd.E2E_EXPORT_RECORDS[0])]
    with pytest.raises(ExportParseError):
        load_call_graph(helpers.export_lines(records))


def test_missing_key_rejected():
    bad = {k: v for k, v in fd.E2E_EXPORT_RECORDS[0].items() if k != "source"}
    with pytest.raises(ExportParseError, match="missing keys: source"):
        load_call_graph(helpers.export_lines([bad]))


def test_unknown_key_and_bad_list_type_rejected():
    extra = dict(fd.E2E_EXPORT_RECORDS[0], flavor="x")
    with pytest.raises(ExportParseError, match="unknown keys: flavor"):
        load_call_graph(helpers.export_lines([extra]))
    bad_list = dict(fd.E2E_EXPORT_RECORDS[0], callees="img_parse_header")
    with pytest.raises(ExportParseError, match="list of strings"):
        load_call_graph(helpers.export_lines([bad_list]))


def test_blank_lines_skipped():
    lines = helpers.export_lines(fd.E2E_EXPORT_RECORDS)
    lines.insert(0, "")
    lines.append("   ")
    graph = load_call_graph(lines)
    assert len(graph.functions) == len(fd.E2E_EXPORT_RECORDS)


# The characters ``str.splitlines`` breaks at that do not end a record.
_UNICODE_ONLY_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def test_unicode_line_breaks_inside_strings_stay_in_the_record(tmp_path):
    """Only \\n, \\r\\n and \\r end a record; the other characters that
    ``str.splitlines`` breaks at may sit raw in a string, as
    ``json.dumps(..., ensure_ascii=False)`` writes them."""
    records = [dict(fd.E2E_EXPORT_RECORDS[0], source=f"int f(void) {{{ch} return 0; }}")
               for ch in _UNICODE_ONLY_BREAKS]
    for i, rec in enumerate(records):
        rec["id"] = f"f{i}"
    path = tmp_path / "export.jsonl"
    lines = [json.dumps(rec, ensure_ascii=False) for rec in records]
    path.write_bytes(("\r\n".join(lines[:4]) + "\r" + "\n".join(lines[4:])).encode("utf-8"))
    graph = load_call_graph(path)
    assert [graph.functions[rec["id"]].source_text for rec in records] == \
        [rec["source"] for rec in records]
    assert load_call_graph(lines).functions == graph.functions


_BAD_LINES = {
    "bad-json": '{not json',
    "unterminated": '"abc',
    "escape-at-end": '"ab\\',
    "unterminated-then-spaces": '"abc  ',
    "bad-literal": '{"id": tru}',
    "open-array": '[1, 2',
    "number": "3",
    "array": "[]",
    "trailing-data": json.dumps(fd.E2E_EXPORT_RECORDS[1]) + " x",
    "trailing-vt": json.dumps(fd.E2E_EXPORT_RECORDS[1]) + "\x0b",
    "non-string-callee": json.dumps(dict(fd.E2E_EXPORT_RECORDS[1], callees=["a", 1])),
}


@pytest.mark.parametrize("bad", list(_BAD_LINES.values()), ids=list(_BAD_LINES))
def test_bad_line_errors_match_the_naive_loader(bad, tmp_path):
    """The same error text and line as the naive loader, for given lines and
    for the same lines written to a file: the line's newline plays no part
    in the error, and a vertical tab stays inside its line."""
    lines = helpers.export_lines(fd.E2E_EXPORT_RECORDS[:1]) + [bad] + \
        helpers.export_lines(fd.E2E_EXPORT_RECORDS[2:3])
    want = helpers.load_outcome(helpers.naive_load_call_graph, lines)
    assert want[0] == "error" and want[2] == 2
    assert helpers.load_outcome(load_call_graph, lines) == want
    path = tmp_path / "export.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert helpers.load_outcome(load_call_graph, path) == want


def _open_files(monkeypatch):
    """Record every file ``Path.open`` returns from now on."""
    opened = []
    real_open = Path.open

    def recording(self, *args, **kwargs):
        opened.append(real_open(self, *args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(Path, "open", recording)
    return opened


def test_undecodable_third_line_names_the_path_and_closes_the_file(tmp_path, monkeypatch):
    # Two long lines put the bad byte past the first read chunk, so the error
    # must name its offset in the whole file, as a whole-file read does.
    records = [dict(fd.E2E_EXPORT_RECORDS[i], source="x" * 6000) for i in range(3)]
    good = helpers.export_lines(records)
    path = tmp_path / "export.jsonl"
    head = ("\n".join(good[:2]) + "\n" + good[2][:-2]).encode("utf-8")
    path.write_bytes(head + b"\xff\xfe\"}\n")
    opened = _open_files(monkeypatch)
    with pytest.raises(ExportParseError) as exc_info:
        load_call_graph(path)
    message = str(exc_info.value)
    assert message.startswith(f"cannot read export {path}: ")
    assert f"position {len(head)}:" in message and exc_info.value.line_no is None
    assert opened and all(f.closed for f in opened)
    assert helpers.load_outcome(helpers.naive_load_call_graph, path) == \
        ("error", message, None)


def test_unreadable_file_wins_over_an_earlier_bad_line(tmp_path, monkeypatch):
    path = tmp_path / "export.jsonl"
    good = helpers.export_lines(fd.E2E_EXPORT_RECORDS[:1])[0].encode("utf-8")
    path.write_bytes(b"{not json\n" + good + b"\n\xff\n")
    opened = _open_files(monkeypatch)
    with pytest.raises(ExportParseError, match="^cannot read export .*invalid start byte"):
        load_call_graph(path)
    assert all(f.closed for f in opened)
    missing = tmp_path / "absent.jsonl"
    assert helpers.load_outcome(load_call_graph, missing) == \
        helpers.load_outcome(helpers.naive_load_call_graph, missing)


# Drawn export lines for the loader oracle.  Line i declares id f{i}, and
# callees range a little past the declared ids (external stubs); fuzzers
# appear only in annotations as well as in entry lists.
_FUZZERS = st.sampled_from(["fz_a", "fz_b", "fz_c"])
_NOT_A_STRING_LIST = st.sampled_from(["f1", None, 3, {"f1": 1}, ["f1", 2], [None], [["f1"]]])
_MALFORMED = ["bad json", "trailing", "non-object", "missing", "unknown", "bad id", "bad list",
              "duplicate"]


def _record(draw, fid, count):
    ids = st.sampled_from([f"f{i}" for i in range(count + 2)])
    rec = {"id": fid, "name": draw(st.sampled_from(["n0", "n1", "f0"])),
           "file": draw(st.sampled_from(["a.c", "b.c"])),
           "source": draw(st.text(alphabet="ab (){};\n\t\"\\é\x85\u2028", max_size=12))}
    for key, values in (("callees", st.lists(ids, max_size=4)),
                        ("reached_by_fuzzers", st.lists(_FUZZERS, max_size=2)),
                        ("is_entry_for", st.lists(_FUZZERS, max_size=2))):
        if draw(st.integers(0, 5)):
            rec[key] = draw(values)
    return rec


def _malformed(draw, rec):
    kind = draw(st.sampled_from(_MALFORMED))
    if kind == "bad json":
        return draw(st.sampled_from(['{not json', '{"id": "f0"', '"abc', '"ab\\', '[1, 2',
                                     '{"id": tru}', 'nul', '\ufeff{}', '{"a": 1,}']))
    if kind == "trailing":
        return json.dumps(rec) + draw(st.sampled_from([" x", "}", " {}", "\x0b"]))
    if kind == "non-object":
        return draw(st.sampled_from(["[]", '"s"', "3", "null", "[{}]"]))
    if kind == "missing":
        drop = draw(st.lists(st.sampled_from(["id", "name", "file", "source"]), min_size=1,
                             unique=True))
        return json.dumps({k: v for k, v in rec.items() if k not in drop})
    if kind == "unknown":
        return json.dumps(dict(rec, **{draw(st.sampled_from(["flavor", "Id", "calls"])): 1}))
    if kind == "bad id":
        return json.dumps(dict(rec, id=draw(st.sampled_from(["", 3, None, ["f0"]]))))
    if kind == "duplicate":
        return json.dumps(dict(rec, id="f0"))
    key = draw(st.sampled_from(["callees", "reached_by_fuzzers", "is_entry_for"]))
    return json.dumps(dict(rec, **{key: draw(_NOT_A_STRING_LIST)}))


@st.composite
def _export_lines(draw):
    count = draw(st.integers(0, 10))
    lines = []
    for i in range(count):
        kind = draw(st.sampled_from(["valid"] * 12 + ["blank", "malformed"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t", " \t ", "\r\n", " \r\n"])))
            continue
        rec = _record(draw, f"f{i}", count)
        if kind == "valid":
            line = json.dumps(rec, ensure_ascii=draw(st.booleans()))
        else:
            line = _malformed(draw, rec)
        pad = st.sampled_from(["", "", "", " ", "\t", "  \t"])
        lines.append(draw(pad) + line + draw(pad) + draw(st.sampled_from(["", "", "\r\n"])))
    return lines


@settings(max_examples=300, deadline=None)
@given(lines=_export_lines())
def test_streaming_loader_matches_naive_oracle(lines):
    """Given lines and the same lines written to a file, the streaming
    loader builds the same graph as the naive one, key orders and warnings
    included, or fails with the same error text and line."""
    want = helpers.load_outcome(helpers.naive_load_call_graph, lines)
    assert helpers.load_outcome(load_call_graph, lines) == want
    text = "\n".join(lines)
    if any(ch in text for ch in _UNICODE_ONLY_BREAKS):
        return  # the naive loader split this text at a Unicode line break too
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "export.jsonl"
        path.write_bytes(text.encode("utf-8"))
        assert helpers.load_outcome(load_call_graph, path) == \
            helpers.load_outcome(helpers.naive_load_call_graph, path)


# ---------------------------------------------------------------------------
# Reachability and depths
# ---------------------------------------------------------------------------


def test_annotation_only_reachability_unions_with_closure():
    records = [
        dict(rec, reached_by_fuzzers=(["img_fuzzer"] if rec["id"] == "img_debug_dump" else rec["reached_by_fuzzers"]))
        for rec in fd.E2E_EXPORT_RECORDS
    ]
    graph = helpers.graph_from_records(records)
    sub = reachable_subgraph(graph, "img_fuzzer")
    assert "img_debug_dump" in sub.functions          # annotated, not on any edge path
    assert "img_debug_dump" not in compute_depths(graph, "img_fuzzer")
    assert helpers.naive_reachable(records, "img_fuzzer") == set(sub.functions)


def test_e2e_depths_match_hand_computed():
    graph = e2e_graph()
    assert compute_depths(graph, "img_fuzzer") == {
        "img_fuzzer_entry": 1,
        "img_parse_header": 2,
        "img_read_chunk": 2,
        "img_validate_magic": 3,
        "img_decompress": 3,
        "img_apply_palette": 3,
        "img_util_crc": 3,
    }
    assert compute_depths(graph, "net_fuzzer") == {
        "net_fuzzer_entry": 1,
        "net_parse_frame": 2,
        "net_handle_ping": 3,
        "net_handle_echo": 3,
        "net_util_sum": 4,
    }


def test_unknown_fuzzer_raises():
    graph = e2e_graph()
    with pytest.raises(UnknownFuzzerError):
        compute_depths(graph, "nope_fuzzer")
    with pytest.raises(UnknownFuzzerError):
        reachable_subgraph(graph, "nope_fuzzer")


def test_random_graphs_match_naive_oracle():
    rng = random.Random(1234)
    for _ in range(25):
        records, fuzzers = helpers.random_graph_records(rng, max_nodes=60)
        graph = load_call_graph(helpers.export_lines(records))
        for fuzzer in fuzzers:
            sub = reachable_subgraph(graph, fuzzer)
            assert set(sub.functions) == helpers.naive_reachable(records, fuzzer)
            depths = helpers.naive_depths(records, fuzzer)
            assert compute_depths(graph, fuzzer) == depths
            # Static routes: entry first, one call edge per step, shortest.
            adj = helpers.naive_adjacency(records)
            entries = set(helpers.naive_entries(records, fuzzer))
            parents = bfs_parents(graph.functions, graph.fuzzer_entries[fuzzer])
            for fid in helpers.naive_reachable(records, fuzzer):
                path = bfs_path(parents, fid)
                if fid not in depths:  # annotation-only: no edge route
                    assert path == []
                    continue
                assert path[0] in entries and path[-1] == fid
                assert all(callee in adj[caller] for caller, callee in zip(path, path[1:]))
                assert len(path) == depths[fid]


def test_subgraph_is_idempotent():
    rng = random.Random(77)
    records, fuzzers = helpers.random_graph_records(rng, max_nodes=80)
    graph = load_call_graph(helpers.export_lines(records))
    once = reachable_subgraph(graph, fuzzers[0])
    twice = reachable_subgraph(once, fuzzers[0])
    assert list(twice.functions) == list(once.functions)
    assert twice.fuzzer_entries == once.fuzzer_entries
    for fid in once.functions:
        assert twice.functions[fid] is once.functions[fid] is graph.functions[fid]
        assert twice.callees_of(fid) == once.callees_of(fid)
        assert twice.callers_of(fid) == once.callers_of(fid)


def test_subgraph_restricts_edges_to_members():
    graph = e2e_graph()
    sub = reachable_subgraph(graph, "img_fuzzer")
    assert "img_debug_dump" not in sub.functions
    for fid in sub.functions:
        assert all(callee in sub.functions for callee in sub.callees_of(fid))
        assert all(caller in sub.functions for caller in sub.callers_of(fid))
        # Members are the loaded records, shared rather than copied.
        assert sub.functions[fid] is graph.functions[fid]


def _colliding_graph(seed: int):
    """A random export whose function names repeat every seven records, plus
    one fuzzer known only from an annotation (no entry points)."""
    records, fuzzers = helpers.random_graph_records(random.Random(seed), max_nodes=40)
    for i, rec in enumerate(records):
        rec["name"] = f"n{i % 7}"
    records[0]["reached_by_fuzzers"].append("fz_ghost")
    return records, fuzzers + ["fz_ghost"]


_SEEN_NON_MEMBER_CALLEE = []


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), draw=st.randoms(use_true_random=False))
def _check_view_matches_copy(seed, draw):
    records, fuzzers = _colliding_graph(seed)
    graph = load_call_graph(helpers.export_lines(records))
    names = sorted({rec.name for rec in graph.functions.values()})
    files = sorted({rec.file_path for rec in graph.functions.values()})
    probes = sorted(graph.functions) + names + files + fuzzers + ["ghost", "return 1", "("]
    for fuzzer in fuzzers:
        view = reachable_subgraph(graph, fuzzer)
        copy = helpers.naive_reachable_subgraph(graph, fuzzer)
        assert list(view.functions) == list(copy.functions)
        assert view.fuzzer_entries == copy.fuzzer_entries
        assert view.warnings == copy.warnings
        for kind in QUERY_KINDS:
            for probe in probes:
                for regex in (False, True):
                    args = {"function": probe, "fuzzer": probe, "file": probe,
                            "pattern": probe, "regex": regex}
                    assert query(view, kind, args) == query(copy, kind, args), (kind, probe)
        for fid in view.functions:
            assert view.functions[fid] is graph.functions[fid]
            assert view.callers_of(fid) == copy.callers_of(fid)
            assert view.callees_of(fid) == copy.callees_of(fid) == copy.functions[fid].callees
            if view.callees_of(fid) != view.functions[fid].callees:
                _SEEN_NON_MEMBER_CALLEE.append(fid)
        for probe in probes:
            got, want = view.resolve(probe), copy.resolve(probe)
            assert (got and got.id) == (want and want.id), probe
        entries = view.fuzzer_entries[fuzzer]
        assert bfs_parents(view.functions, entries) == bfs_parents(copy.functions, entries)
        picks = sorted(graph.functions) + names
        direction = Direction(
            name="drawn",
            entry_functions=draw.sample(picks, min(2, len(picks))),
            core_functions=draw.sample(picks, min(3, len(picks))),
            risk_level="high",
            risk_reason="drawn",
        )
        assert build_pools(direction, view) == build_pools(direction, copy)


def test_reachable_view_matches_deep_copy_oracle():
    """The shared-record view answers every read exactly as the old
    deep-copied subgraph did, including name lookups that are unique only
    among reachable functions."""
    _SEEN_NON_MEMBER_CALLEE.clear()
    _check_view_matches_copy()
    # Some drawn view had a member calling outside it, so the edge filter
    # in callees_of was exercised.
    assert _SEEN_NON_MEMBER_CALLEE


# ---------------------------------------------------------------------------
# Query surface
# ---------------------------------------------------------------------------


def test_query_function_source_and_not_found():
    graph = e2e_graph()
    out = query(graph, "get_function_source", {"function": "img_decompress"})
    assert out.startswith("// img_decompress (img/decode.c)")
    assert "window[64]" in out
    assert query(graph, "get_function_source", {"function": "ghost"}) == "not found: function 'ghost'"


def test_query_callers_and_callees():
    graph = e2e_graph()
    assert query(graph, "get_callers", {"function": "img_decompress"}) == "img_read_chunk"
    callees = query(graph, "get_callees", {"function": "img_read_chunk"})
    assert callees.splitlines() == ["img_apply_palette", "img_decompress", "img_util_crc"]
    assert query(graph, "get_callers", {"function": "img_fuzzer_entry"}) == "(no callers)"
    assert query(graph, "get_callees", {"function": "img_util_crc"}) == "(no callees)"


def test_query_reachable_and_unreached():
    graph = e2e_graph()
    reachable = query(graph, "get_reachable_functions", {"fuzzer": "net_fuzzer"}).splitlines()
    assert reachable == sorted(helpers.naive_reachable(fd.E2E_EXPORT_RECORDS, "net_fuzzer"))
    unreached = query(graph, "get_unreached_functions", {"fuzzer": "img_fuzzer"}).splitlines()
    assert "img_debug_dump" in unreached
    assert "img_decompress" not in unreached
    assert query(graph, "get_reachable_functions", {"fuzzer": "zz"}) == "not found: fuzzer 'zz'"


def test_query_search_code_literal_and_regex():
    graph = e2e_graph()
    out = query(graph, "search_code", {"pattern": "CMPR"})
    assert 'img/decode.c:img_read_chunk:' in out
    assert query(graph, "search_code", {"pattern": "no_such_text_xyz"}) == "(no matches)"
    regex_out = query(graph, "search_code", {"pattern": r"memcpy\(", "regex": True})
    assert "meta_parse_exif" in regex_out
    assert query(graph, "search_code", {"pattern": "(", "regex": True}).startswith("invalid regex:")
    assert query(graph, "search_code", {"pattern": ""}) == "(empty pattern)"


def test_query_file_content_groups_functions():
    graph = e2e_graph()
    out = query(graph, "get_file_content", {"file": "img/decode.c"})
    for name in ("img_parse_header", "img_validate_magic", "img_read_chunk",
                 "img_decompress", "img_apply_palette"):
        assert f"// {name}" in out
    assert query(graph, "get_file_content", {"file": "zz.c"}) == "not found: file 'zz.c'"


def test_query_is_byte_stable_and_rejects_unknown_kind():
    graph = e2e_graph()
    for kind in QUERY_KINDS:
        args = {"function": "img_read_chunk", "fuzzer": "img_fuzzer",
                "pattern": "len", "file": "img/decode.c"}
        assert query(graph, kind, args) == query(graph, kind, args)
    with pytest.raises(ValueError):
        query(graph, "walk_graph", {})


def test_resolve_by_unique_name():
    graph = e2e_graph()
    assert graph.resolve("img_decompress").id == "img_decompress"
    assert graph.resolve("missing") is None


def test_resolve_prefers_id_then_unique_name():
    def named(fid, name):
        return {"id": fid, "name": name, "file": "r.c", "source": f"void {name}(void) {{}}",
                "callees": [], "reached_by_fuzzers": [], "is_entry_for": []}

    graph = helpers.graph_from_records([
        named("a.c:init", "init"),
        named("b.c:init", "init"),
        named("a.c:parse", "parse"),
        named("parse", "b.c:init"),
    ])
    assert graph.resolve("init") is None  # ambiguous name
    assert graph.resolve("a.c:init").id == "a.c:init"
    assert graph.resolve("b.c:init").id == "b.c:init"  # the id wins over a name
    assert graph.resolve("parse").id == "parse"
    assert graph.resolve("a.c:parse").id == "a.c:parse"
