"""Simulated targets, mutation engine, corpus, seed scraping, fuzz loops."""
from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixture_data as fd
from vulnhunt.errors import (
    LifecycleError,
    OversizeBlobError,
    TargetSchemaError,
)
from vulnhunt.callgraph import reachable_subgraph
from vulnhunt.directions import Direction
from vulnhunt.fuzzing.corpus import Corpus
from vulnhunt.fuzzing.engine import FuzzLoop, reproduce, sp_fuzzer_verify
from vulnhunt.fuzzing.mutate import OPERATORS, Mutator
from vulnhunt.fuzzing import target as target_module
from vulnhunt.fuzzing.seeds import (
    extract_literal_tokens,
    seed_from_direction,
    seed_from_fp,
)
from vulnhunt.fuzzing.target import (
    DEFAULT_MAX_BLOB,
    ExecutionResult,
    SimTarget,
    SimTargetRunner,
    load_targets_dir,
    parse_target,
    render_output,
    validate_predicate,
)
from vulnhunt.spstore import SPStore

import helpers


def img_target():
    return parse_target(fd.IMG_TARGET)


def img_run(blob, sanitizer=None, max_blob=DEFAULT_MAX_BLOB):
    return SimTargetRunner(img_target(), sanitizer, max_blob).run(blob)


def magic_runner(sanitizer="address"):
    return SimTargetRunner(parse_target(fd.MAGIC_TARGET), sanitizer=sanitizer)


def global_loop(runner, budget, seed, mutator=None):
    """A global loop on a fresh corpus, as a worker builds one."""
    return FuzzLoop(runner, Corpus(), mutator or Mutator(), random.Random(seed), "global", budget)


def palette_blob(total_len: int) -> bytes:
    head = b"IMGX" + b"\x00" * 4 + fd.PALETTE_MAGIC.to_bytes(4, "little")
    return head + b"A" * (total_len - len(head))


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


def _guard_test(guard):
    """``guard`` as a blob -> bool test, through a runner of one rule that
    enters ``hit`` where the guard holds: the runner's own trie and walk."""
    runner = SimTargetRunner(parse_target({"version": 1, "name": "one_rule", "fuzzer": "one",
                                           "rules": [{"guard": guard, "enter": ["hit"]}]}))
    return lambda blob: runner.run(blob).trace == ("hit",)


def _holds(node, blob):
    return _guard_test(node)(blob)


def test_predicate_kinds_evaluate_correctly():
    assert _holds({"kind": "offset-equals", "offset": 0, "value": 127}, b"\x7f")
    assert not _holds({"kind": "offset-equals", "offset": 3, "value": 1}, b"ab")
    assert _holds({"kind": "prefix", "text": "IMGX"}, b"IMGXtail")
    assert not _holds({"kind": "prefix", "text": "IMGX"}, b"xIMGX")
    assert _holds({"kind": "contains", "hex": "00ff"}, b"a\x00\xffb")
    assert _holds({"kind": "length-cmp", "op": "ge", "value": 3}, b"abc")
    assert not _holds({"kind": "length-cmp", "op": "lt", "value": 3}, b"abc")
    u32 = {"kind": "u32-le-field-cmp", "offset": 2, "op": "eq", "value": 0x01020304}
    assert _holds(u32, b"..\x04\x03\x02\x01")
    assert not _holds(u32, b"..\x04\x03\x02")  # field would run past the end
    tree = {
        "kind": "and",
        "terms": [
            {"kind": "prefix", "text": "AB"},
            {"kind": "not", "term": {"kind": "contains", "text": "Z"}},
        ],
    }
    assert _holds(tree, b"ABC")
    assert not _holds(tree, b"ABZ")
    assert _holds(
        {"kind": "or", "terms": [{"kind": "length-cmp", "op": "gt", "value": 9},
                                 {"kind": "prefix", "text": "Q"}]},
        b"Q")


_OP_NAMES = ("lt", "le", "eq", "ne", "ge", "gt")
_OFFSETS = st.integers(0, 20)
_U32_VALUES = st.one_of(
    st.sampled_from([0, 1, 0xFF, 0x01000000, 0x41414141, 0xFFFFFFFF]),
    st.integers(0, 0xFFFFFFFF),
)
_LITERALS = st.one_of(
    st.binary(max_size=3).map(lambda b: {"hex": b.hex()}),
    st.text(alphabet="A\x00é", max_size=3).map(lambda t: {"text": t}),
)
_LEAVES = st.one_of(
    st.builds(lambda o, v: {"kind": "offset-equals", "offset": o, "value": v},
              _OFFSETS, st.sampled_from([0, 1, 0x41, 0xFF])),
    _LITERALS.map(lambda lit: {"kind": "prefix", **lit}),
    _LITERALS.map(lambda lit: {"kind": "contains", **lit}),
    st.builds(lambda op, v: {"kind": "length-cmp", "op": op, "value": v},
              st.sampled_from(_OP_NAMES), st.integers(0, 24)),
    st.builds(lambda o, op, v: {"kind": "u32-le-field-cmp", "offset": o, "op": op, "value": v},
              _OFFSETS, st.sampled_from(_OP_NAMES), _U32_VALUES),
)
_TREES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, min_size=1, max_size=3).map(lambda ts: {"kind": "and", "terms": ts}),
        st.lists(children, min_size=1, max_size=3).map(lambda ts: {"kind": "or", "terms": ts}),
        children.map(lambda t: {"kind": "not", "term": t}),
    ),
    max_leaves=8,
)
_BLOBS = st.one_of(
    st.binary(max_size=24),
    st.lists(st.sampled_from([0x00, 0x01, 0x41, 0xFF]), max_size=24).map(bytes),
)


def _u32_offsets(node):
    if node["kind"] == "u32-le-field-cmp":
        yield node["offset"]
    for child in node.get("terms", []) + ([node["term"]] if "term" in node else []):
        yield from _u32_offsets(child)


@settings(max_examples=300, deadline=None)
@given(tree=_TREES, blob=_BLOBS)
def test_compiled_predicates_match_naive_oracle(tree, blob):
    test = _guard_test(tree)
    # Besides the drawn blob: the empty blob, and every u32 field cut off one
    # byte short of, and exactly at, the blob's end.
    padded = blob + b"\x41" * 24
    probes = [blob, b""] + [padded[:off + 4 - short]
                            for off in _u32_offsets(tree) for short in (0, 1)]
    for probe in probes:
        assert test(probe) == helpers.naive_eval_predicate(tree, probe), probe


def test_predicate_validation_paths():
    with pytest.raises(TargetSchemaError, match="unknown predicate kind"):
        validate_predicate({"kind": "suffix", "text": "x"})
    with pytest.raises(TargetSchemaError, match=r"terms\[1\]"):
        validate_predicate({"kind": "and", "terms": [
            {"kind": "prefix", "text": "A"}, {"kind": "nope"}]})
    with pytest.raises(TargetSchemaError, match="exactly one of"):
        validate_predicate({"kind": "prefix", "text": "A", "hex": "41"})
    with pytest.raises(TargetSchemaError, match="byte"):
        validate_predicate({"kind": "offset-equals", "offset": 0, "value": 300})


@pytest.mark.parametrize("node, field, message", [
    ({"kind": "offset-equals", "offset": True, "value": 0}, "offset", "non-negative integer"),
    ({"kind": "offset-equals", "offset": 0, "value": False}, "value", "byte"),
    ({"kind": "length-cmp", "op": "ge", "value": True}, "value", "non-negative integer"),
    ({"kind": "u32-le-field-cmp", "offset": False, "op": "eq", "value": 0}, "offset",
     "non-negative integer"),
    ({"kind": "u32-le-field-cmp", "offset": 0, "op": "eq", "value": True}, "value",
     "unsigned 32-bit integer"),
], ids=["offset-equals.offset", "offset-equals.value", "length-cmp.value",
        "u32-le-field-cmp.offset", "u32-le-field-cmp.value"])
def test_predicate_integer_fields_reject_booleans(node, field, message):
    """JSON ``true``/``false`` are bools, which Python counts as ints; a
    predicate must not read them as 1 and 0."""
    with pytest.raises(TargetSchemaError, match=f"'{field}' must .*{message}"):
        validate_predicate(node)
    validate_predicate(dict(node, **{field: int(node[field])}))


# ---------------------------------------------------------------------------
# Target parsing and execution
# ---------------------------------------------------------------------------


def test_parse_target_validation():
    with pytest.raises(TargetSchemaError, match="version"):
        parse_target(dict(fd.MAGIC_TARGET, version=2))
    with pytest.raises(TargetSchemaError, match="'name'"):
        parse_target({k: v for k, v in fd.MAGIC_TARGET.items() if k != "name"})
    bad_rule = dict(fd.MAGIC_TARGET)
    bad_rule = {
        **fd.MAGIC_TARGET,
        "rules": [{
            "guard": fd.ALWAYS,
            "enter": ["m_entry"],
            "crash": {"location": "m_handler", "vuln_type": "heap-buffer-overflow",
                      "sanitizer": "address"},
        }],
    }
    with pytest.raises(TargetSchemaError, match="must appear in the rule's 'enter'"):
        parse_target(bad_rule)
    with pytest.raises(TargetSchemaError, match="unknown keys"):
        parse_target({**fd.MAGIC_TARGET,
                      "rules": [{"guard": fd.ALWAYS, "enter": [], "extra": 1}]})


def test_load_targets_dir_keys_by_fuzzer(e2e_workspace):
    targets = load_targets_dir(e2e_workspace.targets_dir)
    assert sorted(targets) == ["img_fuzzer", "meta_fuzzer", "net_fuzzer"]
    assert targets["img_fuzzer"].name == "img_target"


def test_load_targets_dir_rejects_unreadable_entries(tmp_path):
    """A target file that is not UTF-8 or is a directory, and a targets path
    that is not a directory, raise TargetSchemaError naming the path."""
    (tmp_path / "bad.json").write_bytes(b"\xff\xfe")
    with pytest.raises(TargetSchemaError, match="bad.json"):
        load_targets_dir(tmp_path)
    (tmp_path / "bad.json").unlink()
    (tmp_path / "dir.json").mkdir()
    with pytest.raises(TargetSchemaError, match="dir.json"):
        load_targets_dir(tmp_path)
    with pytest.raises(TargetSchemaError, match="not a directory"):
        load_targets_dir(tmp_path / "absent")


def test_load_targets_dir_rejects_duplicate_fuzzer(tmp_path):
    fd.write_targets([fd.MAGIC_TARGET], tmp_path)
    (tmp_path / "copy.json").write_text(
        (tmp_path / "magic_fuzzer.json").read_text(encoding="utf-8"), encoding="utf-8")
    with pytest.raises(TargetSchemaError, match="duplicate target"):
        load_targets_dir(tmp_path)


def test_execute_ok_output_shape():
    result = img_run(b"")
    assert result.outcome == "ok"
    assert result.coverage == frozenset({"img_fuzzer_entry"})
    assert render_output(result, "img_target", 0).splitlines() == [
        "run img_target (0 bytes)",
        "enter img_fuzzer_entry",
        "exit ok",
    ]


def test_execute_crash_output_and_trace():
    result = img_run(palette_blob(32))
    assert result.outcome == "crash"
    assert result.crash.location == "img_apply_palette"
    assert result.crash.vuln_type == "heap-buffer-overflow"
    assert "== ERROR: address sanitizer: heap-buffer-overflow in img_apply_palette ==" \
        in render_output(result, "img_target", 32).splitlines()
    # Execution stops at the crashing rule; the trace keeps rule order.
    assert result.trace[0] == "img_fuzzer_entry"
    assert result.trace[-1] == "img_apply_palette"


def test_execute_trace_keeps_duplicate_enters():
    blob = b"IMGX\x00\x00\x00\x00CMPR" + b"B" * 12   # 24 bytes, CMPR at 8
    result = img_run(blob)
    assert result.outcome == "crash"
    assert result.crash.location == "img_decompress"
    assert result.trace.count("img_decompress") == 2  # plain rule + crash rule
    assert isinstance(result.coverage, frozenset)


def test_output_text_of_crashing_and_sanitizer_filtered_runs():
    npd_blob = b"IMGX\xff\x00\x00\x00"
    entered = [
        "run img_target (8 bytes)",
        "enter img_fuzzer_entry",
        "enter img_parse_header",
        "enter img_validate_magic",
        "enter img_read_chunk",
        "enter img_util_crc",
        "enter img_parse_header",
    ]
    # The crash rule is entered but built for another sanitizer: no crash.
    filtered = img_run(npd_blob, "address")
    assert render_output(filtered, "img_target", 8) == "\n".join(entered + ["exit ok"])
    crashed = img_run(npd_blob, "undefined")
    assert render_output(crashed, "img_target", 8) == "\n".join(entered + [
        "== ERROR: undefined sanitizer: null-pointer-dereference in img_parse_header =="])


def test_sanitizer_binding_controls_crash_visibility():
    npd_blob = b"IMGX\xff\x00\x00\x00"
    addr = img_run(npd_blob, "address")
    assert addr.outcome == "ok"          # undefined-sanitizer bug is invisible
    ubsan = img_run(npd_blob, "undefined")
    assert ubsan.outcome == "crash"
    assert ubsan.crash.location == "img_parse_header"
    any_san = img_run(npd_blob)   # None detects everything
    assert any_san.outcome == "crash"


def test_non_firing_crash_rule_continues_execution():
    # The decompress crash rule precedes the palette crash rule; under the
    # address sanitizer a long palette blob must pass through untouched by
    # the undefined-only header rule and crash in the palette.
    blob = palette_blob(40)
    result = img_run(blob, "address")
    assert result.crash.location == "img_apply_palette"


def test_oversize_blob_rejected():
    with pytest.raises(OversizeBlobError):
        img_run(b"x" * 9, max_blob=8)


# ---------------------------------------------------------------------------
# Mutator
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(blob=st.binary(max_size=64), seed=st.integers(0, 2**31), max_len=st.integers(1, 48))
def test_mutate_respects_max_len(blob, seed, max_len):
    mut = Mutator(max_len=max_len, dictionary=[b"IMGX", b"CMPR"])
    out = mut.bind(random.Random(seed), [p for p in (b"partner", blob) if p])(blob)
    assert isinstance(out, bytes)
    assert len(out) <= max_len


def test_mutate_is_deterministic_for_equal_rng_state():
    mut = Mutator(dictionary=[b"TAG"])
    a = [mut.bind(random.Random(5), [b"world"])(b"hello") for _ in range(10)]
    b = [mut.bind(random.Random(5), [b"world"])(b"hello") for _ in range(10)]
    assert a == b


@pytest.mark.parametrize("max_len", [0, -1, -8])
def test_mutator_rejects_max_len_below_one(max_len):
    with pytest.raises(ValueError, match=f"got {max_len}"):
        Mutator(max_len=max_len)


class _Scripted:
    """An rng whose first ``getrandbits`` answers are ``script``; the later
    ones come from ``random.Random(seed)``."""

    def __init__(self, script, seed):
        self.script = list(script)
        self.rest = random.Random(seed)

    def getrandbits(self, k):
        return self.script.pop(0) if self.script else self.rest.getrandbits(k)


def _apply(op, blob, seed=0, partners=(), mutator=None):
    """``blob`` mutated by the operator named ``op``: the operator draw is
    scripted, the draws after it come from ``random.Random(seed)``."""
    rng = _Scripted([OPERATORS.index(op)], seed)
    return (mutator or Mutator()).bind(rng, list(partners))(blob)


def test_empty_blob_behaviour_per_operator():
    assert _apply("bit_flip", b"") == b""
    assert _apply("delete", b"") == b""
    assert _apply("block_duplicate", b"") == b""
    assert len(_apply("byte_set", b"")) == 1
    assert len(_apply("insert", b"")) == 1
    # Without partners or dictionary both fall back to a 1-byte insert.
    assert len(_apply("splice", b"")) == 1
    assert len(_apply("dict_insert", b"")) == 1
    for seed in range(20):
        insert = _apply("insert", b"abc", seed)
        assert _apply("splice", b"abc", seed) == insert
        assert _apply("dict_insert", b"abc", seed) == insert


def test_dict_insert_and_splice_use_their_sources():
    mut = Mutator(dictionary=[b"MAGI"])
    out = _apply("dict_insert", b"xy", 1, mutator=mut)
    assert b"MAGI" in out and len(out) == 6
    spliced = _apply("splice", b"abcd", 2, [b"WXYZ"], mut)
    assert spliced.startswith(b"abcd"[: len(spliced)]) or b"WXYZ"[-1:] in spliced
    assert spliced in {b"abcd"[:a] + b"WXYZ"[b:] for a in range(5) for b in range(5)}
    mut.add_token(b"MAGI")          # duplicate: ignored
    mut.add_token(b"")              # empty: ignored
    mut.add_token(b"NEW1")
    assert mut.dictionary == [b"MAGI", b"NEW1"]


def test_operator_roster():
    assert OPERATORS == ("bit_flip", "byte_set", "insert", "delete",
                        "block_duplicate", "splice", "dict_insert")


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------


def test_corpus_admission_by_coverage_novelty():
    corpus = Corpus()
    cov_a = frozenset({"e", "p"})
    assert corpus.add(b"one", cov_a, origin="seed") is not None
    assert corpus.add(b"two", cov_a, origin="seed") is None     # same coverage
    assert corpus.add(b"three", frozenset({"e"}), origin="seed") is not None
    assert len(corpus.seeds) == 2
    coverages = [s.coverage for s in corpus.seeds]
    assert coverages == [cov_a, frozenset({"e"})]
    assert cov_a in corpus.coverages
    assert frozenset({"p"}) not in corpus.coverages


@settings(max_examples=100, deadline=None)
@given(adds=st.lists(
    st.tuples(st.binary(max_size=4),
              st.frozensets(st.sampled_from(["a", "b", "a,b", "c", ""]), max_size=3)),
    max_size=12))
def test_corpus_blobs_and_coverage_bookkeeping(adds):
    corpus = Corpus()
    probes = set()
    for blob, coverage in adds:
        corpus.add(blob, coverage, origin="seed")
        probes.add(coverage)
    assert corpus.partners == [s.blob for s in corpus.seeds if s.blob]
    coverages = {s.coverage for s in corpus.seeds}
    assert len(coverages) == len(corpus.seeds)
    probes |= {frozenset({"a", "b"}), frozenset({"a,b"}), frozenset()}
    for coverage in probes:
        assert (coverage in corpus.coverages) == (coverage in coverages)


def test_energy_schedule():
    corpus = Corpus()
    seed = corpus.add(b"s", frozenset({"e"}), origin="seed")
    assert seed.energy == 4.0
    corpus.cool(seed)
    assert seed.energy == 2.0
    corpus.cool(seed)
    corpus.cool(seed)
    assert seed.energy == 1.0        # floor
    corpus.heat(seed)
    assert seed.energy == 4.0


# ---------------------------------------------------------------------------
# Literal scraping and seed derivation
# ---------------------------------------------------------------------------


def test_extract_literal_tokens_from_chunk_reader():
    source = next(r for r in fd.E2E_EXPORT_RECORDS if r["id"] == "img_read_chunk")["source"]
    assert extract_literal_tokens(source) == [
        b"\x0c", b"\x08", b"CMPR", b"\x04", b"\x00",
    ]


def test_extract_literal_tokens_encodings():
    src = (
        'if (tag == 0x1F8B || wide == 0xDEADBEEF) return;\n'
        'n = 255; m = 256; big = 5000000000;\n'
        'uint32_t k = buf[4];\n'
        'memcmp(p, "AB\\x00C", 4);\n'
    )
    tokens = extract_literal_tokens(src)
    assert b"\x1f\x8b" in tokens                     # hex run, big-endian
    assert b"\xde\xad\xbe\xef" in tokens
    assert b"\xff" in tokens                          # < 256: single byte
    assert (256).to_bytes(4, "little") in tokens      # u32 little-endian
    assert (5000000000).to_bytes(8, "little") in tokens
    assert b"AB\x00C" in tokens                       # escape decoding
    assert b" " not in tokens
    # "32" inside uint32_t is no literal; the lone 4 is.
    assert b"\x20" not in tokens
    assert b"\x04" in tokens


def test_token_dedup_keeps_first_occurrence():
    tokens = extract_literal_tokens("a = 7; b = 7; s = \"XY\"; t = \"XY\";")
    assert tokens == [b"\x07", b"XY"]


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=st.sampled_from("\"\"''\\\\0123456789xX..aF _\n;"), max_size=40))
def test_one_scan_scrapes_what_three_scans_do(source):
    """Quotes, escapes, digits, ``x`` and dots, where strings, hex and
    decimal literals overlap, scrape the same tokens as the three-scan
    oracle."""
    assert extract_literal_tokens(source) == helpers.naive_extract_literal_tokens(source)


def img_direction():
    return Direction(
        name="image-decoding",
        entry_functions=["img_fuzzer_entry"],
        core_functions=["img_parse_header", "img_validate_magic",
                        "img_read_chunk", "img_apply_palette"],
        risk_level="high", risk_reason="length fields feed copies")


def test_seed_from_direction_tokens_and_concat():
    graph = helpers.graph_from_records(fd.E2E_EXPORT_RECORDS)
    sub = reachable_subgraph(graph, "img_fuzzer")
    seeds, tokens = seed_from_direction(img_direction(), sub)
    assert tokens == [
        b"\x00", b"\x01", b"\x04", b"\x08", b"IMGX", b"\x0c", b"CMPR",
        (256).to_bytes(4, "little"), b"\x10",
    ]
    assert seeds == tokens + [b"".join(tokens)]
    concat = seeds[-1]
    assert len(concat) == 18
    assert not concat.startswith(b"IMGX")   # cannot reach parse stages directly
    assert b"CMPR" in concat and len(concat) < 24  # cannot crash at admission


def test_seed_from_direction_agent_blobs_replace_seeds():
    graph = helpers.graph_from_records(fd.E2E_EXPORT_RECORDS)
    sub = reachable_subgraph(graph, "img_fuzzer")
    seeds, tokens = seed_from_direction(img_direction(), sub, agent_blobs=[b"CUSTOM", b""])
    assert seeds == [b"CUSTOM"]
    assert b"IMGX" in tokens                 # dictionary still scraped


def test_literals_scraped_once_per_function(monkeypatch):
    import vulnhunt.fuzzing.seeds as seeds_mod
    scraped = []
    scrape = seeds_mod.extract_literal_tokens
    monkeypatch.setattr(seeds_mod, "extract_literal_tokens",
                        lambda source: scraped.append(source) or scrape(source))
    graph = helpers.graph_from_records(fd.E2E_EXPORT_RECORDS)
    sub = reachable_subgraph(graph, "img_fuzzer")
    first = seed_from_direction(img_direction(), sub)
    assert seed_from_direction(img_direction(), sub) == first
    assert len(scraped) == len(set(scraped)) == 5
    # Views share the loaded records, which carry the cache: a second view
    # of the same fuzzer scrapes nothing again.
    assert seed_from_direction(img_direction(), reachable_subgraph(graph, "img_fuzzer")) == first
    assert len(scraped) == 5


def test_fuzzers_sharing_a_function_scrape_it_once(monkeypatch):
    import vulnhunt.fuzzing.seeds as seeds_mod
    scraped = []
    scrape = seeds_mod.extract_literal_tokens
    monkeypatch.setattr(seeds_mod, "extract_literal_tokens",
                        lambda source: scraped.append(source) or scrape(source))

    def record(fid, source, callees=(), entry_for=()):
        return {"id": fid, "name": fid, "file": "s.c", "source": source,
                "callees": list(callees), "reached_by_fuzzers": [],
                "is_entry_for": list(entry_for)}

    graph = helpers.graph_from_records([
        record("a_entry", "void a_entry(void) { shared(); }", ["shared"], ["fz_a"]),
        record("b_entry", "void b_entry(void) { shared(); }", ["shared"], ["fz_b"]),
        record("shared", 'int shared(void) { return memcmp(p, "MAGI", 4); }'),
    ])
    direction = Direction(name="shared", entry_functions=[], core_functions=["shared"],
                          risk_level="high", risk_reason="magic compare")
    views = [reachable_subgraph(graph, fuzzer) for fuzzer in ("fz_a", "fz_b")]
    results = [seed_from_direction(direction, view) for view in views]
    assert results[0] == results[1] and b"MAGI" in results[0][1]
    assert len(scraped) == 1


def test_seed_from_fp_requires_fp_verdict():
    graph = helpers.graph_from_records(fd.E2E_EXPORT_RECORDS)
    sub = reachable_subgraph(graph, "meta_fuzzer")
    store = SPStore(known_functions=set(sub.functions))
    sp_id = store.create_sp(
        "meta_checksum_blk", ("meta_fuzzer", "address"),
        "meta_checksum_blk() trusts the blk length field", "heap-buffer-overflow", 0.45)
    sp = store.get(sp_id)
    with pytest.raises(LifecycleError):
        seed_from_fp(sp, sub)
    store.apply_verification(sp_id, "fp")
    seeds, tokens = seed_from_fp(sp, sub)
    assert tokens == [b"\x00", b"\x04", b"CKSM", b"\x08"]
    assert seeds[-1] == b"\x00\x04CKSM\x08"
    assert len(seeds[-1]) < 16               # the fp seed itself cannot crash


# ---------------------------------------------------------------------------
# Fuzz loops
# ---------------------------------------------------------------------------


def test_cold_start_and_budget_clamp():
    loop = FuzzLoop(runner=magic_runner(), corpus=Corpus(), mutator=Mutator(),
                    rng=random.Random(0), origin="global", iteration_budget=50)
    loop.run(10**9)
    assert loop.iterations_done == 50
    assert loop.runner.executions == 51     # the cold-start b"" run counts
    assert loop.budget_left == 0
    assert loop.corpus.seeds[0].origin == "empty"
    assert loop.corpus.seeds[0].blob == b""
    assert loop.run(10) == []               # budget exhausted: no-op
    assert loop.iterations_done == 50


def test_cold_start_crash_is_reported_at_iteration_zero():
    target = parse_target({
        "version": 1, "name": "boom_target", "fuzzer": "boom_fuzzer",
        "rules": [{"guard": fd.ALWAYS, "enter": ["b_entry"],
                   "crash": {"location": "b_entry", "vuln_type": "heap-buffer-overflow",
                             "sanitizer": "address"}}],
    })
    loop = global_loop(SimTargetRunner(target, "address"), 3, 0)
    crashes = loop.run(3)
    assert [c.iteration for c in crashes] == [0, 1, 2, 3]
    first = crashes[0]
    assert (first.blob, first.origin, first.result.crash.location) == (b"", "global", "b_entry")
    assert loop.stats.crashes == 4 and loop.runner.executions == 4
    # The empty blob stays the only parent: the loop needs something to mutate.
    assert [(s.blob, s.origin) for s in loop.corpus.seeds] == [(b"", "empty")]


def test_crashes_are_returned_never_corpused():
    loop = global_loop(magic_runner(), 3000, 42)
    crashes, corpus = loop.run(3000), loop.corpus
    assert crashes, "seed 42 must find the single-byte magic crash"
    first = crashes[0]
    assert first.blob[0] == 0x7F
    assert first.result.crash.location == "m_handler"
    assert first.origin == "global"
    assert 1 <= first.iteration <= loop.iterations_done
    for seed in corpus.seeds:
        assert seed.blob not in [c.blob for c in crashes]
    coverages = [s.coverage for s in corpus.seeds]
    assert len(set(coverages)) == len(coverages)


def test_fuzz_loop_determinism():
    runs = []
    for _ in range(2):
        loop = global_loop(magic_runner(), 3000, 42)
        crashes = loop.run(3000)
        runs.append((
            [(c.iteration, c.blob) for c in crashes],
            [s.coverage for s in loop.corpus.seeds],
            loop.runner.executions,
        ))
    assert runs[0] == runs[1]


def test_reproduce_quorum_semantics():
    runner = magic_runner()
    good = reproduce(b"\x7f\x00", runner, quorum=10)
    assert good.confirmed and good.runs == 10 and good.reproduced_count == 10
    assert set(good.crash_locations) == {"m_handler"}
    bad = reproduce(b"\x00", runner, quorum=10)
    assert not bad.confirmed and bad.reproduced_count == 0
    assert bad.runs == 1  # the first clean replay ends it

    class Flaky:
        def __init__(self):
            self.n = 0

        def run(self, blob):
            self.n += 1
            if self.n % 2:
                return magic_runner().run(b"\x7f")
            return magic_runner().run(b"\x00")

    flaky = reproduce(b"\x7f", Flaky(), quorum=4)
    assert not flaky.confirmed and flaky.runs == 2


def test_sp_fuzzer_verify_stop_on_first_crash():
    runner = magic_runner()
    outcome = sp_fuzzer_verify([b"\x00", b"\x7f", b"\x7f\x7f"], runner)
    assert outcome.crashed and outcome.crashed_index == 1
    assert outcome.results[0].outcome == "ok"
    assert outcome.results[1].outcome == "crash"
    assert outcome.results[2] is None
    assert outcome.skip_policy == "stop-on-first-crash"
    no_crash = sp_fuzzer_verify([b"\x00"], runner)
    assert not no_crash.crashed and len(no_crash.results) == 1
    with pytest.raises(ValueError):
        sp_fuzzer_verify([], runner)
    with pytest.raises(ValueError):
        sp_fuzzer_verify([b"a"] * 4, runner)


# ---------------------------------------------------------------------------
# Hot-path oracles: the in-place seed draw, the operator table with its
# getrandbits draws and the guard trie against random.choices, getattr
# dispatch with randrange draws and a naive rule walk
# ---------------------------------------------------------------------------

# Energies a seed can hold: HOT_ENERGY halved down to the floor of 1.
_ENERGIES = st.lists(st.sampled_from([4.0, 2.0, 1.0]), min_size=1, max_size=40)
_RNG_SEEDS = st.integers(0, 2**32 - 1)
_SANITIZERS = st.sampled_from([None, "address", "undefined"])


class _Echo:
    """Mutator and runner in one: records each parent and runs it unchanged,
    with that seed's own coverage, so the corpus never grows."""

    def __init__(self):
        self.parents = []

    def bind(self, rng, partners):
        def mutate(blob):
            self.parents.append(int(blob))
            return blob

        return mutate

    def run(self, blob):
        return ExecutionResult("ok", frozenset({blob.decode()}), ())


@settings(max_examples=200, deadline=None)
@given(energies=_ENERGIES, seed=_RNG_SEEDS, steps=st.integers(1, 30))
def test_seed_draw_matches_random_choices(energies, seed, steps):
    corpus = Corpus()
    for i, energy in enumerate(energies):
        corpus.add(b"%d" % i, frozenset({str(i)}), origin="seed").energy = energy
    echo = _Echo()
    loop = FuzzLoop(echo, corpus, echo, random.Random(seed), "global", steps)
    loop.run(steps)

    rng, weights, picks = random.Random(seed), list(energies), []
    for _ in range(steps):
        i = helpers.naive_pick_index(rng, weights)
        picks.append(i)
        weights[i] = max(1.0, weights[i] / 2.0)
    assert echo.parents == picks
    assert [s.energy for s in corpus.seeds] == weights
    assert loop.rng.getstate() == rng.getstate()


@settings(max_examples=200, deadline=None)
@given(blob=st.binary(max_size=48), corpus=st.lists(st.binary(max_size=16), max_size=5),
       dictionary=st.lists(st.binary(max_size=6), max_size=3), seed=_RNG_SEEDS,
       max_len=st.integers(1, 64))
def test_operator_table_matches_getattr_dispatch(blob, corpus, dictionary, seed, max_len):
    """The one bound mutation body against the naive mutator, which looks
    each operator up by name and filters the partners on every call."""
    seeded = Corpus()
    for i, partner in enumerate(corpus):
        seeded.add(partner, frozenset({str(i)}), origin="seed")
    fast = Mutator(max_len=max_len, dictionary=dictionary)
    naive = helpers.NaiveMutator(max_len=max_len, dictionary=dictionary)
    rng_fast, rng_naive = random.Random(seed), random.Random(seed)
    mutate = fast.bind(rng_fast, seeded.partners)
    a = b = blob
    for _ in range(20):
        a = mutate(a)
        b = naive.mutate(b, rng_naive, corpus)
        assert a == b
    assert rng_fast.getstate() == rng_naive.getstate()


# Powers of two (1, 8 and 256 among them), where ``n.bit_length()`` is one
# more than ``(n - 1).bit_length()``, and 7, where every 3-bit draw but one
# is accepted.
_EDGE_BOUNDS = [7] + [2**i for i in range(21)]


def _edge_sizes(limit, least=0):
    """Sizes from ``least`` to ``limit`` that put a draw's bound on an edge:
    each edge bound and the size one below it (a blob of ``n`` bytes draws
    below ``n`` and below ``n + 1``)."""
    return st.sampled_from(sorted({size for bound in _EDGE_BOUNDS if bound <= limit
                                   for size in (bound - 1, bound) if size >= least}))


@settings(max_examples=150, deadline=None)
@given(seed=_RNG_SEEDS,
       blob_len=st.one_of(_edge_sizes(2**20), st.integers(0, 2**12)),
       partner_count=st.one_of(st.just(0), _edge_sizes(2**9, least=1)),
       partner_len=_edge_sizes(2**12, least=1),
       token_count=st.one_of(st.just(0), _edge_sizes(2**9, least=1)))
def test_below_draws_what_randrange_draws(seed, blob_len, partner_count, partner_len,
                                          token_count):
    """Every inline draw of the bound mutation, with blob, partner and
    dictionary sizes at the power-of-two edges, draws what ``randrange``
    and ``choice`` draw, and leaves the rng in the same state."""
    make = random.Random(seed)
    blob = make.randbytes(blob_len)
    partners = [make.randbytes(partner_len) for _ in range(partner_count)]
    dictionary = [b"T%d" % i for i in range(token_count)]
    rng_fast, rng_naive = random.Random(seed), random.Random(seed)
    mutate = Mutator(dictionary=dictionary).bind(rng_fast, partners)
    naive = helpers.NaiveMutator(dictionary=dictionary)
    for _ in range(21):
        assert mutate(blob) == naive.mutate(blob, rng_naive, partners)
        assert rng_fast.getstate() == rng_naive.getstate()


class _FailingRunner:
    """Runs through a real runner and raises on its ``fail_at``-th call."""

    def __init__(self, runner, fail_at):
        self.runner, self.fail_at, self.calls = runner, fail_at, 0

    def run(self, blob):
        self.calls += 1
        if self.calls == self.fail_at:
            raise RuntimeError("runner fault")
        return self.runner.run(blob)


@settings(max_examples=50, deadline=None)
@given(seed=_RNG_SEEDS, first=st.integers(0, 40), fail_at=st.integers(1, 60))
def test_counts_after_a_runner_fault(seed, first, fail_at):
    """A fault mid-slice leaves every started iteration counted by the loop
    and every returned execution counted by the runner, and the next slice
    carries on from there."""
    failing = _FailingRunner(magic_runner(), 0)
    loop = global_loop(failing, 200, seed)
    loop.run(first)  # includes the cold start's execution
    iterations, executions = loop.iterations_done, failing.runner.executions
    failing.fail_at = failing.calls + fail_at
    with pytest.raises(RuntimeError, match="runner fault"):
        loop.run(100)
    assert loop.iterations_done == iterations + fail_at
    assert failing.runner.executions == executions + fail_at - 1
    loop.run(5)
    assert loop.iterations_done == iterations + fail_at + 5
    assert failing.runner.executions == executions + fail_at + 4


def _all_targets():
    return [parse_target(obj) for obj in fd.E2E_TARGET_OBJECTS + [fd.MAGIC_TARGET]]


def _guard_atoms(node):
    """Byte strings that can satisfy a guard's leaves."""
    if node["kind"] in ("prefix", "contains"):
        yield bytes.fromhex(node["hex"]) if "hex" in node else node["text"].encode()
    elif node["kind"] == "u32-le-field-cmp":
        yield node["value"].to_bytes(4, "little")
    elif node["kind"] == "offset-equals":
        yield bytes([node["value"]])
    for child in node.get("terms", []) + ([node["term"]] if "term" in node else []):
        yield from _guard_atoms(child)


_ATOMS = sorted({atom for target in _all_targets() for rule in target.rules
                 for atom in _guard_atoms(rule.guard)})
_RULE_BLOBS = st.lists(st.one_of(st.sampled_from(_ATOMS), st.binary(max_size=8)),
                       max_size=8).map(b"".join)


@settings(max_examples=300, deadline=None)
@given(blob=_RULE_BLOBS, sanitizer=_SANITIZERS)
def test_rule_steps_match_naive_execute(blob, sanitizer):
    for target in _all_targets():
        want = helpers.naive_execute(target, blob, sanitizer=sanitizer)
        runner = SimTargetRunner(target, sanitizer)
        for got in (runner.run(blob), runner.run(blob)):
            assert got == want


_ATOM_BYTES = sorted({byte for atom in _ATOMS for byte in atom})
_CMP_OPS = st.sampled_from(["lt", "le", "eq", "ne", "ge", "gt"])
_LEAF_GUARDS = st.one_of(
    st.builds(lambda atom: {"kind": "contains", "hex": atom.hex()}, st.sampled_from(_ATOMS)),
    st.builds(lambda atom: {"kind": "prefix", "hex": atom.hex()}, st.sampled_from(_ATOMS)),
    st.builds(lambda off, byte: {"kind": "offset-equals", "offset": off, "value": byte},
              st.integers(0, 6), st.sampled_from(_ATOM_BYTES)),
    st.builds(lambda op, n: {"kind": "length-cmp", "op": op, "value": n},
              _CMP_OPS, st.integers(0, 24)),
    st.builds(lambda off, op, atom: {"kind": "u32-le-field-cmp", "offset": off, "op": op,
                                     "value": int.from_bytes(atom[:4], "little")},
              st.integers(0, 8), _CMP_OPS, st.sampled_from(_ATOMS)),
)
_GUARDS = st.recursive(
    _LEAF_GUARDS,
    lambda inner: st.one_of(
        st.builds(lambda terms: {"kind": "and", "terms": terms}, st.lists(inner, min_size=1,
                                                                          max_size=3)),
        st.builds(lambda terms: {"kind": "or", "terms": terms}, st.lists(inner, min_size=1,
                                                                         max_size=3)),
        st.builds(lambda term: {"kind": "not", "term": term}, inner),
    ),
    max_leaves=4,
)


@st.composite
def _rules(draw):
    enter = draw(st.lists(st.sampled_from([f"f{i}" for i in range(12)]), max_size=3))
    rule = {"guard": draw(_GUARDS), "enter": enter}
    if enter and draw(st.integers(0, 3)) == 0:
        rule["crash"] = {"location": draw(st.sampled_from(enter)),
                         "vuln_type": draw(st.sampled_from(["heap-buffer-overflow",
                                                            "use-after-free",
                                                            "null-pointer-dereference"])),
                         "sanitizer": draw(st.sampled_from(["address", "undefined", "memory"]))}
    return rule


@settings(max_examples=60, deadline=None)
@given(rules=st.integers(1, 80).flatmap(lambda n: st.lists(_rules(), min_size=n, max_size=n)),
       blobs=st.lists(_RULE_BLOBS, min_size=1, max_size=6))
def test_interned_paths_match_naive_execute(rules, blobs):
    target = parse_target({"version": 1, "name": "gen_target", "fuzzer": "gen_fuzzer",
                           "rules": rules})
    for sanitizer in ("address", "undefined", None):
        runner, results = SimTargetRunner(target, sanitizer), {}
        for blob in blobs:
            want = helpers.naive_execute(target, blob, sanitizer=sanitizer)
            first, again = runner.run(blob), runner.run(blob)
            assert first == want
            # One result object per path, however many executions take it.
            shared = results.setdefault(helpers.naive_path(target, blob, sanitizer), first)
            assert first is shared and again is shared


# Conjuncts on a short alphabet, so drawn guards collide on their leading
# conjuncts: same kind with other literals, the unconditional idiom beside
# other length comparisons against 0, and opaque ``or``/``not`` terms.
_SHARED_CONJUNCTS = [
    {"kind": "prefix", "text": "A"},
    {"kind": "prefix", "text": "AB"},
    {"kind": "prefix", "hex": "43"},
    {"kind": "contains", "text": "B"},
    {"kind": "contains", "text": "CD"},
    {"kind": "offset-equals", "offset": 1, "value": ord("B")},
    {"kind": "offset-equals", "offset": 1, "value": ord("D")},
    {"kind": "u32-le-field-cmp", "offset": 0, "op": "eq",
     "value": int.from_bytes(b"ABCD", "little")},
    {"kind": "length-cmp", "op": "ge", "value": 0},
    {"kind": "length-cmp", "op": "ge", "value": 0},
    {"kind": "length-cmp", "op": "ge", "value": 2},
    {"kind": "length-cmp", "op": "gt", "value": 0},
    {"kind": "length-cmp", "op": "le", "value": 0},
    {"kind": "length-cmp", "op": "lt", "value": 3},
    {"kind": "or", "terms": [{"kind": "prefix", "text": "C"}, {"kind": "contains", "text": "AB"}]},
    {"kind": "not", "term": {"kind": "contains", "text": "B"}},
]
_SHARED_BLOBS = st.lists(st.sampled_from([b"A", b"B", b"AB", b"C", b"CD", b"D", b"ABCD", b"x"]),
                         max_size=4).map(b"".join)


def _nested_and(conjuncts):
    """A guard of ``conjuncts`` in written order, grouped by ``and``s of a
    drawn shape; a lone conjunct may stand bare."""
    if len(conjuncts) == 1:
        return st.sampled_from([conjuncts[0], {"kind": "and", "terms": conjuncts}])
    return st.integers(1, len(conjuncts) - 1).flatmap(lambda cut: st.builds(
        lambda head, tail: {"kind": "and", "terms": [head, tail]},
        _nested_and(conjuncts[:cut]), _nested_and(conjuncts[cut:])))


@st.composite
def _shared_prefix_rules(draw):
    guards = draw(st.lists(st.lists(st.sampled_from(_SHARED_CONJUNCTS), min_size=1, max_size=4)
                           .flatmap(_nested_and), min_size=1, max_size=4))
    rules = []
    for _ in range(draw(st.integers(1, 12))):
        enter = draw(st.lists(st.sampled_from([f"f{i}" for i in range(6)]), min_size=1,
                              max_size=2))
        rule = {"guard": draw(st.sampled_from(guards)), "enter": enter}
        if draw(st.integers(0, 2)) == 0:
            rule["crash"] = {"location": enter[0], "vuln_type": "heap-buffer-overflow",
                             "sanitizer": draw(st.sampled_from(["address", "undefined"]))}
        rules.append(rule)
    return rules


@settings(max_examples=300, deadline=None)
@given(rules=_shared_prefix_rules(), blobs=st.lists(_SHARED_BLOBS, min_size=1, max_size=8))
def test_guard_trie_matches_naive_execute_on_shared_prefixes(rules, blobs):
    """Guards drawn from a few conjuncts share trie prefixes and whole
    guards; the trie matches the rules an in-order walk matches."""
    target = parse_target({"version": 1, "name": "gen_target", "fuzzer": "gen_fuzzer",
                           "rules": rules})
    for sanitizer in (None, "address", "undefined"):
        runner = SimTargetRunner(target, sanitizer)
        for blob in [b""] + blobs:
            want = helpers.naive_execute(target, blob, sanitizer=sanitizer)
            for got in (runner.run(blob), runner.run(blob)):
                assert got == want


# A run of a blob from the pool, or a new ``max_blob`` for the runner.
_MEMO_STEPS = st.one_of(st.tuples(st.just("run"), st.integers(0, 7)),
                        st.tuples(st.just("limit"), st.integers(0, 16)))


@settings(max_examples=300, deadline=None)
@given(rules=_shared_prefix_rules(), sanitizer=st.sampled_from([None, "address", "undefined"]),
       pool=st.lists(_SHARED_BLOBS, min_size=1, max_size=8),
       steps=st.lists(_MEMO_STEPS, min_size=1, max_size=40),
       budget=st.integers(0, 120), entry_bytes=st.integers(0, 24))
def test_execution_memo_matches_naive_execute(rules, sanitizer, pool, steps, budget,
                                              entry_bytes):
    """A blob stream with many repeats under a small table budget: every
    run equals the naive walk, a blob is walked again only when the table
    lost it, an oversize blob raises and leaves the table as it was, and
    the charged bytes never pass the budget.  A hit returns the very
    result the table holds.  Every run but an oversize one is an
    execution, a table hit included, and dropping the table keeps the
    count."""
    target = parse_target({"version": 1, "name": "gen_target", "fuzzer": "gen_fuzzer",
                           "rules": rules})
    runner = SimTargetRunner(target, sanitizer)
    walks = []
    match = runner._match

    def counting(blob):
        walks.append(blob)
        return match(blob)

    runner._match = counting
    model, charged = {}, 0  # the table as the budget rule keeps it
    executions = 0
    with mock.patch.object(target_module, "MEMO_BUDGET", budget), \
            mock.patch.object(target_module, "MEMO_ENTRY_BYTES", entry_bytes):
        for kind, value in steps:
            if kind == "limit":
                runner.max_blob = value
                continue
            blob = pool[value % len(pool)]
            walks.clear()
            table = dict(runner._memo)
            if len(blob) > runner.max_blob:
                with pytest.raises(OversizeBlobError):
                    runner.run(blob)
                assert runner._memo == table and not walks
                assert runner.executions == executions
                continue
            got = runner.run(blob)
            executions += 1
            assert runner.executions == executions
            want = helpers.naive_execute(target, blob, sanitizer=sanitizer)
            assert got == want
            assert walks == ([] if blob in model else [blob])
            if blob in model:
                assert got is table[blob]
            charge = len(blob) + entry_bytes
            if blob not in model and charge <= budget:
                if charged + charge > budget:
                    model, charged = {}, 0
                model[blob], charged = True, charged + charge
            assert runner._memo.keys() == model.keys()
            assert runner._memo_bytes == charged <= budget
    runner.drop_memo()
    assert not runner._memo and runner._memo_bytes == 0
    assert runner.executions == executions


# Byte tests on a few offsets and values, so that rules collide as siblings
# at one offset (the walk's fan-out), reuse a value at other offsets, and
# read past the end of the short drawn blobs.
_FAN_BYTES = [0x00, 0x41, 0x42, 0xFF]
_FAN_TESTS = st.builds(lambda off, byte: {"kind": "offset-equals", "offset": off, "value": byte},
                       st.integers(0, 5), st.sampled_from(_FAN_BYTES))
_FAN_TAILS = st.one_of(_FAN_TESTS, st.sampled_from([
    {"kind": "contains", "hex": "42"},
    {"kind": "length-cmp", "op": "ge", "value": 3},
    {"kind": "not", "term": {"kind": "prefix", "hex": "41"}},
]))


@st.composite
def _fan_out_rules(draw):
    """Rules whose guards start with a byte test: a guard alone (a leaf
    sibling), or followed by more conjuncts (a sibling with children);
    rules draw from a few guards, so guards repeat."""
    guards = draw(st.lists(st.builds(lambda head, tail: [head] + tail, _FAN_TESTS,
                                     st.lists(_FAN_TAILS, max_size=2)),
                           min_size=1, max_size=10))
    rules = []
    for _ in range(draw(st.integers(1, 16))):
        conjuncts = draw(st.sampled_from(guards))
        guard = (conjuncts[0] if len(conjuncts) == 1
                 else {"kind": "and", "terms": conjuncts})
        enter = draw(st.lists(st.sampled_from([f"f{i}" for i in range(6)]), min_size=1,
                              max_size=2))
        rule = {"guard": guard, "enter": enter}
        if draw(st.integers(0, 2)) == 0:
            rule["crash"] = {"location": enter[0], "vuln_type": "heap-buffer-overflow",
                             "sanitizer": draw(st.sampled_from(["address", "undefined",
                                                                "memory"]))}
        rules.append(rule)
    return rules


@settings(max_examples=300, deadline=None)
@given(rules=_fan_out_rules(),
       blobs=st.lists(st.lists(st.sampled_from(_FAN_BYTES), max_size=5).map(bytes),
                      min_size=1, max_size=8))
def test_offset_fan_out_matches_naive_execute(rules, blobs):
    """Sibling byte tests at one offset share one table lookup in the
    compiled walk; every rule they stand for matches as the in-order walk
    matches it, under each sanitizer and past the blob's end."""
    target = parse_target({"version": 1, "name": "gen_target", "fuzzer": "gen_fuzzer",
                           "rules": rules})
    for sanitizer in (None, "address", "undefined", "memory"):
        runner = SimTargetRunner(target, sanitizer)
        for blob in [b""] + blobs:
            want = helpers.naive_execute(target, blob, sanitizer=sanitizer)
            got = runner.run(blob)
            assert got == want


def _nested_or_not(depth):
    """A guard ``depth`` levels deep, alternating ``or`` and ``not``, with a
    byte test beside each ``or``."""
    guard = {"kind": "prefix", "text": "Z"}
    for level in range(depth):
        if level % 2:
            guard = {"kind": "or", "terms": [
                {"kind": "offset-equals", "offset": level % 5, "value": ord("A") + level % 4},
                guard]}
        else:
            guard = {"kind": "not", "term": guard}
    return guard


_CONJUNCTS_300 = [
    [{"kind": "offset-equals", "offset": i % 8, "value": b"ABCDEFGH"[i % 8]},
     {"kind": "length-cmp", "op": "ge", "value": i % 9},
     {"kind": "contains", "text": "CDE"[: 1 + i % 3]}][i % 3]
    for i in range(300)
]
_INJECTION = '"); import os; ("\\\n\'"""\n'

_LIMIT_TARGETS = {
    "300 alternating or/not levels": [
        {"guard": _nested_or_not(300), "enter": ["deep"]},
        {"guard": _nested_or_not(301), "enter": ["deeper"],
         "crash": {"location": "deeper", "vuln_type": "use-after-free", "sanitizer": "address"}},
    ],
    "a rule of 300 conjuncts": [
        {"guard": {"kind": "and", "terms": _CONJUNCTS_300[:n]}, "enter": [f"r{n}"]}
        for n in (300, 150, 299, 1)
    ],
    "5,000 rules": [
        {"guard": ({"kind": "offset-equals", "offset": i % 40, "value": i * 13 % 256}
                   if i % 5 else {"kind": "prefix", "hex": bytes([i % 256, i * 7 % 256]).hex()}),
         "enter": [f"f{i}"],
         **({"crash": {"location": f"f{i}", "vuln_type": "use-after-free",
                       "sanitizer": "address"}} if i % 97 == 96 else {})}
        for i in range(5000)
    ],
    "a text literal that is also code": [
        {"guard": {"kind": "contains", "text": _INJECTION}, "enter": ["inj"]},
        {"guard": {"kind": "prefix", "text": _INJECTION[:9]}, "enter": ["pre"]},
    ],
}


@pytest.mark.parametrize("name", sorted(_LIMIT_TARGETS))
def test_compiled_walk_limits_and_source_safety(name):
    """Targets that a walk nesting one construct per guard level or per
    conjunct cannot compile still build a runner that matches the in-order
    walk, and the generated code holds no literal from the target: its
    constants are ints and None only."""
    target = parse_target({"version": 1, "name": "limit_target", "fuzzer": "limit_fuzzer",
                           "rules": _LIMIT_TARGETS[name]})
    rng = random.Random(name)
    probes = [b"", b"Z", b"ABCDEFGH", b"ABCDEFGX" * 5, _INJECTION.encode() + b"tail",
              b"x" + _INJECTION.encode()]
    probes += [bytes(rng.randrange(256) for _ in range(rng.randrange(48))) for _ in range(20)]
    for sanitizer in (None, "address"):
        runner = SimTargetRunner(target, sanitizer)
        for blob in probes:
            want = helpers.naive_execute(target, blob, sanitizer=sanitizer)
            assert runner.run(blob) == want
        consts = runner._match.__code__.co_consts
        assert all(const is None or type(const) is int for const in consts)
    for rule in target.rules[:4]:
        one_rule = SimTarget(target.name, target.fuzzer, [rule])
        runner = SimTargetRunner(one_rule)
        consts = runner._match.__code__.co_consts
        assert all(const is None or type(const) is int for const in consts)
        for blob in probes:
            assert runner.run(blob) == helpers.naive_execute(one_rule, blob)


def _write(write, corpus, mutator, execute):
    """An outside write between slices, as a worker makes them between pumps.

    ``("energy", index, energy)`` heats a seed when ``energy`` is None, else
    assigns its energy; ``("token", token)`` gives the mutator a dictionary
    token; ``("seed", blob)`` admits a blob run through ``execute`` unless it
    crashes, as ``Worker._admit_seed`` does."""
    kind, *args = write
    if kind == "energy":
        index, energy = args
        seed = corpus.seeds[index % len(corpus.seeds)]
        if energy is None:
            corpus.heat(seed)
        else:
            seed.energy = energy
    elif kind == "token":
        mutator.add_token(*args)
    else:
        result = execute(*args)
        if result.outcome != "crash":
            corpus.add(*args, result.coverage, origin="outside")


def _naive_fuzz(runner_target, sanitizer, dictionary, seed, slices):
    """The fuzz loop spelled out with the three oracles, run for each
    ``(iterations, write)`` slice in turn; ``write`` is None or an ``_write``
    made after the slice.  The splice partners are the non-empty seed blobs,
    filtered afresh by the naive mutator on every call."""
    rng, mutator = random.Random(seed), helpers.NaiveMutator(dictionary=dictionary)

    def execute(blob):
        return helpers.naive_execute(runner_target, blob, sanitizer=sanitizer)

    corpus, crashes, iteration = Corpus(), [], 0
    corpus.add(b"", execute(b"").coverage, origin="empty")
    for iterations, write in slices:
        for _ in range(iterations):
            iteration += 1
            i = helpers.naive_pick_index(rng, [s.energy for s in corpus.seeds])
            parent = corpus.seeds[i]
            parent.energy = max(1.0, parent.energy / 2.0)
            blob = mutator.mutate(parent.blob, rng, [s.blob for s in corpus.seeds])
            result = execute(blob)
            if result.outcome == "crash":
                crashes.append((iteration, blob, result))
            elif corpus.add(blob, result.coverage, origin="global") is not None:
                parent.energy = 4.0
        if write is not None:
            _write(write, corpus, mutator, execute)
    return crashes, corpus, mutator, rng


_DICTIONARY = [b"IMGX", b"CMPR", fd.PALETTE_MAGIC.to_bytes(4, "little")]


@settings(max_examples=8, deadline=None)
@given(seed=_RNG_SEEDS, sanitizer=_SANITIZERS,
       target_obj=st.sampled_from([fd.IMG_TARGET, fd.MAGIC_TARGET]))
def test_fuzz_loop_matches_naive_loop(seed, sanitizer, target_obj):
    target = parse_target(target_obj)
    loop = global_loop(SimTargetRunner(target, sanitizer), 1500, seed, Mutator(dictionary=_DICTIONARY))
    crashes = loop.run(1500)
    want_crashes, want_corpus, _, want_rng = _naive_fuzz(target, sanitizer, _DICTIONARY, seed,
                                                         [(1500, None)])
    assert [(c.iteration, c.blob, c.result) for c in crashes] == want_crashes
    assert [(s.blob, s.energy) for s in loop.corpus.seeds] == [
        (s.blob, s.energy) for s in want_corpus.seeds]
    assert loop.rng.getstate() == want_rng.getstate()


# Outside seeds and tokens: the targets' magic values, prefixes of the
# palette-crash blob, an empty one (never a partner) and arbitrary bytes.
_OUTSIDE_BLOBS = st.sampled_from(
    [b"", b"IMGX", b"CMPR", b"MAGI", b"\x00", palette_blob(40)[:12], palette_blob(40),
     fd.PALETTE_MAGIC.to_bytes(4, "little")]) | st.binary(max_size=24)
_WRITES = st.one_of(
    st.none(),
    st.tuples(st.just("energy"), st.integers(0, 2**16),
              st.none() | st.sampled_from([0.5, 1.0, 2.0, 3.0, 4.0, 7.25])),
    st.tuples(st.just("token"), _OUTSIDE_BLOBS),
    st.tuples(st.just("seed"), _OUTSIDE_BLOBS),
)


@settings(max_examples=100, deadline=None)
@given(seed=_RNG_SEEDS, sanitizer=_SANITIZERS,
       target_obj=st.sampled_from([fd.IMG_TARGET, fd.MAGIC_TARGET]),
       dictionary=st.sampled_from([[], _DICTIONARY]),
       slices=st.lists(st.tuples(st.integers(1, 50), _WRITES), min_size=1, max_size=12))
def test_weight_cache_across_slices_matches_naive_loop(seed, sanitizer, target_obj, dictionary,
                                                       slices):
    """Slices pumped as a worker pumps them draw what the naive loop draws,
    with writes between them: energies by ``heat`` or by assignment,
    dictionary tokens, and outside seeds joining the splice partners."""
    target = parse_target(target_obj)
    budget = sum(n for n, _ in slices)
    runner = SimTargetRunner(target, sanitizer)
    loop = global_loop(runner, budget, seed, Mutator(dictionary=dictionary))
    crashes = []
    for iterations, write in slices:
        crashes += loop.run(iterations)
        if write is not None:
            _write(write, loop.corpus, loop.mutator, runner.run)
    want_crashes, want_corpus, want_mutator, want_rng = _naive_fuzz(
        target, sanitizer, dictionary, seed, slices)
    assert [(c.iteration, c.blob, c.result) for c in crashes] == want_crashes
    assert [(s.blob, s.energy) for s in loop.corpus.seeds] == [
        (s.blob, s.energy) for s in want_corpus.seeds]
    assert loop.mutator.dictionary == want_mutator.dictionary
    assert loop.rng.getstate() == want_rng.getstate()
