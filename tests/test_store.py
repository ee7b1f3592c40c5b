"""Record stores: round-trips, isolation, journal layout, the in-memory oracle."""
from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vulnhunt import store as store_module
from vulnhunt.errors import StoreError
from vulnhunt.pipeline import run_scan
from vulnhunt.store import COLLECTIONS, FileStore, MemoryStore, StoreBackend, encode_put


@pytest.fixture(params=["memory", "file"])
def backend(request, tmp_path):
    if request.param == "memory":
        return MemoryStore()
    return FileStore(tmp_path / "store")


def test_collections_roster():
    assert COLLECTIONS == ("tasks", "sps", "povs", "reports", "metrics")


def test_round_trip_and_missing(backend):
    record = {"id": "r1", "nested": {"k": [1, 2, 3]}, "text": "naïve ✓"}
    backend.put("reports", "r1", record)
    assert backend.get("reports", "r1") == record
    assert backend.get("reports", "nope") is None
    assert backend.get("povs", "r1") is None      # collections are isolated


def test_list_sorted_by_id(backend):
    for rid in ("b", "a", "c"):
        backend.put("sps", rid, {"id": rid})
    assert [r["id"] for r in backend.list("sps")] == ["a", "b", "c"]
    assert backend.list("metrics") == []


def test_unknown_collection_rejected(backend):
    with pytest.raises(StoreError):
        backend.put("misc", "x", {})
    with pytest.raises(StoreError):
        backend.get("misc", "x")
    with pytest.raises(StoreError):
        backend.list("misc")


def test_mutating_returned_record_does_not_leak(backend):
    backend.put("tasks", "t", {"state": "running", "tags": ["a"]})
    got = backend.get("tasks", "t")
    got["state"] = "hacked"
    got["tags"].append("b")
    assert backend.get("tasks", "t") == {"state": "running", "tags": ["a"]}


def test_ids_differing_only_in_separators_stay_distinct(backend):
    backend.put("povs", "a/b", {"id": "a/b"})
    backend.put("povs", "a_b", {"id": "a_b"})
    assert backend.get("povs", "a/b") == {"id": "a/b"}
    assert backend.get("povs", "a_b") == {"id": "a_b"}
    assert backend.list("povs") == [{"id": "a/b"}, {"id": "a_b"}]


def test_file_store_journal_layout(tmp_path):
    root = tmp_path / "s"
    store = FileStore(root)
    for collection in COLLECTIONS:
        store.put(collection, "x", {"v": 1})
    assert sorted(p.name for p in root.iterdir()) == sorted(f"{c}.jsonl" for c in COLLECTIONS)
    store.put("povs", "x", {"v": 2})
    assert store.get("povs", "x") == {"v": 2}
    assert store.list("povs") == [{"v": 2}]

    journal = root / "povs.jsonl"
    with open(journal, "ab") as fh:
        fh.write(b'{"id": "torn", "rec')             # a put that died mid-write
    assert store.get("povs", "torn") is None
    assert FileStore(root).list("povs") == [{"v": 2}]
    reopened = FileStore(root)
    reopened.put("povs", "y", {"v": 3})
    assert FileStore(root, create=False).list("povs") == [{"v": 2}, {"v": 3}]
    assert journal.read_bytes().endswith(b"\n")


def test_a_record_json_cannot_encode_is_refused_alike(tmp_path):
    """A set is not JSON: both stores raise the same error and keep nothing."""
    errors = []
    for store in (MemoryStore(), FileStore(tmp_path / "store")):
        with pytest.raises(TypeError) as raised:
            store.put("sps", "sp-1", {"sources": {("f", "address")}})
        errors.append(str(raised.value))
        assert store.list("sps") == []
    assert errors[0] == errors[1]


class _BothStores(StoreBackend):
    """Every put goes to a MemoryStore and a FileStore; reads come from memory."""

    def __init__(self, root: Path):
        self.memory, self.file = MemoryStore(), FileStore(root)

    def put(self, collection, record_id, record):
        self.memory.put(collection, record_id, record)
        self.file.put(collection, record_id, record)

    def get(self, collection, record_id):
        return self.memory.get(collection, record_id)

    def list(self, collection):
        return self.memory.list(collection)


def test_both_stores_read_back_a_scan_alike(e2e_workspace):
    both = _BothStores(e2e_workspace.root / "store")
    result = run_scan(e2e_workspace.config(), store=both)
    assert len(result.reports) == 5
    for collection in COLLECTIONS:
        records = both.file.list(collection)
        assert records and both.memory.list(collection) == records
        for record in records:
            record_id = record.get("id", "run")
            assert both.memory.get(collection, record_id) == both.file.get(collection, record_id)


@pytest.mark.parametrize("create", [True, False])
def test_old_per_record_layout_is_refused(tmp_path, create):
    (tmp_path / "tasks").mkdir()
    (tmp_path / "tasks" / "t.json").write_text("{}")
    with pytest.raises(StoreError, match="old per-record store"):
        FileStore(tmp_path, create=create)


_IDS = st.text(alphabet=st.sampled_from("ab/_.é✓"), max_size=4)
_RECORDS = st.dictionaries(
    st.text(max_size=3),
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        max_leaves=6,
    ),
    max_size=3,
)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.sampled_from(COLLECTIONS), _IDS, _RECORDS),
        st.tuples(st.just("get"), st.sampled_from(COLLECTIONS), _IDS),
        st.tuples(st.just("list"), st.sampled_from(COLLECTIONS)),
        st.tuples(st.just("reopen")),
    ),
    max_size=40,
)


def _check_against_memory_oracle(ops, torn_at, torn_in):
    oracle = MemoryStore()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "store"
        store = FileStore(root)
        for i, op in enumerate(ops):
            if i == torn_at:
                with open(root / f"{torn_in}.jsonl", "ab") as fh:
                    fh.write(b'{"id": "crash", "record": {"a')
                store = FileStore(root)                       # the writer died
            kind, args = op[0], op[1:]
            if kind == "reopen":
                store = FileStore(root)
            elif kind == "put":
                store.put(*args)
                oracle.put(*args)
            for collection in COLLECTIONS:
                assert store.list(collection) == oracle.list(collection)
            if kind == "get":
                assert store.get(*args) == oracle.get(*args)
        for collection in COLLECTIONS:
            journal = root / f"{collection}.jsonl"
            if journal.exists():
                # Every complete line is whole JSON; only the injected torn
                # line may be left unterminated, when no put followed it.
                for line in journal.read_bytes().split(b"\n")[:-1]:
                    json.loads(line)


@settings(max_examples=150, deadline=None)
@given(ops=_OPS, torn_at=st.integers(min_value=0, max_value=40), torn_in=st.sampled_from(COLLECTIONS))
def test_file_store_matches_memory_oracle(ops, torn_at, torn_in):
    """Any sequence of puts, gets, lists and reopens, with one crash that
    leaves a torn line, reads the same from the journal as from memory."""
    _check_against_memory_oracle(ops, torn_at, torn_in)


def _short_write(limit, counter):
    write = os.write

    def short(fd, data):
        counter.append(fd)
        return write(fd, bytes(data[:limit]))

    return short


@settings(max_examples=60, deadline=None)
@given(ops=_OPS, torn_at=st.integers(min_value=0, max_value=40), torn_in=st.sampled_from(COLLECTIONS))
def test_short_writes_still_land_whole_lines(ops, torn_at, torn_in):
    """With ``os.write`` taking at most 7 bytes a call, a put keeps writing
    until its whole line is in the journal, and reads match the oracle."""
    writes: list[int] = []
    with mock.patch.object(store_module.os, "write", _short_write(7, writes)):
        _check_against_memory_oracle(ops, torn_at, torn_in)
    puts = [op for op in ops if op[0] == "put"]
    assert len(writes) >= sum(len(encode_put(*op[2:])) // 7 for op in puts)


def test_a_long_record_written_seven_bytes_at_a_time(tmp_path):
    store = FileStore(tmp_path)
    puts = [("r1", {"text": "x" * 500, "nested": {"k": list(range(20))}}), ("r2", {"v": 1})]
    writes: list[int] = []
    with mock.patch.object(store_module.os, "write", _short_write(7, writes)):
        for record_id, record in puts:
            store.put("reports", record_id, record)
    lines = [encode_put(record_id, record) for record_id, record in puts]
    assert (tmp_path / "reports.jsonl").read_text() == "".join(lines)
    assert len(writes) == sum(-(-len(line) // 7) for line in lines)
    assert store.list("reports") == [record for _, record in puts]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_puts_hold_no_descriptor(tmp_path):
    store = FileStore(tmp_path)
    before = len(os.listdir("/proc/self/fd"))
    for i in range(1000):
        store.put(COLLECTIONS[i % len(COLLECTIONS)], f"id-{i}", {"i": i})
    assert len(os.listdir("/proc/self/fd")) == before
    assert len(store.list("metrics")) == 200


def test_a_journal_deleted_between_puts_is_recreated(tmp_path):
    store = FileStore(tmp_path)
    store.put("povs", "a", {"v": 1})
    (tmp_path / "povs.jsonl").unlink()
    store.put("povs", "b", {"v": 2})
    assert (tmp_path / "povs.jsonl").read_text() == encode_put("b", {"v": 2})
    assert store.list("povs") == [{"v": 2}]

