"""Record stores: round-trips, isolation, file layout."""
from __future__ import annotations

import pytest

from vulnhunt.errors import StoreError
from vulnhunt.store import COLLECTIONS, FileStore, MemoryStore


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


def test_file_store_layout_and_tmp_cleanup(tmp_path):
    store = FileStore(tmp_path / "s")
    store.put("povs", "pov-1", {"id": "pov-1"})
    path = tmp_path / "s" / "povs" / "pov-1.json"
    assert path.exists()
    assert not list((tmp_path / "s" / "povs").glob("*.tmp"))
    # ids with path separators are sanitized into flat file names
    store.put("povs", "a/b", {"id": "a/b"})
    assert (tmp_path / "s" / "povs" / "a_b.json").exists()
    reopened = FileStore(tmp_path / "s")
    assert reopened.get("povs", "pov-1") == {"id": "pov-1"}
