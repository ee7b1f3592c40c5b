"""Persistence backends for run artifacts.

Collections are fixed: tasks, sps, povs, reports, metrics.  Records are
plain JSON-serializable dicts keyed by string id.  The file backend writes a
temp file and renames it into place so a crash never leaves a half-written
record; the in-memory backend serves tests and dry runs.  Both are
thread-safe.
"""

from __future__ import annotations

import copy
import json
import threading
from pathlib import Path

from .errors import StoreError

COLLECTIONS = ("tasks", "sps", "povs", "reports", "metrics")


class StoreBackend:
    """Interface for artifact stores."""

    def put(self, collection: str, record_id: str, record: dict) -> None:
        raise NotImplementedError

    def get(self, collection: str, record_id: str) -> dict | None:
        raise NotImplementedError

    def list(self, collection: str) -> list[dict]:
        raise NotImplementedError

    @staticmethod
    def _check_collection(collection: str) -> None:
        if collection not in COLLECTIONS:
            raise StoreError(f"unknown collection '{collection}'")


class MemoryStore(StoreBackend):
    def __init__(self) -> None:
        self._data: dict[str, dict[str, dict]] = {c: {} for c in COLLECTIONS}
        self._lock = threading.RLock()

    def put(self, collection: str, record_id: str, record: dict) -> None:
        self._check_collection(collection)
        with self._lock:
            self._data[collection][record_id] = copy.deepcopy(record)

    def get(self, collection: str, record_id: str) -> dict | None:
        self._check_collection(collection)
        with self._lock:
            record = self._data[collection].get(record_id)
            return copy.deepcopy(record) if record is not None else None

    def list(self, collection: str) -> list[dict]:
        self._check_collection(collection)
        with self._lock:
            return [copy.deepcopy(self._data[collection][k]) for k in sorted(self._data[collection])]


class FileStore(StoreBackend):
    """One JSON file per record under ``<root>/<collection>/<id>.json``.

    ``create=False`` opens an existing store for reading: a missing ``root``
    raises :class:`StoreError` and nothing is created.
    """

    def __init__(self, root: str | Path, create: bool = True):
        self.root = Path(root)
        if create:
            for collection in COLLECTIONS:
                (self.root / collection).mkdir(parents=True, exist_ok=True)
        elif not self.root.is_dir():
            raise StoreError(f"no store at '{root}'")
        self._lock = threading.RLock()

    def _path(self, collection: str, record_id: str) -> Path:
        safe = record_id.replace("/", "_")
        return self.root / collection / f"{safe}.json"

    def put(self, collection: str, record_id: str, record: dict) -> None:
        self._check_collection(collection)
        with self._lock:
            path = self._path(collection, record_id)
            tmp = path.with_suffix(".json.tmp")
            tmp.write_text(
                json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
            )
            tmp.replace(path)

    def get(self, collection: str, record_id: str) -> dict | None:
        self._check_collection(collection)
        with self._lock:
            path = self._path(collection, record_id)
            if not path.exists():
                return None
            return json.loads(path.read_text(encoding="utf-8"))

    def list(self, collection: str) -> list[dict]:
        self._check_collection(collection)
        with self._lock:
            records = []
            for path in sorted((self.root / collection).glob("*.json")):
                records.append(json.loads(path.read_text(encoding="utf-8")))
            return records
