"""Persistence backends for run artifacts.

Collections are fixed: tasks, sps, povs, reports, metrics.  Records are
plain JSON-serializable dicts keyed by string id.  Both backends encode a put
as the one JSON line of :func:`encode_put`.  The file backend appends it to
one journal per collection; the last line for an id wins, and a torn final
line is never read, so a crash never leaves a half-written record readable.
The in-memory backend, for tests and dry runs, keeps each id's last line.
Both are thread-safe.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

from .errors import StoreError

COLLECTIONS = ("tasks", "sps", "povs", "reports", "metrics")

# ``json.dumps`` with keyword arguments builds a new encoder per call.
_encode = json.JSONEncoder(sort_keys=True).encode

_APPEND = os.O_WRONLY | os.O_APPEND | os.O_CREAT


def encode_put(record_id: str, record: dict) -> str:
    """One put as the JSON line a journal appends; a reader takes its ``record``."""
    return _encode({"id": record_id, "record": record}) + "\n"


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
    """Per collection, each id's last put as its encoded line."""

    def __init__(self) -> None:
        self._lines: dict[str, dict[str, str]] = {c: {} for c in COLLECTIONS}
        self._lock = threading.RLock()

    def put(self, collection: str, record_id: str, record: dict) -> None:
        self._check_collection(collection)
        line = encode_put(record_id, record)
        with self._lock:
            self._lines[collection][record_id] = line

    def get(self, collection: str, record_id: str) -> dict | None:
        self._check_collection(collection)
        with self._lock:
            line = self._lines[collection].get(record_id)
        return json.loads(line)["record"] if line is not None else None

    def list(self, collection: str) -> list[dict]:
        self._check_collection(collection)
        with self._lock:
            lines = self._lines[collection]
            return [json.loads(lines[k])["record"] for k in sorted(lines)]


class FileStore(StoreBackend):
    """One JSON-lines journal per collection, ``<root>/<collection>.jsonl``.

    A put appends ``{"id": ..., "record": ...}`` as one line, and the last
    line for an id wins.  The line is written through a descriptor opened
    ``O_APPEND`` for that put alone and closed before ``put`` returns, so
    each line is in the file when its put returns and no descriptor is held
    between puts (there is nothing to close).  A reader ignores a final line
    with no newline, the tail of a put that died mid-write; a store's first
    put to a collection cuts such a tail off, so a later line is never glued
    onto it.

    ``create=False`` opens an existing store for reading: a missing ``root``
    raises :class:`StoreError` and nothing is created.  A root in the old
    per-record layout (``<collection>/<id>.json``) raises :class:`StoreError`
    and is not read.
    """

    def __init__(self, root: str | Path, create: bool = True):
        self.root = Path(root)
        if create:
            self.root.mkdir(parents=True, exist_ok=True)
        elif not self.root.is_dir():
            raise StoreError(f"no store at '{root}'")
        old = [c for c in COLLECTIONS if (self.root / c).is_dir()]
        if old:
            raise StoreError(
                f"'{root}' holds an old per-record store (<collection>/<id>.json, "
                f"such as '{old[0]}/'); it is not read"
            )
        self._lock = threading.RLock()
        self._journals = {c: str(self.root / f"{c}.jsonl") for c in COLLECTIONS}
        self._tails_checked: set[str] = set()

    def put(self, collection: str, record_id: str, record: dict) -> None:
        self._check_collection(collection)
        data = encode_put(record_id, record).encode("ascii")
        path = self._journals[collection]
        with self._lock:
            if collection not in self._tails_checked:
                with open(path, "a+b") as fh:
                    fh.seek(0)
                    old = fh.read()
                    if not old.endswith(b"\n"):
                        fh.truncate(old.rfind(b"\n") + 1)
                self._tails_checked.add(collection)
            fd = os.open(path, _APPEND, 0o666)
            try:
                written = os.write(fd, data)
                while written < len(data):
                    written += os.write(fd, data[written:])
            finally:
                os.close(fd)

    def _latest(self, collection: str) -> dict[str, dict]:
        self._check_collection(collection)
        with self._lock:
            try:
                with open(self._journals[collection], "rb") as fh:
                    data = fh.read()
            except FileNotFoundError:
                return {}
        latest = {}
        for line in data.split(b"\n")[:-1]:
            entry = json.loads(line)
            latest[entry["id"]] = entry["record"]
        return latest

    def get(self, collection: str, record_id: str) -> dict | None:
        return self._latest(collection).get(record_id)

    def list(self, collection: str) -> list[dict]:
        latest = self._latest(collection)
        return [latest[k] for k in sorted(latest)]
