"""Call-graph ingestion and code-query tools.

The static-analysis export is line-delimited: one JSON object per line with
keys ``{id, name, file, source, callees, reached_by_fuzzers, is_entry_for}``.
A record ends only at ``\n``, ``\r\n`` or ``\r``, so a string may hold any
other Unicode line break raw.  This module loads that export into a
:class:`CallGraph`, computes per-fuzzer reachability and call depths, and
exposes the read-only query surface the analysis agents use (function
source, callers/callees, reachability lists, code search, file content).

:func:`load_call_graph` reads the export in one streaming pass: it iterates
the open file (never holding its whole text), decodes each line with one
call of the C JSON scanner, validates it and builds its record around the
decoded lists, and collects each fuzzer's entries and the fuzzers known only
from annotations as it goes.  After the pass it adds stubs for external
callees and writes each fuzzer's depths from one BFS.

Reachability for a fuzzer is the union of the export's own annotations and
the BFS closure over call edges from that fuzzer's entry points, so exports
that annotate extra reachability (e.g. function-pointer targets) keep it and
annotation-free exports still get a computed closure.  Call depth is defined
as 1 + the minimum edge distance from any entry of the fuzzer (entries are
depth 1); functions reachable only by annotation have no measurable path and
therefore carry no depth.  One BFS, :func:`bfs_parents`, yields the closure,
the depths and the static entry-to-function routes (:func:`bfs_path`).
"""

from __future__ import annotations

import json
import logging
import re
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .errors import ExportParseError, UnknownFuzzerError

logger = logging.getLogger(__name__)

EXPORT_KEYS = ("id", "name", "file", "source", "callees", "reached_by_fuzzers", "is_entry_for")
_REQUIRED_KEYS = frozenset(EXPORT_KEYS[:4])
_KEY_SET = frozenset(EXPORT_KEYS)
_LIST_KEYS = EXPORT_KEYS[4:]
# The C scanner that json.loads reaches through three Python-level calls and
# two whitespace matches per line; the loader calls it directly.
_scan_once = json.JSONDecoder().scan_once

QUERY_KINDS = (
    "get_function_source",
    "get_callers",
    "get_callees",
    "get_reachable_functions",
    "get_unreached_functions",
    "search_code",
    "get_file_content",
)


@dataclass
class FunctionRecord:
    """One function node as loaded from the export.

    ``call_depth`` maps fuzzer name to 1-based BFS depth and only holds keys
    for fuzzers with an edge path from one of their entries to this function.
    ``is_external`` marks stub nodes created for callees absent from the
    export (library functions); stubs have empty source and no callees.
    """

    id: str
    name: str
    file_path: str
    source_text: str
    callees: list[str] = field(default_factory=list)
    reached_by_fuzzers: set[str] = field(default_factory=set)
    is_entry_for: list[str] = field(default_factory=list)
    call_depth: dict[str, int] = field(default_factory=dict)
    is_external: bool = False
    # The source's literal tokens, scraped by the fuzzing seeders the first
    # time they need them and kept for the record's life.  Reachable
    # subgraphs share the loaded records, so this runs once per scan; two
    # workers racing on one record compute equal lists.
    literal_tokens: list[bytes] | None = field(default=None, init=False, repr=False, compare=False)


@dataclass
class CallGraph:
    """A loaded call graph plus per-fuzzer entry lists, caller and name indexes."""

    functions: dict[str, FunctionRecord]
    fuzzer_entries: dict[str, list[str]]
    warnings: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        callers: dict[str, list[str]] = {fid: [] for fid in self.functions}
        by_name: dict[str, list[str]] = {}
        for rec in self.functions.values():
            by_name.setdefault(rec.name, []).append(rec.id)
            for callee in rec.callees:
                if callee in callers:
                    callers[callee].append(rec.id)
        for lst in callers.values():
            lst.sort()
        self._callers = callers
        self._by_name = by_name

    def callers_of(self, function_id: str) -> list[str]:
        return list(self._callers.get(function_id, []))

    def callees_of(self, function_id: str) -> list[str]:
        """The function's callees that are members of this graph, in call order."""
        return [c for c in self.functions[function_id].callees if c in self.functions]

    def resolve(self, name_or_id: str) -> FunctionRecord | None:
        """Look up a function by id, falling back to a unique name match."""
        rec = self.functions.get(name_or_id)
        if rec is not None:
            return rec
        matches = self._by_name.get(name_or_id, [])
        if len(matches) == 1:
            return self.functions[matches[0]]
        return None


def _parse_line(raw: str, line_no: int, newline: str) -> FunctionRecord:
    """Decode and check one export line, which may end in ``newline``.

    A line the scanner does not take whole (surrounding whitespace, or a
    fault) goes through ``json.loads``, whose error text is reported.
    """
    try:
        obj, end = _scan_once(raw, 0)
        if end != len(raw) and raw[end:] != newline:
            raise ValueError
    except (StopIteration, ValueError):
        try:
            obj = json.loads(raw.removesuffix(newline))
        except json.JSONDecodeError as exc:
            raise ExportParseError(f"invalid JSON ({exc.msg})", line_no) from exc
    if not isinstance(obj, dict):
        raise ExportParseError("record is not an object", line_no)
    if not _REQUIRED_KEYS <= obj.keys() <= _KEY_SET:
        missing = [k for k in EXPORT_KEYS[:4] if k not in obj]
        if missing:
            raise ExportParseError(f"missing keys: {', '.join(missing)}", line_no)
        unknown = [k for k in obj if k not in _KEY_SET]
        raise ExportParseError(f"unknown keys: {', '.join(sorted(unknown))}", line_no)
    fid = obj["id"]
    if not isinstance(fid, str) or not fid:
        raise ExportParseError("'id' must be a non-empty string", line_no)
    get = obj.get
    for key in _LIST_KEYS:
        value = get(key, [])
        if not isinstance(value, list):
            raise ExportParseError(f"'{key}' must be a list of strings", line_no)
        for item in value:
            if not isinstance(item, str):
                raise ExportParseError(f"'{key}' must be a list of strings", line_no)
    return FunctionRecord(fid, obj["name"], obj["file"], obj["source"], get("callees", []),
                          set(get("reached_by_fuzzers", ())), get("is_entry_for", []))


def bfs_parents(functions: dict[str, FunctionRecord], entries: Iterable[str]) -> dict[str, str | None]:
    """Breadth-first walk over call edges from ``entries``.

    Maps every function reached to the function it was first reached from
    (``None`` for entries), in discovery order, so a parent always precedes
    its children.  Entries absent from ``functions`` are skipped.
    """
    parents: dict[str, str | None] = {e: None for e in entries if e in functions}
    frontier = deque(parents)
    while frontier:
        cur = frontier.popleft()
        for callee in functions[cur].callees:
            if callee not in parents and callee in functions:
                parents[callee] = cur
                frontier.append(callee)
    return parents


def bfs_path(parents: dict[str, str | None], target: str) -> list[str]:
    """The entry-to-``target`` route read out of :func:`bfs_parents`; [] if unreached."""
    if target not in parents:
        return []
    path = [target]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]])
    return path[::-1]


def load_call_graph(source: str | Path | Iterable[str]) -> CallGraph:
    """Load a line-delimited export into a :class:`CallGraph`.

    Args:
        source: path to a UTF-8 export file, read line by line with
            universal newlines, or an iterable of export lines.

    Returns:
        The loaded graph with reachability and call depths computed.

    Raises:
        ExportParseError: on an unreadable file, malformed lines,
            missing/unknown keys, or a duplicate function id; the message
            carries the path or the line number.
    """
    if not isinstance(source, (str, Path)):
        return _load_lines(source, "")
    path = Path(source)
    try:
        with path.open(encoding="utf-8") as lines:
            return _load_lines(lines, "\n")
    except (OSError, UnicodeDecodeError, ExportParseError) as exc:
        # A file that cannot be read whole is reported as unreadable even
        # when a line before the fault is bad, with the error of a
        # whole-file read (a streamed decode names an offset in its chunk).
        try:
            path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as read_error:
            raise ExportParseError(f"cannot read export {source}: {read_error}") from read_error
        if isinstance(exc, ExportParseError):
            raise
        raise ExportParseError(f"cannot read export {source}: {exc}") from exc


def _load_lines(lines: Iterable[str], newline: str) -> CallGraph:
    """The single pass of :func:`load_call_graph` over ``lines``, whose
    items may end in ``newline``, then stubs and depths."""
    functions: dict[str, FunctionRecord] = {}
    fuzzer_entries: dict[str, list[str]] = {}
    annotated: dict[str, None] = {}
    for idx, raw in enumerate(lines, start=1):
        if not raw or raw.isspace():
            continue
        rec = _parse_line(raw, idx, newline)
        fid = rec.id
        if fid in functions:
            raise ExportParseError(f"duplicate function id '{fid}'", idx)
        functions[fid] = rec
        for fuzzer in rec.is_entry_for:
            fuzzer_entries.setdefault(fuzzer, []).append(fid)
        for fuzzer in rec.reached_by_fuzzers:
            annotated[fuzzer] = None
    for lst in fuzzer_entries.values():
        lst.sort()
    # Fuzzers mentioned only in reachability annotations are still known,
    # just entry-less (their subgraph is empty until entries appear).
    for fuzzer in annotated:
        fuzzer_entries.setdefault(fuzzer, [])

    # Callees absent from the export become external stubs: the node is
    # created and the edge kept so get_callees stays faithful.
    warnings: list[str] = []
    for rec in list(functions.values()):
        for callee in rec.callees:
            if callee not in functions:
                warnings.append(f"external callee '{callee}' (called by '{rec.id}')")
                functions[callee] = FunctionRecord(
                    id=callee,
                    name=callee,
                    file_path="",
                    source_text="",
                    is_external=True,
                )

    graph = CallGraph(functions=functions, fuzzer_entries=fuzzer_entries, warnings=warnings)
    for fuzzer in fuzzer_entries:
        for fid, depth in compute_depths(graph, fuzzer).items():
            rec = functions[fid]
            rec.reached_by_fuzzers.add(fuzzer)
            rec.call_depth[fuzzer] = depth
    for warning in warnings:
        logger.debug("call graph: %s", warning)
    return graph


def compute_depths(graph: CallGraph, fuzzer: str) -> dict[str, int]:
    """BFS call depths for one fuzzer: entries are depth 1.

    A function's depth is 1 + the minimum number of call edges from any
    entry point of the fuzzer.  Functions without an edge path from an
    entry are absent from the result.

    Raises:
        UnknownFuzzerError: if the graph has no entry list for ``fuzzer``.
    """
    if fuzzer not in graph.fuzzer_entries:
        raise UnknownFuzzerError(f"unknown fuzzer '{fuzzer}'")
    depths: dict[str, int] = {}
    for fid, parent in bfs_parents(graph.functions, graph.fuzzer_entries[fuzzer]).items():
        depths[fid] = 1 if parent is None else depths[parent] + 1
    return depths


def reachable_subgraph(graph: CallGraph, fuzzer: str) -> CallGraph:
    """The subgraph of functions reachable by ``fuzzer``.

    Contains exactly the functions with ``fuzzer`` in ``reached_by_fuzzers``,
    sorted by id.  The members are the loaded records themselves, shared with
    ``graph`` and never copied, so a record's ``callees`` may name
    non-members: read edges through :meth:`CallGraph.callers_of` and
    :meth:`CallGraph.callees_of`, which keep to members.  A fuzzer with no
    entry points yields an empty subgraph and a warning.  Applying this twice
    is a no-op.

    Raises:
        UnknownFuzzerError: if the graph has no entry list for ``fuzzer``.
    """
    if fuzzer not in graph.fuzzer_entries:
        raise UnknownFuzzerError(f"unknown fuzzer '{fuzzer}'")
    warnings: list[str] = []
    entries = graph.fuzzer_entries[fuzzer]
    if not entries:
        warnings.append(f"fuzzer '{fuzzer}' has no entry points; subgraph is empty")
        logger.warning("%s", warnings[-1])
        members: dict[str, FunctionRecord] = {}
    else:
        members = {fid: graph.functions[fid] for fid in sorted(graph.functions)
                   if fuzzer in graph.functions[fid].reached_by_fuzzers}
    sub_entries = {fuzzer: [e for e in entries if e in members]}
    return CallGraph(functions=members, fuzzer_entries=sub_entries, warnings=warnings)


# ===== Query surface =====

def _not_found(kind: str, what: str) -> str:
    return f"not found: {kind} '{what}'"


def _q_function_source(graph: CallGraph, args: dict) -> str:
    rec = graph.resolve(str(args.get("function", "")))
    if rec is None:
        return _not_found("function", str(args.get("function", "")))
    if rec.is_external:
        return f"{rec.name} is external (no source in the analyzed project)"
    header = f"// {rec.name} ({rec.file_path})"
    return header + "\n" + rec.source_text


def _q_callers(graph: CallGraph, args: dict) -> str:
    rec = graph.resolve(str(args.get("function", "")))
    if rec is None:
        return _not_found("function", str(args.get("function", "")))
    callers = graph.callers_of(rec.id)
    if not callers:
        return "(no callers)"
    return "\n".join(callers)


def _q_callees(graph: CallGraph, args: dict) -> str:
    rec = graph.resolve(str(args.get("function", "")))
    if rec is None:
        return _not_found("function", str(args.get("function", "")))
    callees = graph.callees_of(rec.id)
    if not callees:
        return "(no callees)"
    lines = []
    for callee in sorted(callees):
        target = graph.functions.get(callee)
        suffix = " [external]" if target is not None and target.is_external else ""
        lines.append(callee + suffix)
    return "\n".join(lines)


def _q_reachable(graph: CallGraph, args: dict) -> str:
    fuzzer = str(args.get("fuzzer", ""))
    if fuzzer not in graph.fuzzer_entries:
        return _not_found("fuzzer", fuzzer)
    ids = sorted(fid for fid, rec in graph.functions.items() if fuzzer in rec.reached_by_fuzzers)
    if not ids:
        return "(none reachable)"
    return "\n".join(ids)


def _q_unreached(graph: CallGraph, args: dict) -> str:
    fuzzer = str(args.get("fuzzer", ""))
    if fuzzer not in graph.fuzzer_entries:
        return _not_found("fuzzer", fuzzer)
    ids = sorted(fid for fid, rec in graph.functions.items() if fuzzer not in rec.reached_by_fuzzers)
    if not ids:
        return "(full coverage: no unreached functions)"
    return "\n".join(ids)


def _q_search_code(graph: CallGraph, args: dict) -> str:
    pattern = str(args.get("pattern", ""))
    if not pattern:
        return "(empty pattern)"
    use_regex = bool(args.get("regex", False))
    if use_regex:
        try:
            compiled = re.compile(pattern)
        except re.error as exc:
            return f"invalid regex: {exc}"
        match = compiled.search
    else:
        match = lambda line: pattern in line  # noqa: E731
    hits: list[str] = []
    for fid in sorted(graph.functions):
        rec = graph.functions[fid]
        for line in rec.source_text.splitlines():
            if match(line):
                hits.append(f"{rec.file_path}:{rec.name}: {line.strip()}")
    if not hits:
        return "(no matches)"
    return "\n".join(hits)


def _q_file_content(graph: CallGraph, args: dict) -> str:
    path = str(args.get("file", ""))
    recs = [graph.functions[fid] for fid in sorted(graph.functions)
            if graph.functions[fid].file_path == path and not graph.functions[fid].is_external]
    if not recs:
        return _not_found("file", path)
    blocks = [f"// {rec.name}\n{rec.source_text}" for rec in recs]
    return "\n\n".join(blocks)


_QUERY_DISPATCH = {
    "get_function_source": _q_function_source,
    "get_callers": _q_callers,
    "get_callees": _q_callees,
    "get_reachable_functions": _q_reachable,
    "get_unreached_functions": _q_unreached,
    "search_code": _q_search_code,
    "get_file_content": _q_file_content,
}


def query(graph: CallGraph, kind: str, args: dict | None = None) -> str:
    """Run one read-only code query and return deterministic text.

    Args:
        graph: the graph to query; never mutated.
        kind: one of ``QUERY_KINDS``.
        args: query arguments (``function``, ``fuzzer``, ``pattern``,
            ``regex``, ``file`` depending on kind).

    Returns:
        Byte-stable text.  Unknown functions/fuzzers/files produce a
        structured ``not found`` result rather than an exception.

    Raises:
        ValueError: if ``kind`` is not a known query kind.
    """
    if kind not in _QUERY_DISPATCH:
        raise ValueError(f"unknown query kind '{kind}'")
    return _QUERY_DISPATCH[kind](graph, args or {})
