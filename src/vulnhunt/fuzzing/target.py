"""Simulated crash targets: declarative rules over input blobs.

A target definition is an ordered rule list.  Each rule has a guard (a
predicate over the blob), a list of functions "entered" when the guard
matches, and optionally a crash specification.  Executing a blob walks the
rules in order, appending entered functions to the trace; the first matching
rule that carries a crash ends the run with that crash (so at most one crash
fires per execution).  Everything is pure and deterministic, which is what
makes crash reproduction an exact check instead of a statistical one.

Predicate grammar (JSON), with byte literals given as ``hex`` or ``text``::

    {"kind": "offset-equals", "offset": N, "value": BYTE}
    {"kind": "prefix", "hex": "..."} | {"kind": "prefix", "text": "..."}
    {"kind": "contains", "hex"/"text": ...}
    {"kind": "length-cmp", "op": "lt|le|eq|ne|ge|gt", "value": N}
    {"kind": "u32-le-field-cmp", "offset": N, "op": ..., "value": N}
    {"kind": "and"/"or", "terms": [...]}
    {"kind": "not", "term": {...}}

Out-of-range reads are simply false (an offset past the end never matches).
The idiom for an unconditional rule is ``{"kind": "length-cmp", "op": "ge",
"value": 0}``; a runner never tests it.

Guards are compiled once per runner, when ``SimTargetRunner`` is built, into
a trie of conjunct tests: closures with their literals decoded and operators
resolved, one per distinct conjunct prefix, so a conjunct that several
rules' guards start with is tested once per execution.  A runner interns
the paths it has taken: an execution computes which rules matched as a bit
mask and takes its coverage, trace and crash from a per-runner table keyed
by that mask, so it allocates only its ``ExecutionResult``, a named tuple.
A runner also remembers, within a byte budget, the path each blob it has
run took, so a blob run again skips the trie.  An execution's ``output``
text is rendered when read, from the trace and crash it records; most
executions are never read that way.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

from ..errors import OversizeBlobError, TargetSchemaError
from ..spstore import SANITIZERS, is_valid_vuln_type

TARGET_SCHEMA_VERSION = 1
DEFAULT_MAX_BLOB = 1 << 20  # 1 MiB
# A runner's blob -> path table holds at most this many bytes, each entry
# charged its blob's length plus MEMO_ENTRY_BYTES: the bytes object's header
# and its dict slot, about 63 bytes measured, with room for the dict's slack.
MEMO_BUDGET = 1 << 20  # 1 MiB
MEMO_ENTRY_BYTES = 96
_ALWAYS = {"kind": "length-cmp", "op": "ge", "value": 0}  # the unconditional idiom

_OPS = {
    "lt": operator.lt,
    "le": operator.le,
    "eq": operator.eq,
    "ne": operator.ne,
    "ge": operator.ge,
    "gt": operator.gt,
}

_PREDICATE_KINDS = (
    "offset-equals",
    "prefix",
    "contains",
    "length-cmp",
    "u32-le-field-cmp",
    "and",
    "or",
    "not",
)


# ===== Predicates =====


def _literal_bytes(node: dict, where: str) -> bytes:
    has_hex = "hex" in node
    has_text = "text" in node
    if has_hex == has_text:
        raise TargetSchemaError(f"{where}: exactly one of 'hex'/'text' required")
    if has_hex:
        try:
            return bytes.fromhex(str(node["hex"]))
        except ValueError as exc:
            raise TargetSchemaError(f"{where}: bad hex literal") from exc
    return str(node["text"]).encode("utf-8")


def validate_predicate(node: dict, where: str = "guard") -> None:
    """Schema-check one predicate tree; raises TargetSchemaError with a path."""
    if not isinstance(node, dict):
        raise TargetSchemaError(f"{where}: predicate must be an object")
    kind = node.get("kind")
    if kind not in _PREDICATE_KINDS:
        raise TargetSchemaError(f"{where}: unknown predicate kind {kind!r}")
    if kind == "offset-equals":
        if not isinstance(node.get("offset"), int) or node["offset"] < 0:
            raise TargetSchemaError(f"{where}: 'offset' must be a non-negative integer")
        value = node.get("value")
        if not isinstance(value, int) or not (0 <= value <= 255):
            raise TargetSchemaError(f"{where}: 'value' must be a byte (0-255)")
    elif kind in ("prefix", "contains"):
        _literal_bytes(node, where)
    elif kind == "length-cmp":
        if node.get("op") not in _OPS:
            raise TargetSchemaError(f"{where}: 'op' must be one of {sorted(_OPS)}")
        if not isinstance(node.get("value"), int) or node["value"] < 0:
            raise TargetSchemaError(f"{where}: 'value' must be a non-negative integer")
    elif kind == "u32-le-field-cmp":
        if not isinstance(node.get("offset"), int) or node["offset"] < 0:
            raise TargetSchemaError(f"{where}: 'offset' must be a non-negative integer")
        if node.get("op") not in _OPS:
            raise TargetSchemaError(f"{where}: 'op' must be one of {sorted(_OPS)}")
        if not isinstance(node.get("value"), int) or not (0 <= node["value"] <= 0xFFFFFFFF):
            raise TargetSchemaError(f"{where}: 'value' must fit an unsigned 32-bit integer")
    elif kind in ("and", "or"):
        terms = node.get("terms")
        if not isinstance(terms, list) or not terms:
            raise TargetSchemaError(f"{where}: '{kind}' needs a non-empty 'terms' list")
        for i, term in enumerate(terms):
            validate_predicate(term, f"{where}.terms[{i}]")
    elif kind == "not":
        if "term" not in node:
            raise TargetSchemaError(f"{where}: 'not' needs a 'term'")
        validate_predicate(node["term"], f"{where}.term")


def compile_predicate(node: dict) -> Callable[[bytes], bool]:
    """Compile a validated predicate tree into one test; total (never raises).

    Literals are decoded and operators resolved here, once per tree, so the
    returned closure only reads the blob.
    """
    kind = node["kind"]
    if kind == "offset-equals":
        off, byte = node["offset"], node["value"]
        return lambda blob: off < len(blob) and blob[off] == byte
    if kind == "prefix":
        literal = _literal_bytes(node, "guard")
        return lambda blob: blob.startswith(literal)
    if kind == "contains":
        literal = _literal_bytes(node, "guard")
        return lambda blob: literal in blob
    if kind == "length-cmp":
        op, value = _OPS[node["op"]], node["value"]
        return lambda blob: op(len(blob), value)
    if kind == "u32-le-field-cmp":
        off, op, value = node["offset"], _OPS[node["op"]], node["value"]
        end = off + 4
        return lambda blob: end <= len(blob) and op(
            int.from_bytes(blob[off:end], "little"), value
        )
    if kind == "and":
        terms = [compile_predicate(t) for t in node["terms"]]

        def conjunction(blob: bytes) -> bool:
            for term in terms:
                if not term(blob):
                    return False
            return True

        return conjunction
    if kind == "or":
        terms = [compile_predicate(t) for t in node["terms"]]

        def disjunction(blob: bytes) -> bool:
            for term in terms:
                if term(blob):
                    return True
            return False

        return disjunction
    if kind == "not":
        term = compile_predicate(node["term"])
        return lambda blob: not term(blob)
    raise AssertionError(f"unreachable predicate kind {kind!r}")


# ===== Target model =====


@dataclass(frozen=True)
class CrashSpec:
    location: str
    vuln_type: str
    sanitizer: str


@dataclass
class TargetRule:
    guard: dict
    enter: list[str]
    crash: CrashSpec | None = None


@dataclass
class SimTarget:
    """One simulated fuzz target bound to a fuzzer name."""

    name: str
    fuzzer: str
    rules: list[TargetRule]


class ExecutionResult(NamedTuple):
    """Outcome of one execution: ok | crash | timeout, plus observations.

    ``coverage`` is the set of executed functions; ``trace`` the ordered
    sequence.  A crash's location is always an element of the coverage set.
    ``size`` is the blob length.  A named tuple rather than a frozen
    dataclass: just as immutable, hashable and compared field by field, but
    built without a ``__setattr__`` per field, once per execution.
    """

    outcome: str
    coverage: frozenset[str]
    trace: tuple[str, ...]
    target_name: str
    size: int
    crash: CrashSpec | None = None

    @property
    def output(self) -> str:
        """The run's log: a ``run`` line, one ``enter`` line per traced
        function, then the sanitizer error or ``exit ok``."""
        lines = [f"run {self.target_name} ({self.size} bytes)"]
        lines.extend(f"enter {fn}" for fn in self.trace)
        crash = self.crash
        if crash is None:
            lines.append("exit ok")
        else:
            lines.append(
                f"== ERROR: {crash.sanitizer} sanitizer: {crash.vuln_type} in {crash.location} =="
            )
        return "\n".join(lines)


def parse_target(obj: dict, where: str = "target") -> SimTarget:
    """Validate and build a SimTarget from a parsed definition object."""
    if not isinstance(obj, dict):
        raise TargetSchemaError(f"{where}: definition must be an object")
    version = obj.get("version")
    if version != TARGET_SCHEMA_VERSION:
        raise TargetSchemaError(f"{where}: unsupported version {version!r}")
    name = obj.get("name")
    fuzzer = obj.get("fuzzer")
    if not isinstance(name, str) or not name:
        raise TargetSchemaError(f"{where}: 'name' must be a non-empty string")
    if not isinstance(fuzzer, str) or not fuzzer:
        raise TargetSchemaError(f"{where}: 'fuzzer' must be a non-empty string")
    raw_rules = obj.get("rules")
    if not isinstance(raw_rules, list) or not raw_rules:
        raise TargetSchemaError(f"{where}: 'rules' must be a non-empty list")
    rules: list[TargetRule] = []
    for i, raw in enumerate(raw_rules):
        rwhere = f"{where}.rules[{i}]"
        if not isinstance(raw, dict):
            raise TargetSchemaError(f"{rwhere}: rule must be an object")
        unknown = set(raw) - {"guard", "enter", "crash"}
        if unknown:
            raise TargetSchemaError(f"{rwhere}: unknown keys {sorted(unknown)}")
        guard = raw.get("guard")
        validate_predicate(guard, f"{rwhere}.guard")
        enter = raw.get("enter", [])
        if not isinstance(enter, list) or not all(isinstance(e, str) and e for e in enter):
            raise TargetSchemaError(f"{rwhere}: 'enter' must be a list of function ids")
        crash = None
        if raw.get("crash") is not None:
            cwhere = f"{rwhere}.crash"
            craw = raw["crash"]
            if not isinstance(craw, dict):
                raise TargetSchemaError(f"{cwhere}: crash must be an object")
            location = craw.get("location")
            vuln_type = craw.get("vuln_type")
            sanitizer = craw.get("sanitizer")
            if not isinstance(location, str) or not location:
                raise TargetSchemaError(f"{cwhere}: 'location' must be a function id")
            if not isinstance(vuln_type, str) or not is_valid_vuln_type(vuln_type):
                raise TargetSchemaError(f"{cwhere}: invalid vuln_type {vuln_type!r}")
            if sanitizer not in SANITIZERS:
                raise TargetSchemaError(f"{cwhere}: 'sanitizer' must be one of {SANITIZERS}")
            if location not in enter:
                raise TargetSchemaError(
                    f"{cwhere}: crash location '{location}' must appear in the rule's 'enter' "
                    "list (a crash happens inside an executed function)"
                )
            crash = CrashSpec(location=location, vuln_type=vuln_type, sanitizer=sanitizer)
        rules.append(TargetRule(guard=guard, enter=list(enter), crash=crash))
    return SimTarget(name=name, fuzzer=fuzzer, rules=rules)


def load_target(path: str | Path) -> SimTarget:
    """Load one target definition file (JSON)."""
    path = Path(path)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise TargetSchemaError(f"{path}: invalid JSON: {exc.msg}") from exc
    return parse_target(obj, where=str(path.name))


def load_targets_dir(path: str | Path) -> dict[str, SimTarget]:
    """Load every ``*.json`` target in a directory, keyed by fuzzer name."""
    targets: dict[str, SimTarget] = {}
    for item in sorted(Path(path).glob("*.json")):
        target = load_target(item)
        if target.fuzzer in targets:
            raise TargetSchemaError(f"{item}: duplicate target for fuzzer '{target.fuzzer}'")
        targets[target.fuzzer] = target
    return targets


class TargetRunner:
    """Execution hook: anything with ``run(blob) -> ExecutionResult``.

    The in-tree implementation wraps a SimTarget bound to the worker's
    sanitizer; an external harness can substitute its own runner with the
    same contract: deterministic given the blob, so running a blob again
    returns an equal result.  That contract is what lets ``SimTargetRunner``
    answer a repeated blob from its table, and what makes a crash's
    reproduction an exact check.  A runner also counts the executions it
    made in ``executions``, which is what its worker reports.
    """

    def run(self, blob: bytes) -> ExecutionResult:
        raise NotImplementedError


def _conjuncts(guard: dict):
    """A guard's top-level conjuncts in written order, nested ``and``s
    flattened; ``or``, ``not`` and leaves are opaque."""
    if guard["kind"] == "and":
        for term in guard["terms"]:
            yield from _conjuncts(term)
    else:
        yield guard


def _freeze(level: dict) -> tuple:
    """Trie nodes as nested ``(test, bits, children)`` tuples."""
    return tuple((test, bits, _freeze(children)) for test, bits, children in level.values())


def _walk(level: tuple, blob: bytes, mask: int) -> int:
    """OR into ``mask`` the bits of every node under ``level`` whose test,
    and whose ancestors' tests, hold for ``blob``."""
    for test, bits, children in level:
        if test(blob):
            mask |= bits
            if children:
                mask = _walk(children, blob, mask)
    return mask


class SimTargetRunner(TargetRunner):
    """A SimTarget bound to one sanitizer: the one rule interpreter.

    The rules' guards are compiled once, here, into a conjunct trie: each
    guard is split into its top-level conjuncts, and rules whose conjunct
    lists share a prefix share the trie nodes of that prefix, so a conjunct
    test that several rules start with runs once per execution.  A node is
    keyed by its conjunct's canonical JSON and holds the bits (``1 << rule
    index``) of the rules whose guards end there.  Conjuncts equal to the
    unconditional idiom are dropped, and rules left with none sit in a
    constant base mask.  An execution starts from the base mask and walks
    the trie, ORing in the bits of each node whose test holds and skipping
    the subtree of each that fails.  It then cuts the mask after the first
    matching rule whose crash fires under this sanitizer: guards are pure
    and total, so this is the mask an in-order walk that stops there gets.
    The mask is looked up in a path table: mask -> (outcome, coverage,
    trace, crash), built from the rules on the first execution that takes
    the path.  Executions on the same path therefore share one coverage
    set, whose hash ``frozenset`` caches.  The table holds one entry per
    distinct path a runner has taken, which is tens on the benchmark
    workloads.

    A second table maps each blob the runner has run to its path, so a
    blob run again (a fuzz mutant seen before, a reproduction replay, a
    PoC variant re-run) skips the trie.  Because an execution depends on
    nothing but the blob, the remembered path is exactly what the walk
    would find; the ``max_blob`` check still comes first, and each result
    is fresh and carries its own ``size``.  The table is bounded by
    ``MEMO_BUDGET``: each entry is charged its blob's length plus
    ``MEMO_ENTRY_BYTES``, an insert that would pass the budget clears the
    table first, and a blob whose charge alone passes it is not stored.
    ``drop_memo`` empties it.

    ``executions`` counts every run that passed the ``max_blob`` check, a
    run answered from the table included; ``drop_memo`` keeps the count.
    """

    def __init__(
        self,
        target: SimTarget,
        sanitizer: str | None = None,
        max_blob: int = DEFAULT_MAX_BLOB,
    ):
        self.target = target
        self.sanitizer = sanitizer
        self.max_blob = max_blob
        self.executions = 0
        self._base = self._fires = 0
        root: dict[str, list] = {}  # conjunct key -> [test, bits, children]
        for i, rule in enumerate(target.rules):
            bit = 1 << i
            if rule.crash is not None and (sanitizer is None or rule.crash.sanitizer == sanitizer):
                self._fires |= bit
            level, node = root, None
            for conjunct in _conjuncts(rule.guard):
                if conjunct == _ALWAYS:
                    continue
                key = json.dumps(conjunct, sort_keys=True)
                node = level.get(key)
                if node is None:
                    node = level[key] = [compile_predicate(conjunct), 0, {}]
                level = node[2]
            if node is None:
                self._base |= bit
            else:
                node[1] |= bit
        self._trie = _freeze(root)
        self._paths: dict[int, tuple] = {}  # mask -> what _path returns
        self._memo: dict[bytes, tuple] = {}  # blob -> its entry in _paths
        self._memo_bytes = 0  # what the _memo entries are charged

    def run(self, blob: bytes) -> ExecutionResult:
        """Match the rules through the trie, or take the path this blob
        took before; the first matching rule that fires under this
        sanitizer ends the run with its crash."""
        size = len(blob)
        if size > self.max_blob:
            raise OversizeBlobError(f"blob of {size} bytes exceeds limit {self.max_blob}")
        self.executions += 1
        path = self._memo.get(blob)
        if path is None:
            mask = _walk(self._trie, blob, self._base)
            fired = mask & self._fires
            if fired:  # keep the bits up to the lowest firing one
                mask &= ((fired & -fired) << 1) - 1
            path = self._paths.get(mask)
            if path is None:
                path = self._paths[mask] = self._path(mask)
            charge = size + MEMO_ENTRY_BYTES
            if charge <= MEMO_BUDGET:
                if self._memo_bytes + charge > MEMO_BUDGET:
                    self.drop_memo()
                self._memo[blob] = path
                self._memo_bytes += charge
        outcome, coverage, trace, crash = path
        return ExecutionResult(outcome, coverage, trace, self.target.name, size, crash)

    def drop_memo(self) -> None:
        """Empty the blob -> path table; the runner stays usable."""
        self._memo.clear()
        self._memo_bytes = 0

    def _path(self, mask: int) -> tuple[str, frozenset[str], tuple[str, ...], CrashSpec | None]:
        """The path through the rules in ``mask``: their entered functions
        in rule order, and the crash of the last one if it fires."""
        rules = self.target.rules
        trace = tuple(fn for i, rule in enumerate(rules) if mask >> i & 1 for fn in rule.enter)
        last = mask.bit_length() - 1
        if last >= 0 and self._fires >> last & 1:
            return "crash", frozenset(trace), trace, rules[last].crash
        return "ok", frozenset(trace), trace, None
