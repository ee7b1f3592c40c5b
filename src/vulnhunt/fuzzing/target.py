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

Each ``SimTargetRunner`` compiles its guards once, into one generated
function from a blob to the mask of the rules that matched; no target
text is ever compiled as code.  A result is the path a blob took through
the rules (outcome, coverage, trace and crash) and nothing else, so a
runner keeps one ``ExecutionResult`` per path.  ``render_output`` prints
a run's log from a result, the target's name and the blob's size, at the
few places that keep a log.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

from ..errors import OversizeBlobError, TargetSchemaError
from ..spstore import SANITIZERS, is_valid_vuln_type

TARGET_SCHEMA_VERSION = 1
DEFAULT_MAX_BLOB = 1 << 20  # 1 MiB
# A runner's blob -> result memo holds at most this many bytes, each entry
# charged its blob's length plus MEMO_ENTRY_BYTES: the bytes object's header
# and its dict slot, about 63 bytes measured, with room for the dict's slack.
MEMO_BUDGET = 1 << 20  # 1 MiB
MEMO_ENTRY_BYTES = 96
_ALWAYS = {"kind": "length-cmp", "op": "ge", "value": 0}  # the unconditional idiom

# Comparison operators, as the generated source writes them.
_OPS = {"lt": "<", "le": "<=", "eq": "==", "ne": "!=", "ge": ">=", "gt": ">"}
_U32 = struct.Struct("<I").unpack_from  # a little-endian u32 at an offset

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
        offset, value = node.get("offset"), node.get("value")
        if isinstance(offset, bool) or not isinstance(offset, int) or offset < 0:
            raise TargetSchemaError(f"{where}: 'offset' must be a non-negative integer")
        if isinstance(value, bool) or not isinstance(value, int) or not (0 <= value <= 255):
            raise TargetSchemaError(f"{where}: 'value' must be a byte (0-255)")
    elif kind in ("prefix", "contains"):
        _literal_bytes(node, where)
    elif kind == "length-cmp":
        if node.get("op") not in _OPS:
            raise TargetSchemaError(f"{where}: 'op' must be one of {sorted(_OPS)}")
        value = node.get("value")
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise TargetSchemaError(f"{where}: 'value' must be a non-negative integer")
    elif kind == "u32-le-field-cmp":
        offset, value = node.get("offset"), node.get("value")
        if isinstance(offset, bool) or not isinstance(offset, int) or offset < 0:
            raise TargetSchemaError(f"{where}: 'offset' must be a non-negative integer")
        if node.get("op") not in _OPS:
            raise TargetSchemaError(f"{where}: 'op' must be one of {sorted(_OPS)}")
        if isinstance(value, bool) or not isinstance(value, int) or not (0 <= value <= 0xFFFFFFFF):
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


def _int(value: int) -> str:
    return hex(int(value))


class _Source:
    """Python source under construction, and the namespace it will run in.

    The text holds only ints (each passed through ``int`` and written in
    hex, which no digit limit applies to), comparison symbols from
    ``_OPS``, and names this class makes up; byte literals and fan-out
    tables go into the namespace under generated names.  No text from a
    target ever reaches the source.
    """

    def __init__(self, name: str):
        self.name = name
        self.lines = [f"def {name}(blob):", " n = len(blob)"]
        self.namespace: dict = {"U32": _U32}
        self._temps = 0

    def const(self, value) -> str:
        """A generated name bound to ``value`` in the namespace."""
        name = f"k{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def test(self, node: dict, gate: str | None) -> str:
        """An expression that holds where the validated predicate ``node``
        holds, for the blob in ``blob`` and its length in ``n``.

        Each ``and``/``or``/``not`` below the top is first assigned to a
        local of its own, so the expression, and every line, nests no
        deeper however deep the tree is.  Such a local is ANDed with
        ``gate`` (a local that must hold for the expression to be read),
        so a gated-off subtree costs one test per local.
        """
        self._temps = 0
        return self._expr(node, gate, top=True)

    def _expr(self, node: dict, gate: str | None, top: bool = False) -> str:
        kind = node["kind"]
        if kind == "offset-equals":
            off = _int(node["offset"])
            return f"(n > {off} and blob[{off}] == {_int(node['value'])})"
        if kind == "prefix":
            return f"blob.startswith({self.const(_literal_bytes(node, 'guard'))})"
        if kind == "contains":
            return f"({self.const(_literal_bytes(node, 'guard'))} in blob)"
        if kind == "length-cmp":
            return f"(n {_OPS[node['op']]} {_int(node['value'])})"
        if kind == "u32-le-field-cmp":
            off = int(node["offset"])
            return (f"(n >= {_int(off + 4)} and U32(blob, {_int(off)})[0] "
                    f"{_OPS[node['op']]} {_int(node['value'])})")
        if kind == "not":
            expr = f"(not {self._expr(node['term'], gate)})"
        else:
            join = " and " if kind == "and" else " or "
            expr = "(" + join.join(self._expr(term, gate) for term in node["terms"]) + ")"
        if top:
            return expr
        name = f"t{self._temps}"
        self._temps += 1
        self.lines.append(f" {name} = {expr}" if gate is None else f" {name} = {gate} and {expr}")
        return name

    def function(self) -> Callable:
        """Compile the source and return the function it defines."""
        exec(compile("\n".join(self.lines), "<vulnhunt target>", "exec"), self.namespace)
        return self.namespace[self.name]


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
    A named tuple rather than a frozen dataclass: just as immutable,
    hashable and compared field by field, but built without a
    ``__setattr__`` per field.  Being immutable, one result can be returned
    to every execution that takes its path.
    """

    outcome: str
    coverage: frozenset[str]
    trace: tuple[str, ...]
    crash: CrashSpec | None = None


def render_output(result: ExecutionResult, target_name: str, size: int) -> str:
    """The log of a run of a ``size``-byte blob against ``target_name``: a
    ``run`` line, one ``enter`` line per traced function, then the
    sanitizer error or ``exit ok``."""
    lines = [f"run {target_name} ({size} bytes)"]
    lines.extend(f"enter {fn}" for fn in result.trace)
    crash = result.crash
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
    except (OSError, UnicodeDecodeError) as exc:
        raise TargetSchemaError(f"{path}: cannot read: {exc}") from exc
    return parse_target(obj, where=str(path.name))


def load_targets_dir(path: str | Path) -> dict[str, SimTarget]:
    """Load every ``*.json`` target in a directory, keyed by fuzzer name."""
    path = Path(path)
    if not path.is_dir():
        raise TargetSchemaError(f"targets {path}: not a directory")
    targets: dict[str, SimTarget] = {}
    for item in sorted(path.glob("*.json")):
        target = load_target(item)
        if target.fuzzer in targets:
            raise TargetSchemaError(f"{item}: duplicate target for fuzzer '{target.fuzzer}'")
        targets[target.fuzzer] = target
    return targets


class TargetRunner:
    """Execution hook: what a worker runs blobs through.

    The in-tree implementation wraps a SimTarget bound to the worker's
    sanitizer; an external harness can substitute its own runner with the
    same contract.  ``run(blob)`` is deterministic given the blob, which
    lets ``SimTargetRunner`` answer a repeated blob from its table and
    makes a crash's reproduction an exact check.  ``executions`` counts
    the runs made, and is what the worker reports; ``max_blob`` is the
    longest blob accepted, and the worker skips longer ones unrun;
    ``name`` is the target's, which a kept run log prints.
    """

    name: str
    max_blob: int
    executions: int

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


def _compile_trie(root: dict, base: int) -> Callable[[bytes], int]:
    """Generate and compile a conjunct trie's walk: one function from a
    blob to the mask of the rules whose guards hold, ``base`` included.

    Nodes are written in depth-first order.  A node at depth ``d`` with
    children stores its test in the local ``c<d>``, ANDed with its
    parent's ``c<d-1>``; since a node's subtree comes right after it, its
    children read their parent's value there, and no line nests deeper as
    the trie does.  Of the leaf ``offset-equals`` nodes under one parent,
    those at one offset share one lookup of that byte in a 256-entry table
    of bits, when there are two or more of them.
    """
    source = _Source("match")
    source.lines.append(f" m = {_int(base)}")
    stack: list[tuple[list, int]] = []

    def level(children: dict, depth: int) -> None:
        """Write the fan-out lookups of a parent's children at ``depth``
        and stack the rest of them."""
        gate = f"c{depth - 1} and " if depth else ""
        fans: dict[int, list] = {}
        rest = []
        for node in children.values():
            conjunct, _, kids = node
            if not kids and conjunct["kind"] == "offset-equals":
                fans.setdefault(int(conjunct["offset"]), []).append(node)
            else:
                rest.append(node)
        for off, group in fans.items():
            if len(group) == 1:
                rest.extend(group)
                continue
            table = [0] * 256
            for conjunct, bits, _ in group:
                table[int(conjunct["value"])] |= bits
            source.lines.append(f" if {gate}n > {_int(off)}: "
                                f"m |= {source.const(tuple(table))}[blob[{_int(off)}]]")
        stack.extend((node, depth) for node in reversed(rest))

    level(root, 0)
    while stack:
        (conjunct, bits, kids), depth = stack.pop()
        parent = f"c{depth - 1}" if depth else None
        expr = source.test(conjunct, parent)
        if parent is not None:
            expr = f"{parent} and {expr}"
        if not kids:
            source.lines.append(f" if {expr}: m |= {_int(bits)}")
            continue
        source.lines.append(f" c{depth} = {expr}")
        if bits:
            source.lines.append(f" if c{depth}: m |= {_int(bits)}")
        level(kids, depth + 1)
    source.lines.append(" return m")
    return source.function()


class SimTargetRunner(TargetRunner):
    """A SimTarget bound to one sanitizer: the one rule interpreter.

    The rules' guards are compiled once, here.  Each guard is split into
    its top-level conjuncts, and rules whose conjunct lists share a prefix
    share the trie nodes of that prefix.  A node is keyed by its
    conjunct's canonical JSON and holds the bits (``1 << rule index``) of
    the rules whose guards end there.  Conjuncts equal to the
    unconditional idiom are dropped, and rules left with none sit in a
    constant base mask.  The trie is then compiled, with ``compile`` and
    ``exec``, into one flat function from a blob to the mask of the rules
    whose guards hold (``_compile_trie``).  Only ints (offsets, values and
    masks, each passed through ``int``) and comparison symbols from a
    fixed table are written into the source; byte literals and tables are
    bound in its namespace.

    An execution calls that function, then cuts the mask after the first
    matching rule whose crash fires under this sanitizer: guards are pure
    and total, so this is the mask an in-order walk that stops there gets.
    The mask is looked up in a path table, ``_paths``: mask -> the one
    ``ExecutionResult`` of that path, built from the rules on the first
    execution that takes it, so executions on one path share one result
    and one coverage set, whose hash ``frozenset`` caches.

    A memo maps each blob the runner has run to its entry in ``_paths``,
    so a blob run again (a fuzz mutant seen before, a reproduction replay,
    a PoC variant re-run) returns the same object without a walk.  Because
    an execution depends on nothing but the blob, and a result is
    immutable, that is exactly what a new walk would give; the
    ``max_blob`` check still comes first.  The memo is bounded by
    ``MEMO_BUDGET``: each entry is charged its blob's length plus
    ``MEMO_ENTRY_BYTES``, an insert that would pass the budget clears the
    memo first, and a blob whose charge alone passes it is not stored.
    ``drop_memo`` empties it; the path table stays.

    ``executions`` counts every run that passed the ``max_blob`` check, a
    run answered from the memo included; ``drop_memo`` keeps the count.
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
        root: dict[str, list] = {}  # conjunct key -> [conjunct, bits, children]
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
                    node = level[key] = [conjunct, 0, {}]
                level = node[2]
            if node is None:
                self._base |= bit
            else:
                node[1] |= bit
        self._match = _compile_trie(root, self._base)  # blob -> mask
        self.name = target.name
        self._paths: dict[int, ExecutionResult] = {}  # mask -> the result of that path
        self._memo: dict[bytes, ExecutionResult] = {}  # blob -> its entry in _paths
        self._memo_bytes = 0  # what the _memo entries are charged

    def run(self, blob: bytes) -> ExecutionResult:
        """Return the result this blob got before, or match the rules
        through the compiled walk; the first matching rule that fires
        under this sanitizer ends the run with its crash."""
        size = len(blob)
        if size > self.max_blob:
            raise OversizeBlobError(f"blob of {size} bytes exceeds limit {self.max_blob}")
        self.executions += 1
        result = self._memo.get(blob)
        if result is not None:
            return result
        mask = self._match(blob)
        fired = mask & self._fires
        if fired:  # keep the bits up to the lowest firing one
            mask &= ((fired & -fired) << 1) - 1
        result = self._paths.get(mask)
        if result is None:
            result = self._paths[mask] = self._path(mask)
        charge = size + MEMO_ENTRY_BYTES
        if charge <= MEMO_BUDGET:
            if self._memo_bytes + charge > MEMO_BUDGET:
                self.drop_memo()
            self._memo[blob] = result
            self._memo_bytes += charge
        return result

    def drop_memo(self) -> None:
        """Empty the blob -> result table; the runner stays usable."""
        self._memo.clear()
        self._memo_bytes = 0

    def _path(self, mask: int) -> ExecutionResult:
        """The result of the path through the rules in ``mask``: their
        entered functions in rule order, and the crash of the last one if
        it fires.  Only the set bits are visited, lowest first."""
        rules = self.target.rules
        trace: list[str] = []
        last = -1
        while mask:
            low = mask & -mask
            last = low.bit_length() - 1
            trace.extend(rules[last].enter)
            mask ^= low
        crash = rules[last].crash if last >= 0 and self._fires >> last & 1 else None
        return ExecutionResult("ok" if crash is None else "crash", frozenset(trace),
                               tuple(trace), crash)
