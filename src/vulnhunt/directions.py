"""Analysis directions and the priority-driven function scheduler.

A direction scopes analysis to one business feature of the target: named
entry and core functions, plus every function transitively callable from the
entries (the general pool).  The scheduler interleaves all directions of a
worker and orders candidate functions by a four-level priority:

    (core, unanalyzed) = 1     (core, analyzed) = 2
    (general, unanalyzed) = 3  (general, analyzed) = 4

"Analyzed" consults a set shared across workers, so a function studied by
one worker is deprioritized everywhere.  Ties break on lower call depth,
then lexicographic function id.  A function this scheduler already returned
becomes eligible again (a revisit) only once no unanalyzed candidate
remains, and at most ``max_revisits`` times.

Every (direction, function) pair is one entry keyed ``(priority, depth, id,
direction)``, kept in one of three heaps by its state: fresh-unanalyzed,
fresh-analyzed and revisit.  The heaps are built at the first pick after
construction or registration, so a pick costs a logarithmic number of steps
instead of a rescan of every pool.  An entry whose state changed since it
was pushed (another worker analyzed it, or this scheduler picked it) is
moved only when it reaches the top of its heap.  That lazy deletion is
exact because state only moves one way: priorities only rise (1 -> 2,
3 -> 4) and pick counts only grow, so a stale entry's true key is never
below its stored key, and a valid top is the true minimum of its state.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .callgraph import CallGraph, bfs_parents

logger = logging.getLogger(__name__)

RISK_LEVELS = ("high", "medium", "low")
RISK_RANK = {"high": 2, "medium": 1, "low": 0}

MAX_DIRECTIONS_PER_WORKER = 5
DEFAULT_MAX_REVISITS = 1

_PRIORITY = {
    (True, False): 1,   # core, unanalyzed
    (True, True): 2,    # core, analyzed
    (False, False): 3,  # general, unanalyzed
    (False, True): 4,   # general, analyzed
}


@dataclass
class Direction:
    """One business-feature scope proposed by the direction generator."""

    name: str
    entry_functions: list[str]
    core_functions: list[str]
    risk_level: str
    risk_reason: str

    @property
    def risk_rank(self) -> int:
        return RISK_RANK[self.risk_level]


@dataclass(frozen=True)
class RegisterResult:
    accepted: bool
    reason: str | None = None
    warnings: tuple[str, ...] = ()


@dataclass
class _DirectionPools:
    direction: Direction
    core: set[str]
    general: set[str]


# (priority, depth, function id, direction name, is core)
_Entry = tuple[int, int, str, str, bool]


@dataclass(frozen=True)
class Pick:
    """One scheduling decision, as emitted by next_function."""

    function_id: str
    direction_name: str
    priority: int


class GlobalAnalyzedSet:
    """Thread-safe set of function ids analyzed by any worker."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._seen: set[str] = set()

    def add(self, function_id: str) -> bool:
        """Mark analyzed; returns True when this call did the marking."""
        with self._lock:
            if function_id in self._seen:
                return False
            self._seen.add(function_id)
            return True

    def __contains__(self, function_id: str) -> bool:
        with self._lock:
            return function_id in self._seen


def build_pools(direction: Direction, subgraph: CallGraph) -> tuple[set[str], set[str], list[str]]:
    """Resolve a direction against a subgraph into (core, general, warnings).

    Core is the union of the direction's entry and core functions; general is
    everything transitively callable from the entries minus core.  Function
    names unknown to the subgraph are skipped with a warning, never silently
    dropped.  Pure: neither input is mutated.
    """
    warnings: list[str] = []
    core: set[str] = set()
    entries: list[str] = []
    for name in list(direction.entry_functions) + list(direction.core_functions):
        rec = subgraph.resolve(name)
        if rec is None:
            warnings.append(f"direction '{direction.name}': unknown function '{name}' skipped")
            continue
        core.add(rec.id)
        if name in direction.entry_functions:
            entries.append(rec.id)
    general = set(bfs_parents(subgraph.functions, entries)) - core
    return core, general, warnings


class DirectionScheduler:
    """Per-worker scheduler over registered directions.

    Args:
        subgraph: the worker's fuzzer-reachable subgraph.
        fuzzer: the worker's fuzzer (selects call depths for tie-breaks).
        analyzed: the cross-worker analyzed set.
        max_directions: registration cap per worker.
        max_revisits: how many times an already-returned function may be
            re-returned once no unanalyzed candidate remains.
    """

    def __init__(
        self,
        subgraph: CallGraph,
        fuzzer: str,
        analyzed: GlobalAnalyzedSet,
        max_directions: int = MAX_DIRECTIONS_PER_WORKER,
        max_revisits: int = DEFAULT_MAX_REVISITS,
    ):
        self._subgraph = subgraph
        self._fuzzer = fuzzer
        self._analyzed = analyzed
        self._max_directions = max_directions
        self._max_revisits = max_revisits
        self._pools: list[_DirectionPools] = []
        self._picks: dict[str, int] = {}
        # Fresh-unanalyzed, fresh-analyzed and revisit entries; None until
        # the next pick rebuilds them.
        self._heaps: tuple[list[_Entry], list[_Entry], list[_Entry]] | None = None

    # ----- registration -----

    def register_direction(self, direction: Direction) -> RegisterResult:
        """Validate and register one direction; builds its pools.

        Rejects (never raises) on: worker already at the direction cap,
        duplicate direction name, invalid risk level, or no function that
        resolves in the subgraph.  A registered direction turns off the
        whole-subgraph fallback, so one with empty pools would stop analysis.
        """
        if len(self._pools) >= self._max_directions:
            return RegisterResult(False, f"worker already has {self._max_directions} directions")
        if any(p.direction.name == direction.name for p in self._pools):
            return RegisterResult(False, f"duplicate direction name '{direction.name}'")
        if direction.risk_level not in RISK_LEVELS:
            return RegisterResult(False, f"invalid risk level '{direction.risk_level}'")
        if not direction.risk_reason or not direction.risk_reason.strip():
            return RegisterResult(False, "risk_reason must be non-empty")
        core, general, warnings = build_pools(direction, self._subgraph)
        if not core and not general:
            return RegisterResult(
                False,
                f"direction '{direction.name}': none of its functions is in the reachable subgraph",
                tuple(warnings),
            )
        for warning in warnings:
            logger.warning("%s", warning)
        self._pools.append(_DirectionPools(direction=direction, core=core, general=general))
        self._heaps = None
        return RegisterResult(True, warnings=tuple(warnings))

    @property
    def directions(self) -> list[Direction]:
        return [p.direction for p in self._pools]

    def risk_rank_for(self, direction_name: str) -> int:
        for p in self._pools:
            if p.direction.name == direction_name:
                return p.direction.risk_rank
        return RISK_RANK["medium"]

    # ----- scheduling -----

    def _depth(self, function_id: str) -> int:
        rec = self._subgraph.functions.get(function_id)
        if rec is None:
            return 1 << 30
        return rec.call_depth.get(self._fuzzer, 1 << 30)

    def _build_heaps(self) -> tuple[list[_Entry], list[_Entry], list[_Entry]]:
        if self._pools:
            pools = [(p.direction.name, p.core, p.general) for p in self._pools]
        else:
            # No directions registered: fall back to the whole subgraph as
            # one general pool so analysis still proceeds.
            pools = [("(general)", set(), set(self._subgraph.functions))]
        unanalyzed: list[_Entry] = []
        analyzed: list[_Entry] = []
        revisit: list[_Entry] = []
        for dir_name, core, general in pools:
            for is_core, pool in ((True, core), (False, general)):
                for fid in pool:
                    picks = self._picks.get(fid, 0)
                    if picks > self._max_revisits:
                        continue
                    is_analyzed = picks > 0 or fid in self._analyzed
                    priority = _PRIORITY[(is_core, is_analyzed)]
                    heap = revisit if picks else analyzed if is_analyzed else unanalyzed
                    heap.append((priority, self._depth(fid), fid, dir_name, is_core))
        for heap in (unanalyzed, analyzed, revisit):
            heapify(heap)
        return unanalyzed, analyzed, revisit

    def _settle(self, heap: list[_Entry]) -> _Entry | None:
        """Move stale entries off the top of ``heap`` into the heap their
        current state belongs in; return the valid top, or None."""
        unanalyzed, analyzed, revisit = self._heaps
        while heap:
            _, depth, fid, dir_name, is_core = entry = heap[0]
            picks = self._picks.get(fid, 0)
            if picks == 0:
                if heap is not unanalyzed or fid not in self._analyzed:
                    return entry
                target = analyzed  # another worker analyzed it
            elif picks > self._max_revisits:
                target = None  # revisits used up
            elif heap is revisit:
                return entry
            else:
                target = revisit  # this scheduler picked it
            heappop(heap)
            if target is not None:
                heappush(target, (_PRIORITY[(is_core, True)], depth, fid, dir_name, is_core))
        return None

    def next_function(self) -> Pick | None:
        """Return the next function to analyze, or None when exhausted.

        The returned function is marked analyzed in the shared set.  Fresh
        candidates (never returned by this scheduler) are ranked by the
        priority matrix with (call depth, id) tie-breaks; already-returned
        functions only become candidates once no unanalyzed candidate
        remains, each at most ``max_revisits`` more times.
        """
        if self._heaps is None:
            self._heaps = self._build_heaps()
        unanalyzed, analyzed, revisit = self._heaps
        # Settle in state order (unanalyzed, analyzed, revisit): settling a
        # heap only pushes into the heaps after it.
        top = self._settle(unanalyzed)
        if top is not None:
            # An unanalyzed candidate exists, so revisits stay ineligible.
            tops = [top, self._settle(analyzed)]
        else:
            tops = [self._settle(analyzed), self._settle(revisit)]
        candidates = [t for t in tops if t is not None]
        if not candidates:
            return None
        priority, _, fid, dir_name, _ = min(candidates)
        self._picks[fid] = self._picks.get(fid, 0) + 1
        self._analyzed.add(fid)
        # Report the priority as classified at pick time.
        return Pick(function_id=fid, direction_name=dir_name, priority=priority)
