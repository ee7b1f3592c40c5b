"""Direction registration and the priority-matrix function scheduler."""
from __future__ import annotations

import random
import threading

import helpers
from hypothesis import given, settings
from hypothesis import strategies as st

import vulnhunt.directions as directions
from vulnhunt.directions import (
    DirectionScheduler,
    Direction,
    GlobalAnalyzedSet,
    build_pools,
)

FZ = "fz"


def rec(fid, callees=(), entry=False):
    return {
        "id": fid,
        "name": fid,
        "file": "sched/core.c",
        "source": f"int {fid}(void) {{ return 0; }}",
        "callees": list(callees),
        "reached_by_fuzzers": [],
        "is_entry_for": [FZ] if entry else [],
    }


# Ten functions, all reachable from the single entry `e`:
#   depth 1: e        depth 2: a b      depth 3: c d f
#   depth 4: g h j    depth 5: k
TEN_RECORDS = [
    rec("e", ["a", "b"], entry=True),
    rec("a", ["c", "d"]),
    rec("b", ["d", "f"]),
    rec("c", ["g"]),
    rec("d", ["h"]),
    rec("f", ["j"]),
    rec("g", ["k"]),
    rec("h"),
    rec("j"),
    rec("k"),
]


def ten_graph():
    return helpers.graph_from_records(TEN_RECORDS)


def alpha():
    return Direction(
        name="alpha", entry_functions=["e"], core_functions=["a", "c"],
        risk_level="high", risk_reason="length fields drive copies")


def beta():
    return Direction(
        name="beta", entry_functions=["e"], core_functions=["b"],
        risk_level="medium", risk_reason="dispatch over raw tags")


def make_scheduler(max_revisits=1, analyzed=None):
    sched = DirectionScheduler(
        subgraph=ten_graph(), fuzzer=FZ,
        analyzed=analyzed or GlobalAnalyzedSet(), max_revisits=max_revisits)
    assert sched.register_direction(alpha()).accepted
    assert sched.register_direction(beta()).accepted
    return sched


# ---------------------------------------------------------------------------
# Independent oracle: replays the documented law step by step
# ---------------------------------------------------------------------------


def oracle_schedule(directions, records, fuzzer, analyzed0=frozenset(), max_revisits=1):
    """Naive reimplementation of the scheduling law for comparison.

    Priorities: (core, unanalyzed)=1 (core, analyzed)=2 (general,
    unanalyzed)=3 (general, analyzed)=4; ties by (depth, id); revisits only
    once no unanalyzed fresh candidate remains, at most max_revisits each.
    """
    depths = helpers.naive_depths(records, fuzzer)
    pools = []
    for d in directions:
        core = set(d.entry_functions) | set(d.core_functions)
        reach = set()
        frontier = list(d.entry_functions)
        reach.update(frontier)
        adj = {r["id"]: r["callees"] for r in records}
        while frontier:
            nxt = []
            for f in frontier:
                for c in adj.get(f, ()):
                    if c not in reach:
                        reach.add(c)
                        nxt.append(c)
            frontier = nxt
        pools.append((d.name, core, reach - core))

    analyzed = set(analyzed0)
    picks: dict[str, int] = {}
    out = []
    while True:
        fresh, revisit, any_unanalyzed = [], [], False
        for name, core, general in pools:
            for is_core, pool in ((True, core), (False, general)):
                for fid in pool:
                    pr = {(True, False): 1, (True, True): 2,
                          (False, False): 3, (False, True): 4}[(is_core, fid in analyzed)]
                    entry = (pr, depths[fid], fid)
                    if picks.get(fid, 0) == 0:
                        fresh.append(entry)
                        if fid not in analyzed:
                            any_unanalyzed = True
                    elif picks[fid] <= max_revisits:
                        revisit.append(entry)
        if fresh:
            pr, _, fid = min(fresh if any_unanalyzed else fresh + revisit)
        elif revisit:
            pr, _, fid = min(revisit)
        else:
            return out
        picks[fid] = picks.get(fid, 0) + 1
        analyzed.add(fid)
        out.append((fid, pr))


def drain(sched):
    out = []
    while True:
        pick = sched.next_function()
        if pick is None:
            return out
        out.append((pick.function_id, pick.priority))


# ---------------------------------------------------------------------------
# Registration
# ---------------------------------------------------------------------------


def test_register_rejections_never_raise():
    sched = DirectionScheduler(ten_graph(), FZ, GlobalAnalyzedSet(), max_directions=2)
    assert sched.register_direction(alpha()).accepted
    dup = sched.register_direction(alpha())
    assert not dup.accepted and "duplicate" in dup.reason
    bad_risk = sched.register_direction(Direction(
        name="r", entry_functions=["e"], core_functions=[],
        risk_level="extreme", risk_reason="x"))
    assert not bad_risk.accepted and "risk level" in bad_risk.reason
    no_reason = sched.register_direction(Direction(
        name="n", entry_functions=["e"], core_functions=[],
        risk_level="low", risk_reason="  "))
    assert not no_reason.accepted
    assert sched.register_direction(beta()).accepted
    overflow = sched.register_direction(Direction(
        name="gamma", entry_functions=["e"], core_functions=[],
        risk_level="low", risk_reason="y"))
    assert not overflow.accepted and "2" in overflow.reason
    assert [d.name for d in sched.directions] == ["alpha", "beta"]


def test_unknown_functions_warned_not_dropped_silently():
    sched = DirectionScheduler(ten_graph(), FZ, GlobalAnalyzedSet())
    result = sched.register_direction(Direction(
        name="w", entry_functions=["e"], core_functions=["ghost_fn"],
        risk_level="low", risk_reason="z"))
    assert result.accepted
    assert any("ghost_fn" in w for w in result.warnings)


def test_direction_with_no_resolvable_function_is_rejected():
    """A direction none of whose names resolve would have empty pools and,
    once registered, would turn off the whole-subgraph fallback."""
    sched = DirectionScheduler(ten_graph(), FZ, GlobalAnalyzedSet())
    result = sched.register_direction(Direction(
        name="typos", entry_functions=["ee"], core_functions=["aa"],
        risk_level="high", risk_reason="z"))
    assert not result.accepted
    assert result.reason == "direction 'typos': none of its functions is in the reachable subgraph"
    assert [w for w in result.warnings if "unknown function" in w] == [
        "direction 'typos': unknown function 'ee' skipped",
        "direction 'typos': unknown function 'aa' skipped",
    ]
    assert sched.directions == []
    assert sched.next_function().function_id == "e"  # the fallback's first pick


def test_build_pools_shape():
    core, general, warnings = build_pools(alpha(), ten_graph())
    assert core == {"e", "a", "c"}
    assert general == {"b", "d", "f", "g", "h", "j", "k"}
    assert warnings == []


def test_risk_rank_lookup():
    sched = make_scheduler()
    assert sched.risk_rank_for("alpha") == 2
    assert sched.risk_rank_for("beta") == 1
    assert sched.risk_rank_for("missing") == 1  # defaults to medium


# ---------------------------------------------------------------------------
# Scheduling law
# ---------------------------------------------------------------------------


def test_full_schedule_matches_hand_computed_sequence():
    got = drain(make_scheduler())
    assert got == [
        ("e", 1), ("a", 1), ("b", 1), ("c", 1),
        ("d", 3), ("f", 3), ("g", 3), ("h", 3), ("j", 3), ("k", 3),
        ("e", 2), ("a", 2), ("b", 2), ("c", 2),
        ("d", 4), ("f", 4), ("g", 4), ("h", 4), ("j", 4), ("k", 4),
    ]


def test_schedule_matches_independent_oracle():
    got = drain(make_scheduler())
    want = oracle_schedule([alpha(), beta()], TEN_RECORDS, FZ)
    assert got == want


def test_no_general_pick_while_core_unanalyzed_candidate_exists():
    picks = drain(make_scheduler())
    first_general = next(i for i, (_, pr) in enumerate(picks) if pr == 3)
    assert all(pr != 1 for _, pr in picks[first_general:])


def test_cross_worker_analysis_deprioritizes_core():
    analyzed = GlobalAnalyzedSet()
    assert analyzed.add("c")          # another worker already studied c
    assert not analyzed.add("c")      # second add reports no-op
    got = drain(make_scheduler(analyzed=analyzed))
    want = oracle_schedule([alpha(), beta()], TEN_RECORDS, FZ, analyzed0={"c"})
    assert got == want
    # c is picked as (core, analyzed)=2: after every P1, before any P3.
    idx = got.index(("c", 2))
    assert all(pr == 1 for _, pr in got[:idx])
    assert all(pr >= 2 for _, pr in got[idx:])


def test_revisit_budget_respected():
    none_allowed = drain(make_scheduler(max_revisits=0))
    assert len(none_allowed) == 10
    two_allowed = drain(make_scheduler(max_revisits=2))
    assert len(two_allowed) == 30
    want = oracle_schedule([alpha(), beta()], TEN_RECORDS, FZ, max_revisits=2)
    assert two_allowed == want


def test_fallback_pool_without_directions():
    sched = DirectionScheduler(ten_graph(), FZ, GlobalAnalyzedSet(), max_revisits=0)
    picks = drain(sched)
    assert [fid for fid, _ in picks] == ["e", "a", "b", "c", "d", "f", "g", "h", "j", "k"]
    assert all(pr == 3 for _, pr in picks)
    assert sched.next_function() is None


def test_shared_analyzed_set_is_thread_safe():
    analyzed = GlobalAnalyzedSet()
    wins = []

    def claim(fid):
        if analyzed.add(fid):
            wins.append(fid)

    threads = [threading.Thread(target=claim, args=(f"fn{i % 50}",)) for i in range(400)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sorted(wins) == sorted({f"fn{i}" for i in range(50)})
    assert all(f"fn{i}" in analyzed for i in range(50))
    assert "fn50" not in analyzed


# ---------------------------------------------------------------------------
# Heap scheduler against the naive rescan
# ---------------------------------------------------------------------------


def random_directions(rng, ids):
    """Up to three directions; some duplicate a name, name an unknown
    function or carry an invalid risk level, so registration rejects them."""
    out = []
    for _ in range(rng.randint(0, 3)):
        entries = rng.sample(ids, min(len(ids), rng.randint(0, 2)))
        if rng.random() < 0.2:
            entries.append("ghost_fn")
        out.append(Direction(
            name=f"d{rng.randint(0, 2)}",
            entry_functions=entries,
            core_functions=rng.sample(ids, min(len(ids), rng.randint(0, 4))),
            risk_level=rng.choice(("high", "medium", "low", "extreme")),
            risk_reason="random"))
    return out


def interleaved_drain(cls, graph, fuzzer, dirs, registered_first, max_revisits, seed):
    """Drain ``cls`` while another worker marks random functions analyzed
    between picks; the directions past ``registered_first`` join after the
    third pick."""
    rng = random.Random(seed)
    analyzed = GlobalAnalyzedSet()
    sched = cls(graph, fuzzer, analyzed, max_revisits=max_revisits)
    for d in dirs[:registered_first]:
        sched.register_direction(d)
    ids = sorted(graph.functions)
    out = []
    while True:
        if rng.random() < 0.3:
            analyzed.add(rng.choice(ids))
        if len(out) == 3:
            out.extend(sched.register_direction(d).accepted for d in dirs[registered_first:])
        pick = sched.next_function()
        if pick is None:
            return out
        out.append(pick)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       max_revisits=st.integers(min_value=0, max_value=2),
       split=st.floats(min_value=0.0, max_value=1.0))
def test_heap_scheduler_matches_naive_oracle(seed, max_revisits, split):
    rng = random.Random(seed)
    records, fuzzers = helpers.random_graph_records(rng, max_nodes=40)
    graph = helpers.graph_from_records(records)
    dirs = random_directions(rng, [r["id"] for r in records])
    first = round(split * len(dirs))
    got = interleaved_drain(DirectionScheduler, graph, fuzzers[0], dirs, first, max_revisits, seed)
    want = interleaved_drain(helpers.NaiveScheduler, graph, fuzzers[0], dirs, first, max_revisits, seed)
    assert got == want


class CountingAnalyzedSet(GlobalAnalyzedSet):
    def __init__(self):
        super().__init__()
        self.checks = 0

    def __contains__(self, function_id):
        self.checks += 1
        return super().__contains__(function_id)


def drain_work(cls, monkeypatch):
    """Membership checks plus heap pushes over a full drain of a 400-function
    chain with five directions of 12 core functions, and its pool entries."""
    n = 400
    records = [rec(f"f{i:03d}", [f"f{i + 1:03d}"] if i + 1 < n else [], entry=i == 0)
               for i in range(n)]
    graph = helpers.graph_from_records(records)
    rng = random.Random(4)
    analyzed = CountingAnalyzedSet()
    sched = cls(graph, FZ, analyzed, max_revisits=1)
    entries = 0
    for k in range(5):
        core = rng.sample(sorted(graph.functions), 12)
        assert sched.register_direction(Direction(
            name=f"dir{k}", entry_functions=["f000"], core_functions=core,
            risk_level="high", risk_reason="r")).accepted
        entries += n
    pushes = []
    push = directions.heappush

    def counting_push(heap, item):
        pushes.append(item)
        push(heap, item)

    with monkeypatch.context() as patch:
        patch.setattr(directions, "heappush", counting_push)
        assert len(drain(sched)) == 2 * n
    return analyzed.checks + len(pushes), entries


def test_drain_work_is_linear_in_pool_entries(monkeypatch):
    work, entries = drain_work(DirectionScheduler, monkeypatch)
    assert work <= 4 * entries
    # The same guard catches a scheduler that rescans every pool per pick.
    naive_work, _ = drain_work(helpers.NaiveScheduler, monkeypatch)
    assert naive_work > 100 * entries
