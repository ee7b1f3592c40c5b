"""Acceptance battery: ten release gates, one printed verdict line each.

Every test prints ``ACCEPTANCE Cnn <title>: PASS|FAIL`` straight to the
terminal (bypassing capture) so a plain ``pytest -v`` run shows the ten
verdicts at a glance.  Expensive scans are shared through module-scoped
fixtures; all expected values are either computed in-test by an independent
oracle or were derived once by running the engine and pinned as regression
constants (noted inline where that is the case).
"""

from __future__ import annotations

import contextlib
import copy
import itertools
import json
import random
import threading
import time
from fractions import Fraction

import pytest

import fixture_data as fd
import helpers
from conftest import Workspace
from test_directions import (
    FZ as SCHED_FZ,
    TEN_RECORDS,
    alpha,
    beta,
    drain,
    make_scheduler,
    oracle_schedule,
)
from test_spstore import canonical, family_specs, run_order
from vulnhunt.agents.registry import result_digest
from vulnhunt.callgraph import compute_depths, load_call_graph
from vulnhunt.config import Config
from vulnhunt.delta import load_delta
from vulnhunt.directions import GlobalAnalyzedSet
from vulnhunt.errors import ConfigError
from vulnhunt.fuzzing.corpus import Corpus
from vulnhunt.fuzzing.engine import FuzzLoop, reproduce
from vulnhunt.fuzzing.mutate import Mutator
from vulnhunt.fuzzing.target import SimTargetRunner, load_targets_dir
from vulnhunt.pipeline import Worker, plan_workers, run_scan
from vulnhunt.spstore import SPStore, description_similarity

# ---------------------------------------------------------------------------
# Verdict printing
# ---------------------------------------------------------------------------


@pytest.fixture
def announce(capsys):
    """Context manager printing one PASS/FAIL line per criterion."""

    @contextlib.contextmanager
    def _criterion(number: int, title: str):
        verdict = "FAIL"
        try:
            yield
            verdict = "PASS"
        finally:
            with capsys.disabled():
                print(f"\nACCEPTANCE C{number:02d} {title}: {verdict}")

    return _criterion


# ---------------------------------------------------------------------------
# Shared workspaces and scans
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ws(tmp_path_factory) -> Workspace:
    """The three-target corpus with five planted bugs, written once."""
    workspace = Workspace(tmp_path_factory.mktemp("acceptance"))
    fd.write_export(fd.E2E_EXPORT_RECORDS, workspace.export_path)
    fd.write_targets(fd.E2E_TARGET_OBJECTS, workspace.targets_dir)
    fd.write_scenario(copy.deepcopy(fd.E2E_SCENARIO), workspace.scenario_path)
    fd.write_diff(workspace.diff_path)
    return workspace


def _timed_scan(workspace: Workspace, out_name: str, **overrides):
    config = workspace.config(out_dir=str(workspace.root / out_name), **overrides)
    start = time.perf_counter()
    result = run_scan(config)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def first_scan(ws):
    return _timed_scan(ws, "out-a")


@pytest.fixture(scope="module")
def second_scan(ws):
    return _timed_scan(ws, "out-b")


@pytest.fixture(scope="module")
def parallel_scan(ws):
    return _timed_scan(ws, "out-par", worker_parallelism=2)


@pytest.fixture(scope="module")
def delta_scan(ws):
    return _timed_scan(ws, "out-delta", mode="delta", diff_path=str(ws.diff_path))


def _normalize_report(record: dict, *, cross_thread: bool = False) -> dict:
    """Strip fields that legitimately vary between runs.

    ``poc_blob_path`` embeds the per-run output directory.  Across thread
    interleavings the shared-store arrival order additionally shifts SP ids
    and lifecycle stage counters, so those are dropped too.
    """
    out = dict(record)
    out.pop("poc_blob_path", None)
    if cross_thread:
        out.pop("sp_id", None)
        out.pop("timestamps", None)
    return out


def _normalize_pov(record: dict, *, cross_thread: bool = False) -> dict:
    out = dict(record)
    out.pop("blob_path", None)
    if cross_thread:
        out.pop("sp_id", None)
    return out


def _report_blobs(result) -> list[tuple[dict, bytes]]:
    povs = {p["id"]: p for p in result.store.list("povs")}
    return [(r, bytes.fromhex(povs[r["pov_id"]]["blob_hex"])) for r in result.reports]


# ---------------------------------------------------------------------------
# C1 -- every emitted report replays its crash 10/10
# ---------------------------------------------------------------------------


def test_c01_every_report_reproduces_at_quorum(announce, ws, first_scan, delta_scan):
    with announce(1, "every emitted report replays its crash 10/10"):
        targets = load_targets_dir(ws.targets_dir)
        pairs = _report_blobs(first_scan[0]) + _report_blobs(delta_scan[0])
        assert len(pairs) == 7  # five from the full scan, two from delta

        start = time.perf_counter()
        for report, blob in pairs:
            runner = SimTargetRunner(targets[report["fuzzer"]], report["sanitizer"])
            outcome = reproduce(blob, runner, quorum=10)
            assert outcome.confirmed, f"{report['id']} did not reproduce"
            assert outcome.runs == 10
            assert outcome.reproduced_count == 10
            assert set(outcome.crash_locations) == {report["function"]}
            assert report["reproduced_count"] == 10
        assert time.perf_counter() - start < 30.0


# ---------------------------------------------------------------------------
# C2 -- the three-target scan finds all five planted bugs, deterministically
# ---------------------------------------------------------------------------


def test_c02_full_scan_finds_all_planted_bugs(announce, first_scan, second_scan):
    with announce(2, "three-target scan finds the five planted bugs deterministically"):
        result_a, elapsed_a = first_scan
        result_b, elapsed_b = second_scan
        assert elapsed_a < 60.0 and elapsed_b < 60.0

        assert len(result_a.reports) == 5
        methods = {r["function"]: r["discovery_method"] for r in result_a.reports}
        assert methods == fd.E2E_EXPECTED_METHODS
        assert sorted(methods.values()) == ["G", "G", "G", "S", "S"]
        assert [t.state for t in result_a.tasks] == ["done"] * 3

        # Bitwise determinism at a fixed seed, modulo output paths.
        for collection, normalize in (("reports", _normalize_report), ("povs", _normalize_pov)):
            got_a = [normalize(r) for r in result_a.store.list(collection)]
            got_b = [normalize(r) for r in result_b.store.list(collection)]
            assert got_a == got_b
        assert result_a.spstore.counts() == result_b.spstore.counts()
        blobs_a = [blob for _, blob in _report_blobs(result_a)]
        blobs_b = [blob for _, blob in _report_blobs(result_b)]
        assert blobs_a == blobs_b


# ---------------------------------------------------------------------------
# C3 -- depth computation equals an independent BFS on random graphs
# ---------------------------------------------------------------------------


def test_c03_depths_match_independent_bfs(announce):
    with announce(3, "depth computation matches an independent BFS on 100 random graphs"):
        rng = random.Random(20260817)
        for _ in range(100):
            records, fuzzers = helpers.random_graph_records(rng)
            graph = helpers.graph_from_records(records)
            for fuzzer in fuzzers:
                got = compute_depths(graph, fuzzer)
                want = helpers.naive_depths(records, fuzzer)
                assert got == want


# ---------------------------------------------------------------------------
# C4 -- direction scheduling follows the documented priority law
# ---------------------------------------------------------------------------


def test_c04_scheduling_priority_law(announce):
    with announce(4, "direction scheduling follows the priority law"):
        picks = drain(make_scheduler())
        # Hand-computed sequence on the ten-function, two-direction fixture.
        assert picks == [
            ("e", 1), ("a", 1), ("b", 1), ("c", 1),
            ("d", 3), ("f", 3), ("g", 3), ("h", 3), ("j", 3), ("k", 3),
            ("e", 2), ("a", 2), ("b", 2), ("c", 2),
            ("d", 4), ("f", 4), ("g", 4), ("h", 4), ("j", 4), ("k", 4),
        ]
        assert picks == oracle_schedule([alpha(), beta()], TEN_RECORDS, SCHED_FZ)

        # The law itself: once any general-pool (priority 3) pick happens,
        # no unanalyzed core candidate (priority 1) can still exist.
        first_general = next(i for i, (_, pr) in enumerate(picks) if pr == 3)
        assert all(pr != 1 for _, pr in picks[first_general:])

        # Same law when another worker pre-analyzed a core function.
        analyzed = GlobalAnalyzedSet()
        assert analyzed.add("c")
        cross = drain(make_scheduler(analyzed=analyzed))
        assert cross == oracle_schedule(
            [alpha(), beta()], TEN_RECORDS, SCHED_FZ, analyzed0={"c"}
        )
        idx = cross.index(("c", 2))
        assert all(pr == 1 for _, pr in cross[:idx])
        assert all(pr >= 2 for _, pr in cross[idx:])


# ---------------------------------------------------------------------------
# C5 -- dedup is order-independent and merges by element-wise max score
# ---------------------------------------------------------------------------


def _canonical_full(store: SPStore) -> set:
    """Canonical content including the merged description."""
    return {
        (sp.function_id, sp.vuln_type, sp.score, frozenset(sp.sources), sp.description)
        for sp in store.all()
    }


def test_c05_dedup_order_independence_at_scale(announce):
    with announce(5, "dedup of 1,000 shuffled candidates is order-independent"):
        specs = family_specs(n_families=250, members=4)
        assert len(specs) == 1000

        base = list(range(len(specs)))
        rng = random.Random(20260817)
        orders = [base]
        for _ in range(3):
            shuffled = base[:]
            rng.shuffle(shuffled)
            orders.append(shuffled)

        stores = [run_order(specs, order) for order in orders]
        reference = stores[0]
        for other in stores[1:]:
            assert _canonical_full(other) == _canonical_full(reference)
            assert canonical(other) == canonical(reference)
            assert other.counts() == reference.counts()
        assert reference.counts() == {
            "sp_total": 1000,
            "sp_deduped": 250,
            "tp_v": 0,
            "fp": 0,
            "unverified": 250,
        }

        # Merged scores are the element-wise maxima of each family.
        family_scores: dict[int, list[float]] = {}
        for index, spec in enumerate(specs):
            family_scores.setdefault(index // 4, []).append(spec["score"])
        want = sorted(max(scores) for scores in family_scores.values())
        got = sorted(sp.score for sp in reference.all())
        assert got == want

        # Similarity threshold is inclusive at 0.60 and exclusive below it.
        shared59 = ["calls"] + [f"s{i:02d}" for i in range(58)]
        a59 = " ".join(shared59 + [f"a{i:02d}" for i in range(21)])
        b59 = " ".join(shared59 + [f"b{i:02d}" for i in range(20)])
        assert description_similarity(a59, b59) == pytest.approx(0.59)
        shared60 = ["calls"] + [f"s{i:02d}" for i in range(59)]
        a60 = " ".join(shared60 + [f"a{i:02d}" for i in range(20)])
        b60 = " ".join(shared60 + [f"b{i:02d}" for i in range(20)])
        assert description_similarity(a60, b60) == pytest.approx(0.60)

        def _pair_store(first: str, second: str) -> SPStore:
            s = SPStore(known_functions={"parse"})
            for text in (first, second):
                s.deduplicate(
                    s.build_candidate(
                        "parse", ("fz", "address"), text, "heap-buffer-overflow", 0.5
                    )
                )
            return s

        assert _pair_store(a59, b59).counts()["sp_deduped"] == 2  # 0.59 stays apart
        assert _pair_store(a60, b60).counts()["sp_deduped"] == 1  # 0.60 merges


# ---------------------------------------------------------------------------
# C6 -- the poc loop honors attempt caps, trace unlock, and token budgets
# ---------------------------------------------------------------------------

_GOOD_RECIPE = {"instructions": [{"op": "literal", "hex": "00"}], "variants": [{}, {}, {}]}
_BAD_RECIPE = {"instructions": [{"op": "literal", "hex": "00"}], "variants": [{}, {}, {}, {}]}


def _poc_probe_steps() -> list[dict]:
    """45 creation attempts around three trace probes (at attempts 1, 15, 16)."""
    create = {"name": "create_pov", "args": {"recipe": _GOOD_RECIPE}}
    trace = {"name": "trace_pov", "args": {"variant": 0}}
    return [
        {"tool_calls": [trace]},
        {"tool_calls": [{"name": "create_pov", "args": {"recipe": _BAD_RECIPE}}]},
        {"tool_calls": [create] * 13},
        {"tool_calls": [trace]},
        {"tool_calls": [create]},
        {"tool_calls": [trace]},
        {"tool_calls": [create] * 30},
        {"text": "no working proof found; giving up"},
    ]


_MAGIC_SCENARIO = {
    "version": 1,
    "agents": {
        "sp-generator": [
            {
                "match": "function: m_handler",
                "steps": [
                    {
                        "tool_calls": [
                            {
                                "name": "create_suspicious_point",
                                "args": {
                                    "function": "m_handler",
                                    "description": (
                                        "length tag is copied into a fixed "
                                        "8-byte buffer without a bounds check"
                                    ),
                                    "vuln_type": "heap-buffer-overflow",
                                    "score": 0.9,
                                },
                            }
                        ]
                    },
                    {"text": "one candidate recorded"},
                ],
            },
            {"match": "", "reusable": True, "steps": [{"text": "nothing suspicious"}]},
        ],
        "sp-verifier": [
            {
                "match": "function: m_handler",
                "steps": [
                    {
                        "tool_calls": [
                            {
                                "name": "update_suspicious_point",
                                "args": {
                                    "verdict": "tp",
                                    "poc_guidance": "first byte must equal the magic tag",
                                },
                            }
                        ]
                    },
                    {"text": "confirmed"},
                ],
            }
        ],
        "poc-generator": [
            {"match": "function: m_handler", "steps": _poc_probe_steps()}
        ],
    },
}


def test_c06_poc_loop_budgets(announce, tmp_path, monkeypatch, ws):
    with announce(6, "poc loop honors attempt cap, trace unlock, and token budgets"):
        config = Config()
        assert config.max_poc_attempts == 40
        assert config.variants_per_attempt == 3
        assert config.trace_unlock_attempt == 16

        magic = Workspace(tmp_path)
        fd.write_export(fd.MAGIC_EXPORT_RECORDS, magic.export_path)
        fd.write_targets([fd.MAGIC_TARGET], magic.targets_dir)
        fd.write_scenario(copy.deepcopy(_MAGIC_SCENARIO), magic.scenario_path)

        captured: dict[str, list] = {}
        original = Worker._run_role

        def spy(self, role, seed_context, **kwargs):
            outcome = original(self, role, seed_context, **kwargs)
            captured.setdefault(role, []).append(outcome)
            return outcome

        monkeypatch.setattr(Worker, "_run_role", spy)
        result = run_scan(
            magic.config(global_fuzz_iterations=0, sp_fuzz_iterations=0)
        )
        assert result.reports == []  # the probe blobs never hit the magic byte
        assert [t.state for t in result.tasks] == ["done"]

        (poc_outcome,) = captured["poc-generator"]
        log = poc_outcome.tool_log
        assert [e.name for e in log] == (
            ["trace_pov"]
            + ["create_pov"] * 14
            + ["trace_pov", "create_pov", "trace_pov"]
            + ["create_pov"] * 30
        )

        # The trace tool rejects before attempt 16 and accepts at 16.
        locked = "tool locked: trace_pov unlocks at attempt 16 (currently at attempt {})"
        assert log[0].digest == result_digest(locked.format(1))
        assert log[15].digest == result_digest(locked.format(15))
        accepted = (
            "executed path:\n"
            "m_entry\n"
            "static route to m_handler: m_entry -> m_handler\n"
            "divergence: execution never reached m_handler"
        )
        assert log[17].digest == result_digest(accepted)

        # A malformed recipe burns an attempt without executing anything.
        recipe_error = {
            "success": False,
            "attempt": 1,
            "error": "recipe error: recipe must carry exactly 3 variants, got 4",
        }
        assert log[1].digest == result_digest(
            json.dumps(recipe_error, sort_keys=True, default=str)
        )

        # Exactly 40 creation attempts execute; the last five calls are refused.
        creates = [e for e in log if e.name == "create_pov"]
        assert [e.ok for e in creates] == [True] * 40 + [False] * 5
        refusal = result_digest("tool error: 'create_pov' call limit (40) reached; refused")
        assert all(e.digest == refusal for e in creates[40:])

        # Dollar budgets convert to token ceilings exactly (checked in
        # exact fraction arithmetic against the priciest default price).
        per_token = Fraction("0.01") / 1000
        assert Config(mode="full").token_ceiling == Fraction(400) / per_token == 40_000_000
        assert (
            Config(mode="delta", diff_path="x").token_ceiling
            == Fraction(150) / per_token
            == 15_000_000
        )

        # A crossed ceiling trips within one agent turn on every worker.
        tiny = ws.config(budget_dollars=0.0001, out_dir=str(ws.root / "out-tiny"))
        assert tiny.token_ceiling == 10
        tripped = run_scan(tiny)
        for task in tripped.tasks:
            assert task.state == "timeout"
            assert task.metrics.agent_runs == 1
            assert task.metrics.tokens >= 10


# ---------------------------------------------------------------------------
# C7 -- delta scans analyze exactly the reachable changed functions
# ---------------------------------------------------------------------------


def test_c07_delta_scoping(announce, ws, monkeypatch):
    with announce(7, "delta scan analyzes exactly the reachable changed functions"):
        requests = helpers.capture_requests(monkeypatch)
        result, _ = _timed_scan(ws, "out-delta-c07", mode="delta", diff_path=str(ws.diff_path))
        runs = helpers.sp_generator_runs(requests)
        graph = load_call_graph(ws.export_path)
        delta = load_delta(ws.diff_path.read_text(encoding="utf-8"), graph)
        assert set(delta.changed_function_ids) == {
            "img_apply_palette",
            "img_read_chunk",
            "img_debug_dump",
        }

        img = next(w for w in result.workers if w.task.id == "img_fuzzer--address")
        # img_debug_dump is changed but unreachable from the fuzzer entry,
        # so exactly the two reachable functions get analyzed, in diff order.
        assert "img_debug_dump" not in img.subgraph.functions
        # Every sp-generator run is the img worker's.
        assert {run.task_id for run in runs} == {img.task.id}
        assert [run.function_id for run in runs] == [
            "img_apply_palette",
            "img_read_chunk",
        ]
        assert [run.candidates for run in runs] == [1, 0]
        for run in runs:
            assert fd.DELTA_COMMIT_MESSAGE in run.context

        for worker in result.workers:
            if worker is img:
                continue
            assert "no changed functions are reachable by this fuzzer" in worker.task.warnings

        methods = {r["function"]: r["discovery_method"] for r in result.reports}
        assert methods == {"img_apply_palette": "S", "img_decompress": "G"}


# ---------------------------------------------------------------------------
# C8 -- background fuzzing finds the byte-gated crash at a pinned iteration
# ---------------------------------------------------------------------------


def test_c08_background_fuzzer_regression_constants(announce, tmp_path):
    with announce(8, "seeded background fuzzing finds the gated crash at a pinned iteration"):
        targets_dir = tmp_path / "targets"
        fd.write_targets([fd.MAGIC_TARGET], targets_dir)
        target = load_targets_dir(targets_dir)["magic_fuzzer"]

        def global_run(corpus):
            runner = SimTargetRunner(target, "address")
            loop = FuzzLoop(runner, corpus, Mutator(), random.Random(42), "global", 5000)
            return loop.run(5000)

        corpus = Corpus()
        crashes = global_run(corpus)
        # Regression constants pinned from the first derivation run.
        assert [c.iteration for c in crashes] == [76, 129, 581, 1084, 1146, 1578, 3198, 4467]
        assert crashes[0].iteration == 76
        assert {c.blob for c in crashes} == {b"\x7f"}
        for crash in crashes:
            assert crash.result.crash.location == "m_handler"
            assert crash.result.crash.vuln_type == "heap-buffer-overflow"

        coverages = [s.coverage for s in corpus.seeds]
        assert len(coverages) == len(set(coverages))

        rerun = global_run(Corpus())
        assert [(c.iteration, c.blob) for c in rerun] == [
            (c.iteration, c.blob) for c in crashes
        ]


# ---------------------------------------------------------------------------
# C9 -- task planning and two-worker concurrency
# ---------------------------------------------------------------------------


def test_c09_planning_and_concurrency(announce, ws, first_scan, parallel_scan):
    with announce(9, "fuzzer x sanitizer planning and two-worker concurrency are sound"):
        graph = load_call_graph(ws.export_path)
        config = ws.config(
            fuzzers=["img_fuzzer", "meta_fuzzer"],
            sanitizers=["address", "memory", "undefined"],
        )
        tasks = plan_workers(graph, config)
        assert [t.id for t in tasks] == [
            "img_fuzzer--address",
            "img_fuzzer--memory",
            "img_fuzzer--undefined",
            "meta_fuzzer--address",
            "meta_fuzzer--memory",
            "meta_fuzzer--undefined",
        ]

        keep = lambda fuzzer, sanitizer: (fuzzer, sanitizer) == ("meta_fuzzer", "memory")
        filtered = plan_workers(graph, config, pair_filter=keep)
        assert [t.id for t in filtered] == ["meta_fuzzer--memory"]
        with pytest.raises(ConfigError):
            plan_workers(graph, config, pair_filter=lambda *_: False)

        # Two concurrent workers: same findings as the serial run.
        serial, _ = first_scan
        parallel, _ = parallel_scan
        assert [t.state for t in parallel.tasks] == ["done"] * 3
        norm = lambda rs: [_normalize_report(r, cross_thread=True) for r in rs]
        assert norm(parallel.reports) == norm(serial.reports)
        assert parallel.spstore.counts() == serial.spstore.counts()
        parallel.spstore.check_invariants()

        # Per-worker corpora never share a coverage set.
        coverage_sets = [
            {s.coverage for s in w.corpus.seeds} for w in parallel.workers
        ]
        assert all(covs for covs in coverage_sets)
        for a, b in itertools.combinations(coverage_sets, 2):
            assert not (a & b)

        # No lost updates: four threads push 1,000 candidates into one store
        # and the result matches a single-threaded ingest of the same specs.
        specs = family_specs(n_families=50, members=5)
        assert len(specs) == 250
        shared = SPStore(known_functions={"parse", "decode", "emit"})

        def ingest() -> None:
            for spec in specs:
                shared.deduplicate(
                    shared.build_candidate(
                        spec["function"],
                        spec["source"],
                        spec["description"],
                        spec["vuln_type"],
                        spec["score"],
                    )
                )

        threads = [threading.Thread(target=ingest) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        shared.check_invariants()
        assert shared.counts()["sp_total"] == 1000
        assert canonical(shared) == canonical(run_order(specs, range(len(specs))))


# ---------------------------------------------------------------------------
# C10 -- the suspicious-point accounting identity holds in every snapshot
# ---------------------------------------------------------------------------


def _assert_counts_identity(counts: dict) -> None:
    assert counts["sp_total"] >= counts["sp_deduped"]
    assert counts["sp_deduped"] == counts["tp_v"] + counts["fp"] + counts["unverified"]


def test_c10_accounting_identity(announce, first_scan, second_scan, parallel_scan, delta_scan):
    with announce(10, "suspicious-point accounting identity holds in every snapshot"):
        # Completed scans: the identity holds globally, per task, and in the
        # persisted records of every scan this module ran.
        for result, _ in (first_scan, second_scan, parallel_scan, delta_scan):
            _assert_counts_identity(result.spstore.counts())
            totals = result.store.get("metrics", "run")
            _assert_counts_identity(totals)
            assert totals["sp_total"] >= totals["sp_deduped"]
            for task in result.tasks:
                metrics = task.metrics
                assert metrics.sp_total >= metrics.sp_deduped
                assert metrics.sp_deduped == metrics.tp_v + metrics.fp + metrics.unverified
            for record in result.store.list("tasks"):
                m = record["metrics"]
                assert m["sp_total"] >= m["sp_deduped"]
                assert m["sp_deduped"] == m["tp_v"] + m["fp"] + m["unverified"]

        # Live snapshots: a sampler polls the store while four writer threads
        # race 1,000 mutations; every observed snapshot satisfies the identity
        # and the candidate counter never runs backwards.
        specs = family_specs(n_families=50, members=5)
        live = SPStore(known_functions={"parse", "decode", "emit"})
        stop = threading.Event()
        samples: list[dict] = []

        def sample() -> None:
            while not stop.is_set():
                samples.append(live.counts())
            samples.append(live.counts())

        def ingest() -> None:
            for spec in specs:
                live.deduplicate(
                    live.build_candidate(
                        spec["function"],
                        spec["source"],
                        spec["description"],
                        spec["vuln_type"],
                        spec["score"],
                    )
                )

        sampler = threading.Thread(target=sample)
        writers = [threading.Thread(target=ingest) for _ in range(4)]
        sampler.start()
        for t in writers:
            t.start()
        for t in writers:
            t.join()
        stop.set()
        sampler.join()

        assert samples[-1]["sp_total"] == 1000
        previous_total = 0
        for counts in samples:
            _assert_counts_identity(counts)
            assert counts["sp_total"] >= previous_total
            previous_total = counts["sp_total"]
