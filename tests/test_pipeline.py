"""Pipeline tests: worker planning, the end-to-end scan, delta scoping, budgets."""

from __future__ import annotations

import copy
import hashlib
import json
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

import fixture_data as fd
import vulnhunt.pipeline as pipeline
from conftest import Workspace
from helpers import (
    capture_requests,
    export_lines,
    naive_node_universe,
    naive_path,
    naive_reachable,
    sp_generator_runs,
)
from vulnhunt.agents import (
    ROLE_TIERS,
    ProviderError,
    ScriptedProvider,
    load_scenario,
    render_prompt,
)
from vulnhunt.callgraph import CallGraph, FunctionRecord, load_call_graph
from vulnhunt.config import Config
from vulnhunt.directions import GlobalAnalyzedSet
from vulnhunt.errors import ConfigError, UnknownFuzzerError
from vulnhunt.fuzzing import CrashSpec, ExecutionResult, FuzzLoop, SimTargetRunner
from vulnhunt.pipeline import (
    _build_pool,
    plan_workers,
    run_scan,
    status_snapshot,
)
from vulnhunt.reporting import REPORT_FIELDS
from vulnhunt.spstore import SPStore
from vulnhunt.store import MemoryStore


@pytest.fixture(scope="module")
def scan_result(tmp_path_factory):
    """One full scan of the three-target corpus, shared read-only."""
    ws = Workspace(tmp_path_factory.mktemp("e2e"))
    fd.write_export(fd.E2E_EXPORT_RECORDS, ws.export_path)
    fd.write_targets(fd.E2E_TARGET_OBJECTS, ws.targets_dir)
    fd.write_scenario(copy.deepcopy(fd.E2E_SCENARIO), ws.scenario_path)
    return run_scan(ws.config())


# ===== worker planning =====


class TestPlanWorkers:
    def _graph(self, ws: Workspace) -> CallGraph:
        return load_call_graph(ws.export_path)

    def test_cross_product(self, e2e_workspace):
        graph = self._graph(e2e_workspace)
        config = e2e_workspace.config(sanitizers=["address", "undefined"])
        tasks = plan_workers(graph, config)
        assert [t.id for t in tasks] == [
            "img_fuzzer--address",
            "img_fuzzer--undefined",
            "meta_fuzzer--address",
            "meta_fuzzer--undefined",
            "net_fuzzer--address",
            "net_fuzzer--undefined",
        ]
        assert all(t.state == "pending" and not t.degenerate for t in tasks)

    def test_defaults_to_every_graph_fuzzer(self, e2e_workspace):
        tasks = plan_workers(self._graph(e2e_workspace), e2e_workspace.config())
        assert [t.fuzzer for t in tasks] == ["img_fuzzer", "meta_fuzzer", "net_fuzzer"]

    def test_fuzzer_subset(self, e2e_workspace):
        config = e2e_workspace.config(fuzzers=["net_fuzzer"])
        tasks = plan_workers(self._graph(e2e_workspace), config)
        assert [t.id for t in tasks] == ["net_fuzzer--address"]

    def test_unknown_fuzzer_rejected(self, e2e_workspace):
        config = e2e_workspace.config(fuzzers=["ghost"])
        with pytest.raises(UnknownFuzzerError, match="ghost"):
            plan_workers(self._graph(e2e_workspace), config)

    def test_pair_filter(self, e2e_workspace):
        graph = self._graph(e2e_workspace)
        config = e2e_workspace.config(sanitizers=["address", "undefined"])
        keep = lambda fz, san: (fz, san) == ("meta_fuzzer", "undefined")  # noqa: E731
        tasks = plan_workers(graph, config, pair_filter=keep)
        assert [t.id for t in tasks] == ["meta_fuzzer--undefined"]

    def test_filtering_everything_is_an_error(self, e2e_workspace):
        with pytest.raises(ConfigError, match="no worker tasks remain"):
            plan_workers(
                self._graph(e2e_workspace),
                e2e_workspace.config(),
                pair_filter=lambda fz, san: False,
            )

    def test_empty_subgraph_is_flagged_degenerate(self):
        rec = FunctionRecord(id="f", name="f", file_path="f.c", source_text="void f() {}")
        graph = CallGraph(functions={"f": rec}, fuzzer_entries={"lonely": []})
        tasks = plan_workers(graph, Config(fuzzers=["lonely"]))
        assert tasks[0].degenerate
        assert any("no functions reachable" in w for w in tasks[0].warnings)


# ===== end-to-end full scan =====


class TestEndToEnd:
    def test_five_reports_with_expected_methods(self, scan_result):
        assert len(scan_result.reports) == 5
        observed = {r["function"]: r["discovery_method"] for r in scan_result.reports}
        assert observed == fd.E2E_EXPECTED_METHODS

    def test_all_tasks_finish_clean(self, scan_result):
        assert [t.state for t in scan_result.tasks] == ["done"] * 3
        assert all(not t.warnings for t in scan_result.tasks)

    def test_crafted_poc_attempt_counts(self, scan_result):
        by_function = {r["function"]: r for r in scan_result.reports}
        assert by_function["img_apply_palette"]["attempts"] == 1
        assert by_function["meta_parse_exif"]["attempts"] == 2
        for function, report in by_function.items():
            if report["discovery_method"] == "G":
                assert report["attempts"] == 0
            assert report["reproduced_count"] == 10

    def test_report_records_carry_full_schema(self, scan_result):
        for report in scan_result.reports:
            assert set(REPORT_FIELDS) <= set(report)
            assert {"id", "pov_id"} <= set(report)
            assert report["timestamps"].keys() == {"created", "verified", "poc"}

    def test_counts_identity_holds(self, scan_result):
        scan_result.spstore.check_invariants()
        counts = scan_result.spstore.counts()
        assert counts["sp_deduped"] == counts["tp_v"] + counts["fp"] + counts["unverified"]
        assert sum(t.metrics.sp_total for t in scan_result.tasks) >= counts["sp_deduped"]
        for task in scan_result.tasks:
            m = task.metrics
            assert m.sp_total >= m.sp_deduped
            assert m.sp_deduped == m.tp_v + m.fp + m.unverified

    def test_store_holds_all_artifacts(self, scan_result):
        store = scan_result.store
        assert len(store.list("tasks")) == 3
        assert len(store.list("povs")) == 5
        assert len(store.list("sps")) == 5
        assert store.list("reports") == scan_result.reports
        run = store.get("metrics", "run")
        assert run["report_count"] == 5 and run["pov_count"] == 5
        assert run["tasks"] == 3 and run["mode"] == "full"

    def test_pov_blobs_land_on_disk(self, scan_result):
        import pathlib

        for pov in scan_result.store.list("povs"):
            path = pathlib.Path(pov["blob_path"])
            assert path.is_file()
            assert path.read_bytes() == bytes.fromhex(pov["blob_hex"])

    def test_fp_seed_path_feeds_the_fuzzer(self, scan_result):
        meta = next(w for w in scan_result.workers if w.task.fuzzer == "meta_fuzzer")
        assert any(seed.origin.startswith("fp:sp-") for seed in meta.corpus.seeds)
        checksum = next(
            r for r in scan_result.reports if r["function"] == "meta_checksum_blk"
        )
        sp = scan_result.spstore.get(checksum["sp_id"])
        assert sp.verdict == "fp" and sp.bypass

    def test_uncredited_crash_gets_synthetic_sp(self, scan_result):
        ping = next(r for r in scan_result.reports if r["function"] == "net_handle_ping")
        sp = scan_result.spstore.get(ping["sp_id"])
        assert not sp.is_verified
        assert sp.bypass
        assert "background fuzzing crashed inside net_handle_ping()" in sp.description

    def test_repeat_crashes_counted_not_rereported(self, scan_result):
        for worker in scan_result.workers:
            assert len(worker.crash_repeats) == worker.task.metrics.report_count
            assert all(count >= 1 for count in worker.crash_repeats.values())
        net = next(w for w in scan_result.workers if w.task.fuzzer == "net_fuzzer")
        (count,) = net.crash_repeats.values()
        assert count > 1

    def test_status_snapshot_renders(self, scan_result):
        snap = status_snapshot(scan_result.store)
        lines = snap.splitlines()
        assert lines[0].startswith("task")
        for task_id in ("img_fuzzer--address", "meta_fuzzer--address", "net_fuzzer--address"):
            assert any(line.startswith(task_id) for line in lines)
        assert any(line.startswith("run totals:") and "report_count=5" in line for line in lines)

    def test_status_snapshot_empty_store(self):
        assert "(no tasks recorded)" in status_snapshot(MemoryStore())


# ===== golden outputs =====


def _scan_digest(ws: Workspace, monkeypatch, **overrides) -> str:
    """SHA-256 over everything a scan writes and every request the models see.

    Covers reports, PoVs, points, task records (less ``wall_clock_s``), run
    totals, and per provider request its role, run id, tool schemas and
    messages.  The workspace path is masked so the digest is
    location-independent.
    """
    requests = []
    complete = ScriptedProvider.complete

    def capture(self, request):
        requests.append({
            "agent_role": request.agent_role,
            "run_id": request.run_id,
            "tools": request.tools,
            "messages": [
                [m.role, m.content, m.tool_call_id,
                 [[tc.name, tc.arguments, tc.call_id] for tc in m.tool_calls]]
                for m in request.messages
            ],
        })
        return complete(self, request)

    monkeypatch.setattr(ScriptedProvider, "complete", capture)
    result = run_scan(ws.config(**overrides))
    tasks = result.store.list("tasks")
    for task in tasks:
        del task["metrics"]["wall_clock_s"]
    payload = {
        "reports": result.store.list("reports"),
        "povs": result.store.list("povs"),
        "sps": result.store.list("sps"),
        "tasks": tasks,
        "run": result.store.get("metrics", "run"),
        "requests": requests,
    }
    text = json.dumps(payload, sort_keys=True).replace(str(ws.root), "<ws>")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestGoldenOutputs:
    """Seed-0 scans hash to digests recorded before the reachable-view and
    code-tool refactor; any change to outputs or model requests shows here."""

    def test_full_scan_digest(self, e2e_workspace, monkeypatch):
        assert _scan_digest(e2e_workspace, monkeypatch) == GOLDEN_FULL_SCAN

    def test_delta_scan_digest(self, e2e_workspace, monkeypatch):
        digest = _scan_digest(
            e2e_workspace, monkeypatch, mode="delta", diff_path=str(e2e_workspace.diff_path)
        )
        assert digest == GOLDEN_DELTA_SCAN


GOLDEN_FULL_SCAN = "1a59408d12040f33a4cf019896433c589f3efead3023b50862678ff4894dda20"
GOLDEN_DELTA_SCAN = "32bbbd6635d43f90d012bd8839f7024f801eb1d445e09e50926db10e7a6a628b"


def test_executions_count_every_target_run(magic_workspace, monkeypatch):
    """With no seeds the global loop cold-starts from b"", and that run is an
    execution like any other."""
    blobs: list[bytes] = []
    run = SimTargetRunner.run

    def counting(self, blob):
        blobs.append(blob)
        return run(self, blob)

    monkeypatch.setattr(SimTargetRunner, "run", counting)
    result = run_scan(magic_workspace.config(scenario_path="", global_fuzz_iterations=300))
    assert blobs[0] == b""
    assert sum(t.metrics.executions for t in result.tasks) == len(blobs)


def test_sp_background_loop_seeds_from_failed_attempts(e2e_workspace, monkeypatch):
    """A failed PoC attempt starts a per-point loop seeded with the failed
    blobs; each seeding run is an execution of the task."""
    runs: dict[int, int] = {}  # runner id -> SimTargetRunner.run calls
    run = SimTargetRunner.run

    def counting(self, blob):
        runs[id(self)] = runs.get(id(self), 0) + 1
        return run(self, blob)

    first_seeds = []
    loop_run = FuzzLoop.run

    def capture(loop, iterations):
        if loop.origin.startswith("sp-background:") and loop.iterations_done == 0:
            first_seeds.append((loop.origin, [s.origin for s in loop.corpus.seeds]))
        return loop_run(loop, iterations)

    monkeypatch.setattr(SimTargetRunner, "run", counting)
    monkeypatch.setattr(FuzzLoop, "run", capture)
    result = run_scan(e2e_workspace.config())
    assert first_seeds
    for origin, seed_origins in first_seeds:
        result.spstore.get(origin.removeprefix("sp-background:"))  # a known point
        assert seed_origins and set(seed_origins) == {"poc-attempt"}
    for worker in result.workers:
        assert worker.task.metrics.executions == runs[id(worker.runner)]


def test_a_runner_walks_its_trie_once_per_distinct_blob(e2e_workspace, monkeypatch):
    """At seed 0 on the fixture, a runner calls its compiled walk once per
    distinct blob it runs (no runner's table fills its budget), every run
    is still one of the task's executions, every blob the table holds maps
    to the one result of the path it took, and no worker keeps its table
    once the scan is over."""
    blobs: dict[int, set] = {}  # runner id -> distinct blobs it ran
    walks: Counter = Counter()  # runner id -> calls of its compiled walk
    held: Counter = Counter()  # runner id -> table entries checked before the drop
    run, init, drop = SimTargetRunner.run, SimTargetRunner.__init__, SimTargetRunner.drop_memo

    def recording(self, blob):
        blobs.setdefault(id(self), set()).add(blob)
        return run(self, blob)

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        match = self._match

        def counting(blob):
            walks[id(self)] += 1
            return match(blob)

        self._match = counting

    def checking_drop(self):
        for blob, result in self._memo.items():
            mask = sum(1 << i for i in naive_path(self.target, blob, self.sanitizer))
            assert result is self._paths[mask]
        held[id(self)] += len(self._memo)
        drop(self)

    monkeypatch.setattr(SimTargetRunner, "run", recording)
    monkeypatch.setattr(SimTargetRunner, "__init__", counting_init)
    monkeypatch.setattr(SimTargetRunner, "drop_memo", checking_drop)
    result = run_scan(e2e_workspace.config())
    assert sum(task.metrics.executions for task in result.tasks) == 60_293
    for worker in result.workers:
        runner = worker.runner
        assert walks[id(runner)] == len(blobs[id(runner)]) == held[id(runner)]
        assert not runner._memo and runner._memo_bytes == 0
    assert sum(walks[id(w.runner)] for w in result.workers) == 18_106


def test_oversize_agent_seed_is_skipped(e2e_workspace, monkeypatch):
    """An agent seed longer than ``max_blob`` is skipped with a warning and
    runs nowhere; the scan goes on."""
    scenario = copy.deepcopy(fd.E2E_SCENARIO)
    scenario["agents"]["seed-generator"] = [{
        "match": "",
        "reusable": True,
        "steps": [
            {"tool_calls": [{"name": "add_seed", "args": {"hex": "41" * 64}}]},
            {"text": "one seed"},
        ],
    }]
    seen = []
    run = SimTargetRunner.run

    def recording(self, blob):
        seen.append(blob)
        return run(self, blob)

    monkeypatch.setattr(SimTargetRunner, "run", recording)
    result = run_scan(e2e_workspace.config(max_blob=32), scenario=scenario)
    assert b"A" * 64 not in seen
    for task in result.tasks:
        assert task.state == "done"
        assert any("seed of 64 bytes" in w and "skipped" in w for w in task.warnings)


@pytest.mark.parametrize("max_blob, told", [
    (32, "variant 1: skipped (40 bytes exceeds max_blob 32)"),
    (16, "every variant exceeds max_blob 16 (20 bytes, 40 bytes, 70 bytes); nothing ran"),
], ids=["some-fit", "none-fit"])
def test_oversize_poc_variants_are_skipped_and_the_rest_counted(e2e_workspace, monkeypatch,
                                                                max_blob, told):
    """A PoC variant longer than ``max_blob`` is skipped before anything
    runs and the agent is told so; every completed target run of a task is
    one of its ``executions``."""
    runs: dict[int, int] = {}  # runner id -> completed SimTargetRunner.run calls
    run = SimTargetRunner.run

    def counting(self, blob):
        result = run(self, blob)
        runs[id(self)] = runs.get(id(self), 0) + 1
        return result

    monkeypatch.setattr(SimTargetRunner, "run", counting)
    requests = capture_requests(monkeypatch)
    result = run_scan(e2e_workspace.config(max_blob=max_blob))
    assert any(told in m.content for r in requests for m in r.messages if m.role == "tool")
    for worker in result.workers:
        assert worker.task.metrics.executions == runs[id(worker.runner)]


# ===== agent stage failures =====

_T1_DOWN = "model chain exhausted: scripted-t1: unavailable"
_T2_DOWN = "model chain exhausted: scripted-t2: unavailable"


def _seed_field(seed: str, prefix: str) -> str:
    """The first word after ``prefix`` at the start of a seed-context line."""
    line = next(line for line in seed.splitlines() if line.startswith(prefix))
    return line[len(prefix):].split()[0].rstrip(":")


def _expected_stage_warnings(role: str, seeds: list[str]) -> list[str]:
    """The warnings a task records when every run of ``role`` it started
    (one seed context each, in order) found its model chain exhausted."""
    if role == "direction-generator":
        fallback = "no exploration directions registered; falling back to the whole subgraph"
        return [w for _ in seeds for w in (f"direction generation failed: {_T1_DOWN}", fallback)]
    if role == "seed-generator":
        return [f"seed generation failed: {_T2_DOWN}" for _ in seeds]
    if role == "sp-generator":
        return [f"sp generation failed for {_seed_field(s, 'function: ')}: {_T2_DOWN}"
                for s in seeds]
    if role == "poc-generator":
        return [f"poc generation failed for {_seed_field(s, 'confirmed suspicious point ')}: "
                f"{_T2_DOWN}" for s in seeds]
    if role == "sp-verifier":
        # Each point is retried once; the second failure is the warning.
        ids = [_seed_field(s, "verify suspicious point ") for s in seeds]
        assert all(count == 2 for count in Counter(ids).values())
        return [f"verification failed twice for {sp_id}; left unverified: {_T1_DOWN}"
                for i, sp_id in enumerate(ids) if sp_id in ids[:i]]
    assert role == "report"  # falls back to the template silently
    return []


@pytest.mark.parametrize("role", [
    "direction-generator", "seed-generator", "sp-generator", "sp-verifier", "poc-generator",
    "report",
])
def test_a_stage_without_a_model_warns_and_the_task_finishes(e2e_workspace, monkeypatch, role):
    """When every model for one role fails, each run of that stage leaves
    its warning (the verifier retries first, the report uses its template)
    and every task still ends ``done``."""
    scenario = copy.deepcopy(fd.E2E_SCENARIO)
    scenario["agents"]["seed-generator"] = [{"match": "", "reusable": True, "steps": [
        {"tool_calls": [{"name": "add_seed", "args": {"text": "IMGX"}}]},
        {"text": "one seed"},
    ]}]
    scenario["agents"]["report"] = [
        {"match": "", "reusable": True, "steps": [{"text": "scripted summary"}]}
    ]
    failed = []
    complete = ScriptedProvider.complete

    def down(self, request):
        if request.agent_role == role:
            failed.append(request)
            raise ProviderError("unavailable")
        return complete(self, request)

    monkeypatch.setattr(ScriptedProvider, "complete", down)
    result = run_scan(e2e_workspace.config(), scenario=scenario)
    assert failed
    assert [t.state for t in result.tasks] == ["done"] * 3
    for task in result.tasks:
        seeds = [r.messages[1].content for r in failed if r.run_id.startswith(f"{task.id}:")]
        assert task.warnings == _expected_stage_warnings(role, seeds)
    if role == "report":
        assert len(failed) == len(result.reports) == 5
        for report in result.reports:
            assert report["description"].endswith("reproduced the crash in 10/10 runs.")


# ===== the PoC attempt =====


class _FlakyRunner:
    """A stand-in target: every run walks ``m_entry -> m_handler``; the
    first ``crashes`` runs crash there, the rest exit cleanly.  Like every
    runner it counts its runs in ``executions``."""

    name = "fake"
    max_blob = 64

    def __init__(self, crashes: int = 0):
        self.crashes = crashes
        self.executions = 0

    def run(self, blob: bytes) -> ExecutionResult:
        self.executions += 1
        crash = None
        if self.executions <= self.crashes:
            crash = CrashSpec("m_handler", "heap-buffer-overflow", "address")
        return ExecutionResult("crash" if crash else "ok", frozenset({"m_entry", "m_handler"}),
                               ("m_entry", "m_handler"), crash)


_NUL_RECIPE = {"instructions": [{"op": "literal", "hex": "00"}], "variants": [{}, {}, {}]}


def _worker(magic_workspace, runner, **overrides) -> pipeline.Worker:
    graph = load_call_graph(magic_workspace.export_path)
    config = magic_workspace.config(sp_fuzz_iterations=0, **overrides)
    (task,) = plan_workers(graph, config)
    spstore = SPStore(known_functions=set(graph.functions))
    worker = pipeline.Worker(task, graph, config, spstore, GlobalAnalyzedSet(), None,
                             MemoryStore())
    worker.runner = runner
    return worker


def _poc_attempt(magic_workspace, runner, verdict=None, **overrides) -> pipeline.PocAttempt:
    worker = _worker(magic_workspace, runner, **overrides)
    task, spstore = worker.task, worker.spstore
    sp_id = spstore.create_sp("m_handler", (task.fuzzer, task.sanitizer),
                              "tag copied into a fixed buffer", "heap-buffer-overflow", 0.9)
    if verdict is not None:
        spstore.apply_verification(sp_id, verdict)
    return pipeline.PocAttempt(worker, spstore.get(sp_id))


class TestPocAttempt:
    def test_a_crash_that_does_not_reproduce_is_a_failed_attempt(self, magic_workspace):
        runner = _FlakyRunner(crashes=1)
        attempt = _poc_attempt(magic_workspace, runner)
        assert attempt.create_pov(_NUL_RECIPE) == {
            "success": False,
            "attempt": 1,
            "error": "crash did not reproduce across the quorum",
        }
        assert not attempt.solved
        # The first variant crashed and stopped the rest; the replay stopped
        # at its first clean run, and only the runs made count.
        assert runner.executions == 2
        assert attempt.worker.store.list("povs") == []

    def test_trace_before_any_attempt(self, magic_workspace):
        attempt = _poc_attempt(magic_workspace, _FlakyRunner(), trace_unlock_attempt=1)
        assert attempt.trace_pov() == "no previous attempt to trace"

    def test_trace_of_a_run_that_covers_the_route(self, magic_workspace):
        runner = _FlakyRunner()
        attempt = _poc_attempt(magic_workspace, runner, trace_unlock_attempt=1)
        failed = attempt.create_pov(_NUL_RECIPE)
        assert failed["success"] is False and failed["attempt"] == 1
        assert attempt.failed_blobs == attempt.last_blobs == [b"\x00"] * 3
        assert attempt.trace_pov(variant=7) == (
            "executed path:\n"
            "m_entry\n"
            "m_handler\n"
            "static route to m_handler: m_entry -> m_handler\n"
            "execution covers the static route; the crash condition itself is unmet"
        )
        # Three variants, one seeding run for the point's loop, one trace.
        assert runner.executions == 3 + 3 + 1


class TestConfirmCrash:
    def test_a_fuzzer_crash_that_does_not_reproduce_is_discarded(self, magic_workspace):
        runner = _FlakyRunner(crashes=1)
        worker = _worker(magic_workspace, runner)
        found = runner.run(b"\x7f")  # the background loop's own run
        worker._handle_fuzzer_crash(b"\x7f", found, "global")
        assert worker.task.warnings == [
            "crash at m_handler from global did not reproduce; discarded"
        ]
        # No point is attached before the crash is confirmed.
        assert worker.spstore.all() == [] and worker.task.metrics.sp_total == 0
        assert worker.store.list("povs") == [] and worker.crash_repeats == {}
        # The background loop's own run, then one replay, stopped at its
        # clean run; the task reports the runner's count.
        assert runner.executions == 2
        worker._finalize_metrics()
        assert worker.task.metrics.executions == 2

    def test_a_poc_crash_already_reported_is_recorded_not_reported_again(self, magic_workspace):
        runner = _FlakyRunner(crashes=100)
        attempt = _poc_attempt(magic_workspace, runner, verdict="tp")
        worker = attempt.worker
        worker._handle_fuzzer_crash(b"\x7f", runner.run(b"\x7f"), "global")
        (report,) = worker.store.list("reports")
        assert report["discovery_method"] == "G"
        reply = attempt.create_pov(_NUL_RECIPE)
        assert reply["success"] is True and attempt.solved
        povs = worker.store.list("povs")
        assert [pov["sp_id"] for pov in povs] == [attempt.sp.id] * 2
        sp = worker.spstore.get(attempt.sp.id)
        assert sp.poc_ids == [pov["id"] for pov in povs]
        assert worker.task.fuzzer in sp.poc_attempted_by and not sp.bypass
        assert worker.store.list("reports") == [report]
        assert worker.task.metrics.report_count == 1 and worker.task.metrics.pov_count == 2
        assert worker.crash_repeats == {CrashSpec("m_handler", "heap-buffer-overflow", "address"): 2}


def _magic_poc_scenario(attempts: int) -> dict:
    """m_handler found and confirmed, then ``attempts`` PoC attempts that
    never set the magic byte, one per step."""
    create = {"name": "create_pov", "args": {"recipe": _NUL_RECIPE}}
    point = {"function": "m_handler", "description": "tag copied into a fixed buffer",
             "vuln_type": "heap-buffer-overflow", "score": 0.9}
    return {"agents": {
        "sp-generator": [
            {"match": "function: m_handler", "steps": [
                {"tool_calls": [{"name": "create_suspicious_point", "args": point}]},
                {"text": "one candidate"},
            ]},
            {"match": "", "reusable": True, "steps": [{"text": "nothing"}]},
        ],
        "sp-verifier": [{"match": "", "steps": [
            {"tool_calls": [{"name": "update_suspicious_point", "args": {"verdict": "tp"}}]},
            {"text": "confirmed"},
        ]}],
        "poc-generator": [{"match": "", "steps": [{"tool_calls": [create]}] * attempts
                           + [{"text": "giving up"}]}],
    }}


def test_context_budget_bounds_every_poc_request(magic_workspace, monkeypatch):
    """Under a small context budget a 40-attempt PoC run is compressed
    before each step that would outgrow it; every attempt still runs."""
    budget = 1200
    monkeypatch.setattr(pipeline, "CONTEXT_TOKEN_BUDGET", budget)
    requests = capture_requests(monkeypatch)
    config = magic_workspace.config(global_fuzz_iterations=0, sp_fuzz_iterations=0)
    (task,) = run_scan(config, scenario=_magic_poc_scenario(40)).tasks
    assert task.state == "done"
    poc = [r for r in requests if r.agent_role == "poc-generator"]
    sizes = [sum(m.token_estimate for m in r.messages) for r in poc]
    assert max(sizes) <= budget
    assert any(m.content.startswith("[compressed") for m in poc[-1].messages)
    # The seed context survives every compression verbatim.
    assert poc[-1].messages[1] == poc[0].messages[1]
    assert poc[-1].messages[1].content.startswith("confirmed suspicious point sp-")
    attempts = {tc.call_id for r in poc for m in r.messages for tc in m.tool_calls}
    assert len(poc) == 41 and len(attempts) == 40


_NO_DIRECTIONS = "no exploration directions registered; falling back to the whole subgraph"
_CANNOT_HOLD = "cannot hold the system message, seed context and last exchange"


@pytest.mark.parametrize(("budget", "warnings"), [
    # The verifier's system prompt and seed (299 tokens) never fit, so the
    # point is left unverified, without a retry, and no PoC runs.
    (250, [_NO_DIRECTIONS, f"sp generation failed for m_handler: budget 250 {_CANNOT_HOLD} (295 tokens)",
           "verification failed for sp-000001; left unverified: "
           f"budget 250 {_CANNOT_HOLD} (299 tokens)"]),
    # Everything fits but the PoC run's second step.
    (320, [_NO_DIRECTIONS, f"poc generation failed for sp-000001: budget 320 {_CANNOT_HOLD} (386 tokens)"]),
])
def test_a_context_the_budget_cannot_hold_ends_the_run_not_the_worker(
    magic_workspace, monkeypatch, budget, warnings
):
    """A context budget below a run's system prompt, seed context and last
    exchange ends that run with its stage's warning; the task finishes."""
    monkeypatch.setattr(pipeline, "CONTEXT_TOKEN_BUDGET", budget)
    roles = []
    run_agent = pipeline.run_agent

    def recording(role, *args, **kwargs):
        roles.append(role)
        return run_agent(role, *args, **kwargs)

    monkeypatch.setattr(pipeline, "run_agent", recording)
    config = magic_workspace.config(global_fuzz_iterations=0, sp_fuzz_iterations=0)
    (task,) = run_scan(config, scenario=_magic_poc_scenario(3)).tasks
    assert task.state == "done"
    assert task.warnings == warnings
    # A context that cannot fit fails again the same way, so the verifier is
    # not retried: it runs once for the one point.
    assert roles.count("sp-verifier") == 1


def _scan_with_a_verifier_retry(magic_workspace, monkeypatch, retry_steps: list[dict]):
    """A magic-workspace scan whose first verifier run refutes the point,
    then finds its model chain down; the retry runs ``retry_steps``.
    Returns the task, the one point and every request, failed ones included."""
    scenario = _magic_poc_scenario(1)
    refute = {"tool_calls": [{"name": "update_suspicious_point", "args": {"verdict": "fp"}}]}
    scenario["agents"]["sp-verifier"] = [
        {"match": "", "steps": [refute, {"text": "refuted"}]},
        {"match": "", "steps": retry_steps},
    ]
    requests = []
    complete = ScriptedProvider.complete

    def fails_once(self, request):
        requests.append(request)
        if sum(r.agent_role == "sp-verifier" for r in requests) == 2:
            raise ProviderError("unavailable")  # the first run's second step
        return complete(self, request)

    monkeypatch.setattr(ScriptedProvider, "complete", fails_once)
    config = magic_workspace.config(global_fuzz_iterations=0, sp_fuzz_iterations=0)
    result = run_scan(config, scenario=scenario)
    (task,) = result.tasks
    (sp,) = result.spstore.all()
    assert task.state == "done"
    assert task.warnings == [_NO_DIRECTIONS]
    assert len({r.run_id for r in requests if r.agent_role == "sp-verifier"}) == 2
    assert task.metrics.agent_runs == len({r.run_id for r in requests})
    return task, sp, requests


def test_a_verifier_run_that_fails_is_retried_at_once(magic_workspace, monkeypatch):
    """A verifier run whose model chain fails is retried in place: the
    retry's verdict is applied and routed before the next pick, and no
    warning is left."""
    confirm = {"tool_calls": [{"name": "update_suspicious_point", "args": {"verdict": "tp"}}]}
    task, sp, requests = _scan_with_a_verifier_retry(
        magic_workspace, monkeypatch, [confirm, {"text": "confirmed"}]
    )
    assert sp.verdict == "tp"
    # The PoC run follows the retry, with no other run in between.
    roles = [r.agent_role for r in requests]
    last_verify = len(roles) - 1 - roles[::-1].index("sp-verifier")
    assert roles[last_verify + 1] == "poc-generator"


def test_a_verdict_from_a_failed_verifier_run_is_not_applied(magic_workspace, monkeypatch):
    """The failed run refuted the point, the retry gave no verdict: the
    point stays unverified and no PoC runs."""
    task, sp, requests = _scan_with_a_verifier_retry(
        magic_workspace, monkeypatch, [{"text": "undecided"}]
    )
    assert not sp.is_verified
    assert "poc-generator" not in {r.agent_role for r in requests}
    assert task.metrics.unverified == 1


def test_a_chain_that_fails_mid_run_counts_the_steps_that_ran(magic_workspace, monkeypatch):
    """A PoC run whose model chain fails at step 2 keeps step 1's tokens and
    tool call in the task's counters, and counts as an agent run."""
    requests, served = [], []
    complete = ScriptedProvider.complete

    def fails_at_step_two(self, request):
        requests.append(request)
        if request.agent_role == "poc-generator" and len(request.messages) > 2:
            raise ProviderError("unavailable")
        response = complete(self, request)
        served.append(response)
        return response

    monkeypatch.setattr(ScriptedProvider, "complete", fails_at_step_two)
    config = magic_workspace.config(global_fuzz_iterations=0, sp_fuzz_iterations=0)
    (task,) = run_scan(config, scenario=_magic_poc_scenario(3)).tasks
    poc = [r for r in requests if r.agent_role == "poc-generator"]
    assert [len(r.messages) for r in poc] == [2, 4]
    assert task.state == "done"
    assert task.metrics.tokens == sum(response.usage.total for response in served)
    assert task.metrics.tool_calls == sum(len(response.tool_calls) for response in served)
    assert task.metrics.agent_runs == len({r.run_id for r in requests})
    sp_id = _seed_field(poc[0].messages[1].content, "confirmed suspicious point ")
    assert task.warnings == [_NO_DIRECTIONS, f"poc generation failed for {sp_id}: {_T2_DOWN}"]


def test_directions_that_name_nothing_leave_the_fallback_on(magic_workspace, monkeypatch):
    """A direction whose names all miss the subgraph is rejected, and a
    function list given as a string is a tool error, not one function per
    character; with nothing registered the worker analyzes the whole
    subgraph, m_entry first."""
    typos = {"name": "typos", "entry_functions": ["m_entyr"], "core_functions": ["m_handlr"],
             "risk_level": "high", "risk_reason": "misspelled"}
    string = dict(typos, name="string", entry_functions="m_entry", core_functions=[])
    scenario = {"agents": {
        "direction-generator": [{"steps": [
            {"tool_calls": [{"name": "create_direction", "args": typos},
                            {"name": "create_direction", "args": string}]},
            {"text": "two directions"},
        ]}],
        "sp-generator": [{"match": "", "reusable": True, "steps": [{"text": "nothing"}]}],
    }}
    requests = capture_requests(monkeypatch)
    config = magic_workspace.config(global_fuzz_iterations=0)
    (task,) = run_scan(config, scenario=scenario).tasks
    last = [r for r in requests if r.agent_role == "direction-generator"][-1]
    assert [json.loads(m.content) if m.content.startswith("{") else m.content
            for m in last.messages if m.role == "tool"] == [
        {"accepted": False,
         "reason": "direction 'typos': none of its functions is in the reachable subgraph",
         "warnings": ["direction 'typos': unknown function 'm_entyr' skipped",
                      "direction 'typos': unknown function 'm_handlr' skipped"]},
        "tool error: create_direction: entry_functions and core_functions must be lists "
        "of names",
    ]
    assert task.warnings == [_NO_DIRECTIONS]
    analyzed = [r.messages[1].content for r in requests if r.agent_role == "sp-generator"]
    assert [_seed_field(seed, "function: ") for seed in analyzed[:2]] == ["m_entry", "m_handler"]


def test_an_http_scan_counts_every_agent_run(magic_workspace, monkeypatch):
    """Over the HTTP provider the seed generator, the report and the
    duplicate judge always run.  The stubbed endpoint answers by the role
    its system prompt names; two candidates share a function and a type,
    so the judge runs.  Every agent run, the judge's included, counts in
    the task, and the task's tokens are the usage the endpoint reported."""
    import requests

    from vulnhunt.agents.prompts import TEMPLATES

    def point(description):
        return ("create_suspicious_point", {"function": "m_handler", "description": description,
                                            "vuln_type": "heap-buffer-overflow", "score": 0.9})

    def answer(role, seed):
        if role == "direction-generator":
            return "", [("create_direction", {
                "name": "tag handling", "entry_functions": ["m_entry"],
                "core_functions": ["m_handler"], "risk_level": "high",
                "risk_reason": "a tag byte selects an unchecked read",
            })]
        if role == "sp-generator" and "function: m_handler" in seed:
            return "", [point("buf[n] reads past the buffer when the 0x7f branch returns"),
                        point("the return buf[n] read overruns the two-byte buffer")]
        if role == "sp-verifier":
            return "", [("update_suspicious_point", {"verdict": "tp"})]
        return ("duplicate" if role == "sp-deduplicator" else "nothing"), []

    reported = []

    def fake_post(url, **kwargs):
        messages = kwargs["json"]["messages"]
        role = next(r for r, t in TEMPLATES.items() if messages[0]["content"].startswith(t[:20]))
        text, calls = answer(role, messages[1]["content"])
        if messages[-1]["role"] == "tool":  # a tool result: end the run
            text, calls = "done", []
        usage = {"prompt_tokens": 10 * len(messages), "completion_tokens": 1 + len(calls)}
        reported.append(usage["prompt_tokens"] + usage["completion_tokens"])
        message = {"content": text, "tool_calls": [
            {"id": f"call_{i}", "function": {"name": name, "arguments": json.dumps(args)}}
            for i, (name, args) in enumerate(calls)
        ]}
        resp = requests.Response()
        resp.status_code = 200
        resp._content = json.dumps({"choices": [{
            "message": message, "finish_reason": "tool_calls" if calls else "stop",
        }], "usage": usage}).encode()
        return resp

    runs = []
    run_agent = pipeline.run_agent

    def counting(*args, **kwargs):
        runs.append(args[0])
        return run_agent(*args, **kwargs)

    monkeypatch.setattr(requests, "post", fake_post)
    monkeypatch.setattr(pipeline, "run_agent", counting)
    config = magic_workspace.config(
        scenario_path="", global_fuzz_iterations=2000,
        provider={"kind": "http", "base_url": "http://localhost:9"},
    )
    result = run_scan(config)
    (task,) = result.tasks
    assert task.state == "done"
    assert {"seed-generator", "sp-deduplicator", "report"} <= set(runs)
    # The judge merged every candidate after the first into one point.
    (sp,) = result.spstore.all()
    assert sp.function_id == "m_handler"
    assert runs.count("sp-deduplicator") == task.metrics.sp_total - 1 > 0
    assert task.metrics.agent_runs == len(runs)
    assert task.metrics.tokens == sum(reported)


# ===== agent code tools =====


class TestCodeTools:
    def _tools(self, ws: Workspace, fuzzer: str) -> dict:
        graph = load_call_graph(ws.export_path)
        config = ws.config()
        task = next(t for t in plan_workers(graph, config) if t.fuzzer == fuzzer)
        worker = pipeline.Worker(task, graph, config, None, GlobalAnalyzedSet(), None,
                                 MemoryStore())
        return {tool.name: tool.fn for tool in worker.code_tools}

    def test_unreached_functions_are_the_ones_the_fuzzer_misses(self, e2e_workspace):
        tools = self._tools(e2e_workspace, "img_fuzzer")
        records = fd.E2E_EXPORT_RECORDS
        unreached = naive_node_universe(records) - naive_reachable(records, "img_fuzzer")
        assert unreached
        assert tools["get_unreached_functions"](fuzzer="img_fuzzer").splitlines() == sorted(unreached)

    def test_reachable_functions_of_another_fuzzer(self, e2e_workspace):
        tools = self._tools(e2e_workspace, "img_fuzzer")
        reached = naive_reachable(fd.E2E_EXPORT_RECORDS, "net_fuzzer")
        assert tools["get_reachable_functions"](fuzzer="net_fuzzer").splitlines() == sorted(reached)

    def test_source_reads_stay_in_the_reachable_subgraph(self, e2e_workspace):
        tools = self._tools(e2e_workspace, "img_fuzzer")
        outside = sorted(naive_reachable(fd.E2E_EXPORT_RECORDS, "net_fuzzer")
                         - naive_reachable(fd.E2E_EXPORT_RECORDS, "img_fuzzer"))
        assert tools["get_function_source"](function=outside[0]).startswith("not found")

    def test_callees_outside_the_fuzzer_stay_hidden(self):
        """A function reached only by annotation may call code its fuzzer
        never reaches; the worker's view shows neither that edge nor the
        callee."""
        def record(fid, callees=(), entry_for=(), reached_by=()):
            return {"id": fid, "name": fid, "file": "s.c", "source": f"void {fid}(void) {{}}",
                    "callees": list(callees), "reached_by_fuzzers": list(reached_by),
                    "is_entry_for": list(entry_for)}

        graph = load_call_graph(export_lines([
            record("a_entry", entry_for=["fz_a"]),
            record("hook", callees=["b_only"], reached_by=["fz_a"]),
            record("b_entry", callees=["b_only"], entry_for=["fz_b"]),
            record("b_only"),
        ]))
        config = Config(fuzzers=["fz_a"])
        (task,) = plan_workers(graph, config)
        worker = pipeline.Worker(task, graph, config, None, GlobalAnalyzedSet(), None,
                                 MemoryStore())
        assert graph.functions["hook"].callees == ["b_only"]
        assert "\ncallees: (none)\n" in worker._function_context("hook", "heading")
        tools = {tool.name: tool.fn for tool in worker.code_tools}
        assert tools["get_callees"](function="hook") == "(no callees)"
        assert tools["get_callers"](function="b_only") == "not found: function 'b_only'"


# ===== delta mode =====


class TestDeltaMode:
    def test_delta_scopes_to_reachable_changed_functions(self, e2e_workspace, monkeypatch):
        config = e2e_workspace.config(
            mode="delta", diff_path=str(e2e_workspace.diff_path), fuzzers=["img_fuzzer"]
        )
        requests = capture_requests(monkeypatch)
        result = run_scan(config)
        (worker,) = result.workers
        runs = sp_generator_runs(requests)
        assert [run.function_id for run in runs] == [
            "img_apply_palette",
            "img_read_chunk",
        ]
        assert [run.candidates for run in runs] == [1, 0]
        for run in runs:
            assert fd.DELTA_COMMIT_MESSAGE in run.context
        observed = {r["function"]: r["discovery_method"] for r in result.reports}
        assert observed == {"img_apply_palette": "S", "img_decompress": "G"}
        assert worker.task.state == "done" and worker.task.mode == "delta"

    def test_unresolved_hunks_are_task_warnings(self, e2e_workspace):
        """A hunk that matches no function is named on every task, once;
        the hunks that resolve are analyzed as before."""
        unresolved = (
            "diff --git a/other/place.c b/other/place.c\n"
            "--- a/other/place.c\n"
            "+++ b/other/place.c\n"
            "@@ -1,2 +1,2 @@\n"
            "-    int mystery_state = 1;\n"
            "+    int mystery_state = 2;\n"
            "@@ -9,2 +9,2 @@\n"
            "-    int other_state = 1;\n"
            "+    int other_state = 2;\n"
        )
        e2e_workspace.diff_path.write_text(fd.DELTA_DIFF + unresolved, encoding="utf-8")
        result = run_scan(
            e2e_workspace.config(mode="delta", diff_path=str(e2e_workspace.diff_path))
        )
        hunk_warnings = [
            f"diff hunk other/place.c#{i} matches no function; not analyzed" for i in (0, 1)
        ]
        for task in result.tasks:
            assert task.state == "done"
            assert [w for w in task.warnings if w.startswith("diff hunk")] == hunk_warnings
        observed = {r["function"]: r["discovery_method"] for r in result.reports}
        assert observed == {"img_apply_palette": "S", "img_decompress": "G"}

    def test_delta_requires_a_diff(self, e2e_workspace):
        config = e2e_workspace.config(mode="delta")
        with pytest.raises(ConfigError, match="delta mode requires diff_path"):
            run_scan(config)


# ===== budgets =====


class TestBudgets:
    def test_wall_clock_budget_times_out(self, e2e_workspace):
        result = run_scan(e2e_workspace.config(budget_minutes=0.0))
        assert [t.state for t in result.tasks] == ["timeout"] * 3
        assert result.reports == []

    def test_token_ceiling_times_out(self, e2e_workspace):
        result = run_scan(e2e_workspace.config(budget_dollars=0.0))
        assert [t.state for t in result.tasks] == ["timeout"] * 3
        assert all(t.metrics.tokens == 0 for t in result.tasks)

    def test_final_drain_stops_within_one_slice(self, magic_workspace, monkeypatch):
        """The worker's clock advances one second per target run, so the
        budget runs out during the final global fuzz drain."""
        runs = [0]
        run = SimTargetRunner.run

        def counting(self, blob):
            runs[0] += 1
            return run(self, blob)

        monkeypatch.setattr(SimTargetRunner, "run", counting)
        monkeypatch.setattr(pipeline, "time", SimpleNamespace(monotonic=lambda: float(runs[0])))
        config = magic_workspace.config(
            scenario_path="", global_fuzz_iterations=3000, budget_minutes=20.0
        )
        (task,) = run_scan(config).tasks
        assert task.state == "timeout"
        assert config.budget_seconds <= runs[0] <= config.budget_seconds + config.fuzz_slice
        assert task.metrics.executions == runs[0]

    def test_dollar_defaults_convert_exactly(self):
        # Independent oracle in exact arithmetic: dollars / (price per token).
        price = Fraction("0.01") / 1000
        assert Config(mode="full").token_ceiling == Fraction(400) / price == 40_000_000
        assert (
            Config(mode="delta", diff_path="x").token_ceiling
            == Fraction(150) / price
            == 15_000_000
        )

    def test_mode_budget_defaults(self):
        full = Config(mode="full")
        assert (full.budget_minutes, full.budget_dollars) == (240.0, 400.0)
        delta = Config(mode="delta")
        assert (delta.budget_minutes, delta.budget_dollars) == (120.0, 150.0)
        assert full.budget_seconds == 240.0 * 60


def _bare_worker(ws: Workspace, scenario: dict, **overrides) -> pipeline.Worker:
    """The workspace's one worker, built outside a scan, with no target."""
    graph = load_call_graph(ws.export_path)
    config = ws.config(**overrides)
    pool, active = _build_pool(config, scenario=scenario)
    (task,) = plan_workers(graph, config)
    spstore = SPStore(known_functions=set(graph.functions))
    return pipeline.Worker(task, graph, config, spstore, GlobalAnalyzedSet(), pool,
                           MemoryStore(), active_roles=active)


# ===== static agent inputs =====


class TestStaticAgentInputs:
    def test_system_prompts_are_rendered_with_each_stage_keys(self, magic_workspace):
        worker = _bare_worker(
            magic_workspace,
            {"agents": {}},
            max_directions=3,
            variants_per_attempt=2,
            max_poc_attempts=9,
            trace_unlock_attempt=4,
        )
        # The keys each stage passed when it rendered its prompt per run.
        keys = {
            "direction-generator": {"max_directions": 3},
            "poc-generator": {"variants": 2, "max_attempts": 9, "trace_unlock": 4},
        }
        assert worker.system_prompts == {
            role: render_prompt(role, **keys.get(role, {})) for role in ROLE_TIERS
        }

    def test_a_scan_leaves_its_scenario_unchanged(self, e2e_workspace):
        scenario = load_scenario(e2e_workspace.scenario_path)
        before = copy.deepcopy(scenario)
        result = run_scan(e2e_workspace.config(), scenario=scenario)
        assert result.store.list("reports")
        assert scenario == before


# ===== duplicate judge wiring =====


class TestDuplicateJudge:
    def _point(self, worker, description):
        return worker.spstore.build_candidate(
            function_id="m_handler",
            source=(worker.task.fuzzer, worker.task.sanitizer),
            description=description,
            vuln_type="heap-buffer-overflow",
            score=0.5,
        )

    def test_no_judge_without_scripted_deduplicator(self, magic_workspace):
        config = magic_workspace.config(scenario_path="", global_fuzz_iterations=0)
        assert run_scan(config).spstore._judge is None
        judged = {"agents": {"sp-deduplicator": [{"steps": [{"text": "duplicate"}]}]}}
        assert run_scan(config, scenario=judged).spstore._judge is not None

    def test_judge_maps_answers(self, magic_workspace, monkeypatch):
        scenario = {
            "agents": {
                "sp-deduplicator": [
                    {"steps": [{"text": "duplicate"}]},
                    {"steps": [{"text": "not-duplicate"}]},
                    {"steps": [{"text": "distinct"}]},
                    {"steps": [{"text": "unclear, sorry"}]},
                ]
            }
        }
        worker = _bare_worker(magic_workspace, scenario)
        requests, served = [], []
        complete = ScriptedProvider.complete

        def recording(self, request):
            requests.append(request)
            served.append(complete(self, request))
            return served[-1]

        monkeypatch.setattr(ScriptedProvider, "complete", recording)
        a = self._point(worker, "overflow when the memcpy() call copies past the end")
        b = self._point(worker, "write past the buffer in the memcpy() call")
        assert worker._judge_duplicate(a, b) is True
        # The system prompt and the seed name the same two answers.
        assert all("'duplicate' or 'distinct'" in m.content for m in requests[0].messages)
        assert worker._judge_duplicate(a, b) is False
        assert worker._judge_duplicate(a, b) is False
        assert worker._judge_duplicate(a, b) is None
        # Script exhausted: an empty reply defers to the similarity metric.
        assert worker._judge_duplicate(a, b) is None
        # Each judge run is one of the worker's runs, with its run ids and
        # its code tools, and counts in the task.
        assert [r.run_id for r in requests] == [
            f"{worker.task.id}:sp-deduplicator:{n}" for n in range(1, 6)
        ]
        assert {t["name"] for t in requests[0].tools} == {t.name for t in worker.code_tools}
        assert worker.task.metrics.agent_runs == 5
        assert worker.task.metrics.tokens == sum(response.usage.total for response in served)

    @pytest.mark.parametrize(
        "answer, verdict",
        [
            ("duplicate", True),
            ("Duplicate.", True),
            ("These are duplicates.", True),
            ("distinct", False),
            ("They are distinct issues.", False),
            ("not-duplicate", False),
            ("Not a duplicate.", False),
            ("unclear, sorry", None),
            ("", None),
            ("Either duplicate or distinct, hard to say.", None),
        ],
    )
    def test_judge_reads_its_answer(self, magic_workspace, answer, verdict):
        worker = _bare_worker(
            magic_workspace, {"agents": {"sp-deduplicator": [{"steps": [{"text": answer}]}]}}
        )
        point = self._point(worker, "write past the buffer")
        assert worker._judge_duplicate(point, point) is verdict

    def test_a_judge_whose_chain_fails_gives_no_verdict(self, magic_workspace, monkeypatch):
        worker = _bare_worker(
            magic_workspace, {"agents": {"sp-deduplicator": [{"steps": [{"text": "duplicate"}]}]}}
        )

        def down(self, request):
            raise ProviderError("unavailable")

        monkeypatch.setattr(ScriptedProvider, "complete", down)
        point = self._point(worker, "write past the buffer")
        assert worker._judge_duplicate(point, point) is None
        assert worker.task.metrics.agent_runs == 1 and worker.task.warnings == []

    def test_unknown_provider_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown provider kind"):
            _build_pool(Config(provider={"kind": "telepathy"}), scenario=None)
