"""Scan orchestration: one worker per (fuzzer, sanitizer) pair.

A worker walks its fuzzer's reachable subgraph, asks agents for exploration
directions and suspicious points, verifies them, attempts crafted
proof-of-crash inputs for confirmed points (one ``PocAttempt`` per point,
whose methods are the PoC agent's tools), and keeps background fuzzing
loops fed with literal-derived and false-positive-derived seeds.  Every
crash, from a background loop or a PoC attempt, is confirmed by
``Worker._confirm_crash``: a crash reproduced at the quorum becomes a
vulnerability report.

Every agent run goes through ``Worker._run_role``, which bounds its
context at ``CONTEXT_TOKEN_BUDGET`` tokens and counts what the run spent.
That includes the duplicate judge: the shared point store calls it, and
``run_scan`` forwards each call to the worker that built the candidate.
Each role has one tool registry per worker, reset per run; a stage's tools
are worker methods that write to one worker field each.  A run whose model
chain is exhausted, or whose context cannot be compressed under the
budget, ends with a failure: the stage leaves a task warning and the scan
goes on, the verifier retries a point whose model chain was exhausted at
once and warns only when the retry fails too, and the report and the
duplicate judge fall back to their template and to no verdict.
Executions are counted by the worker's runner alone.

Everything is deterministic at desk scale: fuzzing runs in cooperative
slices on the worker thread (no wall-clock races), ids come from counters,
and timestamps are logical stage counters.
"""

from __future__ import annotations

import logging
import os
import random
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

from .agents import (
    AgentOutcome,
    Budgets,
    ProviderPool,
    ROLE_TIERS,
    ScriptedProvider,
    HttpChatProvider,
    Tool,
    ToolRegistry,
    load_scenario,
    render_prompt,
    run_agent,
)
from .callgraph import (
    QUERY_KINDS,
    CallGraph,
    bfs_parents,
    bfs_path,
    load_call_graph,
    query,
    reachable_subgraph,
)
from .config import Config
from .delta import DeltaSpec, load_delta
from .directions import Direction, DirectionScheduler, GlobalAnalyzedSet
from .errors import ConfigError, UnknownFuzzerError
from .fuzzing import (
    Corpus,
    CrashSpec,
    FuzzLoop,
    Mutator,
    SimTargetRunner,
    load_targets_dir,
    render_output,
    reproduce,
    seed_from_direction,
    seed_from_fp,
    sp_fuzzer_verify,
)
from .recipes import RecipeBlobFactory, RecipeError
from .spstore import SPStore, SuspiciousPoint, is_sanitizer_compatible, lifecycle_counts
from .store import FileStore, MemoryStore, StoreBackend

log = logging.getLogger("vulnhunt.pipeline")

FAILURE_HINT_CHARS = 2000
# Each agent run's conversation is compressed before a step whose request
# would exceed this many tokens.  The largest request of any bundled
# workload is about 7.5k tokens, so none compresses.
CONTEXT_TOKEN_BUDGET = 100_000
# Coverage queries compare fuzzers over the whole program, so they see the
# full graph; every other code query reads only what the worker's fuzzer
# reaches.
WHOLE_GRAPH_QUERIES = frozenset({"get_reachable_functions", "get_unreached_functions"})
# The duplicate judge's words, and the negations of "duplicate" that mean
# "distinct" ("not-duplicate", "not a duplicate", "non-duplicate").
_DUPLICATE, _DISTINCT = re.compile(r"\bduplicate"), re.compile(r"\bdistinct")
_NOT_DUPLICATE = re.compile(r"\bno[nt][\s-]+(?:a\s+)?duplicate")


@dataclass
class TaskMetrics:
    """Per-worker accounting, plus the lifecycle identity counters."""

    tokens: int = 0
    tool_calls: int = 0
    agent_runs: int = 0
    executions: int = 0
    sp_total: int = 0
    sp_deduped: int = 0
    tp_v: int = 0
    fp: int = 0
    unverified: int = 0
    pov_count: int = 0
    report_count: int = 0
    wall_clock_s: float = 0.0


@dataclass
class WorkerTask:
    """One (fuzzer, sanitizer) scan assignment."""

    id: str
    fuzzer: str
    sanitizer: str
    mode: str = "full"
    state: str = "pending"
    degenerate: bool = False
    budget_seconds: float = 0.0
    token_ceiling: int | None = None
    metrics: TaskMetrics = field(default_factory=TaskMetrics)
    warnings: list[str] = field(default_factory=list)

    def to_record(self) -> dict:
        return asdict(self)


def plan_workers(
    graph: CallGraph,
    config: Config,
    pair_filter=None,
) -> list[WorkerTask]:
    """Build the worker task list: the fuzzer x sanitizer cross product.

    `pair_filter(fuzzer, sanitizer) -> bool` keeps a subset; an empty
    result after filtering is a configuration error.  Pairs whose
    reachable subgraph is empty are kept but flagged degenerate.
    """
    fuzzers = list(config.fuzzers) or sorted(graph.fuzzer_entries)
    for fuzzer in fuzzers:
        if fuzzer not in graph.fuzzer_entries:
            raise UnknownFuzzerError(f"unknown fuzzer: {fuzzer!r}")
    tasks = []
    for fuzzer in fuzzers:
        for sanitizer in config.sanitizers:
            if pair_filter is not None and not pair_filter(fuzzer, sanitizer):
                continue
            task = WorkerTask(
                id=f"{fuzzer}--{sanitizer}",
                fuzzer=fuzzer,
                sanitizer=sanitizer,
                mode=config.mode,
                degenerate=not graph.fuzzer_entries[fuzzer],
                budget_seconds=config.budget_seconds,
                token_ceiling=config.token_ceiling,
            )
            if task.degenerate:
                task.warnings.append(f"no functions reachable from fuzzer {fuzzer!r}")
            tasks.append(task)
    if not tasks:
        raise ConfigError("no worker tasks remain after filtering the fuzzer x sanitizer product")
    return tasks


class Worker:
    """Runs one task end to end against a shared store and SP pool."""

    def __init__(
        self,
        task: WorkerTask,
        graph: CallGraph,
        config: Config,
        spstore: SPStore,
        analyzed: GlobalAnalyzedSet,
        pool: ProviderPool,
        store: StoreBackend,
        target=None,
        delta: DeltaSpec | None = None,
        active_roles: set[str] | None = None,
    ):
        self.task = task
        self.graph = graph
        self.config = config
        self.spstore = spstore
        self.pool = pool
        self.store = store
        self.delta = delta
        self.active_roles = active_roles if active_roles is not None else set()

        self.subgraph = reachable_subgraph(graph, task.fuzzer)
        self.code_tools = [self._code_tool(kind) for kind in QUERY_KINDS]
        # Each of these placeholders appears in one role's template only.
        prompt_context = {
            "max_directions": config.max_directions,
            "variants": config.variants_per_attempt,
            "max_attempts": config.max_poc_attempts,
            "trace_unlock": config.trace_unlock_attempt,
        }
        self.system_prompts = {role: render_prompt(role, **prompt_context) for role in ROLE_TIERS}
        # One registry per role: the code tools, the role's stage tools and
        # its limits.  ``_run_role`` resets it per run, which holds because
        # no role's run nests inside a run of the same role (only ``report``
        # nests, in ``create_pov``), and only this worker's thread uses it
        # (the duplicate judge runs on the worker that built the candidate).
        stage_tools = {
            "direction-generator": [Tool("create_direction", self.create_direction)],
            "seed-generator": [Tool("add_seed", self.add_seed)],
            "sp-generator": [Tool("create_suspicious_point", self.create_suspicious_point)],
            "sp-verifier": [Tool("update_suspicious_point", self.update_suspicious_point)],
            "poc-generator": [
                Tool("create_pov", lambda **args: self._poc.create_pov(**args)),
                Tool("trace_pov", lambda **args: self._poc.trace_pov(**args)),
            ],
        }
        limits = {"poc-generator": {"create_pov": config.max_poc_attempts}}
        self.registries = {
            role: ToolRegistry(self.code_tools + stage_tools.get(role, []), limits.get(role))
            for role in ROLE_TIERS
        }
        # What the stage tools write; each stage empties its field first.
        self._seed_blobs: list[bytes] = []
        self._pending: list[SuspiciousPoint] = []
        self._verdict: dict = {}
        self._poc: PocAttempt | None = None
        self.scheduler = DirectionScheduler(
            self.subgraph,
            task.fuzzer,
            analyzed,
            max_directions=config.max_directions,
            max_revisits=config.max_revisits,
        )
        self.runner = SimTargetRunner(target, task.sanitizer, config.max_blob) if target else None
        self.mutator = Mutator(max_len=config.max_blob)
        self.corpus = Corpus()
        self.global_loop = (
            self._fuzz_loop(self.corpus, "global", "global", config.global_fuzz_iterations)
            if self.runner is not None
            else None
        )

        self.owned_sp_ids: set[str] = set()
        self.importance: dict[str, int] = {}
        self.poc_queue: list[str] = []
        # Every point ever queued here; a point is attempted at most once.
        self.poc_routed: set[str] = set()
        # The crash table: each crash this worker reported -> times seen.
        self.crash_repeats: dict[CrashSpec, int] = {}

        # Function id -> its agent context below the heading, built on first use.
        self._context_bodies: dict[str, str] = {}
        # The BFS parents behind trace_pov's static routes, built on first use.
        self._route_parents: dict[str, str | None] | None = None
        self._started = 0.0
        self._budget_reason = ""

    # -- budgets ---------------------------------------------------------

    def _budget_tripped(self) -> str:
        if self._budget_reason:
            return self._budget_reason
        if time.monotonic() - self._started >= self.task.budget_seconds:
            self._budget_reason = f"wall clock budget ({self.task.budget_seconds:.0f}s) exhausted"
        elif (
            self.task.token_ceiling is not None
            and self.task.metrics.tokens >= self.task.token_ceiling
        ):
            self._budget_reason = f"token ceiling ({self.task.token_ceiling}) exhausted"
        return self._budget_reason

    def _remaining_tokens(self) -> int | None:
        if self.task.token_ceiling is None:
            return None
        return max(0, self.task.token_ceiling - self.task.metrics.tokens)

    # -- agent plumbing ----------------------------------------------------

    def _code_tool(self, kind: str) -> Tool:
        if kind in WHOLE_GRAPH_QUERIES:
            graph, scope = self.graph, "full call graph"
        else:
            graph, scope = self.subgraph, "reachable subgraph"
        # ``query`` is looked up at call time, so wrapping the module global
        # (as the benchmark tracer does) sees every code query.
        return Tool(
            name=kind,
            fn=lambda **args: query(graph, kind, args),
            description=f"Read-only code query '{kind}' over the {scope}.",
        )

    def _run_role(self, role: str, seed_context: str, failure: str | None = None) -> AgentOutcome:
        """One agent run with the role's registry, its call counts reset so
        the run's limits start from zero.

        The run counts when it starts, so its number in ``run_id`` is the
        task's ``agent_runs``, and a run nested in one of its tools gets the
        next.  Its tokens and tool calls count when it ends.  When the run
        ended on a failure and the stage names its ``failure``, the task is
        warned ``"{failure}: {reason}"``.
        """
        registry = self.registries[role]
        registry.reset()
        self.task.metrics.agent_runs += 1
        outcome = run_agent(
            role,
            seed_context,
            registry,
            self.pool,
            self.config.model_chains,
            system_prompt=self.system_prompts[role],
            run_id=f"{self.task.id}:{role}:{self.task.metrics.agent_runs}",
            budgets=Budgets(
                max_total_tokens=self._remaining_tokens(),
                context_token_budget=CONTEXT_TOKEN_BUDGET,
            ),
        )
        self.task.metrics.tokens += outcome.usage.total
        self.task.metrics.tool_calls += len(outcome.tool_log)
        if outcome.failure and failure is not None:
            self.task.warnings.append(f"{failure}: {outcome.failure}")
        return outcome

    # -- directions and seeding -------------------------------------------

    def create_direction(
        self,
        name: str,
        entry_functions: list,
        core_functions: list,
        risk_level: str,
        risk_reason: str,
    ):
        """The direction generator's tool: register one direction."""
        if not isinstance(entry_functions, list) or not isinstance(core_functions, list):
            raise ValueError("entry_functions and core_functions must be lists of names")
        direction = Direction(
            name=str(name),
            entry_functions=tuple(str(f) for f in entry_functions),
            core_functions=tuple(str(f) for f in core_functions),
            risk_level=str(risk_level),
            risk_reason=str(risk_reason),
        )
        result = self.scheduler.register_direction(direction)
        return {"accepted": result.accepted, "reason": result.reason, "warnings": result.warnings}

    def _generate_directions(self) -> None:
        entries = sorted(self.subgraph.fuzzer_entries.get(self.task.fuzzer, ()))
        seed = "\n".join(
            [
                f"fuzzer: {self.task.fuzzer}",
                f"sanitizer: {self.task.sanitizer}",
                f"entry functions: {', '.join(entries) or '(none)'}",
                f"reachable functions: {len(self.subgraph.functions)}",
                "",
                "Propose exploration directions for this fuzzer with create_direction.",
            ]
        )
        self._run_role("direction-generator", seed, failure="direction generation failed")
        if not self.scheduler.directions:
            self.task.warnings.append(
                "no exploration directions registered; falling back to the whole subgraph"
            )

    def add_seed(self, hex: str = "", text: str = ""):
        """The seed generator's tool: keep one starting input."""
        self._seed_blobs.append(bytes.fromhex(hex) if hex else text.encode("utf-8", "replace"))
        return {"accepted": True, "count": len(self._seed_blobs)}

    def _agent_seed_blobs(self, direction: Direction) -> list[bytes] | None:
        if "seed-generator" not in self.active_roles:
            return None
        seed = "\n".join(
            [
                f"fuzzer: {self.task.fuzzer}",
                f"direction: {direction.name}",
                f"functions: {', '.join(direction.entry_functions + direction.core_functions)}",
                "Produce starting inputs with add_seed (hex= or text=).",
            ]
        )
        self._seed_blobs = []
        self._run_role("seed-generator", seed, failure="seed generation failed")
        return self._seed_blobs or None

    def _admit_seed(self, blob: bytes, origin: str) -> None:
        if self.runner is None:
            return
        if len(blob) > self.runner.max_blob:
            self.task.warnings.append(
                f"seed of {len(blob)} bytes from {origin} exceeds max_blob "
                f"{self.runner.max_blob}; skipped"
            )
            return
        result = self.runner.run(blob)
        if result.outcome == "crash":
            self._handle_fuzzer_crash(blob, result, origin)
            return
        self.corpus.add(blob, result.coverage, origin)

    def _admit_seeds(self, seeds: list[bytes], tokens: list[bytes], origin: str) -> None:
        """Give the mutator the dictionary ``tokens``, then admit each seed."""
        for token in tokens:
            self.mutator.add_token(token)
        for blob in seeds:
            self._admit_seed(blob, origin)

    # -- background fuzzing -------------------------------------------------

    def _fuzz_loop(self, corpus: Corpus, tag: str, origin: str, budget: int) -> FuzzLoop:
        """A loop over ``corpus`` with the worker's shared mutator and an rng
        seeded from the scan seed, the task and ``tag``."""
        rng = random.Random(f"{self.config.rng_seed}|{self.task.id}|{tag}")
        return FuzzLoop(self.runner, corpus, self.mutator, rng, origin, budget)

    def _pump(self, loop: FuzzLoop | None) -> None:
        """Run one ``fuzz_slice`` of ``loop``, handling its crashes."""
        if loop is None or loop.budget_left <= 0:
            return
        for finding in loop.run(self.config.fuzz_slice):
            self._handle_fuzzer_crash(finding.blob, finding.result, finding.origin)

    # -- suspicious point generation ----------------------------------------

    def _function_context(self, function_id: str, heading: str) -> str:
        """``heading`` over the function's context body, which is built once
        per worker: its sp-generator and verifier runs share it."""
        body = self._context_bodies.get(function_id)
        if body is None:
            rec = self.subgraph.functions[function_id]
            lines = [
                f"function: {function_id}",
                f"file: {rec.file_path}",
                f"callers: {', '.join(self.subgraph.callers_of(function_id)) or '(none)'}",
                f"callees: {', '.join(self.subgraph.callees_of(function_id)) or '(none)'}",
            ]
            if self.delta is not None:
                lines.append("")
                lines.append(f"commit message:\n{self.delta.commit_message}")
            lines.extend(["", "source:", rec.source_text])
            body = self._context_bodies[function_id] = "\n".join(lines)
        return f"{heading}\n{body}"

    def create_suspicious_point(
        self, function: str, description: str, vuln_type: str, score: float
    ):
        """The sp generator's tool: build one candidate point."""
        rec = self.subgraph.resolve(str(function))
        if rec is None or rec.id not in self.subgraph.functions:
            raise ValueError(f"function {function!r} is not in the reachable subgraph")
        candidate = self.spstore.build_candidate(
            function_id=rec.id,
            source=(self.task.fuzzer, self.task.sanitizer),
            description=str(description),
            vuln_type=str(vuln_type),
            score=float(score),
        )
        self._pending.append(candidate)
        return {
            "accepted": True,
            "function": rec.id,
            "vuln_type": candidate.vuln_type,
            "score": candidate.score,
        }

    def _analyze_function(self, function_id: str, direction_name: str) -> list[SuspiciousPoint]:
        seed = self._function_context(
            function_id, f"direction: {direction_name} | analyze this function for memory-safety flaws"
        )
        self._pending = []
        self._run_role("sp-generator", seed, failure=f"sp generation failed for {function_id}")
        return self._pending

    def _process_candidates(self, pending: list[SuspiciousPoint], importance: int) -> None:
        for candidate in pending:
            outcome = self.spstore.deduplicate(candidate)
            self.task.metrics.sp_total += 1
            sp = self.spstore.get(outcome.sp_id)
            if not outcome.merged:
                self.owned_sp_ids.add(sp.id)
            # A new point's id is fresh, so this sets it; a merged point
            # keeps the importance it was first seen with.
            self.importance.setdefault(sp.id, importance)
            if not sp.is_verified:
                self._verify(sp)
                sp = self.spstore.get(sp.id)
            self._route_verified(sp)

    def _judge_duplicate(
        self, candidate: SuspiciousPoint, existing: SuspiciousPoint
    ) -> bool | None:
        """The duplicate judge's answer for two same-type points: True,
        False, or None (no verdict) when its run fails or its answer names
        neither or both of ``duplicate`` and ``distinct``."""
        seed = "\n".join(
            [
                f"candidate: [{candidate.vuln_type}] {candidate.description}",
                f"existing: [{existing.vuln_type}] {existing.description}",
                "Answer 'duplicate' or 'distinct'.",
            ]
        )
        # A run that failed has no final text, so it gives no verdict.
        text = self._run_role("sp-deduplicator", seed).final_text.lower()
        text = _NOT_DUPLICATE.sub("distinct", text)
        duplicate, distinct = bool(_DUPLICATE.search(text)), bool(_DISTINCT.search(text))
        return duplicate if duplicate != distinct else None

    def _route_verified(self, sp: SuspiciousPoint) -> None:
        if sp.verdict == "tp":
            if (
                self.task.fuzzer not in sp.poc_attempted_by
                and sp.id not in self.poc_routed
                and (self.task.fuzzer, self.task.sanitizer) in sp.sources
            ):
                self.poc_routed.add(sp.id)
                self.poc_queue.append(sp.id)
        elif sp.verdict == "fp":
            self._admit_seeds(*seed_from_fp(sp, self.subgraph), f"fp:{sp.id}")

    # -- verification --------------------------------------------------------

    def update_suspicious_point(
        self,
        verdict: str,
        corrected_description: str = "",
        new_score: float | None = None,
        poc_guidance: str = "",
    ):
        """The verifier's tool: check its verdict (a refusal is a tool error
        the model reads) and keep it to apply when the run ends."""
        self._verdict = self.spstore.check_verdict(
            verdict, corrected_description or None, new_score, poc_guidance or None
        )
        return {"accepted": True, "verdict": verdict}

    def _verify(self, sp: SuspiciousPoint) -> None:
        if not is_sanitizer_compatible(sp.vuln_type, self.task.sanitizer):
            self.spstore.apply_verification(
                sp.id,
                "fp",
                poc_guidance=(
                    f"{sp.vuln_type} is invisible to the {self.task.sanitizer} sanitizer; "
                    "no crash signal can confirm it on this worker"
                ),
            )
            return
        seed = self._function_context(
            sp.function_id,
            f"verify suspicious point {sp.id}: {sp.vuln_type} (score {sp.score})\n"
            f"claim: {sp.description}",
        )
        # A run whose model chain was exhausted is retried once, at once; a
        # context over its budget would fail the same way, so it is not.  A
        # verdict a failed run captured is not applied, and only the last
        # failure is warned.
        for retry in (False, True):
            self._verdict = {}
            outcome = self._run_role("sp-verifier", seed)
            if not outcome.failure:
                break
            if retry or outcome.failure_kind != "chain":
                self.task.warnings.append(
                    f"verification failed{' twice' if retry else ''} for {sp.id}; "
                    f"left unverified: {outcome.failure}"
                )
                return
        if self._verdict:
            self.spstore.apply_verification(sp.id, **self._verdict)

    # -- proof-of-crash generation --------------------------------------------

    def _queue_order(self, sp_id: str) -> tuple:
        sp = self.spstore.get(sp_id)
        return (-self.importance.get(sp_id, 1), -sp.score, sp.created_stage, sp.id)

    def _drain_poc_queue(self) -> None:
        # _route_verified queues an id only once per worker.
        while self.poc_queue and not self._budget_tripped():
            self.poc_queue.sort(key=self._queue_order)
            sp = self.spstore.get(self.poc_queue.pop(0))
            if self.runner is None:
                self.task.warnings.append(f"no simulated target; cannot attempt poc for {sp.id}")
            else:
                PocAttempt(self, sp).run()

    def _static_route(self, function_id: str) -> list[str]:
        """The BFS route from the fuzzer's entries to a function; [] if unreached.

        The subgraph and its entries are fixed per worker, so one BFS serves
        every call.
        """
        if self._route_parents is None:
            entries = sorted(self.subgraph.fuzzer_entries.get(self.task.fuzzer, ()))
            self._route_parents = bfs_parents(self.subgraph.functions, entries)
        return bfs_path(self._route_parents, function_id)

    # -- crash handling ---------------------------------------------------------

    def _attach_crash_sp(self, crash) -> SuspiciousPoint:
        existing = self.spstore.for_function(crash.location)
        same_type = [sp for sp in existing if sp.vuln_type == crash.vuln_type]
        pool = same_type or existing
        if pool:
            return sorted(pool, key=lambda sp: (-sp.score, sp.created_stage, sp.id))[0]
        sp_id = self.spstore.create_sp(
            function_id=crash.location,
            source=(self.task.fuzzer, self.task.sanitizer),
            description=(
                f"background fuzzing crashed inside {crash.location}(): "
                f"{crash.vuln_type} reported by the {crash.sanitizer} sanitizer"
            ),
            vuln_type=crash.vuln_type,
            score=1.0,
            bypass=True,
        )
        # A synthetic point is still a discovered point: count it on both
        # sides so SP_tot >= SP_ded holds for crash-only workers too.
        self.task.metrics.sp_total += 1
        self.owned_sp_ids.add(sp_id)
        self.importance.setdefault(sp_id, 1)
        return self.spstore.get(sp_id)

    def _counted_as_repeat(self, crash: CrashSpec) -> bool:
        """Whether this worker already reported ``crash``; a repeat is counted."""
        if crash not in self.crash_repeats:
            return False
        self.crash_repeats[crash] += 1
        return True

    def _handle_fuzzer_crash(self, blob: bytes, result, origin: str) -> None:
        crash = result.crash
        if self._counted_as_repeat(crash):
            return
        if not self._confirm_crash(blob, result, "G", 0):
            self.task.warnings.append(
                f"crash at {crash.location} from {origin} did not reproduce; discarded"
            )

    def _confirm_crash(
        self, blob: bytes, result, method: str, attempts: int, sp: SuspiciousPoint | None = None
    ) -> bool:
        """Reproduce a crash at the quorum; whether it was confirmed.

        A confirmed crash is credited to ``sp``, or when that is None to the
        point its location attaches to, then persisted as a PoV, recorded on
        the point (bypassing the lifecycle unless it is a verified true
        positive) and reported under ``method`` with ``attempts``.
        """
        repro = reproduce(blob, self.runner, quorum=self.config.quorum)
        if not repro.confirmed:
            return False
        if sp is None:
            sp = self._attach_crash_sp(result.crash)
        pov = self._persist_pov(sp.id, blob, result, repro.reproduced_count)
        self.spstore.record_poc_result(
            sp.id, self.task.fuzzer, crashed=True, pov_id=pov["id"], bypass=sp.verdict != "tp"
        )
        self._emit_report(sp, pov, result.crash, method, attempts, repro.reproduced_count)
        return True

    def _persist_pov(self, sp_id: str, blob: bytes, result, reproduced_count: int) -> dict:
        pov_id = f"pov-{self.task.id}-{self.task.metrics.pov_count + 1:03d}"
        blob_path = ""
        if self.config.out_dir:
            pov_dir = os.path.join(self.config.out_dir, "povs")
            os.makedirs(pov_dir, exist_ok=True)
            blob_path = os.path.join(pov_dir, f"{pov_id}.bin")
            with open(blob_path, "wb") as fh:
                fh.write(blob)
        record = {
            "id": pov_id,
            "sp_id": sp_id,
            "fuzzer": self.task.fuzzer,
            "sanitizer": self.task.sanitizer,
            "location": result.crash.location,
            "vuln_type": result.crash.vuln_type,
            "blob_hex": blob.hex(),
            "blob_path": blob_path,
            "reproduced_count": reproduced_count,
            "trace": list(result.trace),
            "output": render_output(result, self.runner.name, len(blob)),
        }
        self.store.put("povs", pov_id, record)
        self.task.metrics.pov_count += 1
        return record

    def _report_description(self, sp: SuspiciousPoint, crash, reproduced_count: int) -> str:
        fallback = (
            f"{sp.description.rstrip('.')}. Confirmed as {crash.vuln_type} in "
            f"{crash.location} by the {crash.sanitizer} sanitizer under fuzzer "
            f"{self.task.fuzzer}; the proof-of-crash input reproduced the crash in "
            f"{reproduced_count}/{self.config.quorum} runs."
        )
        if "report" not in self.active_roles:
            return fallback
        seed = "\n".join(
            [
                f"confirmed vulnerability at {crash.location} ({crash.vuln_type})",
                f"sanitizer: {crash.sanitizer} | fuzzer: {self.task.fuzzer}",
                f"analyst notes: {sp.description}",
                "Write the final report summary as plain text.",
            ]
        )
        # A run that failed has no final text.
        return self._run_role("report", seed).final_text.strip() or fallback

    def _emit_report(
        self,
        sp: SuspiciousPoint,
        pov: dict,
        crash,
        method: str,
        attempts: int,
        reproduced_count: int,
    ) -> None:
        if self._counted_as_repeat(crash):
            return
        report_id = f"rpt-{self.task.id}-{self.task.metrics.report_count + 1:03d}"
        rec = self.subgraph.functions.get(crash.location)
        # The REPORT_FIELDS schema, then the record's own id and its PoV's.
        record = {
            "sp_id": sp.id,
            "function": crash.location,
            "file": rec.file_path if rec else "",
            "vuln_type": crash.vuln_type,
            "sanitizer": crash.sanitizer,
            "fuzzer": self.task.fuzzer,
            "discovery_method": method,
            "description": self._report_description(sp, crash, reproduced_count),
            "poc_blob_path": pov["blob_path"] or f"store:povs/{pov['id']}",
            "reproduced_count": reproduced_count,
            "attempts": attempts,
            "timestamps": {
                "created": sp.created_stage,
                "verified": sp.verified_stage,
                "poc": sp.poc_stage,
            },
            "id": report_id,
            "pov_id": pov["id"],
        }
        self.store.put("reports", report_id, record)
        self.crash_repeats[crash] = 1
        self.task.metrics.report_count += 1

    # -- top-level flows -----------------------------------------------------

    def _finalize_metrics(self) -> None:
        counts = lifecycle_counts(self.spstore.get(i) for i in self.owned_sp_ids)
        for key, value in counts.items():
            setattr(self.task.metrics, key, value)
        self.task.metrics.executions = self.runner.executions if self.runner is not None else 0
        self.task.metrics.wall_clock_s = time.monotonic() - self._started

    def run(self) -> WorkerTask:
        self.task.state = "running"
        self._started = time.monotonic()
        try:
            if self.task.degenerate:
                self.task.state = "done"
                return self.task
            if not self._budget_tripped():
                self._analyze()
                loop = self.global_loop
                while loop is not None and loop.budget_left > 0 and not self._budget_tripped():
                    self._pump(loop)
            self.task.state = "timeout" if self._budget_tripped() else "done"
            if self._budget_reason:
                self.task.warnings.append(f"stopped: {self._budget_reason}")
        except Exception as exc:  # noqa: BLE001 - worker failure is a terminal state
            log.exception("worker %s failed", self.task.id)
            self.task.state = "failed"
            self.task.warnings.append(f"worker failed: {exc}")
        finally:
            if self.runner is not None:
                self.runner.drop_memo()
            self._finalize_metrics()
            self.store.put("tasks", self.task.id, self.task.to_record())
        return self.task

    def _analyze(self) -> None:
        """Directions and seeding, then per picked (function, direction,
        importance): analyze, verify, queue PoCs and pump one global slice.

        Full scans pick from the direction scheduler, delta scans walk the
        changed functions this fuzzer reaches.  The budget is checked before
        every pick, because a scheduler pick marks the function analyzed in
        the set shared by all workers.
        """
        if self.task.mode == "delta":
            if self.delta is None:
                raise ConfigError("delta mode requires a parsed diff")
            for hunk in self.delta.unresolved:
                self.task.warnings.append(f"diff hunk {hunk} matches no function; not analyzed")
            changed = [f for f in self.delta.changed_function_ids if f in self.subgraph.functions]
            if not changed:
                self.task.warnings.append("no changed functions are reachable by this fuzzer")
                return
            picks = iter([(f, "(delta)", 1) for f in changed])
        else:
            picks = (
                (p.function_id, p.direction_name, self.scheduler.risk_rank_for(p.direction_name))
                for p in iter(self.scheduler.next_function, None)
            )
        self._generate_directions()
        for direction in self.scheduler.directions:
            agent_blobs = self._agent_seed_blobs(direction)
            seeds, tokens = seed_from_direction(direction, self.subgraph, agent_blobs)
            self._admit_seeds(seeds, tokens, f"direction:{direction.name}")
        self._pump(self.global_loop)
        while not self._budget_tripped():
            pick = next(picks, None)
            if pick is None:
                break
            function_id, direction_name, importance = pick
            pending = self._analyze_function(function_id, direction_name)
            self._process_candidates(pending, importance)
            self._drain_poc_queue()
            self._pump(self.global_loop)


class PocAttempt:
    """One worker's proof-of-crash attempt on one confirmed point.

    The PoC agent's tools are the methods ``create_pov`` and ``trace_pov``.
    The point's background loop is seeded once, from the variants failed so
    far; later failures only feed the worker's global corpus.
    """

    def __init__(self, worker: Worker, sp: SuspiciousPoint):
        self.worker = worker
        self.sp = sp
        self.factory = RecipeBlobFactory()
        self.attempts = 0
        self.last_blobs: list[bytes] = []
        self.solved = False
        self.failed_blobs: list[bytes] = []
        self.loop: FuzzLoop | None = None

    def run(self) -> None:
        """Run the PoC agent; an unsolved point is recorded as not crashed."""
        worker, sp = self.worker, self.sp
        seed = "\n".join(
            [
                f"confirmed suspicious point {sp.id}",
                f"function: {sp.function_id}",
                f"vuln_type: {sp.vuln_type}",
                f"fuzzer: {worker.task.fuzzer} | sanitizer: {worker.task.sanitizer}",
                f"description: {sp.description}",
                f"guidance: {sp.poc_guidance or '(none)'}",
                "",
                "source:",
                worker.subgraph.functions[sp.function_id].source_text,
            ]
        )
        worker._poc = self
        worker._run_role("poc-generator", seed, failure=f"poc generation failed for {sp.id}")
        if not self.solved:
            worker.spstore.record_poc_result(sp.id, worker.task.fuzzer, crashed=False)

    def create_pov(self, recipe: dict):
        worker = self.worker
        self.attempts += 1
        try:
            blobs = self.factory.make_variants(recipe, worker.config.variants_per_attempt)
        except RecipeError as exc:
            return self._failed(f"recipe error: {exc}")
        # Oversize variants are skipped before anything runs, as _admit_seed
        # skips oversize seeds.  Each variant that fits takes the next run's
        # result; only a crash stops the runs early, and it ends this pass.
        limit = worker.runner.max_blob
        fits = [blob for blob in blobs if len(blob) <= limit]
        if not fits:
            sizes = ", ".join(f"{len(blob)} bytes" for blob in blobs)
            return self._failed(f"every variant exceeds max_blob {limit} ({sizes}); nothing ran")
        self.last_blobs = blobs
        results = iter(sp_fuzzer_verify(fits, worker.runner))
        tails, logs = [], []
        for index, blob in enumerate(blobs):
            if len(blob) > limit:
                tails.append(f"variant {index}: skipped ({len(blob)} bytes exceeds max_blob {limit})")
                continue
            result = next(results)
            if result.outcome == "crash":
                if not worker._confirm_crash(blob, result, "S", self.attempts, self.sp):
                    return self._failed("crash did not reproduce across the quorum")
                self.solved = True
                return {
                    "success": True,
                    "attempt": self.attempts,
                    "variant": index,
                    "crash": result.crash.location,
                    "vuln_type": result.crash.vuln_type,
                }
            worker.corpus.add(blob, result.coverage, f"poc:{self.sp.id}")
            self.failed_blobs.append(blob)
            tails.append(
                f"variant {index}: {result.outcome}, "
                f"coverage {len(result.coverage)} functions, "
                f"deepest: {result.trace[-1] if result.trace else '(empty)'}"
            )
            logs.append(render_output(result, worker.runner.name, len(blob)))
        self._pump_background()
        return {
            "success": False,
            "attempt": self.attempts,
            "summary": tails,
            "output_tail": "\n".join(logs)[-FAILURE_HINT_CHARS:],
        }

    def trace_pov(self, variant: int = 0):
        worker = self.worker
        unlock, current = worker.config.trace_unlock_attempt, self.attempts + 1
        if current < unlock:
            return (
                f"tool locked: trace_pov unlocks at attempt {unlock} "
                f"(currently at attempt {current})"
            )
        if not self.last_blobs:
            return "no previous attempt to trace"
        variant = max(0, min(int(variant), len(self.last_blobs) - 1))
        result = worker.runner.run(self.last_blobs[variant])
        target = self.sp.function_id
        want = worker._static_route(target)
        divergence = next((f for f in want if f not in result.coverage), None)
        lines = ["executed path:", *result.trace]
        lines.append(f"static route to {target}: {' -> '.join(want) or '(unreachable)'}")
        if divergence:
            lines.append(f"divergence: execution never reached {divergence}")
        elif want:
            lines.append("execution covers the static route; the crash condition itself is unmet")
        return "\n".join(lines)

    def _failed(self, error: str) -> dict:
        return {"success": False, "attempt": self.attempts, "error": error}

    def _pump_background(self) -> None:
        worker = self.worker
        if self.loop is None and self.failed_blobs:
            corpus = Corpus()
            for blob in self.failed_blobs:
                corpus.add(blob, worker.runner.run(blob).coverage, "poc-attempt")
            tag, origin = f"sp|{self.sp.id}", f"sp-background:{self.sp.id}"
            self.loop = worker._fuzz_loop(corpus, tag, origin, worker.config.sp_fuzz_iterations)
        worker._pump(self.loop)


@dataclass
class ScanResult:
    tasks: list[WorkerTask]
    workers: list[Worker]
    spstore: SPStore
    store: StoreBackend
    reports: list[dict]


def _build_pool(config: Config, scenario=None) -> tuple[ProviderPool, set[str]]:
    pool = ProviderPool()
    models = {m for chain in config.model_chains.values() for m in chain}
    kind = config.provider.get("kind", "scripted")
    if kind == "scripted":
        data = scenario
        if data is None:
            if not config.scenario_path:
                data = {"agents": {}}
            else:
                data = load_scenario(config.scenario_path)
        provider = ScriptedProvider(data)
        active = set(provider.roles())
    else:  # "http"; Config rejects any other kind
        provider = HttpChatProvider(
            base_url=config.provider.get("base_url", ""),
            api_key=config.provider.get("api_key", ""),
            timeout_s=float(config.provider.get("timeout_s", 120.0)),
        )
        active = {"seed-generator", "report", "sp-deduplicator"}
    for model in models:
        pool.register(model, provider)
    return pool, active


def run_scan(
    config: Config,
    graph: CallGraph | None = None,
    targets: dict | None = None,
    scenario=None,
    store: StoreBackend | None = None,
    pair_filter=None,
) -> ScanResult:
    """Execute a full or delta scan per the configuration; returns all state."""
    if graph is None:
        if not config.export_path:
            raise ConfigError("export_path is required when no call graph is supplied")
        graph = load_call_graph(config.export_path)
    if targets is None:
        targets = load_targets_dir(config.targets_dir) if config.targets_dir else {}
    if store is None:
        store = FileStore(config.store_dir) if config.store_dir else MemoryStore()

    delta = None
    if config.mode == "delta":
        if not config.diff_path:
            raise ConfigError("delta mode requires diff_path")
        try:
            with open(config.diff_path, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read diff {config.diff_path}: {exc}") from exc
        delta = load_delta(text, graph)

    pool, active_roles = _build_pool(config, scenario)
    by_source: dict[tuple[str, str], Worker] = {}

    def judge(candidate: SuspiciousPoint, existing: SuspiciousPoint):
        # A candidate's sources are still exactly the pair of its builder.
        (source,) = candidate.sources
        return by_source[source]._judge_duplicate(candidate, existing)

    spstore = SPStore(
        known_functions=set(graph.functions),
        similarity_threshold=config.dedup_threshold,
        duplicate_judge=judge if "sp-deduplicator" in active_roles else None,
    )
    analyzed = GlobalAnalyzedSet()
    tasks = plan_workers(graph, config, pair_filter)
    workers = [
        Worker(
            task,
            graph,
            config,
            spstore,
            analyzed,
            pool,
            store,
            target=targets.get(task.fuzzer),
            delta=delta,
            active_roles=active_roles,
        )
        for task in tasks
    ]
    by_source.update(((w.task.fuzzer, w.task.sanitizer), w) for w in workers)
    with ThreadPoolExecutor(max_workers=config.worker_parallelism) as executor:
        list(executor.map(lambda w: w.run(), workers))

    counts = spstore.counts()
    totals = {
        "mode": config.mode,
        "tasks": len(tasks),
        "sp_total": sum(t.metrics.sp_total for t in tasks),
        "sp_deduped": counts["sp_deduped"],
        "tp_v": counts["tp_v"],
        "fp": counts["fp"],
        "unverified": counts["unverified"],
        "pov_count": sum(t.metrics.pov_count for t in tasks),
        "report_count": sum(t.metrics.report_count for t in tasks),
        "tokens": sum(t.metrics.tokens for t in tasks),
        "executions": sum(t.metrics.executions for t in tasks),
    }
    store.put("metrics", "run", totals)
    for sp in spstore.all():
        store.put("sps", sp.id, sp.to_dict())
    reports = store.list("reports")
    return ScanResult(tasks=tasks, workers=workers, spstore=spstore, store=store, reports=reports)


def status_snapshot(store: StoreBackend) -> str:
    """Render a plain-text status table from persisted task records."""
    tasks = store.list("tasks")
    lines = []
    header = (
        f"{'task':<28} {'state':<8} {'SPs':>4} {'dedup':>5} {'TPv':>4} "
        f"{'FP':>4} {'unv':>4} {'PoVs':>4} {'reports':>7} {'tokens':>8} "
        f"{'tools':>6} {'wall(s)':>8}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for task in tasks:
        m = task["metrics"]
        lines.append(
            f"{task['id']:<28} {task['state']:<8} {m['sp_total']:>4} {m['sp_deduped']:>5} "
            f"{m['tp_v']:>4} {m['fp']:>4} {m['unverified']:>4} {m['pov_count']:>4} "
            f"{m['report_count']:>7} {m['tokens']:>8} {m['tool_calls']:>6} "
            f"{m['wall_clock_s']:>8.2f}"
        )
    run = store.get("metrics", "run")
    if run is not None:
        lines.append("")
        lines.append(
            "run totals: "
            + ", ".join(f"{key}={run[key]}" for key in sorted(run) if key != "mode")
        )
    if not tasks:
        lines.append("(no tasks recorded)")
    return "\n".join(lines)
