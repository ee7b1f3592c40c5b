"""Span tracing for the scan benchmark, installed from outside the program.

While a :class:`Tracer` is active it replaces the public entry points the
pipeline calls with wrappers that record one span per call: name, start,
end, parent span and scan id.  Spans stay in memory; :meth:`Tracer.write`
dumps them when the benchmark ends.  Leaving the ``with`` block restores
every original attribute.

Wrapped, where the pipeline looks them up:

* ``vulnhunt.pipeline`` globals: ``reachable_subgraph``, ``query``,
  ``run_agent``, ``reproduce``, ``sp_fuzzer_verify``, ``plan_workers``;
* methods: ``DirectionScheduler.next_function`` / ``register_direction``,
  ``SPStore.deduplicate``, ``CallGraph.resolve``, ``SimTargetRunner.run``,
  ``FuzzLoop.run``, ``ScriptedProvider.complete``, ``ToolRegistry.invoke``,
  ``RecipeBlobFactory.make_variants``, ``Worker.run``;
* :class:`TimedStore`, the benchmark's own store wrapper, ``put``.

:meth:`Tracer.check` tests the recorded spans against the scan's own
counters, so a missed entry point or a wrong parent fails the scan.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from pathlib import Path

import vulnhunt.pipeline as pipeline
from vulnhunt.agents import ScriptedProvider, ToolRegistry
from vulnhunt.callgraph import CallGraph
from vulnhunt.directions import DirectionScheduler
from vulnhunt.fuzzing import FuzzLoop, SimTargetRunner
from vulnhunt.recipes import RecipeBlobFactory
from vulnhunt.spstore import SPStore
from vulnhunt.store import StoreBackend

MARK = "_bench_span"

# Span name -> layer; a layer's self time is the sum of its spans' self times.
LAYER_OF = {
    "scan": "pipeline",
    "pipeline.plan": "pipeline",
    "pipeline.worker": "pipeline",
    "callgraph.subgraph": "callgraph",
    "callgraph.resolve": "callgraph",
    "callgraph.query": "callgraph",
    "directions.pick": "directions",
    "directions.register": "directions",
    "spstore.dedup": "spstore",
    "agents.run": "agents",
    "agents.provider": "agents",
    "agents.tool": "agents",
    "recipes.variants": "recipes",
    "fuzzing.exec": "fuzzing",
    "fuzzing.loop": "fuzzing",
    "fuzzing.verify": "fuzzing",
    "fuzzing.repro": "fuzzing",
    "store.put": "store",
}


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


class TimedStore(StoreBackend):
    """Delegating store that stamps the end of every call in ``marks`` as
    ``(time, kind)`` and notes which stamp is each report's first put."""

    def __init__(self, inner: StoreBackend, marks: list[tuple[float, str]]):
        self.inner = inner
        self.marks = marks
        self.report_marks: dict[str, int] = {}

    def put(self, collection, record_id, record):
        self.inner.put(collection, record_id, record)
        self.marks.append((time.perf_counter(), "put"))
        if collection == "reports":
            self.report_marks.setdefault(record["function"], len(self.marks) - 1)

    def get(self, collection, record_id):
        record = self.inner.get(collection, record_id)
        self.marks.append((time.perf_counter(), "get"))
        return record

    def list(self, collection):
        records = self.inner.list(collection)
        self.marks.append((time.perf_counter(), "list"))
        return records

    def atomic_update(self, collection, record_id, update):
        record = self.inner.atomic_update(collection, record_id, update)
        self.marks.append((time.perf_counter(), "update"))
        return record


class Tracer:
    """Records spans for the calls made inside :meth:`call` while active."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._scan = 0
        self._patched: list[tuple[object, str, object]] = []

    # ----- wrapping -----

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self._scan)

        wrapper.__wrapped__ = fn
        setattr(wrapper, MARK, name)
        return wrapper

    def _patch(self, owner, attr: str, name: str, fn=None) -> None:
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, fn or original))

    def _counting(self):
        """Originals wrapped with the counters their spans cannot carry."""
        counts = self.counts
        orig = {
            "exec": SimTargetRunner.run,
            "loop": FuzzLoop.run,
            "repro": pipeline.reproduce,
            "agent": pipeline.run_agent,
            "dedup": SPStore.deduplicate,
        }

        def exec_run(runner, blob):
            result = orig["exec"](runner, blob)
            if result.outcome == "crash":
                counts["crash_execs"] += 1
            return result

        def loop_run(loop, iterations):
            if loop.iterations_done == 0:
                counts["loops"] += 1
            done, adds = loop.iterations_done, loop.stats.corpus_adds
            crashes = orig["loop"](loop, iterations)
            counts["loop_iters"] += loop.iterations_done - done
            counts["corpus_adds"] += loop.stats.corpus_adds - adds
            return crashes

        def reproduce(*args, **kwargs):
            outcome = orig["repro"](*args, **kwargs)
            counts["repro_runs"] += outcome.runs
            return outcome

        def run_agent(*args, **kwargs):
            outcome = orig["agent"](*args, **kwargs)
            counts["steps"] += outcome.steps
            counts["prompt_tokens"] += outcome.usage.prompt
            counts["completion_tokens"] += outcome.usage.completion
            return outcome

        def deduplicate(spstore, candidate):
            outcome = orig["dedup"](spstore, candidate)
            counts["merges"] += outcome.merged
            return outcome

        return exec_run, loop_run, reproduce, run_agent, deduplicate

    def __enter__(self) -> "Tracer":
        exec_run, loop_run, reproduce, run_agent, deduplicate = self._counting()
        for attr, name, fn in (
            ("reachable_subgraph", "callgraph.subgraph", None),
            ("query", "callgraph.query", None),
            ("run_agent", "agents.run", run_agent),
            ("reproduce", "fuzzing.repro", reproduce),
            ("sp_fuzzer_verify", "fuzzing.verify", None),
            ("plan_workers", "pipeline.plan", None),
        ):
            self._patch(pipeline, attr, name, fn)
        for owner, attr, name, fn in (
            (DirectionScheduler, "next_function", "directions.pick", None),
            (DirectionScheduler, "register_direction", "directions.register", None),
            (SPStore, "deduplicate", "spstore.dedup", deduplicate),
            (CallGraph, "resolve", "callgraph.resolve", None),
            (SimTargetRunner, "run", "fuzzing.exec", exec_run),
            (FuzzLoop, "run", "fuzzing.loop", loop_run),
            (ScriptedProvider, "complete", "agents.provider", None),
            (ToolRegistry, "invoke", "agents.tool", None),
            (RecipeBlobFactory, "make_variants", "recipes.variants", None),
            (pipeline.Worker, "run", "pipeline.worker", None),
            (TimedStore, "put", "store.put", None),
        ):
            self._patch(owner, attr, name, fn)
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ----- recording -----

    def call(self, fn, *args, **kwargs):
        """Run one scan under a root span named ``scan``; returns its result."""
        self._scan += 1
        self.spans.clear()
        self.counts.clear()
        return self._wrap("scan", fn)(*args, **kwargs)

    def write(self, path: Path) -> None:
        """Dump the last scan's spans as tab-separated lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("scan\tname\tstart\tend\tparent\n")
            for name, start, end, parent, scan in self.spans:
                fh.write(f"{scan}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")

    # ----- derivation -----

    def check(self, result) -> list[str]:
        """Problems with the last scan's spans; empty when they are sound.

        Every span must be closed and lie inside its parent's interval, with
        one root, and its children may not overlap: their durations sum to
        at most its own.  The span counts of target runs,
        agent runs and tool calls must equal the counters the pipeline keeps
        in ``result.tasks``, which it increments at its own call sites.
        """
        problems = []
        if any(span is None for span in self.spans):
            return ["trace: a span was never closed"]
        roots = 0
        for name, start, end, parent, _ in self.spans:
            if parent < 0:
                roots += 1
                continue
            _, p_start, p_end, _, _ = self.spans[parent]
            if start < p_start or end > p_end:
                problems.append(f"trace: {name} span lies outside its parent")
        if roots != 1:
            problems.append(f"trace: {roots} root spans")
        for (name, start, end, _, _), child in zip(self.spans, self._child_times()):
            if child > end - start:
                problems.append(f"trace: the children of a {name} span overlap")
        calls = self._calls()
        for span, counter in (("fuzzing.exec", "executions"), ("agents.run", "agent_runs"),
                              ("agents.tool", "tool_calls")):
            want = sum(getattr(task.metrics, counter) for task in result.tasks)
            if calls[span] != want:
                problems.append(f"trace: {calls[span]} {span} spans but the tasks "
                                f"count {want} {counter}")
        return problems[:5]

    def _calls(self) -> dict[str, int]:
        calls: dict[str, int] = defaultdict(int)
        for name, *_ in self.spans:
            calls[name] += 1
        return calls

    def _child_times(self) -> list[float]:
        """Per span, the summed duration of its child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return child

    def _self_times(self) -> dict[str, float]:
        """Span name -> summed duration minus that of its child spans."""
        self_s: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), child in zip(self.spans, self._child_times()):
            self_s[name] += end - start - child
        return self_s

    def layer_shares(self) -> dict[str, float]:
        """Each layer's self time as a share of the last traced scan."""
        _, start, end, _, _ = self.spans[0]
        shares: dict[str, float] = defaultdict(float)
        for name, value in self._self_times().items():
            shares[LAYER_OF[name]] += value / (end - start)
        return dict(sorted(shares.items(), key=lambda item: -item[1]))

    def layer_metrics(self, points: int) -> dict[str, float]:
        """Per-layer numbers for the last scan, from its spans and counts."""
        total: dict[str, float] = defaultdict(float)
        durations: dict[str, list[float]] = defaultdict(list)
        for name, start, end, _, _ in self.spans:
            total[name] += end - start
            if name in ("directions.pick", "spstore.dedup", "fuzzing.exec"):
                durations[name].append((end - start) * 1e6)
        calls = self._calls()
        self_s = self._self_times()
        c = self.counts
        iters = c["loop_iters"]
        return {
            "callgraph.subgraph_calls": calls["callgraph.subgraph"],
            "callgraph.subgraph_s": total["callgraph.subgraph"],
            "callgraph.resolve_calls": calls["callgraph.resolve"],
            "callgraph.resolve_s": total["callgraph.resolve"],
            "callgraph.query_calls": calls["callgraph.query"],
            "callgraph.query_s": total["callgraph.query"],
            "directions.picks": calls["directions.pick"],
            "directions.pick_s": total["directions.pick"],
            "directions.pick_us_p50": _percentile(durations["directions.pick"], 0.5),
            "directions.pick_us_p99": _percentile(durations["directions.pick"], 0.99),
            "directions.register_s": total["directions.register"],
            "spstore.dedup_calls": calls["spstore.dedup"],
            "spstore.dedup_s": total["spstore.dedup"],
            "spstore.dedup_us_p99": _percentile(durations["spstore.dedup"], 0.99),
            "spstore.merge_ratio": c["merges"] / max(1, calls["spstore.dedup"]),
            "spstore.points": points,
            "agents.runs": calls["agents.run"],
            "agents.steps": c["steps"],
            "agents.tool_calls": calls["agents.tool"],
            "agents.provider_s": total["agents.provider"],
            "agents.loop_self_s": self_s["agents.run"],
            "agents.prompt_tokens": c["prompt_tokens"],
            "agents.completion_tokens": c["completion_tokens"],
            "recipes.variant_calls": calls["recipes.variants"],
            "recipes.variant_s": total["recipes.variants"],
            "fuzzing.execs": calls["fuzzing.exec"],
            "fuzzing.exec_us_p50": _percentile(durations["fuzzing.exec"], 0.5),
            "fuzzing.exec_us_p99": _percentile(durations["fuzzing.exec"], 0.99),
            "fuzzing.loop_iters": iters,
            "fuzzing.loop_self_us": self_s["fuzzing.loop"] / max(1, iters) * 1e6,
            "fuzzing.loops": c["loops"],
            "fuzzing.cov_ratio": c["corpus_adds"] / max(1, iters),
            "fuzzing.crash_execs": c["crash_execs"],
            "fuzzing.repro_runs": c["repro_runs"],
            "fuzzing.repro_s": total["fuzzing.repro"],
            "fuzzing.verify_calls": calls["fuzzing.verify"],
            "store.puts": calls["store.put"],
            "store.put_s": total["store.put"],
            "pipeline.plan_s": total["pipeline.plan"],
            "pipeline.worker_s": total["pipeline.worker"],
            "pipeline.self_s": sum(value for name, value in self_s.items()
                                   if LAYER_OF[name] == "pipeline"),
        }


def wrapped_attributes() -> list[str]:
    """Every attribute of a ``vulnhunt`` module or class still wrapped."""
    found = []
    for mod_name, module in list(sys.modules.items()):
        if not (mod_name == "vulnhunt" or mod_name.startswith("vulnhunt.")):
            continue
        for attr, value in vars(module).items():
            if hasattr(value, MARK):
                found.append(f"{mod_name}.{attr}")
            if isinstance(value, type):
                for name, member in vars(value).items():
                    if hasattr(member, MARK):
                        found.append(f"{mod_name}.{attr}.{name}")
    return found

