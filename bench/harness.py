"""One benchmark invocation: generate inputs, time set-up, run and check
scans in a closed loop, and derive the metrics ``run.py`` prints.

Importing this module imports ``vulnhunt``; ``run.py`` puts the checkout's
``src/`` on the path first.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads
from tracer import TimedStore, Tracer
from vulnhunt import FileStore, MemoryStore, load_call_graph, load_config, run_scan
from vulnhunt.agents import load_scenario
from vulnhunt.fuzzing import load_targets_dir
from vulnhunt.store import StoreBackend

REPO = Path(__file__).resolve().parent.parent
WORK = REPO / ".bench_work"
SETUP_FIRST_REPEATS = 7
SETUP_FIRST_SECONDS = 0.25
SETUP_REPEATS_PER_SCAN = 2
SETUP_MAX_REPEATS = 200

# Metric names and units, in print order, as the benchmark contract lists them.
SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


class Bench:
    """One workload at one seed: its inputs, loaded objects and check state."""

    def __init__(self, name: str, seed: int, sizes: workloads.Sizes):
        self.root = WORK / f"{name}-{seed}-{os.getpid()}"
        shutil.rmtree(self.root, ignore_errors=True)
        self.workload = workloads.build(name, seed, self.root / "inputs", REPO, sizes)
        self.digest: str | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_times: list[float] = []
        self.graph_load_times: list[float] = []
        self.inputs = None
        self._stores = 0

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)

    def setup(self, repeats: int, min_seconds: float = 0.0) -> None:
        """Load the workload files through the public loaders, timing each
        whole load and each call-graph load.  Scans use the first load's
        objects."""
        spent = 0.0
        for done in range(SETUP_MAX_REPEATS):
            if done >= repeats and spent >= min_seconds:
                break
            t0 = time.perf_counter()
            config = load_config(self.workload.config_path)
            t1 = time.perf_counter()
            graph = load_call_graph(config.export_path)
            t2 = time.perf_counter()
            targets = load_targets_dir(config.targets_dir)
            scenario = load_scenario(config.scenario_path)
            t3 = time.perf_counter()
            self.setup_times.append(t3 - t0)
            self.graph_load_times.append(t2 - t1)
            spent += t3 - t0
            if self.inputs is None:
                self.inputs = (config, graph, targets, scenario)

    def _fresh_store(self) -> StoreBackend:
        if not self.workload.file_store:
            return MemoryStore()
        shutil.rmtree(self.root / f"store-{self._stores}", ignore_errors=True)
        self._stores += 1
        return FileStore(self.root / f"store-{self._stores}")

    def scan(self, tracer: Tracer | None = None) -> dict:
        """Run and check one scan; returns its end-to-end numbers, plus its
        per-layer numbers under ``layers`` when traced.

        The scan is cut into pieces at each store call and each start of a
        garbage collection.  Both fall at the same points of the same work
        in every scan of a run, so ``run`` can add up each piece's fastest
        time."""
        config, graph, targets, scenario = self.inputs
        marks: list[tuple[float, str]] = []
        store = TimedStore(self._fresh_store(), marks)
        kwargs = dict(graph=graph, targets=targets, scenario=scenario, store=store)

        def collecting(phase, info):
            if phase == "start":
                marks.append((time.perf_counter(), "gc"))

        # Free the previous scan's cycles now, so every scan starts from the
        # same heap and pays only for its own garbage.
        gc.collect()
        gc.callbacks.append(collecting)
        start = time.perf_counter()
        try:
            if tracer is None:
                result = run_scan(config, **kwargs)
            else:
                result = tracer.call(run_scan, config, **kwargs)
        finally:
            end = time.perf_counter()
            gc.callbacks.remove(collecting)
        stamps = [start] + [stamp for stamp, _ in marks] + [end]
        pieces = [b - a for a, b in zip(stamps, stamps[1:])]
        # Piece i ends at mark i; a missing report counts until scan end.
        last_bug = max(store.report_marks.get(loc, len(marks))
                       for loc in self.workload.expected_methods)
        executions = sum(t.metrics.executions for t in result.tasks)
        row = {
            "scan_s": end - start,
            "time_to_all_bugs_s": sum(pieces[:last_bug + 1]),
            "execs_per_s": executions / (end - start),
            "tokens": sum(t.metrics.tokens for t in result.tasks),
            "bugs_found": len(result.reports),
            "executions": executions,
            "pieces": pieces,
            "kinds": tuple(kind for _, kind in marks),
            "last_bug": last_bug,
        }
        problems = self._check(result)
        if tracer is not None:
            problems += tracer.check(result)
            row["layers"] = tracer.layer_metrics(len(result.spstore.all()))
            row["shares"] = tracer.layer_shares()
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return row

    def _check(self, result) -> list[str]:
        """Problems with one scan's output; empty when it is correct."""
        problems = []
        got = {r["function"]: r["discovery_method"] for r in result.reports}
        want = self.workload.expected_methods
        if got != want or len(result.reports) != len(want):
            problems.append(f"reports {sorted(got.items())} != planted {sorted(want.items())}")
        for task in result.tasks:
            m = task.metrics
            if task.state != "done":
                problems.append(f"task {task.id} ended {task.state}: {task.warnings}")
            if m.sp_deduped != m.tp_v + m.fp + m.unverified:
                problems.append(f"task {task.id}: sp_deduped != tp_v + fp + unverified")
        counts = result.spstore.counts()
        if counts["sp_deduped"] != counts["tp_v"] + counts["fp"] + counts["unverified"]:
            problems.append("run: sp_deduped != tp_v + fp + unverified")
        normalized = json.dumps(
            {
                "reports": result.reports,
                "povs": result.store.list("povs"),
                "points": [sp.to_dict() for sp in result.spstore.all()],
            },
            sort_keys=True,
        )
        digest = hashlib.sha256(normalized.encode("utf-8")).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append("reports or points differ from the first scan at this seed")
        return problems


def _envelope(rows: list[dict]) -> tuple[list[float], dict]:
    """The run's fastest time from scan start to the end of each piece.

    Only the scans that share the run's most common mark sequence count,
    so that piece k is the same work in each of them.
    Piece k of the envelope is the fastest any of them took for piece k;
    returns the running sum and one of those scans.
    """
    groups: dict[tuple, list[dict]] = defaultdict(list)
    for row in rows:
        groups[row["kinds"]].append(row)
    group = max(groups.values(), key=len)
    fastest = [min(piece) for piece in zip(*(row["pieces"] for row in group))]
    return list(itertools.accumulate(fastest)), group[0]


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"min {min(values):.6g}  q1 {q1:.6g}  median {median:.6g}  q3 {q3:.6g}  n={len(values)}"


def run(name: str, seed: int, seconds: float, trace: bool,
        sizes: workloads.Sizes = workloads.Sizes()) -> dict:
    """Run one benchmark invocation; returns the result object to print.

    At least two scans run, so every run checks that one seed gives one
    output; with ``trace`` every untraced scan is followed by a traced one.
    Set-up is timed before the first scan and again after every scan, so
    its samples cover the whole run; ``setup_s`` is the fastest load.  The
    scan timings add up the fastest time of each piece of a scan (see
    ``_envelope``).
    """
    bench = Bench(name, seed, sizes)
    try:
        bench.setup(SETUP_FIRST_REPEATS, SETUP_FIRST_SECONDS)
        untraced: list[dict] = []
        traced: list[dict] = []
        tracer = None
        deadline = time.perf_counter() + seconds
        while bench.attempted < 2 or time.perf_counter() < deadline:
            untraced.append(bench.scan())
            if trace:
                with Tracer() as tracer:
                    traced.append(bench.scan(tracer))
            bench.setup(SETUP_REPEATS_PER_SCAN)
        if tracer is not None:
            tracer.write(WORK / f"spans-{name}.tsv")
    finally:
        bench.close()

    series = {key: [row[key] for row in untraced]
              for key in ("scan_s", "time_to_all_bugs_s", "execs_per_s", "tokens", "bugs_found")}
    series["setup_s"] = bench.setup_times
    if trace:
        fastest = min(traced, key=lambda row: row["scan_s"])
        values = dict(fastest["layers"])
        values["callgraph.load_s"] = min(bench.graph_load_times)
        values["trace.overhead_frac"] = fastest["scan_s"] / min(series["scan_s"]) - 1
    else:
        envelope, scan = _envelope(untraced)
        values = {
            "scan_s": envelope[-1],
            "setup_s": min(series["setup_s"]),
            "time_to_all_bugs_s": envelope[scan["last_bug"]],
            "execs_per_s": scan["executions"] / envelope[-1],
            "tokens": statistics.median(series["tokens"]),
            "bugs_found": statistics.median(series["bugs_found"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in SPEC["per_layer" if trace else "end_to_end"]}

    for key, metric in metrics.items():
        print(f"{name} {key:<28} {metric['value']:>14.6g} {metric['unit']:<6} "
              f"{_spread(series[key]) if key in series else ''}")
    print(f"{name} {'scans_failed':<28} {bench.failed / bench.attempted:>14.6g} ratio  "
          f"{bench.failed} of {bench.attempted} scans")
    if trace:
        print(f"{name} layer self-time shares of the fastest traced scan: " + "  ".join(
            f"{layer} {share:.3f}" for layer, share in fastest["shares"].items()))
    for problem in bench.problems:
        print(f"{name} CHECK FAILED: {problem}", file=sys.stderr)
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
