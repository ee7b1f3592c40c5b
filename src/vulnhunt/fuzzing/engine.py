"""Fuzzing loops and crash reproduction.

Two loop flavors share one engine:

* the global fuzzer runs in the background of a whole worker, feeding on
  direction seeds and false-positive seeds;
* the suspicious-point fuzzer runs per SP, either verifying a handful of
  agent-crafted blobs (verification mode) or mutating failed PoC attempts
  while the agent thinks (background mode).

Loops are resumable objects pumped in deterministic slices: given the same
rng seed, corpus history, and target, the execution stream is identical
run-to-run, which is what lets end-to-end tests pin exact iteration counts.

Reproduction implements the operational crash contract: an input proves a
location vulnerable only if every one of N runs crashes at the same location
with the same vulnerability type (default quorum 10).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .corpus import Corpus, Seed
from .mutate import Mutator
from .target import ExecutionResult, TargetRunner

DEFAULT_QUORUM = 10
SKIP_POLICY = "stop-on-first-crash"


@dataclass
class CrashFinding:
    """One crashing execution observed by a fuzzing loop."""

    blob: bytes
    result: ExecutionResult
    origin: str
    iteration: int


@dataclass
class FuzzStats:
    executions: int = 0
    crashes: int = 0
    corpus_adds: int = 0


class FuzzLoop:
    """A resumable mutation loop over one corpus and one target runner."""

    def __init__(
        self,
        runner: TargetRunner,
        corpus: Corpus,
        mutator: Mutator,
        rng: random.Random,
        origin: str,
        iteration_budget: int,
    ):
        self.runner = runner
        self.corpus = corpus
        self.mutator = mutator
        self.rng = rng
        self.origin = origin
        self.iteration_budget = iteration_budget
        self.iterations_done = 0
        self.stats = FuzzStats()

    @property
    def budget_left(self) -> int:
        return max(0, self.iteration_budget - self.iterations_done)

    def _pick_seed(self) -> Seed:
        seeds = self.corpus.seeds
        weights = [seed.energy for seed in seeds]
        choice = self.rng.choices(range(len(seeds)), weights=weights, k=1)[0]
        seed = seeds[choice]
        self.corpus.cool(seed)
        return seed

    def run(self, iterations: int) -> list[CrashFinding]:
        """Pump the loop for up to ``iterations`` (bounded by the budget).

        Crashing inputs are returned immediately and never enter the corpus;
        inputs with novel coverage do, resetting their parent seed to hot.
        """
        crashes: list[CrashFinding] = []
        if not self.corpus.seeds:
            # A cold start still needs something to mutate.
            result = self.runner.run(b"")
            self.stats.executions += 1
            self.corpus.add(b"", result.coverage, origin="empty")
        steps = min(iterations, self.budget_left)
        for _ in range(steps):
            self.iterations_done += 1
            parent = self._pick_seed()
            blob = self.mutator.mutate(parent.blob, self.rng, self.corpus.blobs)
            result = self.runner.run(blob)
            self.stats.executions += 1
            if result.outcome == "crash":
                self.stats.crashes += 1
                crashes.append(
                    CrashFinding(
                        blob=blob,
                        result=result,
                        origin=self.origin,
                        iteration=self.iterations_done,
                    )
                )
                continue
            if not self.corpus.has_coverage(result.coverage):
                self.corpus.add(blob, result.coverage, origin=self.origin)
                self.corpus.heat(parent)
                self.stats.corpus_adds += 1
        return crashes


def run_global_fuzzer(
    runner: TargetRunner,
    corpus: Corpus,
    iteration_budget: int,
    rng_seed: int | str,
    mutator: Mutator | None = None,
) -> tuple[list[CrashFinding], FuzzLoop]:
    """Run the coverage-guided background fuzzer for a full budget.

    An empty corpus is kicked off with the empty blob.  Returns all crash
    findings plus the (exhausted) loop for stats inspection.
    """
    loop = FuzzLoop(
        runner=runner,
        corpus=corpus,
        mutator=mutator or Mutator(),
        rng=random.Random(rng_seed),
        origin="global",
        iteration_budget=iteration_budget,
    )
    crashes = loop.run(iteration_budget)
    return crashes, loop


@dataclass
class VerifyOutcome:
    """Result of executing up to three PoC blobs against the target."""

    results: list[ExecutionResult | None] = field(default_factory=list)
    crashed_index: int | None = None
    skip_policy: str = SKIP_POLICY

    @property
    def crashed(self) -> bool:
        return self.crashed_index is not None


def sp_fuzzer_verify(blobs: list[bytes], runner: TargetRunner) -> VerifyOutcome:
    """Execute 1-3 candidate PoC blobs; any crash short-circuits.

    Blobs after the first crashing one are skipped (recorded as None in the
    results list, policy ``stop-on-first-crash``).

    Raises:
        ValueError: when not given 1 to 3 blobs.
    """
    if not 1 <= len(blobs) <= 3:
        raise ValueError(f"sp_fuzzer_verify takes 1-3 blobs, got {len(blobs)}")
    outcome = VerifyOutcome()
    for i, blob in enumerate(blobs):
        if outcome.crashed:
            outcome.results.append(None)
            continue
        result = runner.run(blob)
        outcome.results.append(result)
        if result.outcome == "crash":
            outcome.crashed_index = i
    return outcome


def make_sp_background_loop(
    failed_blobs: list[bytes],
    runner: TargetRunner,
    rng_seed: int | str,
    iteration_budget: int,
    mutator: Mutator | None = None,
) -> FuzzLoop:
    """Background loop scoped to one SP, seeded from its failed PoC attempts.

    Each failed blob runs once to seed the corpus; the loop's stats count
    those runs as executions.
    """
    corpus = Corpus()
    for blob in failed_blobs:
        result = runner.run(blob)
        corpus.add(blob, result.coverage, origin="poc-attempt")
    loop = FuzzLoop(
        runner=runner,
        corpus=corpus,
        mutator=mutator or Mutator(),
        rng=random.Random(rng_seed),
        origin="sp-background",
        iteration_budget=iteration_budget,
    )
    loop.stats.executions = len(failed_blobs)
    return loop


@dataclass(frozen=True)
class ReproduceOutcome:
    confirmed: bool
    runs: int
    crash_locations: tuple[str, ...]

    @property
    def reproduced_count(self) -> int:
        return self.runs if self.confirmed else 0


def reproduce(blob: bytes, runner: TargetRunner, quorum: int = DEFAULT_QUORUM) -> ReproduceOutcome:
    """Replay a crashing input ``quorum`` times.

    Confirmed only when every run crashes at the same location with the same
    vulnerability type; anything else (including a flaky external runner) is
    unconfirmed.
    """
    locations: list[str] = []
    signatures: set[tuple[str, str]] = set()
    for _ in range(quorum):
        result = runner.run(blob)
        if result.outcome != "crash" or result.crash is None:
            return ReproduceOutcome(False, quorum, tuple(locations))
        locations.append(result.crash.location)
        signatures.add((result.crash.location, result.crash.vuln_type))
    return ReproduceOutcome(len(signatures) == 1, quorum, tuple(locations))
