"""Fuzzing loops and crash reproduction.

Two loop flavors share one engine:

* the global fuzzer runs in the background of a whole worker, feeding on
  direction seeds and false-positive seeds;
* the suspicious-point fuzzer runs per SP, mutating failed PoC attempts
  while the agent thinks.  The attempts' own blobs run through
  ``sp_fuzzer_verify``, which returns the runs it made, up to the first crash.

Loops are resumable objects pumped in deterministic slices: given the same
rng seed, corpus history, and target, the execution stream is identical
run-to-run, which is what lets end-to-end tests pin exact iteration counts.

Each iteration picks a parent seed with probability proportional to its
energy, written out the way CPython 3.10 to 3.12 computes
``random.choices(range(n), weights=energies, k=1)``:
``bisect(list(accumulate(energies)), random() * total, 0, n - 1)``.  That is
the same single ``random()`` call landing on the same index, without the
general path's argument checks and its one-element list, so the stream is
the one ``random.choices`` gives.  The total needs no float conversion:
energies are already floats, ``HOT_ENERGY`` halved down to ``MIN_ENERGY``,
and their sums are exact.  The accumulated list is rebuilt, the same way,
only when an energy may have changed: at the start of each ``run`` slice
(anything may write energies between slices), after a pick that cooled its
parent, and after an admission heats the parent.  A parent already at
``MIN_ENERGY`` is not cooled at all, since cooling at the floor is a no-op;
any other energy, including one written below the floor, changes when
cooled.  Once every seed has cooled to the floor, picks stop changing
energies, so most iterations reuse the list.

The mutation is bound once per ``run`` slice (``Mutator.bind``) to the loop's
rng and the corpus's ``partners``.  Both the partner list and the mutator's
dictionary are bound by reference, so a seed admitted during a slice is a
splice partner from the next iteration on, and a token added between slices
is drawn from in the next one.  Novelty is a membership test on the
corpus's ``coverages``.

Reproduction implements the operational crash contract: an input proves a
location vulnerable only if every one of N runs crashes at the same location
with the same vulnerability type (default quorum 10).
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate

from .corpus import MIN_ENERGY, Corpus
from .mutate import Mutator
from .target import ExecutionResult, TargetRunner

DEFAULT_QUORUM = 10


@dataclass
class CrashFinding:
    """One crashing execution observed by a fuzzing loop."""

    blob: bytes
    result: ExecutionResult
    origin: str
    iteration: int


@dataclass
class FuzzStats:
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

    def run(self, iterations: int) -> list[CrashFinding]:
        """Pump the loop for up to ``iterations`` (bounded by the budget).

        Crashing inputs are returned immediately and never enter the corpus;
        inputs with novel coverage do, resetting their parent seed to hot.
        The one exception is a cold start: with an empty corpus the empty
        blob runs first, a crash there is returned at iteration 0, and the
        empty blob becomes the only parent either way, since the loop needs
        something to mutate.  ``iterations_done`` counts every iteration
        started, also one whose mutator or runner raised.
        """
        crashes: list[CrashFinding] = []
        corpus, stats, rng = self.corpus, self.stats, self.rng
        if not corpus.seeds:
            result = self.runner.run(b"")
            if result.outcome == "crash":
                stats.crashes += 1
                crashes.append(CrashFinding(b"", result, self.origin, 0))
            corpus.add(b"", result.coverage, origin="empty")
        seeds, coverages, cool = corpus.seeds, corpus.coverages, corpus.cool
        draw, execute = rng.random, self.runner.run
        mutate = self.mutator.bind(rng, corpus.partners)
        done, cum = self.iterations_done, None
        try:
            # ``done`` counts the iterations started; an empty range leaves it.
            for done in range(done + 1, done + 1 + min(iterations, self.budget_left)):
                if cum is None:
                    cum = list(accumulate([seed.energy for seed in seeds]))
                    total, hi = cum[-1], len(cum) - 1
                parent = seeds[bisect(cum, draw() * total, 0, hi)]
                if parent.energy != MIN_ENERGY:
                    cool(parent)
                    cum = None
                blob = mutate(parent.blob)
                result = execute(blob)
                if result.outcome == "crash":
                    stats.crashes += 1
                    crashes.append(CrashFinding(blob, result, self.origin, done))
                elif result.coverage not in coverages:
                    corpus.add(blob, result.coverage, origin=self.origin)
                    corpus.heat(parent)
                    stats.corpus_adds += 1
                    cum = None
        finally:
            self.iterations_done = done
        return crashes


def sp_fuzzer_verify(blobs: list[bytes], runner: TargetRunner) -> list[ExecutionResult]:
    """Run 1-3 candidate PoC blobs in order and return the results of the
    runs made: the first crash ends the list, and the blobs after it do not
    run.

    Raises:
        ValueError: when not given 1 to 3 blobs.
    """
    if not 1 <= len(blobs) <= 3:
        raise ValueError(f"sp_fuzzer_verify takes 1-3 blobs, got {len(blobs)}")
    results = []
    for blob in blobs:
        results.append(runner.run(blob))
        if results[-1].outcome == "crash":
            break
    return results


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
    unconfirmed.  The first run that does not crash ends the replay, and
    ``runs`` counts the runs made.
    """
    locations: list[str] = []
    signatures: set[tuple[str, str]] = set()
    for run in range(1, quorum + 1):
        result = runner.run(blob)
        if result.outcome != "crash" or result.crash is None:
            return ReproduceOutcome(False, run, tuple(locations))
        locations.append(result.crash.location)
        signatures.add((result.crash.location, result.crash.vuln_type))
    return ReproduceOutcome(len(signatures) == 1, quorum, tuple(locations))
