"""Coverage-deduplicated seed corpora.

A corpus admits a blob only when its coverage (the executed-function set)
is new, so no two seeds ever share a coverage set; ``coverages`` is the set
of them, which a fuzz loop tests novelty against.  ``partners`` keeps the
non-empty seed blobs in seed order, the list a bound mutation splices
from, so no mutation rebuilds it.
Seeds carry an energy weight used by the fuzzing loops: fresh seeds and
seeds whose latest mutation unlocked new coverage run hot (4x), cooling by
half on every pick with a floor of 1.
"""

from __future__ import annotations

from dataclasses import dataclass

HOT_ENERGY = 4.0
MIN_ENERGY = 1.0


@dataclass
class Seed:
    blob: bytes
    coverage: frozenset[str]
    origin: str
    energy: float = HOT_ENERGY


class Corpus:
    """Ordered seed set with coverage-novelty admission."""

    def __init__(self) -> None:
        self.seeds: list[Seed] = []
        self.partners: list[bytes] = []  # the non-empty seed blobs, in seed order
        self.coverages: set[frozenset[str]] = set()

    def add(self, blob: bytes, coverage: frozenset[str], origin: str) -> Seed | None:
        """Admit a blob if its coverage set is new; returns the seed or None."""
        if coverage in self.coverages:
            return None
        seed = Seed(blob=blob, coverage=coverage, origin=origin)
        self.seeds.append(seed)
        if blob:
            self.partners.append(blob)
        self.coverages.add(coverage)
        return seed

    def cool(self, seed: Seed) -> None:
        """Halve a seed's energy on pick, with a floor of 1."""
        seed.energy = max(MIN_ENERGY, seed.energy / 2.0)

    def heat(self, seed: Seed) -> None:
        """Reset a seed to hot after its mutation added coverage."""
        seed.energy = HOT_ENERGY
