"""Coverage-deduplicated seed corpora.

A corpus admits a blob only when its coverage fingerprint (a hash of the
executed-function set) is new, so no two seeds ever share a fingerprint.
Seeds carry an energy weight used by the fuzzing loops: fresh seeds and
seeds whose latest mutation unlocked new coverage run hot (4x), cooling by
half on every pick with a floor of 1.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

HOT_ENERGY = 4.0
MIN_ENERGY = 1.0


def coverage_fingerprint(coverage: frozenset[str]) -> str:
    joined = ",".join(sorted(coverage))
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


@dataclass
class Seed:
    blob: bytes
    fingerprint: str
    origin: str
    energy: float = HOT_ENERGY


class Corpus:
    """Ordered seed set with coverage-novelty admission."""

    def __init__(self) -> None:
        self.seeds: list[Seed] = []
        self._fingerprints: set[str] = set()

    def __len__(self) -> int:
        return len(self.seeds)

    def has_fingerprint(self, fingerprint: str) -> bool:
        return fingerprint in self._fingerprints

    def add(self, blob: bytes, coverage: frozenset[str], origin: str) -> Seed | None:
        """Admit a blob if its coverage set is new; returns the seed or None."""
        fingerprint = coverage_fingerprint(coverage)
        if fingerprint in self._fingerprints:
            return None
        seed = Seed(blob=blob, fingerprint=fingerprint, origin=origin)
        self.seeds.append(seed)
        self._fingerprints.add(fingerprint)
        return seed

    def cool(self, seed: Seed) -> None:
        """Halve a seed's energy on pick, with a floor of 1."""
        seed.energy = max(MIN_ENERGY, seed.energy / 2.0)

    def heat(self, seed: Seed) -> None:
        """Reset a seed to hot after its mutation added coverage."""
        seed.energy = HOT_ENERGY
