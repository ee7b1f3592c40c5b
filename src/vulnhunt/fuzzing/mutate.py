"""Blob mutation operators.

One call applies exactly one operator chosen by the run's RNG: bit flip,
byte set, insert, delete, block duplicate, splice with another corpus blob,
or dictionary token insert.  Results always stay within [0, max_len] bytes.
Degenerate inputs are handled without fuss (mutating an empty blob with a
shrinking operator yields an empty blob).

The operator is drawn with ``rng.choice`` over a table of the operator
methods built once per Mutator in ``OPERATORS`` order.  ``choice`` draws only
an index below the sequence's length, so choosing from the table consumes
the same random numbers, and picks the same operator, as choosing its name
from ``OPERATORS`` and looking the method up would.
"""

from __future__ import annotations

import random
from typing import Sequence

DEFAULT_MAX_LEN = 1 << 20  # matches the execution blob limit

OPERATORS = (
    "bit_flip",
    "byte_set",
    "insert",
    "delete",
    "block_duplicate",
    "splice",
    "dict_insert",
)


class Mutator:
    """Mutation engine parameterized by a dictionary and corpus access."""

    def __init__(self, max_len: int = DEFAULT_MAX_LEN, dictionary: Sequence[bytes] = ()):
        self.max_len = max_len
        self.dictionary: list[bytes] = [tok for tok in dictionary if tok]
        # Unbound, so the table holds no reference back to the instance.
        self._ops = tuple(getattr(type(self), f"_{op}") for op in OPERATORS)

    def add_token(self, token: bytes) -> None:
        if token and token not in self.dictionary:
            self.dictionary.append(token)

    def mutate(
        self,
        blob: bytes,
        rng: random.Random,
        corpus_blobs: Sequence[bytes] = (),
    ) -> bytes:
        return rng.choice(self._ops)(self, blob, rng, corpus_blobs)[: self.max_len]

    # ----- operators -----

    def _bit_flip(self, blob: bytes, rng: random.Random, _corpus) -> bytes:
        if not blob:
            return blob
        data = bytearray(blob)
        pos = rng.randrange(len(data))
        data[pos] ^= 1 << rng.randrange(8)
        return bytes(data)

    def _byte_set(self, blob: bytes, rng: random.Random, _corpus) -> bytes:
        if not blob:
            return bytes([rng.randrange(256)])
        data = bytearray(blob)
        data[rng.randrange(len(data))] = rng.randrange(256)
        return bytes(data)

    def _insert(self, blob: bytes, rng: random.Random, _corpus) -> bytes:
        pos = rng.randrange(len(blob) + 1)
        return blob[:pos] + bytes([rng.randrange(256)]) + blob[pos:]

    def _delete(self, blob: bytes, rng: random.Random, _corpus) -> bytes:
        if not blob:
            return blob
        pos = rng.randrange(len(blob))
        return blob[:pos] + blob[pos + 1 :]

    def _block_duplicate(self, blob: bytes, rng: random.Random, _corpus) -> bytes:
        if not blob:
            return blob
        start = rng.randrange(len(blob))
        length = rng.randrange(1, len(blob) - start + 1)
        block = blob[start : start + length]
        pos = rng.randrange(len(blob) + 1)
        return blob[:pos] + block + blob[pos:]

    def _splice(self, blob: bytes, rng: random.Random, corpus_blobs: Sequence[bytes]) -> bytes:
        partners = [b for b in corpus_blobs if b]
        if not partners:
            return self._insert(blob, rng, corpus_blobs)
        partner = partners[rng.randrange(len(partners))]
        cut_a = rng.randrange(len(blob) + 1)
        cut_b = rng.randrange(len(partner) + 1)
        return blob[:cut_a] + partner[cut_b:]

    def _dict_insert(self, blob: bytes, rng: random.Random, corpus_blobs) -> bytes:
        if not self.dictionary:
            return self._insert(blob, rng, corpus_blobs)
        token = self.dictionary[rng.randrange(len(self.dictionary))]
        pos = rng.randrange(len(blob) + 1)
        return blob[:pos] + token + blob[pos:]
