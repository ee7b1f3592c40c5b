"""Blob mutation operators.

One call applies exactly one operator chosen by the run's RNG: bit flip,
byte set, insert, delete, block duplicate, splice with another corpus blob,
or dictionary token insert.  Results always stay within [0, max_len] bytes.
Degenerate inputs are handled without fuss (mutating an empty blob with a
shrinking operator yields an empty blob).

Every draw goes straight to ``rng.getrandbits``, spelled out as CPython's
``Random._randbelow_with_getrandbits``: for a draw below ``n``, take
``k = n.bit_length()`` bits and draw again while the result is ``>= n``.
That is the whole of ``randrange(n)``, ``randrange(1, m)`` (which is
``1 + randrange(m - 1)``) and ``choice(seq)`` (``seq[randrange(len(seq))]``)
for ``random.Random``, so each draw consumes the same bits and returns the
same number as those wrappers, without their Python frames.  The function
body and those three wrappers' reduction to it are identical in CPython
3.10 to 3.13 (3.10 adds an early return for ``n == 0``, and no bound here is
0).  Under each of those four versions, a mutation stream of 50 seeds by 400
steps hashes the same through these draws as through ``randrange`` and
``choice``.

:func:`_below` makes the draws whose bound depends on the blob.  The two
constant ones are inlined with their own widths: ``randrange(8)`` takes 4
bits and ``randrange(256)`` takes 9, since the width is ``n.bit_length()``,
not ``(n - 1).bit_length()``.  The operator is the entry of a table of the
operator methods, built once per Mutator in ``OPERATORS`` order, at a 3-bit
draw below 7: the draw ``rng.choice(OPERATORS)`` would make, picking the
operator the name lookup would.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

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


def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """A draw below ``n > 0``, equal to ``randrange(n)`` on the same stream."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


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
        bits = rng.getrandbits
        r = bits(3)
        while r >= 7:
            r = bits(3)
        return self._ops[r](self, blob, rng, corpus_blobs)[: self.max_len]

    # ----- operators -----

    def _bit_flip(self, blob: bytes, rng: random.Random, _corpus) -> bytes:
        if not blob:
            return blob
        bits = rng.getrandbits
        data = bytearray(blob)
        pos = _below(bits, len(data))
        shift = bits(4)
        while shift >= 8:
            shift = bits(4)
        data[pos] ^= 1 << shift
        return bytes(data)

    def _byte_set(self, blob: bytes, rng: random.Random, _corpus) -> bytes:
        bits = rng.getrandbits
        value = bits(9)
        while value >= 256:
            value = bits(9)
        if not blob:
            return bytes((value,))
        # The value is drawn before the position, as in
        # ``data[randrange(len(data))] = randrange(256)``.
        data = bytearray(blob)
        data[_below(bits, len(data))] = value
        return bytes(data)

    def _insert(self, blob: bytes, rng: random.Random, _corpus) -> bytes:
        bits = rng.getrandbits
        pos = _below(bits, len(blob) + 1)
        value = bits(9)
        while value >= 256:
            value = bits(9)
        return blob[:pos] + bytes((value,)) + blob[pos:]

    def _delete(self, blob: bytes, rng: random.Random, _corpus) -> bytes:
        if not blob:
            return blob
        pos = _below(rng.getrandbits, len(blob))
        return blob[:pos] + blob[pos + 1 :]

    def _block_duplicate(self, blob: bytes, rng: random.Random, _corpus) -> bytes:
        if not blob:
            return blob
        bits = rng.getrandbits
        start = _below(bits, len(blob))
        length = 1 + _below(bits, len(blob) - start)
        block = blob[start : start + length]
        pos = _below(bits, len(blob) + 1)
        return blob[:pos] + block + blob[pos:]

    def _splice(self, blob: bytes, rng: random.Random, corpus_blobs: Sequence[bytes]) -> bytes:
        partners = [b for b in corpus_blobs if b]
        if not partners:
            return self._insert(blob, rng, corpus_blobs)
        bits = rng.getrandbits
        partner = partners[_below(bits, len(partners))]
        cut_a = _below(bits, len(blob) + 1)
        cut_b = _below(bits, len(partner) + 1)
        return blob[:cut_a] + partner[cut_b:]

    def _dict_insert(self, blob: bytes, rng: random.Random, corpus_blobs) -> bytes:
        if not self.dictionary:
            return self._insert(blob, rng, corpus_blobs)
        bits = rng.getrandbits
        token = self.dictionary[_below(bits, len(self.dictionary))]
        pos = _below(bits, len(blob) + 1)
        return blob[:pos] + token + blob[pos:]
