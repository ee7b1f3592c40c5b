"""Blob mutation.

One mutation applies exactly one operator chosen by the run's RNG: bit flip,
byte set, insert, delete, block duplicate, splice with another corpus blob,
or dictionary token insert (``OPERATORS``, in draw order).  Results always
stay within [0, max_len] bytes.  An empty blob stays empty under bit flip,
delete and block duplicate; splice without partners and token insert
without a dictionary fall back to a one-byte insert.

:meth:`Mutator.bind` returns the mutation as one closure over the loop's
``rng.getrandbits``, the mutator's ``max_len`` and dictionary, and a
partner list; all seven operators are spelled out in its body, so a
mutation costs one Python frame and each random draw none.  The dictionary
and the partner list are bound by reference: tokens added and partners
appended after binding are drawn from.

Every draw is written out as CPython's ``Random._randbelow_with_getrandbits``:
for a draw below ``n``, take ``k = n.bit_length()`` bits and draw again while
the result is ``>= n``.  That is the whole of ``randrange(n)``,
``randrange(1, m)`` (``1 + randrange(m - 1)``) and ``choice(seq)``
(``seq[randrange(len(seq))]``) for ``random.Random`` in CPython 3.10 to 3.13
(3.10 adds an early return for ``n == 0``, and no bound here is 0), so each
draw consumes the same bits and returns the same number as those wrappers.
The operator is a 3-bit draw below 7, the draw ``rng.choice(OPERATORS)``
makes; ``randrange(8)`` takes 4 bits and ``randrange(256)`` takes 9, since
the width is ``n.bit_length()``, not ``(n - 1).bit_length()``.  The module
imports only the standard library; loaded by path under CPython 3.10.13,
3.11.7, 3.12.1 and 3.13.0, a mutation stream of 50 seeds by 400 steps is the
same through these draws as through ``randrange`` and ``choice``.
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


# The one-byte blobs, by value: indexing is cheaper than ``bytes((value,))``.
_BYTE = tuple(bytes((value,)) for value in range(256))


class Mutator:
    """Mutation engine parameterized by a length limit and a dictionary."""

    def __init__(self, max_len: int = DEFAULT_MAX_LEN, dictionary: Sequence[bytes] = ()):
        if max_len < 1:
            raise ValueError(f"max_len must be at least 1, got {max_len}")
        self.max_len = max_len
        self.dictionary: list[bytes] = [tok for tok in dictionary if tok]

    def add_token(self, token: bytes) -> None:
        if token and token not in self.dictionary:
            self.dictionary.append(token)

    def bind(self, rng: random.Random, partners: Sequence[bytes]) -> Callable[[bytes], bytes]:
        """The mutation of one blob, drawing from ``rng`` and splicing with
        ``partners`` (non-empty blobs, as a corpus keeps them)."""
        bits, max_len, dictionary, byte = rng.getrandbits, self.max_len, self.dictionary, _BYTE

        def mutate(blob: bytes) -> bytes:
            op = bits(3)
            while op == 7:
                op = bits(3)
            n = len(blob)
            if op == 5 and partners:  # splice: partner, cut in blob, cut in partner
                m = len(partners)
                k = m.bit_length()
                i = bits(k)
                while i >= m:
                    i = bits(k)
                partner = partners[i]
                k = (n + 1).bit_length()
                cut_a = bits(k)
                while cut_a > n:
                    cut_a = bits(k)
                m = len(partner)
                k = (m + 1).bit_length()
                cut_b = bits(k)
                while cut_b > m:
                    cut_b = bits(k)
                return (blob[:cut_a] + partner[cut_b:])[:max_len]
            if op == 6 and dictionary:  # dict_insert: token, then position
                m = len(dictionary)
                k = m.bit_length()
                i = bits(k)
                while i >= m:
                    i = bits(k)
                k = (n + 1).bit_length()
                pos = bits(k)
                while pos > n:
                    pos = bits(k)
                return (blob[:pos] + dictionary[i] + blob[pos:])[:max_len]
            if op == 2 or op >= 5:  # insert, also splice and dict_insert without a source
                k = (n + 1).bit_length()
                pos = bits(k)
                while pos > n:
                    pos = bits(k)
                value = bits(9)
                while value >= 256:
                    value = bits(9)
                return (blob[:pos] + byte[value] + blob[pos:])[:max_len]
            if op == 1:  # byte_set draws its value before its position
                value = bits(9)
                while value >= 256:
                    value = bits(9)
                if not n:
                    return byte[value]
            elif not n:  # bit_flip, delete and block_duplicate keep an empty blob
                return blob
            # bit_flip, byte_set, delete and block_duplicate: a position in the blob
            k = n.bit_length()
            pos = bits(k)
            while pos >= n:
                pos = bits(k)
            if op == 0:  # bit_flip: then the bit
                shift = bits(4)
                while shift >= 8:
                    shift = bits(4)
                out = blob[:pos] + byte[blob[pos] ^ (1 << shift)] + blob[pos + 1 :]
            elif op == 1:
                out = blob[:pos] + byte[value] + blob[pos + 1 :]
            elif op == 3:  # delete
                out = blob[:pos] + blob[pos + 1 :]
            else:  # block_duplicate: start at pos, then length, then where it goes
                m = n - pos
                k = m.bit_length()
                length = bits(k)
                while length >= m:
                    length = bits(k)
                k = (n + 1).bit_length()
                at = bits(k)
                while at > n:
                    at = bits(k)
                out = blob[:at] + blob[pos : pos + 1 + length] + blob[at:]
            return out[:max_len]

        return mutate
