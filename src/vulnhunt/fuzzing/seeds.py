"""Seed derivation from analysis context.

When no seed-generator agent is configured, seeds come from a deterministic
fallback: quoted string literals and numeric literals are scraped from the
relevant functions' source text, in source order, and emitted both as
individual seeds and as one concatenation.  The same tokens feed the
mutator's dictionary.

Encoding of numeric literals is fixed so oracles can predict seed bytes:
hex literals become their big-endian byte run (0x89504E47 -> 89 50 4E 47),
decimal literals below 256 one byte, larger ones a little-endian u32 (u64
when they do not fit).
"""

from __future__ import annotations

import re

from ..callgraph import CallGraph
from ..directions import Direction
from ..errors import LifecycleError
from ..spstore import SuspiciousPoint

# One scan in source order: a double- or single-quoted string, else a hex
# literal, else a decimal one.  A number inside a string is part of the
# string, and a hex literal's digits are never a decimal.
_LITERAL_RE = re.compile(
    r'"((?:\\.|[^"\\])*)"' + r"|'((?:\\.|[^'\\])*)'"
    + r"|(0[xX][0-9a-fA-F]+|(?<![\w.])\d+(?![\w.]))"
)

_ESCAPES = {"n": b"\n", "t": b"\t", "r": b"\r", "0": b"\x00", "\\": b"\\", '"': b'"', "'": b"'"}


def _decode_string(raw: str) -> bytes:
    out = bytearray()
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch == "\\" and i + 1 < len(raw):
            nxt = raw[i + 1]
            if nxt == "x" and i + 3 < len(raw):
                try:
                    out.append(int(raw[i + 2 : i + 4], 16))
                    i += 4
                    continue
                except ValueError:
                    pass
            if nxt in _ESCAPES:
                out.extend(_ESCAPES[nxt])
                i += 2
                continue
        out.extend(ch.encode("utf-8", errors="replace"))
        i += 1
    return bytes(out)


def _encode_number(token: str) -> bytes:
    if token.lower().startswith("0x"):
        digits = token[2:]
        if len(digits) % 2:
            digits = "0" + digits
        return bytes.fromhex(digits)
    value = int(token)
    if value < 256:
        return bytes([value])
    if value <= 0xFFFFFFFF:
        return value.to_bytes(4, "little")
    return (value & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")


def extract_literal_tokens(source_text: str) -> list[bytes]:
    """Scrape string/numeric literal tokens from source, in source order.

    Duplicates are dropped keeping first occurrence; empty tokens are
    skipped.
    """
    tokens: dict[bytes, None] = {}
    for match in _LITERAL_RE.finditer(source_text):
        double, single, number = match.groups()
        if number is not None:
            token = _encode_number(number)
        else:
            token = _decode_string(double if double is not None else single)
        if token:
            tokens[token] = None
    return list(tokens)


def _seeds_from_functions(function_ids: list[str], subgraph: CallGraph) -> tuple[list[bytes], list[bytes]]:
    tokens: list[bytes] = []
    for fid in function_ids:
        rec = subgraph.functions.get(fid)
        if rec is None:
            continue
        if rec.literal_tokens is None:
            rec.literal_tokens = extract_literal_tokens(rec.source_text)
        for token in rec.literal_tokens:
            if token not in tokens:
                tokens.append(token)
    seeds = list(tokens)
    if len(tokens) >= 2:
        seeds.append(b"".join(tokens))
    return seeds, tokens


def seed_from_direction(
    direction: Direction,
    subgraph: CallGraph,
    agent_blobs: list[bytes] | None = None,
) -> tuple[list[bytes], list[bytes]]:
    """Seeds plus dictionary tokens for one direction.

    Agent-emitted blobs (when a seed-generator agent ran) take precedence;
    the literal-scrape fallback still contributes dictionary tokens.

    Returns:
        (seed blobs, dictionary tokens), both deduplicated in order.
    """
    ids: list[str] = []
    for name in list(direction.entry_functions) + list(direction.core_functions):
        rec = subgraph.resolve(name)
        if rec is not None and rec.id not in ids:
            ids.append(rec.id)
    seeds, tokens = _seeds_from_functions(ids, subgraph)
    if agent_blobs:
        seeds = [b for b in agent_blobs if b]
    return seeds, tokens


def seed_from_fp(sp: SuspiciousPoint, subgraph: CallGraph) -> tuple[list[bytes], list[bytes]]:
    """Seeds scoped to a false-positive SP's function.

    Even rejected reports often point at interesting code, so their
    functions' literals become fuzzing seeds (origin ``fp-sp``).

    Raises:
        LifecycleError: the SP's verdict is not ``fp``.
    """
    if sp.verdict != "fp":
        raise LifecycleError(f"{sp.id}: seed_from_fp requires an fp verdict, got '{sp.verdict}'")
    return _seeds_from_functions([sp.function_id], subgraph)
