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

_STRING_RE = re.compile(r'"((?:\\.|[^"\\])*)"' + r"|'((?:\\.|[^'\\])*)'")
_HEX_RE = re.compile(r"0[xX][0-9a-fA-F]+")
_DEC_RE = re.compile(r"(?<![\w.])\d+(?![\w.])")

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

    Hex literals are matched before bare decimals so ``0x10`` never double
    counts.  Duplicates are dropped keeping first occurrence; empty tokens
    are skipped.
    """
    spans: list[tuple[int, bytes]] = []
    covered: list[tuple[int, int]] = []
    for match in _STRING_RE.finditer(source_text):
        raw = match.group(1) if match.group(1) is not None else match.group(2)
        token = _decode_string(raw)
        if token:
            spans.append((match.start(), token))
        covered.append(match.span())

    def inside_string(pos: int) -> bool:
        return any(a <= pos < b for a, b in covered)

    hex_spans: list[tuple[int, int]] = []
    for match in _HEX_RE.finditer(source_text):
        if inside_string(match.start()):
            continue
        spans.append((match.start(), _encode_number(match.group(0))))
        hex_spans.append(match.span())
    for match in _DEC_RE.finditer(source_text):
        if inside_string(match.start()):
            continue
        if any(a <= match.start() < b for a, b in hex_spans):
            continue
        spans.append((match.start(), _encode_number(match.group(0))))
    spans.sort(key=lambda pair: pair[0])
    tokens: list[bytes] = []
    for _, token in spans:
        if token and token not in tokens:
            tokens.append(token)
    return tokens


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
