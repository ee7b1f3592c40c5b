"""Suspicious-point records, lifecycle, and the shared deduplicating store.

A suspicious point (SP) is a control-flow-anchored record of a potential
vulnerability at a specific function.  It moves through three stages:
creation (screening), verification (tp/fp verdict, possibly with a corrected
description), and proof-of-crash (PoC attempts recorded per fuzzer, with
crashing inputs attached by id).  The store is shared across workers, so all
mutation goes through one lock.  Points are indexed by function in insertion
order, since only points of the candidate's function can be duplicates.  The
duplicate judge may be a model call, so it runs outside the lock.

Crashes found by background fuzzing may attach to an SP that was never
verified true (or was judged a false positive); that path sets an explicit
``bypass`` flag on the record instead of faking a verdict.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field

from .errors import (
    LifecycleError,
    ScoreBelowThresholdError,
    UnknownFunctionError,
    ValidationError,
)

# ===== Vulnerability types and sanitizer compatibility =====

SANITIZERS = ("address", "memory", "undefined")

# Each fixed vulnerability type and the one sanitizer that can detect it;
# any other type is written "other(<text>)" and goes to "undefined".
_SANITIZER_FOR: dict[str, str] = {
    "heap-buffer-overflow": "address",
    "stack-buffer-overflow": "address",
    "global-buffer-overflow": "address",
    "out-of-bounds-write": "address",
    "out-of-bounds-read": "address",
    "use-after-free": "address",
    "double-free": "address",
    "null-pointer-dereference": "undefined",
    "integer-overflow": "undefined",
    "format-string": "undefined",
    "arbitrary-write": "address",
    "uninitialized-read": "memory",
}

VULN_TYPES = tuple(_SANITIZER_FOR)

_OTHER_RE = re.compile(r"^other\((?P<text>.+)\)$", re.DOTALL)

SKIP_THRESHOLD = 0.3
DEFAULT_SIMILARITY_THRESHOLD = 0.6


def is_valid_vuln_type(value: str) -> bool:
    """True for one of the fixed types or the ``other(<text>)`` form."""
    return value in VULN_TYPES or bool(_OTHER_RE.match(value))


def is_sanitizer_compatible(vuln_type: str, sanitizer: str) -> bool:
    """True when ``sanitizer`` is the one that detects ``vuln_type``; an
    ``other(<text>)`` type goes to "undefined"."""
    return sanitizer == _SANITIZER_FOR.get(vuln_type, "undefined")


# ===== Description validation =====

_LINE_REF_RE = re.compile(r"\bline\s+\d+\b", re.IGNORECASE)
_ANCHOR_RE = re.compile(
    r"\w+\s*\("                                   # a call-like token
    r"|`[^`]+`|'[A-Za-z_]\w+'|\"[A-Za-z_]\w+\""   # quoted identifier
    r"|\b(?:if|else|while|for|switch|branch|loop|case|when|after|before|"
    r"during|return|calls?|calling|called|check|checks|fails?|passes)\b",
    re.IGNORECASE,
)


def _has_bare_line_locator(description: str) -> bool:
    """A description whose only locator is a line number is too fragile.

    Line numbers drift with every edit; descriptions must anchor to control
    flow (a call, a quoted identifier, or a branch keyword).  Mentioning a
    line number alongside such an anchor is fine.
    """
    return bool(_LINE_REF_RE.search(description)) and not bool(_ANCHOR_RE.search(description))


def _checked_score(score) -> float:
    """``score`` as a float, refused as ``build_candidate`` refuses it."""
    if not isinstance(score, (int, float)) or not (0.0 <= float(score) <= 1.0):
        raise ValidationError(f"score {score!r} outside [0, 1]")
    if float(score) < SKIP_THRESHOLD:
        raise ScoreBelowThresholdError(f"score {score:.2f} below skip threshold {SKIP_THRESHOLD}")
    return float(score)


# ===== Records =====


@dataclass
class SuspiciousPoint:
    """One suspicious point.  Serialized field names are part of the contract."""

    id: str
    function_id: str
    sources: set[tuple[str, str]]
    description: str
    vuln_type: str
    score: float
    is_verified: bool = False
    verdict: str = "unknown"
    poc_guidance: str | None = None
    is_real: bool = False
    poc_attempted_by: set[str] = field(default_factory=set)
    poc_ids: list[str] = field(default_factory=list)
    created_stage: int = 0
    verified_stage: int | None = None
    poc_stage: int | None = None
    bypass: bool = False

    def to_dict(self) -> dict:
        """Serialize with the external field names (``function``, not ``function_id``)."""
        return {
            "id": self.id,
            "function": self.function_id,
            "sources": [list(pair) for pair in sorted(self.sources)],
            "description": self.description,
            "vuln_type": self.vuln_type,
            "score": self.score,
            "is_verified": self.is_verified,
            "verdict": self.verdict,
            "poc_guidance": self.poc_guidance,
            "is_real": self.is_real,
            "poc_attempted_by": sorted(self.poc_attempted_by),
            "poc_ids": list(self.poc_ids),
            "created_stage": self.created_stage,
            "verified_stage": self.verified_stage,
            "poc_stage": self.poc_stage,
            "bypass": self.bypass,
        }


@dataclass(frozen=True)
class DedupOutcome:
    """Result of deduplicating one candidate: merged into an existing SP or inserted."""

    sp_id: str
    merged: bool


def lifecycle_counts(points) -> dict[str, int]:
    """``sp_deduped``, ``tp_v``, ``fp`` and ``unverified`` over ``points``;
    ``sp_deduped`` always equals ``tp_v + fp + unverified``."""
    points = list(points)
    verdicts = [sp.verdict for sp in points if sp.is_verified]
    return {
        "sp_deduped": len(points),
        "tp_v": verdicts.count("tp"),
        "fp": verdicts.count("fp"),
        "unverified": len(points) - len(verdicts),
    }


# ===== Similarity =====

_TOKEN_RE = re.compile(r"[a-z0-9_]+")


def _token_set(text: str) -> frozenset[str]:
    return frozenset(_TOKEN_RE.findall(text.lower()))


def description_similarity(a: str, b: str) -> float:
    """Token-set Jaccard similarity over lowercased word tokens."""
    ta, tb = _token_set(a), _token_set(b)
    if not ta and not tb:
        return 1.0
    union = ta | tb
    if not union:
        return 0.0
    return len(ta & tb) / len(union)


class SPStore:
    """Thread-safe store of suspicious points shared by all workers.

    Args:
        known_functions: the set of function ids SPs may reference.
        similarity_threshold: Jaccard threshold at or above which two
            same-function same-type descriptions are duplicates.
        duplicate_judge: optional override callable ``(candidate, existing)
            -> bool | None``, asked about each same-type point of the
            candidate's function; a non-None answer replaces the Jaccard
            decision.  A scan's judge runs the ``sp-deduplicator`` agent on
            the worker that built the candidate, where the run counts like
            any other.
    """

    def __init__(
        self,
        known_functions: set[str],
        similarity_threshold: float = DEFAULT_SIMILARITY_THRESHOLD,
        duplicate_judge=None,
    ):
        self._known = set(known_functions)
        self._threshold = similarity_threshold
        self._judge = duplicate_judge
        self._lock = threading.RLock()
        self._sps: dict[str, SuspiciousPoint] = {}  # in insertion order
        self._by_function: dict[str, list[str]] = {}
        self._next_id = 1
        self._clock = 0
        self._candidates_seen = 0

    # ----- internals -----

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def _new_id(self) -> str:
        sp_id = f"sp-{self._next_id:06d}"
        self._next_id += 1
        return sp_id

    def _insert(self, sp: SuspiciousPoint) -> None:
        self._sps[sp.id] = sp
        self._by_function.setdefault(sp.function_id, []).append(sp.id)

    # ----- creation -----

    def build_candidate(
        self,
        function_id: str,
        source: tuple[str, str],
        description: str,
        vuln_type: str,
        score: float,
    ) -> SuspiciousPoint:
        """Validate inputs and construct a candidate SP (not yet stored).

        Raises:
            UnknownFunctionError: function id not in the known set.
            ValidationError: bad vuln_type, bad source pair, empty or
                line-number-only description, score out of range.
            ScoreBelowThresholdError: score below the skip threshold (0.3);
                the message contains "below skip threshold".
        """
        with self._lock:
            if function_id not in self._known:
                raise UnknownFunctionError(f"unknown function '{function_id}'")
            if not is_valid_vuln_type(vuln_type):
                raise ValidationError(f"invalid vuln_type '{vuln_type}'")
            if not (isinstance(source, tuple) and len(source) == 2):
                raise ValidationError("source must be a (fuzzer, sanitizer) pair")
            if source[1] not in SANITIZERS:
                raise ValidationError(f"unknown sanitizer '{source[1]}'")
            score = _checked_score(score)
            if not description or not description.strip():
                raise ValidationError("description must be non-empty")
            if _has_bare_line_locator(description):
                raise ValidationError(
                    "description locates the issue only by line number; "
                    "anchor it to control flow (a call, identifier, or branch)"
                )
            return SuspiciousPoint(
                id=self._new_id(),
                function_id=function_id,
                sources={(source[0], source[1])},
                description=description.strip(),
                vuln_type=vuln_type,
                score=score,
                created_stage=self._tick(),
            )

    def create_sp(
        self,
        function_id: str,
        source: tuple[str, str],
        description: str,
        vuln_type: str,
        score: float,
        bypass: bool = False,
    ) -> str:
        """Validate and store a new SP directly (no dedup pass). Returns its id."""
        with self._lock:
            sp = self.build_candidate(function_id, source, description, vuln_type, score)
            sp.bypass = bypass
            self._insert(sp)
            self._candidates_seen += 1
            return sp.id

    # ----- dedup -----

    def _is_duplicate(self, candidate: SuspiciousPoint, existing: SuspiciousPoint) -> bool:
        if existing.vuln_type != candidate.vuln_type:
            return False
        if self._judge is not None:
            answer = self._judge(candidate, existing)
            if answer is not None:
                return bool(answer)
        sim = description_similarity(candidate.description, existing.description)
        return sim >= self._threshold

    def deduplicate(self, candidate: SuspiciousPoint) -> DedupOutcome:
        """Insert the candidate or merge it into the first duplicate.

        Only points of the candidate's function are compared, in insertion
        order.  They are compared outside the lock, so a slow judge stalls
        no other caller; points that joined meanwhile are compared before
        the candidate is inserted.

        On merge: sources are unioned, the score becomes the maximum, and the
        description of the higher-scored record wins (score tie: the
        lexicographically smaller description), so the final record content
        does not depend on arrival order.  The existing id is kept.
        """
        compared = 0
        with self._lock:
            self._candidates_seen += 1
        while True:
            with self._lock:
                ids = self._by_function.get(candidate.function_id, [])
                pending = [self._sps[sp_id] for sp_id in ids[compared:]]
                if not pending:
                    self._insert(candidate)
                    return DedupOutcome(sp_id=candidate.id, merged=False)
            compared += len(pending)
            for existing in pending:
                if self._is_duplicate(candidate, existing):
                    with self._lock:
                        existing.sources |= candidate.sources
                        if candidate.score > existing.score or (
                            candidate.score == existing.score
                            and candidate.description < existing.description
                        ):
                            existing.description = candidate.description
                        existing.score = max(existing.score, candidate.score)
                    return DedupOutcome(sp_id=existing.id, merged=True)

    # ----- verification -----

    @staticmethod
    def check_verdict(verdict, corrected_description=None, new_score=None, poc_guidance=None):
        """A verdict's values, checked and normalized, keyed as
        ``apply_verification`` takes them; None leaves a field as it is.
        Raises ValidationError (ScoreBelowThresholdError for a low score)."""
        if verdict not in ("tp", "fp"):
            raise ValidationError(f"verdict must be 'tp' or 'fp', got {verdict!r}")
        if corrected_description is not None:
            if not isinstance(corrected_description, str) or not corrected_description.strip():
                raise ValidationError("corrected description must be a non-empty string")
            if _has_bare_line_locator(corrected_description):
                raise ValidationError("corrected description locates the issue only by line number")
            corrected_description = corrected_description.strip()
        if new_score is not None:
            new_score = _checked_score(new_score)
        if poc_guidance is not None and not isinstance(poc_guidance, str):
            raise ValidationError("poc guidance must be a string")
        return {"verdict": verdict, "corrected_description": corrected_description,
                "new_score": new_score, "poc_guidance": poc_guidance}

    def apply_verification(
        self,
        sp_id: str,
        verdict: str,
        corrected_description: str | None = None,
        new_score: float | None = None,
        poc_guidance: str | None = None,
    ) -> None:
        """Record a verification verdict exactly once per SP, writing
        nothing unless every value passes ``check_verdict``.

        Raises:
            UnknownFunctionError: unknown sp id.
            ValidationError: a value ``check_verdict`` refuses.
            LifecycleError: the SP is already verified.
        """
        values = self.check_verdict(verdict, corrected_description, new_score, poc_guidance)
        with self._lock:
            sp = self._require(sp_id)
            if sp.is_verified:
                raise LifecycleError(f"{sp_id} is already verified (verdict {sp.verdict})")
            # An accepted description (non-empty) or score (>= 0.3) is never false.
            sp.description = values["corrected_description"] or sp.description
            sp.score = values["new_score"] or sp.score
            if poc_guidance is not None:
                sp.poc_guidance = poc_guidance
            sp.is_verified = True
            sp.verdict = verdict
            sp.verified_stage = self._tick()

    # ----- PoC results -----

    def record_poc_result(
        self,
        sp_id: str,
        fuzzer: str,
        crashed: bool,
        pov_id: str | None = None,
        bypass: bool = False,
    ) -> None:
        """Record the outcome of a PoC campaign for one fuzzer.

        The ordinary path requires a verified true positive; background
        fuzzing results pass ``bypass=True`` to attach to unverified or
        false-positive SPs without faking a verdict.

        Raises:
            LifecycleError: SP not a verified tp and bypass not set.
            ValidationError: ``crashed`` is true without a ``pov_id``.
        """
        with self._lock:
            sp = self._require(sp_id)
            if not bypass and not (sp.is_verified and sp.verdict == "tp"):
                raise LifecycleError(
                    f"{sp_id} is not a verified true positive; "
                    "pass bypass=True for fuzzer-discovered crashes"
                )
            if crashed and not pov_id:
                raise ValidationError("a crash result requires a pov id")
            sp.poc_attempted_by.add(fuzzer)
            if crashed:
                assert pov_id is not None
                if pov_id not in sp.poc_ids:
                    sp.poc_ids.append(pov_id)
                sp.is_real = True
                if bypass:
                    sp.bypass = True
            if sp.poc_stage is None:
                sp.poc_stage = self._tick()

    # ----- reads -----

    def _require(self, sp_id: str) -> SuspiciousPoint:
        sp = self._sps.get(sp_id)
        if sp is None:
            raise UnknownFunctionError(f"unknown suspicious point '{sp_id}'")
        return sp

    def get(self, sp_id: str) -> SuspiciousPoint:
        with self._lock:
            return self._require(sp_id)

    def all(self) -> list[SuspiciousPoint]:
        with self._lock:
            return list(self._sps.values())

    def for_function(self, function_id: str) -> list[SuspiciousPoint]:
        with self._lock:
            return [self._sps[i] for i in self._by_function.get(function_id, [])]

    def counts(self) -> dict[str, int]:
        """Lifecycle counters: ``sp_total`` plus :func:`lifecycle_counts`."""
        with self._lock:
            return {"sp_total": self._candidates_seen, **lifecycle_counts(self._sps.values())}

    def check_invariants(self) -> None:
        """Raise if any stored record violates a lifecycle invariant."""
        with self._lock:
            for sp in self._sps.values():
                if not (SKIP_THRESHOLD <= sp.score <= 1.0):
                    raise AssertionError(f"{sp.id}: score {sp.score} out of range")
                if sp.is_real:
                    if not sp.poc_ids:
                        raise AssertionError(f"{sp.id}: is_real without poc_ids")
                    if sp.verdict != "tp" and not sp.bypass:
                        raise AssertionError(f"{sp.id}: is_real without tp verdict or bypass")
                if sp.poc_ids and not sp.poc_attempted_by:
                    raise AssertionError(f"{sp.id}: poc_ids without poc_attempted_by")
                if sp.verdict != "unknown" and not sp.is_verified:
                    raise AssertionError(f"{sp.id}: verdict set but not verified")
