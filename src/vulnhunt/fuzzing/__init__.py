"""Dual-layer fuzzing: simulated targets, corpora, mutation, loops, reproduction."""

from .corpus import Corpus, Seed
from .engine import (
    CrashFinding,
    DEFAULT_QUORUM,
    FuzzLoop,
    ReproduceOutcome,
    reproduce,
    sp_fuzzer_verify,
)
from .mutate import Mutator, OPERATORS
from .seeds import extract_literal_tokens, seed_from_direction, seed_from_fp
from .target import (
    CrashSpec,
    DEFAULT_MAX_BLOB,
    ExecutionResult,
    SimTarget,
    SimTargetRunner,
    TargetRule,
    TargetRunner,
    load_target,
    load_targets_dir,
    parse_target,
    render_output,
    validate_predicate,
)

__all__ = [
    "Corpus",
    "CrashFinding",
    "CrashSpec",
    "DEFAULT_MAX_BLOB",
    "DEFAULT_QUORUM",
    "ExecutionResult",
    "FuzzLoop",
    "Mutator",
    "OPERATORS",
    "ReproduceOutcome",
    "Seed",
    "SimTarget",
    "SimTargetRunner",
    "TargetRule",
    "TargetRunner",
    "extract_literal_tokens",
    "load_target",
    "load_targets_dir",
    "parse_target",
    "render_output",
    "reproduce",
    "seed_from_direction",
    "seed_from_fp",
    "sp_fuzzer_verify",
    "validate_predicate",
]
