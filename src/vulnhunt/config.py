"""Run configuration: one declarative file plus flag overrides (flags win).

The file is YAML or JSON by extension.  Unknown keys are rejected so typos
fail loudly.  Budget defaults follow the scan mode: delta scans get 120
minutes / $150, full scans 240 minutes / $400; dollar budgets convert to
token ceilings at startup using the price table (conservatively, at the most
expensive configured model's price).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

import yaml

from .directions import DEFAULT_MAX_REVISITS, MAX_DIRECTIONS_PER_WORKER
from .errors import ConfigError
from .fuzzing import DEFAULT_MAX_BLOB, DEFAULT_QUORUM
from .recipes import DEFAULT_VARIANTS
from .spstore import DEFAULT_SIMILARITY_THRESHOLD, SANITIZERS

MODE_DEFAULTS = {
    "delta": {"budget_minutes": 120.0, "budget_dollars": 150.0},
    "full": {"budget_minutes": 240.0, "budget_dollars": 400.0},
}

DEFAULT_MODEL_CHAINS = {
    "T1": ["scripted-t1"],
    "T2": ["scripted-t2"],
    "T3": ["scripted-t3"],
}

# USD per 1,000 tokens.
DEFAULT_PRICE_TABLE = {
    "scripted-t1": 0.01,
    "scripted-t2": 0.002,
    "scripted-t3": 0.0005,
}

PROVIDER_KEYS = {"kind", "base_url", "api_key", "timeout_s"}


@dataclass
class Config:
    mode: str = "full"
    export_path: str = ""
    targets_dir: str = ""
    out_dir: str = "out"
    store_dir: str = ""  # empty: in-memory store
    scenario_path: str = ""
    diff_path: str = ""
    fuzzers: list[str] = field(default_factory=list)  # empty: all in the graph
    sanitizers: list[str] = field(default_factory=lambda: ["address"])
    rng_seed: int = 0
    budget_minutes: float | None = None
    budget_dollars: float | None = None
    model_chains: dict = field(default_factory=lambda: {k: list(v) for k, v in DEFAULT_MODEL_CHAINS.items()})
    price_table: dict = field(default_factory=lambda: dict(DEFAULT_PRICE_TABLE))
    provider: dict = field(default_factory=lambda: {"kind": "scripted"})
    quorum: int = DEFAULT_QUORUM
    max_poc_attempts: int = 40
    variants_per_attempt: int = DEFAULT_VARIANTS
    trace_unlock_attempt: int = 16
    max_blob: int = DEFAULT_MAX_BLOB
    fuzz_slice: int = 200
    global_fuzz_iterations: int = 20000
    sp_fuzz_iterations: int = 400
    dedup_threshold: float = DEFAULT_SIMILARITY_THRESHOLD
    max_directions: int = MAX_DIRECTIONS_PER_WORKER
    max_revisits: int = DEFAULT_MAX_REVISITS
    worker_parallelism: int = 1

    def __post_init__(self) -> None:
        if self.mode not in ("full", "delta"):
            raise ConfigError(f"mode must be 'full' or 'delta', got {self.mode!r}")
        if self.budget_minutes is None:
            self.budget_minutes = MODE_DEFAULTS[self.mode]["budget_minutes"]
        if self.budget_dollars is None:
            self.budget_dollars = MODE_DEFAULTS[self.mode]["budget_dollars"]
        for tier in ("T1", "T2", "T3"):
            chain = self.model_chains.get(tier)
            if not chain:
                raise ConfigError(f"model_chains[{tier}] must be a non-empty list")
        for sanitizer in self.sanitizers:
            if sanitizer not in SANITIZERS:
                raise ConfigError(f"unknown sanitizer '{sanitizer}'")
        unknown = set(self.provider) - PROVIDER_KEYS
        if unknown:
            raise ConfigError(f"unknown provider keys: {', '.join(sorted(unknown))}")
        kind = self.provider.get("kind", "scripted")
        if kind not in ("scripted", "http"):
            raise ConfigError(f"unknown provider kind: {kind!r}")
        # A zero slice never advances the final fuzz drain, 1-3 variants is
        # what sp_fuzzer_verify runs, and a crash needs one run to confirm.
        if self.fuzz_slice < 1:
            raise ConfigError(f"fuzz_slice must be at least 1, got {self.fuzz_slice}")
        if not 1 <= self.variants_per_attempt <= 3:
            raise ConfigError(
                f"variants_per_attempt must be 1 to 3, got {self.variants_per_attempt}"
            )
        if self.quorum < 1:
            raise ConfigError(f"quorum must be at least 1, got {self.quorum}")
        if self.worker_parallelism < 1:
            raise ConfigError(
                f"worker_parallelism must be at least 1, got {self.worker_parallelism}"
            )
        # Every blob, the empty seed included, must fit max_blob; an
        # iteration count below 0 would run as 0, and a threshold above 1
        # would never merge.
        if self.max_blob < 1:
            raise ConfigError(f"max_blob must be at least 1, got {self.max_blob}")
        for key in ("global_fuzz_iterations", "sp_fuzz_iterations"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be at least 0, got {getattr(self, key)}")
        if not 0 <= self.dedup_threshold <= 1:
            raise ConfigError(f"dedup_threshold must be 0 to 1, got {self.dedup_threshold}")

    @property
    def token_ceiling(self) -> int:
        """Dollar budget converted to tokens at the priciest chain model."""
        prices = [
            self.price_table.get(model, max(DEFAULT_PRICE_TABLE.values()))
            for chain in self.model_chains.values()
            for model in chain
        ]
        per_token = max(prices) / 1000.0
        if per_token <= 0:
            raise ConfigError("price table must contain positive prices")
        assert self.budget_dollars is not None
        # Round to the nearest token: the quotient is exact in decimal
        # arithmetic for the documented defaults, and binary floats must not
        # leak an off-by-one into the ceiling.
        return round(self.budget_dollars / per_token)

    @property
    def budget_seconds(self) -> float:
        assert self.budget_minutes is not None
        return self.budget_minutes * 60.0


def load_mapping(path: Path, what: str, error: type[Exception], empty: dict | None = None) -> dict:
    """The mapping in a YAML (``.yaml``/``.yml``) or JSON file; ``error``,
    naming ``what`` and the path, if the file cannot be read or parsed or
    holds no mapping.  A false YAML document reads as ``empty`` if given."""
    try:
        text = path.read_text(encoding="utf-8")
        if path.suffix in (".yaml", ".yml"):
            data = yaml.safe_load(text)
            if empty is not None:
                data = data or empty
        else:
            data = json.loads(text)
    except (OSError, UnicodeDecodeError, yaml.YAMLError, json.JSONDecodeError) as exc:
        raise error(f"{what} {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise error(f"{what} {path} must contain a mapping")
    return data


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> Config:
    """Load configuration, apply overrides, validate unknown keys.

    Args:
        path: optional config file (YAML/JSON).
        overrides: flag-derived values; None entries are ignored, everything
            else wins over the file.

    Raises:
        ConfigError: unknown keys, bad values, or unreadable file.
    """
    data = {}
    if path:
        if not Path(path).exists():
            raise ConfigError(f"config file not found: {path}")
        data = load_mapping(Path(path), "config", ConfigError, empty={})
    for key, value in (overrides or {}).items():
        if value is not None:
            data[key] = value
    known = {f.name for f in fields(Config)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    try:
        return Config(**data)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
