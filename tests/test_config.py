"""Configuration loading: file formats, overrides, validation, budgets."""

from __future__ import annotations

import json

import pytest

from vulnhunt.config import Config, load_config
from vulnhunt.errors import ConfigError


class TestLoadConfig:
    def test_defaults_without_file(self):
        config = load_config()
        assert config.mode == "full"
        assert config.sanitizers == ["address"]
        assert config.quorum == 10
        assert config.max_poc_attempts == 40
        assert config.variants_per_attempt == 3
        assert config.trace_unlock_attempt == 16
        assert config.dedup_threshold == 0.6

    def test_yaml_file(self, tmp_path):
        path = tmp_path / "scan.yaml"
        path.write_text("mode: delta\ndiff_path: change.diff\nrng_seed: 7\n")
        config = load_config(path)
        assert (config.mode, config.rng_seed) == ("delta", 7)

    def test_json_file(self, tmp_path):
        path = tmp_path / "scan.json"
        path.write_text(json.dumps({"fuzzers": ["img_fuzzer"], "quorum": 5}))
        config = load_config(path)
        assert (config.fuzzers, config.quorum) == (["img_fuzzer"], 5)

    def test_flag_overrides_win_and_none_is_ignored(self, tmp_path):
        path = tmp_path / "scan.yaml"
        path.write_text("rng_seed: 7\nquorum: 5\n")
        config = load_config(path, overrides={"rng_seed": 42, "quorum": None})
        assert (config.rng_seed, config.quorum) == (42, 5)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "scan.yaml"
        path.write_text("mode: full\nturbo: true\nwarp: 9\n")
        with pytest.raises(ConfigError, match="unknown config keys: turbo, warp"):
            load_config(path)
        with pytest.raises(ConfigError, match="unknown config keys: corpus_dir"):
            load_config(overrides={"corpus_dir": "corpora"})

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="config file not found"):
            load_config(tmp_path / "absent.yaml")

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "scan.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="scan.json"):
            load_config(path)

    def test_unreadable_file_rejected(self, tmp_path):
        """A file that is not UTF-8, or is a directory, is a ConfigError
        naming it, not a traceback."""
        undecodable = tmp_path / "scan.yaml"
        undecodable.write_bytes(b"\xff\xfe")
        directory = tmp_path / "dir.json"
        directory.mkdir()
        for path in (undecodable, directory):
            with pytest.raises(ConfigError, match=path.name):
                load_config(path)

    def test_non_mapping_rejected(self, tmp_path):
        path = tmp_path / "scan.yaml"
        path.write_text("- just\n- a\n- list\n")
        with pytest.raises(ConfigError, match="must contain a mapping"):
            load_config(path)


class TestConfigValidation:
    def test_bad_mode(self):
        with pytest.raises(ConfigError, match="mode must be 'full' or 'delta'"):
            Config(mode="incremental")

    def test_bad_sanitizer(self):
        with pytest.raises(ConfigError, match="unknown sanitizer 'thread'"):
            Config(sanitizers=["address", "thread"])

    def test_missing_tier_chain(self):
        with pytest.raises(ConfigError, match=r"model_chains\[T2\]"):
            Config(model_chains={"T1": ["a"], "T2": [], "T3": ["c"]})

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"fuzz_slice": 0}, "fuzz_slice must be at least 1"),
            ({"fuzz_slice": -5}, "fuzz_slice must be at least 1"),
            ({"variants_per_attempt": 0}, "variants_per_attempt must be 1 to 3"),
            ({"variants_per_attempt": 4}, "variants_per_attempt must be 1 to 3"),
            ({"quorum": 0}, "quorum must be at least 1"),
            ({"provider": {"kind": "http", "base-url": "http://x"}},
             "unknown provider keys: base-url"),
            ({"provider": {"kind": "telepathy"}}, "unknown provider kind: 'telepathy'"),
            ({"worker_parallelism": 0}, "worker_parallelism must be at least 1, got 0"),
            ({"worker_parallelism": -2}, "worker_parallelism must be at least 1, got -2"),
        ],
    )
    def test_values_that_break_a_scan_rejected(self, overrides, message):
        with pytest.raises(ConfigError, match=message):
            Config(**overrides)
        with pytest.raises(ConfigError, match=message):
            load_config(overrides=overrides)

    @pytest.mark.parametrize(
        "key, bad, boundaries",
        [
            ("max_blob", -1, [1]),
            ("max_blob", 0, [1]),
            ("global_fuzz_iterations", -1, [0]),
            ("sp_fuzz_iterations", -3, [0]),
            ("dedup_threshold", 1.5, [0.0, 1.0]),
            ("dedup_threshold", -0.1, [0.0, 1.0]),
        ],
    )
    def test_fuzz_settings_out_of_range_rejected(self, key, bad, boundaries):
        """A value that would fail every task or silently change the scan is
        refused, naming the key and the value; the range's ends load."""
        with pytest.raises(ConfigError, match=rf"^{key} must be .*, got {bad}$"):
            Config(**{key: bad})
        with pytest.raises(ConfigError, match=rf"^{key} must be .*, got {bad}$"):
            load_config(overrides={key: bad})
        for value in boundaries:
            assert getattr(load_config(overrides={key: value}), key) == value


class TestTokenCeiling:
    def test_uses_priciest_configured_model(self):
        config = Config(budget_dollars=1.0)
        # Default chains: T1 at $0.01 / 1K tokens is the most expensive.
        assert config.token_ceiling == 100_000

    def test_unpriced_model_assumes_priciest_default(self):
        config = Config(
            budget_dollars=1.0,
            model_chains={"T1": ["mystery"], "T2": ["scripted-t2"], "T3": ["scripted-t3"]},
        )
        assert config.token_ceiling == 100_000

    def test_custom_price_table(self):
        config = Config(
            budget_dollars=2.0,
            price_table={"scripted-t1": 0.1, "scripted-t2": 0.002, "scripted-t3": 0.0005},
        )
        assert config.token_ceiling == 20_000

    def test_zero_prices_rejected(self):
        config = Config(
            price_table={"scripted-t1": 0.0, "scripted-t2": 0.0, "scripted-t3": 0.0}
        )
        with pytest.raises(ConfigError, match="positive prices"):
            config.token_ceiling
