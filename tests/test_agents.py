"""Agent core tests: roles, conversations, registries, providers, run loop."""

from __future__ import annotations

import hashlib
import json
import math
from unittest import mock

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import naive_run_agent, naive_select_run
from vulnhunt.agents import (
    Budgets,
    Conversation,
    HttpChatProvider,
    Message,
    PROMPT_VERSION,
    Provider,
    ProviderError,
    ProviderPool,
    ProviderRequest,
    ProviderResponse,
    ROLE_TIERS,
    ScriptedProvider,
    TEMPERATURE,
    TokenUsage,
    Tool,
    ToolCall,
    ToolRegistry,
    compress_context,
    estimate_tokens,
    load_scenario,
    render_prompt,
    run_agent,
)
from vulnhunt import store
from vulnhunt.agents import loop, providers
from vulnhunt.agents.prompts import TEMPLATES
from vulnhunt.agents.registry import _encode_result, result_digest
from vulnhunt.errors import BudgetError, ChainExhaustedError, ValidationError


# ===== types =====


class TestTokenEstimate:
    def test_empty_is_zero(self):
        assert estimate_tokens("") == 0

    @pytest.mark.parametrize(
        ("text", "expected"),
        [("a", 1), ("abcd", 1), ("abcde", 2), ("x" * 400, 100), ("y" * 401, 101)],
    )
    def test_quarter_length_rounded_up(self, text, expected):
        assert estimate_tokens(text) == expected
        assert expected == max(1, math.ceil(len(text) / 4))

    def test_integer_form_matches_the_ceiling(self):
        for length in [*range(65), 10**6, 10**6 + 1, 10**6 + 2, 10**6 + 3, 2**22 + 1]:
            expected = max(1, math.ceil(length / 4)) if length else 0
            assert estimate_tokens("é" * length) == expected, length


class TestSpecs:
    def test_role_tier_table(self):
        assert ROLE_TIERS == {
            "direction-generator": "T1",
            "sp-generator": "T2",
            "sp-deduplicator": "T3",
            "sp-verifier": "T1",
            "poc-generator": "T2",
            "report": "T2",
            "seed-generator": "T2",
        }

    def test_temperature_constant(self):
        assert TEMPERATURE == 0.1
        assert ProviderRequest(model="m", messages=[]).temperature == TEMPERATURE

    def _models_tried(self, role: str, chains: dict) -> list[str]:
        tried: list[str] = []

        class Down(Provider):
            def complete(self, request):
                tried.append(request.model)
                raise ProviderError("unavailable")

        pool = ProviderPool()
        for model in ("big-a", "big-b", "mid", "small"):
            pool.register(model, Down())
        run_agent(role, "seed", ToolRegistry([]), pool, chains, "sys")
        return tried

    def test_run_uses_its_tier_chain(self):
        chains = {"T1": ["big-a", "big-b"], "T2": ["mid"], "T3": ["small"]}
        assert self._models_tried("sp-verifier", chains) == ["big-a", "big-b"]
        assert self._models_tried("sp-deduplicator", chains) == ["small"]

    def test_unknown_role_rejected(self):
        with pytest.raises(ValidationError, match="unknown agent role"):
            self._models_tried("oracle", {"T1": ["big-a"]})

    def test_empty_chain_rejected(self):
        with pytest.raises(ValidationError, match="non-empty"):
            self._models_tried("sp-verifier", {"T1": []})

    def test_make_spec_missing_tier_chain_rejected(self):
        with pytest.raises(ValidationError, match="non-empty"):
            self._models_tried("sp-generator", {"T1": ["big-a"]})

    def test_make_spec_unknown_role_rejected(self):
        with pytest.raises(ValidationError, match="unknown agent role"):
            self._models_tried("nonsense", {"T1": ["big-a"]})


class TestConversation:
    def test_tool_message_needs_preceding_tool_request(self):
        convo = Conversation([Message("system", "s"), Message("user", "u")])
        with pytest.raises(ValidationError, match="tool result"):
            convo.append(Message("tool", "out"))

    def test_tool_message_first_rejected(self):
        with pytest.raises(ValidationError, match="tool result"):
            Conversation([Message("tool", "out")])

    def test_tool_after_plain_assistant_rejected(self):
        convo = Conversation([Message("system", "s"), Message("assistant", "reply")])
        with pytest.raises(ValidationError):
            convo.append(Message("tool", "out"))

    def test_tool_batch_after_tool_request_ok(self):
        call = ToolCall(name="t", arguments={})
        convo = Conversation(
            [
                Message("system", "s"),
                Message("user", "u"),
                Message("assistant", "", tool_calls=(call, call)),
            ]
        )
        convo.append(Message("tool", "r1"))
        convo.append(Message("tool", "r2"))
        assert [m.role for m in convo] == ["system", "user", "assistant", "tool", "tool"]

    def test_token_estimate_counts_tool_arguments(self):
        call = ToolCall(name="t", arguments={"a": 1})
        msg = Message("assistant", "hi", tool_calls=(call,))
        assert msg.token_estimate == estimate_tokens("hi") + estimate_tokens(repr({"a": 1}))

    def test_total_tokens_sums_messages(self):
        convo = Conversation([Message("system", "x" * 8), Message("user", "y" * 12)])
        assert convo.total_tokens() == 2 + 3

    def test_total_tokens_follows_appends(self):
        call = ToolCall(name="t", arguments={"a": 1})
        convo = Conversation([Message("system", "x" * 8)])
        convo.append(Message("assistant", "hi", tool_calls=(call,)))
        convo.append(Message("tool", "z" * 9))
        assert convo.total_tokens() == sum(m.token_estimate for m in convo)


# ===== registry =====


def _echo():
    """Echo the given value."""
    return "ok"


class TestToolRegistry:
    def _registry(self):
        def echo(value=""):
            return f"echo:{value}"

        def boom():
            raise RuntimeError("kaput")

        def structured():
            return {"b": 2, "a": 1}

        return ToolRegistry(
            [
                Tool(name="echo", fn=echo),
                Tool(name="boom", fn=boom),
                Tool(name="structured", fn=structured),
            ]
        )

    def test_schema_shape(self):
        tool = Tool(name="echo", fn=_echo, description="Echo the given value.")
        assert tool.schema() == {
            "name": "echo",
            "description": "Echo the given value.",
            "parameters": {"type": "object", "properties": {}},
        }

    def test_duplicate_tool_name_rejected(self):
        with pytest.raises(ValidationError, match="duplicate tool 'echo'"):
            ToolRegistry([Tool(name="echo", fn=_echo), Tool(name="echo", fn=_echo)])

    def test_unknown_tool_is_error_text(self):
        reg = self._registry()
        text, ok = reg.invoke("ghost", {})
        assert (text, ok) == ("tool error: unknown tool 'ghost'", False)
        assert sum(reg.call_counts.values()) == 0

    def test_bad_arguments_are_error_text(self):
        reg = self._registry()
        text, ok = reg.invoke("echo", {"nope": 1})
        assert not ok
        assert text.startswith("tool error: bad arguments for 'echo':")
        assert reg.call_counts["echo"] == 1

    def test_tool_exception_is_error_text(self):
        reg = self._registry()
        text, ok = reg.invoke("boom", {})
        assert (text, ok) == ("tool error: boom: kaput", False)

    def test_string_results_pass_through(self):
        reg = self._registry()
        assert reg.invoke("echo", {"value": "v"}) == ("echo:v", True)

    def test_structured_results_serialize_sorted(self):
        reg = self._registry()
        text, ok = reg.invoke("structured", {})
        assert ok and text == json.dumps({"a": 1, "b": 2}, sort_keys=True)

    def test_unserializable_results_fall_back_to_repr(self):
        loop: dict = {}
        loop["self"] = loop

        reg = ToolRegistry([Tool(name="cyclic", fn=lambda: loop)])
        text, ok = reg.invoke("cyclic", {})
        assert ok and text == repr(loop)

    def test_call_counting(self):
        reg = self._registry()
        reg.invoke("echo", {})
        reg.invoke("echo", {})
        reg.invoke("boom", {})
        assert reg.call_counts == {"echo": 2, "boom": 1, "structured": 0}
        assert sum(reg.call_counts.values()) == 3

    def test_a_call_over_its_limit_is_refused_and_not_counted(self):
        reg = ToolRegistry([Tool(name="echo", fn=_echo)], limits={"echo": 1})
        assert reg.invoke("echo", {}) == ("ok", True)
        refusal = ("tool error: 'echo' call limit (1) reached; refused", False)
        assert reg.invoke("echo", {}) == refusal
        assert reg.call_counts == {"echo": 1}

    def test_registries_share_tools_but_not_call_counts(self):
        tools = [Tool(name="echo", fn=_echo)]
        first, second = ToolRegistry(tools), ToolRegistry(tools)
        first.invoke("echo", {})
        assert first.call_counts == {"echo": 1}
        assert second.call_counts == {"echo": 0}
        schemas = first.schemas()
        first.reset()
        assert first.call_counts == {"echo": 0}
        assert first.schemas() is schemas

    def test_result_digest_is_truncated_sha256(self):
        expected = hashlib.sha256(b"payload").hexdigest()[:12]
        assert result_digest("payload") == expected


# ===== cached JSON encoders =====

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
# Values JSON cannot encode by itself: ``default=str`` renders them, and an
# encoder without it raises.  Mixed key types cannot be sorted either way.
UNENCODABLE = st.one_of(
    st.sets(st.integers(), min_size=1, max_size=3),
    st.binary(max_size=4),
    st.builds(complex, st.integers(), st.integers()),
    st.dictionaries(st.one_of(st.integers(), st.text(max_size=2)), st.none(), min_size=2,
                    max_size=3),
)
ENCODER_VALUES = st.recursive(
    JSON_VALUES | UNENCODABLE,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8,
)


def encode_or_error(encode, value):
    try:
        return encode(value)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


class TestCachedEncoders:
    """Each module-level encoder is ``json.dumps`` with its call site's keywords."""

    @settings(max_examples=300, deadline=None)
    @given(value=ENCODER_VALUES)
    def test_tool_result_encoder(self, value):
        expected = encode_or_error(lambda v: json.dumps(v, sort_keys=True, default=str), value)
        assert encode_or_error(_encode_result, value) == expected

    @settings(max_examples=300, deadline=None)
    @given(value=ENCODER_VALUES)
    def test_scenario_argument_encoder(self, value):
        expected = encode_or_error(lambda v: json.dumps(v, sort_keys=True), value)
        assert encode_or_error(providers._encode_args, value) == expected

    @settings(max_examples=300, deadline=None)
    @given(record=ENCODER_VALUES)
    def test_store_put_encoder(self, record):
        entry = {"id": "r", "record": record}
        expected = encode_or_error(lambda v: json.dumps(v, sort_keys=True), entry)
        assert encode_or_error(store._encode, entry) == expected

    def test_cyclic_values_fail_alike(self):
        cyclic: list = []
        cyclic.append(cyclic)
        for encode, keywords in (
            (_encode_result, {"default": str}),
            (providers._encode_args, {}),
            (store._encode, {}),
        ):
            expected = encode_or_error(lambda v: json.dumps(v, sort_keys=True, **keywords), cyclic)
            assert encode_or_error(encode, cyclic) == expected


# ===== providers =====


class _OkProvider:
    def __init__(self, text="served"):
        self.text = text
        self.requests: list[ProviderRequest] = []

    def complete(self, request):
        self.requests.append(request)
        return ProviderResponse(text=self.text, stop=True, usage=TokenUsage(3, 4))


class _FailProvider:
    def __init__(self, kind):
        self.kind = kind

    def complete(self, request):
        raise ProviderError(self.kind)


class TestProviderPool:
    def test_unknown_failure_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown failure kind"):
            ProviderError("catastrophic")

    def test_first_success_wins_and_is_annotated(self):
        pool = ProviderPool()
        pool.register("flaky", _FailProvider("rate-limit"))
        pool.register("steady", _OkProvider())
        request = ProviderRequest(model="flaky", messages=[Message("user", "hi")])
        response = pool.call_with_fallback(["flaky", "steady"], request)
        assert response.text == "served"
        assert response.served_by == "steady"

    def test_exhausted_chain_reports_every_failure(self):
        pool = ProviderPool()
        pool.register("flaky", _FailProvider("timeout"))
        request = ProviderRequest(model="flaky", messages=[])
        with pytest.raises(ChainExhaustedError) as excinfo:
            pool.call_with_fallback(["flaky", "ghost"], request)
        assert excinfo.value.chain == ["flaky", "ghost"]
        assert excinfo.value.failures == [
            "flaky: timeout",
            "ghost: unavailable (not registered)",
        ]
        assert "model chain exhausted" in str(excinfo.value)


def _stub_post(monkeypatch, content: bytes) -> None:
    """Make every ``requests.post`` answer HTTP 200 with ``content``."""
    import requests

    def fake_post(url, **kwargs):
        resp = requests.Response()
        resp.status_code = 200
        resp._content = content
        return resp

    monkeypatch.setattr(requests, "post", fake_post)


class TestHttpChatProvider:
    """Malformed 200 responses are provider faults, so the chain moves on."""

    @pytest.mark.parametrize(
        "content",
        [
            b"<html>bad gateway</html>",
            b"{}",
            b'{"choices": []}',
            json.dumps({"choices": [{"message": {"tool_calls": [
                {"id": "c1", "function": {"name": "echo", "arguments": "{not json"}}
            ]}}]}).encode(),
        ],
        ids=["non-json-body", "missing-choices", "empty-choices", "bad-tool-arguments"],
    )
    def test_malformed_response_falls_back(self, monkeypatch, content):
        _stub_post(monkeypatch, content)
        pool = ProviderPool()
        pool.register("remote", HttpChatProvider("http://localhost:9"))
        pool.register("steady", _OkProvider())
        request = ProviderRequest(model="remote", messages=[Message("user", "hi")])
        response = pool.call_with_fallback(["remote", "steady"], request)
        assert response.served_by == "steady"
        with pytest.raises(ChainExhaustedError) as excinfo:
            pool.call_with_fallback(["remote"], request)
        assert excinfo.value.failures == ["remote: unavailable"]

    def test_well_formed_response_is_served(self, monkeypatch):
        body = {
            "choices": [{
                "finish_reason": "tool_calls",
                "message": {"content": None, "tool_calls": [
                    {"id": "c1", "function": {"name": "echo", "arguments": '{"value": 1}'}}
                ]},
            }],
            "usage": {"prompt_tokens": 5, "completion_tokens": 2},
        }
        _stub_post(monkeypatch, json.dumps(body).encode())
        pool = ProviderPool()
        pool.register("remote", HttpChatProvider("http://localhost:9"))
        request = ProviderRequest(model="remote", messages=[Message("user", "hi")])
        response = pool.call_with_fallback(["remote"], request)
        assert response.served_by == "remote"
        assert response.tool_calls == (ToolCall("echo", {"value": 1}, "c1"),)
        assert not response.stop
        assert response.usage == TokenUsage(5, 2)


class TestScriptedProvider:
    def _request(self, role, run_id, user_text, system_text="sys"):
        return ProviderRequest(
            model="m",
            messages=[Message("system", system_text), Message("user", user_text)],
            agent_role=role,
            run_id=run_id,
        )

    def test_agents_must_be_mapping(self):
        with pytest.raises(ValidationError, match="'agents' must be a mapping"):
            ScriptedProvider({"agents": ["nope"]})

    def test_run_needs_steps(self):
        with pytest.raises(ValidationError, match=r"sp-generator\[0\]"):
            ScriptedProvider({"agents": {"sp-generator": [{"match": ""}]}})

    def test_roles_lists_only_scripted_roles(self):
        provider = ScriptedProvider(
            {"agents": {"sp-generator": [{"steps": []}], "report": []}}
        )
        assert provider.roles() == {"sp-generator"}

    def test_match_inspects_user_messages_only(self):
        provider = ScriptedProvider(
            {
                "agents": {
                    "sp-generator": [
                        {"match": "needle", "steps": [{"text": "matched"}]},
                        {"match": "", "steps": [{"text": "fallback"}]},
                    ]
                }
            }
        )
        response = provider.complete(
            self._request("sp-generator", "r1", "plain", system_text="needle here")
        )
        assert response.text == "fallback"

    def test_consumed_runs_are_skipped(self):
        provider = ScriptedProvider(
            {
                "agents": {
                    "sp-generator": [
                        {"match": "target", "steps": [{"text": "first"}]},
                        {"match": "", "steps": [{"text": "second"}]},
                    ]
                }
            }
        )
        assert provider.complete(self._request("sp-generator", "a", "target")).text == "first"
        assert provider.complete(self._request("sp-generator", "b", "target")).text == "second"

    def test_reusable_runs_serve_many_sessions(self):
        provider = ScriptedProvider(
            {
                "agents": {
                    "sp-verifier": [
                        {"match": "", "reusable": True, "steps": [{"text": "verdict"}]}
                    ]
                }
            }
        )
        for run_id in ("a", "b", "c"):
            assert provider.complete(self._request("sp-verifier", run_id, "x")).text == "verdict"

    def test_session_replays_steps_in_order(self):
        provider = ScriptedProvider(
            {
                "agents": {
                    "sp-generator": [
                        {
                            "match": "seed",
                            "steps": [
                                {"tool_calls": [{"name": "probe", "args": {"k": 1}}]},
                                {"text": "done"},
                            ],
                        }
                    ]
                }
            }
        )
        first = provider.complete(self._request("sp-generator", "r1", "seed"))
        assert not first.stop
        assert first.text == ""
        assert first.tool_calls == (ToolCall(name="probe", arguments={"k": 1}, call_id="r1#0.0"),)
        assert first.usage.completion == estimate_tokens(json.dumps({"k": 1}, sort_keys=True))
        # The run was pinned at session start; later message content is ignored.
        second = provider.complete(self._request("sp-generator", "r1", "different text"))
        assert second.text == "done" and second.stop
        assert second.usage.completion == estimate_tokens("done")

    def test_exhausted_steps_yield_empty_stop(self):
        provider = ScriptedProvider(
            {"agents": {"sp-generator": [{"steps": [{"text": "only"}]}]}}
        )
        request = self._request("sp-generator", "r1", "u")
        provider.complete(request)
        response = provider.complete(request)
        assert (response.text, response.stop) == ("", True)
        assert response.usage.completion == 0
        assert response.usage.prompt == sum(m.token_estimate for m in request.messages)

    def test_no_matching_run_yields_empty_stop(self):
        provider = ScriptedProvider({"agents": {}})
        response = provider.complete(self._request("report", "r1", "anything"))
        assert (response.text, response.stop) == ("", True)

    def test_explicit_stop_with_tool_calls(self):
        provider = ScriptedProvider(
            {
                "agents": {
                    "sp-generator": [
                        {
                            "steps": [
                                {
                                    "text": "and done",
                                    "stop": True,
                                    "tool_calls": [{"name": "probe", "args": {}}],
                                }
                            ]
                        }
                    ]
                }
            }
        )
        response = provider.complete(self._request("sp-generator", "r1", "u"))
        assert response.stop and response.tool_calls and response.text == "and done"


    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_selection_agrees_with_the_linear_oracle(self, data):
        # Two letters make repeated and head-sharing matches common; "é"
        # keeps the text non-ASCII.  Prefixes of a periodic stem share the
        # index's 8-character head, and their heads overlap in a seed.
        letters = "aé"
        stem = data.draw(st.text(letters, min_size=1, max_size=3), label="unit") * 12
        fragment = st.builds(
            lambda k, tail: stem[:k] + tail,
            st.one_of(st.integers(0, len(stem)), st.integers(8, len(stem))),
            st.text(letters, max_size=3),
        )
        # Short texts include the empty match.
        match = st.one_of(st.text(letters, max_size=4), fragment)
        runs = data.draw(
            st.lists(
                st.fixed_dictionaries({"match": match, "reusable": st.booleans()}), max_size=10
            ),
            label="runs",
        )
        # Seeds join short texts, fragments and the matches themselves, so a
        # match often occurs twice, or just after the start of its own head.
        pieces = [st.text(letters, max_size=3), fragment]
        if runs:
            matches = st.sampled_from([run["match"] for run in runs])
            pieces.append(matches)
            pieces.append(st.builds(lambda j, m: stem[:j] + m, st.integers(1, 7), matches))
        seed = st.lists(st.one_of(pieces), max_size=4).map("".join)
        seeds = data.draw(st.lists(seed, max_size=12), label="seeds")
        scenario = {
            "agents": {
                "sp-generator": [
                    dict(run, steps=[{"text": f"run {i}"}]) for i, run in enumerate(runs)
                ]
            }
        }
        provider = ScriptedProvider(scenario)
        script = provider._scripts["sp-generator"]
        consumed: set[int] = set()
        for n, seed in enumerate(seeds):
            expected = naive_select_run(runs, consumed, seed)
            response = provider.complete(self._request("sp-generator", f"r{n}", seed))
            assert response.text == ("" if expected is None else f"run {expected}")
            # The index names only live matches: a consumed match's bucket,
            # and its length and head once no live match needs them, are gone.
            live = {
                str(run["match"] or ""): None
                for i, run in enumerate(runs)
                if run["reusable"] or i not in consumed
            }
            assert all(script.buckets.values())
            assert set(script.buckets) == set(live)
            heads: dict[str, dict[int, int]] = {}
            for match in live:
                if match:
                    lengths = heads.setdefault(match[: providers._HEAD_CHARS], {})
                    lengths[len(match)] = lengths.get(len(match), 0) + 1
            assert script.heads == heads

    def test_replayed_arguments_are_fresh_dicts(self):
        args = {"k": 1}
        scenario = {
            "agents": {
                "sp-generator": [
                    {
                        "reusable": True,
                        "steps": [{"tool_calls": [{"name": "probe", "args": args}]}],
                    }
                ]
            }
        }
        provider = ScriptedProvider(scenario)
        first = provider.complete(self._request("sp-generator", "a", "u")).tool_calls[0]
        # A tool handed the call's arguments may change them.
        first.arguments["k"] = 2
        first.arguments["extra"] = True
        again = provider.complete(self._request("sp-generator", "b", "u")).tool_calls[0]
        assert again.arguments == {"k": 1} and args == {"k": 1}

    def test_malformed_step_rejected_when_built(self):
        with pytest.raises(ValidationError, match=r"report\[0\]: bad step"):
            ScriptedProvider({"agents": {"report": [{"steps": [{"tool_calls": [{}]}]}]}})


class TestLoadScenario:
    def test_yaml_and_json_by_extension(self, tmp_path):
        data = {"version": 1, "agents": {"report": [{"steps": [{"text": "t"}]}]}}
        yaml_path = tmp_path / "s.yaml"
        yaml_path.write_text("version: 1\nagents:\n  report:\n    - steps:\n        - text: t\n")
        json_path = tmp_path / "s.json"
        json_path.write_text(json.dumps(data))
        assert load_scenario(yaml_path) == data
        assert load_scenario(json_path) == data

    def test_non_mapping_rejected(self, tmp_path):
        path = tmp_path / "s.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ValidationError, match="must contain a mapping"):
            load_scenario(path)


# ===== run loop =====


def _scripted_pool(scenario: dict) -> ProviderPool:
    pool = ProviderPool()
    pool.register("scripted", ScriptedProvider(scenario))
    return pool


_CHAINS = {"T2": ["scripted"]}


def _loop_registry(calls: list[str] | None = None, limits=None) -> ToolRegistry:
    log = calls if calls is not None else []

    def probe(k=0):
        log.append(f"probe:{k}")
        return f"probed {k}"

    def big():
        log.append("big")
        return "r" * 2000

    return ToolRegistry([Tool(name="probe", fn=probe), Tool(name="big", fn=big)], limits)


class TestRunAgent:
    def test_tool_round_trip(self):
        scenario = {
            "agents": {
                "sp-generator": [
                    {
                        "match": "function: f1",
                        "steps": [
                            {"tool_calls": [{"name": "probe", "args": {"k": 7}}]},
                            {"text": "done"},
                        ],
                    }
                ]
            }
        }
        calls: list[str] = []
        outcome = run_agent(
            role="sp-generator",
            model_chains=_CHAINS,
            seed_context="function: f1",
            registry=_loop_registry(calls),
            pool=_scripted_pool(scenario),
            system_prompt="be brief",
            run_id="run-1",
        )
        assert outcome.final_text == "done"
        assert outcome.steps == 2
        assert not outcome.budget_exhausted
        assert calls == ["probe:7"]
        assert outcome.served_models == ["scripted", "scripted"]
        assert [m.role for m in outcome.conversation] == [
            "system",
            "user",
            "assistant",
            "tool",
            "assistant",
        ]
        entry = outcome.tool_log[0]
        assert (entry.step, entry.name, entry.arguments, entry.ok) == (1, "probe", {"k": 7}, True)
        assert entry.digest == result_digest("probed 7")
        assert outcome.usage.total > 0

    def test_every_request_carries_the_registry_schemas(self):
        scenario = {
            "agents": {
                "sp-generator": [
                    {
                        "steps": [
                            {"tool_calls": [{"name": "probe", "args": {"k": 1}}]},
                            {"text": "done"},
                        ]
                    }
                ]
            }
        }
        tools = [Tool(name="probe", fn=lambda k=0: k), Tool(name="big", fn=lambda: "")]
        requests = []

        class Recording(ScriptedProvider):
            def complete(self, request):
                requests.append(request)
                return super().complete(request)

        pool = ProviderPool()
        pool.register("scripted", Recording(scenario))
        run_agent(
            role="sp-generator",
            model_chains=_CHAINS,
            seed_context="seed",
            registry=ToolRegistry(tools),
            pool=pool,
            system_prompt="be brief",
        )
        assert len(requests) == 2
        for request in requests:
            assert request.tools == [t.schema() for t in tools]

    def test_per_tool_limit_refuses_without_invoking(self):
        scenario = {
            "agents": {
                "sp-generator": [
                    {
                        "steps": [
                            {
                                "tool_calls": [
                                    {"name": "probe", "args": {"k": 1}},
                                    {"name": "probe", "args": {"k": 2}},
                                ]
                            },
                            {"text": "end"},
                        ]
                    }
                ]
            }
        }
        calls: list[str] = []
        registry = _loop_registry(calls, limits={"probe": 1})
        outcome = run_agent(
            role="sp-generator",
            model_chains=_CHAINS,
            seed_context="seed",
            registry=registry,
            pool=_scripted_pool(scenario),
            system_prompt="sys",
        )
        refusal = "tool error: 'probe' call limit (1) reached; refused"
        assert calls == ["probe:1"]
        assert registry.call_counts["probe"] == 1
        assert [e.ok for e in outcome.tool_log] == [True, False]
        assert outcome.tool_log[1].digest == result_digest(refusal)
        tool_texts = [m.content for m in outcome.conversation if m.role == "tool"]
        assert tool_texts == ["probed 1", refusal]
        assert outcome.final_text == "end"
        assert not outcome.budget_exhausted

    def test_token_budget_trips_before_next_step(self):
        scenario = {
            "agents": {
                "sp-generator": [
                    {
                        "steps": [
                            {"tool_calls": [{"name": "probe", "args": {}}]},
                            {"text": "never reached"},
                        ]
                    }
                ]
            }
        }
        outcome = run_agent(
            role="sp-generator",
            model_chains=_CHAINS,
            budgets=Budgets(max_total_tokens=1),
            seed_context="seed",
            registry=_loop_registry(),
            pool=_scripted_pool(scenario),
            system_prompt="sys",
        )
        assert outcome.steps == 1
        assert outcome.budget_exhausted
        assert outcome.budget_reason == "token budget exhausted"
        assert outcome.final_text == ""

    def test_step_cap(self, monkeypatch):
        monkeypatch.setattr(loop, "MAX_STEPS", 3)
        step = {"tool_calls": [{"name": "probe", "args": {}}]}
        scenario = {"agents": {"sp-generator": [{"steps": [step, step, step, step]}]}}
        outcome = run_agent(
            role="sp-generator",
            model_chains=_CHAINS,
            seed_context="seed",
            registry=_loop_registry(),
            pool=_scripted_pool(scenario),
            system_prompt="sys",
        )
        assert outcome.steps == 3
        assert len(outcome.tool_log) == 3
        assert outcome.budget_exhausted
        assert outcome.budget_reason == "step cap (3) reached"

    def test_plain_text_ends_run_even_without_stop(self):
        scenario = {
            "agents": {"sp-generator": [{"steps": [{"text": "only", "stop": False}]}]}
        }
        outcome = run_agent(
            role="sp-generator",
            model_chains=_CHAINS,
            seed_context="seed",
            registry=_loop_registry(),
            pool=_scripted_pool(scenario),
            system_prompt="sys",
        )
        assert outcome.final_text == "only"
        assert outcome.steps == 1
        assert not outcome.budget_exhausted

    def test_unscripted_role_ends_quietly(self):
        outcome = run_agent(
            role="sp-generator",
            model_chains=_CHAINS,
            seed_context="seed",
            registry=_loop_registry(),
            pool=_scripted_pool({"agents": {}}),
            system_prompt="sys",
        )
        assert outcome.final_text == ""
        assert outcome.steps == 1
        assert not outcome.budget_exhausted

    def test_chain_exhaustion_ends_the_run_with_a_failure(self):
        """A chain that fails at step 2 ends the run; step 1's usage, model
        and tool call stay on the outcome."""
        step = {"tool_calls": [{"name": "probe", "args": {"k": 1}}]}
        scripted = ScriptedProvider({"agents": {"sp-generator": [{"steps": [step, step]}]}})

        class FailsAtStepTwo(Provider):
            def complete(self, request):
                if len(request.messages) > 2:
                    raise ProviderError("timeout")
                return scripted.complete(request)

        pool = ProviderPool()
        pool.register("scripted", FailsAtStepTwo())
        calls: list[str] = []
        outcome = run_agent(
            role="sp-generator",
            model_chains=_CHAINS,
            seed_context="seed",
            registry=_loop_registry(calls),
            pool=pool,
            system_prompt="sys",
        )
        assert outcome.failure == "model chain exhausted: scripted: timeout"
        assert outcome.failure_kind == "chain"
        assert outcome.steps == 1
        assert outcome.usage.total > 0
        assert outcome.served_models == ["scripted"]
        assert calls == ["probe:1"] and len(outcome.tool_log) == 1
        assert outcome.final_text == "" and not outcome.budget_exhausted

    def test_context_the_budget_cannot_hold_ends_the_run(self):
        outcome = run_agent(
            role="sp-generator",
            model_chains=_CHAINS,
            seed_context="s" * 400,
            registry=_loop_registry(),
            pool=_scripted_pool({"agents": {}}),
            system_prompt="sys",
            budgets=Budgets(context_token_budget=50),
        )
        assert outcome.failure == (
            "budget 50 cannot hold the system message, seed context and last exchange "
            "(101 tokens)"
        )
        assert outcome.failure_kind == "context"
        assert outcome.steps == 0 and outcome.usage.total == 0

    def test_context_compression_kicks_in(self):
        big = {"tool_calls": [{"name": "big", "args": {}}]}
        scenario = {"agents": {"sp-generator": [{"steps": [big, big, {"text": "finished"}]}]}}
        outcome = run_agent(
            role="sp-generator",
            model_chains=_CHAINS,
            budgets=Budgets(context_token_budget=560),
            seed_context="s" * 40,
            registry=_loop_registry(),
            pool=_scripted_pool(scenario),
            system_prompt="sys",
        )
        assert outcome.final_text == "finished"
        assert outcome.conversation.messages[1].content == "s" * 40
        summaries = [m for m in outcome.conversation if m.content.startswith("[compressed")]
        assert len(summaries) == 1
        assert summaries[0].role == "user"
        assert "- tool: " + "r" * 80 in summaries[0].content



# ===== run loop against its oracle =====


class _Gate(Provider):
    """One model of a chain: records each request it is offered, then fails
    on the calls numbered in ``fail_at`` and serves the others through the
    shared scripted provider."""

    def __init__(self, name, inner, fail_at, log):
        self.name, self.inner, self.fail_at, self.log = name, inner, fail_at, log
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        messages = list(request.messages)
        self.log.append(
            (self.name, request.model, messages, [m.token_estimate for m in messages],
             request.tools, request.temperature, request.agent_role, request.run_id)
        )
        if self.calls in self.fail_at:
            raise ProviderError("timeout")
        return self.inner.complete(request)


def _oracle_tools(log):
    def probe(k=0):
        log.append(f"probe:{k}")
        return f"probed {k}"

    def big():
        log.append("big")
        return "r" * 300

    def boom():
        log.append("boom")
        raise RuntimeError("kaput")

    def data():
        log.append("data")
        return {"b": [1, 2], "a": "é"}

    return [Tool(name=fn.__name__, fn=fn) for fn in (probe, big, boom, data)]


_ORACLE_CALL = st.fixed_dictionaries(
    {
        "name": st.sampled_from(["probe", "big", "boom", "data", "ghost"]),
        "args": st.sampled_from([{}, {"k": 1}, {"k": "é"}, {"nope": 0}]),
    }
)
_ORACLE_STEP = st.fixed_dictionaries(
    {
        "tool_calls": st.lists(_ORACLE_CALL, max_size=3),
        "text": st.sampled_from(["", "done", "x" * 30]),
    },
    optional={"stop": st.booleans()},
)
# Runs of "big" results outgrow a context budget, so they compress.
_BIG_STEPS = st.lists(
    st.builds(lambda text: {"tool_calls": [{"name": "big", "args": {}}], "text": text},
              st.sampled_from(["", "more"])),
    min_size=3,
    max_size=6,
).map(lambda steps: [*steps, {"text": "done"}])


def _outcome_facts(outcome):
    messages = outcome.conversation.messages
    return (
        outcome.role, outcome.final_text, outcome.tool_log, outcome.usage,
        outcome.served_models, outcome.steps, outcome.budget_exhausted,
        outcome.budget_reason, outcome.failure, outcome.failure_kind,
        messages, [m.token_estimate for m in messages], outcome.conversation.total_tokens(),
    )


class TestRunAgentOracle:
    @settings(max_examples=400, deadline=None)
    @given(
        steps=st.one_of(st.none(), st.lists(_ORACLE_STEP, max_size=7), _BIG_STEPS),
        chain=st.sampled_from([["scripted"], ["first", "scripted"], ["ghost", "scripted"]]),
        fail_first=st.frozensets(st.integers(1, 8), max_size=4),
        fail_scripted=st.one_of(st.just(frozenset()), st.frozensets(st.integers(1, 8),
                                                                     max_size=2)),
        limits=st.one_of(st.none(), st.fixed_dictionaries({"probe": st.integers(0, 2)})),
        max_total_tokens=st.one_of(st.none(), st.integers(1, 600), st.integers(600, 6000)),
        # The narrow range holds a short seed and the last exchange, but
        # not two earlier "big" results, so it compresses.
        context_token_budget=st.one_of(st.none(), st.integers(1, 400), st.integers(90, 250)),
        max_steps=st.one_of(st.just(loop.MAX_STEPS), st.integers(1, 6)),
        seed=st.text(max_size=300),
        system=st.text(max_size=40),
    )
    def test_outcome_and_requests_match_the_naive_loop(
        self, steps, chain, fail_first, fail_scripted, limits, max_total_tokens,
        context_token_budget, max_steps, seed, system,
    ):
        """Scripted scenarios with tool calls, stop flags, unknown tools and
        bad arguments, under call limits, token budgets that trip, context
        budgets that compress or cannot hold the run, chains whose first
        model fails or that run out, and step caps: the run and every
        request it sends are those of the plain loop."""
        agents = {} if steps is None else {"sp-generator": [{"steps": steps}]}

        def play(run):
            scripted = ScriptedProvider({"agents": agents})
            requests, tool_calls = [], []
            pool = ProviderPool()
            pool.register("first", _Gate("first", scripted, fail_first, requests))
            pool.register("scripted", _Gate("scripted", scripted, fail_scripted, requests))
            with mock.patch.object(loop, "MAX_STEPS", max_steps):
                outcome = run(
                    "sp-generator",
                    seed,
                    ToolRegistry(_oracle_tools(tool_calls), limits),
                    pool,
                    {"T2": chain},
                    system,
                    run_id="run-1",
                    budgets=Budgets(max_total_tokens, context_token_budget),
                )
            return _outcome_facts(outcome), requests, tool_calls

        assert play(run_agent) == play(naive_run_agent)


# ===== context compression =====


class TestCompressContext:
    def _convo(self) -> Conversation:
        return Conversation(
            [
                Message("system", "S" * 40),
                Message("user", "A" * 200),
                Message("assistant", "mid reply"),
                Message("user", "B" * 200),
                Message("assistant", "tail reply"),
            ]
        )

    def test_under_budget_is_identity(self):
        convo = self._convo()
        assert compress_context(convo, 10_000) is convo

    def test_middle_collapses_into_summary(self):
        convo = self._convo()
        result = compress_context(convo, 110)
        assert result.messages[:2] == convo.messages[:2]
        summary = result.messages[2]
        assert summary.role == "user"
        assert summary.content.splitlines() == [
            "[compressed 2 earlier messages]",
            "- assistant: mid reply",
            "- user: " + "B" * 80,
        ]
        assert result.messages[3:] == convo.messages[4:]
        assert result.total_tokens() <= 110

    def test_tool_calls_named_in_index(self):
        convo = Conversation(
            [
                Message("system", "S" * 40),
                Message("user", "A" * 200),
                Message("assistant", "", tool_calls=(ToolCall("probe", {}),)),
                Message("tool", "result " * 30),
                Message("assistant", "tail reply"),
            ]
        )
        result = compress_context(convo, 100)
        assert "- assistant: (tool calls: probe)" in result.messages[2].content

    def test_oversize_summary_is_truncated(self):
        convo = Conversation(
            [Message("system", "S" * 40), Message("user", "A" * 200)]
            + [Message("assistant", f"reply {i}") for i in range(40)]
        )
        result = compress_context(convo, 90)
        summary = result.messages[2].content
        assert summary.startswith("[compressed 39 earlier messages]")
        assert summary.endswith("...")
        assert result.total_tokens() == 90

    def test_budget_below_floor_raises(self):
        with pytest.raises(BudgetError, match="cannot hold"):
            compress_context(self._convo(), 10)

    def test_a_budget_with_no_room_for_a_summary_raises(self):
        """A budget that the kept messages fill exactly leaves no room for
        even the smallest summary."""
        convo = self._convo()
        kept = convo.messages[:2] + convo.messages[4:]
        budget = sum(m.token_estimate for m in kept)
        with pytest.raises(BudgetError, match=rf"budget {budget} cannot hold"):
            compress_context(convo, budget)
        assert compress_context(convo, budget + 3).total_tokens() == budget + 3

    def test_missing_system_message_raises(self):
        convo = Conversation([Message("user", "U" * 400), Message("assistant", "r")])
        with pytest.raises(BudgetError, match="no leading system message"):
            compress_context(convo, 5)

    @settings(max_examples=300, deadline=None)
    @given(
        exchanges=st.lists(
            st.tuples(st.text(max_size=60), st.lists(st.text(max_size=120), max_size=3),
                      st.booleans()),
            max_size=10,
        ),
        seed=st.text(max_size=200),
        data=st.data(),
    )
    def test_result_fits_the_budget_or_raises(self, exchanges, seed, data):
        """Over random conversations (assistant turns with tool results,
        interleaved user turns) and budgets, the compressed conversation
        keeps the system message and seed context, and fits."""
        convo = Conversation([Message("system", "system prompt"), Message("user", seed)])
        for n, (text, results, user_after) in enumerate(exchanges):
            calls = tuple(ToolCall("probe", {"k": i}, f"c{n}.{i}") for i in range(len(results)))
            convo.append(Message("assistant", text, tool_calls=calls))
            for call, result in zip(calls, results):
                convo.append(Message("tool", result, tool_call_id=call.call_id))
            if user_after:
                convo.append(Message("user", f"note {n}"))
        budget = data.draw(st.integers(min_value=0, max_value=convo.total_tokens()))
        try:
            result = compress_context(convo, budget)
        except BudgetError:
            return
        assert result.total_tokens() <= budget
        assert result.messages[:2] == convo.messages[:2]


# ===== prompts =====


class TestPrompts:
    def test_version(self):
        assert PROMPT_VERSION == "1.0"

    def test_every_role_has_a_template_that_renders(self):
        assert set(TEMPLATES) == set(ROLE_TIERS)
        for role in ROLE_TIERS:
            text = render_prompt(role)
            assert text and "{" not in text

    def test_context_overrides_defaults(self):
        text = render_prompt("sp-generator", fuzzer="img", vuln_types="heap-buffer-overflow")
        assert "fuzzer 'img'" in text
        assert "heap-buffer-overflow" in text

    def test_defaults_fill_placeholders(self):
        assert "at most 5 directions" in render_prompt("direction-generator")
        poc = render_prompt("poc-generator", max_attempts=40, trace_unlock=16, variants=3)
        assert "at most 40 create_pov calls" in poc
        assert "From attempt 16 onward trace_pov" in poc
        assert "all 3 variants" in poc
