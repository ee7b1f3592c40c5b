"""Provider adapters: scripted (deterministic) and a reference HTTP client.

A provider turns a :class:`ProviderRequest` into a :class:`ProviderResponse`
or raises :class:`ProviderError` with one of three failure kinds
(``rate-limit``, ``timeout``, ``unavailable``).  ``call_with_fallback``
walks a same-tier model chain across those failures and annotates the
response with the model that actually served it.

The scripted provider replays scenario files and is what every end-to-end
test runs against.  A scenario maps an agent role to a list of runs; each
run matches on a substring of the agent's seed context and plays its steps
in order (tool calls, then a final text).  Runs are consumed once unless
marked reusable.  The scenario is compiled once, when the provider is built.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

import yaml

from ..errors import ChainExhaustedError, ValidationError
from .types import (
    Message,
    ProviderRequest,
    ProviderResponse,
    TokenUsage,
    ToolCall,
    estimate_tokens,
)

FAILURE_KINDS = ("rate-limit", "timeout", "unavailable")


class ProviderError(Exception):
    """A model call failed in one of the retriable ways."""

    def __init__(self, kind: str, message: str = ""):
        if kind not in FAILURE_KINDS:
            raise ValueError(f"unknown failure kind '{kind}'")
        self.kind = kind
        super().__init__(message or kind)


class Provider:
    """Interface: complete one request or raise ProviderError."""

    def complete(self, request: ProviderRequest) -> ProviderResponse:
        raise NotImplementedError


class ProviderPool:
    """Model-name -> provider registry with fallback dispatch."""

    def __init__(self) -> None:
        self._by_model: dict[str, Provider] = {}

    def register(self, model: str, provider: Provider) -> None:
        self._by_model[model] = provider

    def call_with_fallback(self, chain: list[str], request: ProviderRequest) -> ProviderResponse:
        """Try each model in the chain; first success wins.

        The response's ``served_by`` names the serving model.  Raises
        :class:`ChainExhaustedError` carrying every per-model failure when
        no model succeeds.
        """
        failures: list[str] = []
        for model in chain:
            provider = self._by_model.get(model)
            if provider is None:
                failures.append(f"{model}: unavailable (not registered)")
                continue
            request.model = model
            try:
                response = provider.complete(request)
            except ProviderError as exc:
                failures.append(f"{model}: {exc.kind}")
                continue
            response.served_by = model
            return response
        raise ChainExhaustedError(chain, failures)


# ===== Scripted provider =====

# Selection indexes each match under its first characters, at most this many.
_HEAD_CHARS = 8


def _compile_step(step: dict) -> tuple:
    """A scenario step as ``(text, ((name, args), ...), stop, completion_tokens)``.

    ``args`` stays the scenario's own dict: ``complete`` copies it per call.
    """
    calls = tuple((str(tc["name"]), tc.get("args", {})) for tc in step.get("tool_calls", []))
    text = str(step.get("text", ""))
    completion = estimate_tokens(text) + sum(
        estimate_tokens(json.dumps(dict(args), sort_keys=True)) for _, args in calls
    )
    return text, calls, bool(step.get("stop", not calls)), max(1, completion)


class _RoleScript:
    """One role's compiled runs, with an index of the live runs by match.

    ``buckets`` maps each match to the indices of its live runs, last index
    first, so the lowest live index is at the end.  ``heads`` maps the first
    characters of each non-empty match to the lengths of the matches that
    start with them.
    """

    def __init__(self, runs: list[tuple[str, bool, tuple]]):
        self.steps = [steps for _, _, steps in runs]
        self.reusable = [reusable for _, reusable, _ in runs]
        self.buckets: dict[str, list[int]] = {}
        for i in reversed(range(len(runs))):
            self.buckets.setdefault(runs[i][0], []).append(i)
        self.heads: dict[str, set[int]] = {}
        for match in self.buckets:
            if match:
                self.heads.setdefault(match[:_HEAD_CHARS], set()).add(len(match))

    def select(self, seed_text: str) -> tuple | None:
        """Steps of the first run, in scenario order, whose match occurs in
        the seed and that is reusable or not yet selected."""
        buckets = self.buckets
        best = buckets.get("") or None  # the empty match occurs in every seed
        for head, lengths in self.heads.items():
            at = seed_text.find(head)
            while at >= 0:
                for n in lengths:
                    bucket = buckets.get(seed_text[at : at + n])
                    if bucket and (best is None or bucket[-1] < best[-1]):
                        best = bucket
                at = seed_text.find(head, at + 1)
        if best is None:
            return None
        index = best[-1] if self.reusable[best[-1]] else best.pop()
        return self.steps[index]


class ScriptedProvider(Provider):
    """Deterministic provider replaying a scenario file.

    Scenario layout (YAML or JSON)::

        version: 1
        agents:
          sp-generator:
            - match: "img_apply_palette"   # substring of the seed context
              reusable: false              # default
              steps:
                - tool_calls:
                    - name: create_suspicious_point
                      args: {...}
                - text: "done"             # final step stops the run
          sp-verifier:
            - match: ""                    # empty matches anything
              reusable: true
              steps:
                - text: "no verdict"

    Each agent run (identified by the request's ``run_id``) selects, on its
    first call, the first run of its role in scenario order whose match
    occurs in the seed context (the user messages) and that is reusable or
    not yet selected; it then plays one step per call.  Exhausted steps
    yield an empty stop response.

    The scenario is compiled once, here: each step's completion tokens are
    counted up front, and each role's live runs are bucketed by match.  A
    selection finds the first characters of each distinct match in the
    seed and looks up only the slices that start there, so its cost grows
    with the seed and the distinct matches, not with the number of runs.
    """

    def __init__(self, scenario: dict | str | Path):
        if isinstance(scenario, (str, Path)):
            scenario = load_scenario(scenario)
        agents = scenario.get("agents", {})
        if not isinstance(agents, dict):
            raise ValidationError("scenario 'agents' must be a mapping")
        self._scripts: dict[str, _RoleScript] = {}
        for role, runs in agents.items():
            compiled = []
            for i, run in enumerate(runs or []):
                if not isinstance(run, dict) or "steps" not in run:
                    raise ValidationError(f"scenario {role}[{i}]: run needs 'steps'")
                try:
                    steps = tuple(_compile_step(step) for step in run["steps"])
                except (AttributeError, KeyError, TypeError, ValueError) as exc:
                    raise ValidationError(f"scenario {role}[{i}]: bad step: {exc!r}") from exc
                compiled.append(
                    (str(run.get("match", "") or ""), bool(run.get("reusable", False)), steps)
                )
            self._scripts[role] = _RoleScript(compiled)
        # (role, run id) -> [the run's steps or None, index of the next step]
        self._sessions: dict[tuple[str, str], list] = {}
        self._lock = threading.Lock()

    def roles(self) -> set[str]:
        """Roles that have at least one scripted run."""
        return {role for role, script in self._scripts.items() if script.steps}

    def complete(self, request: ProviderRequest) -> ProviderResponse:
        key = (request.agent_role, request.run_id)
        with self._lock:
            session = self._sessions.get(key)
            if session is None:
                script = self._scripts.get(request.agent_role)
                steps = None
                if script is not None:
                    seed_text = "\n".join(m.content for m in request.messages if m.role == "user")
                    steps = script.select(seed_text)
                session = self._sessions[key] = [steps, 0]
            steps, step_idx = session
            session[1] = step_idx + 1

        prompt_tokens = sum(m.token_estimate for m in request.messages)
        if steps is None or step_idx >= len(steps):
            return ProviderResponse(text="", stop=True, usage=TokenUsage(prompt_tokens, 0))
        text, calls, stop, completion = steps[step_idx]
        tool_calls = tuple(
            ToolCall(name=name, arguments=dict(args), call_id=f"{request.run_id}#{step_idx}.{j}")
            for j, (name, args) in enumerate(calls)
        )
        return ProviderResponse(
            text=text,
            tool_calls=tool_calls,
            stop=stop,
            usage=TokenUsage(prompt_tokens, completion),
        )


def load_scenario(path: str | Path) -> dict:
    """Load a scenario file (YAML or JSON by extension); a ValidationError
    naming the path if it cannot be read or parsed or is not a mapping."""
    path = Path(path)
    try:
        parse = yaml.safe_load if path.suffix in (".yaml", ".yml") else json.loads
        data = parse(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, yaml.YAMLError, json.JSONDecodeError) as exc:
        raise ValidationError(f"scenario {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"scenario {path} must contain a mapping")
    return data


# ===== Reference HTTP adapter =====


class HttpChatProvider(Provider):
    """Minimal chat-completions-with-tools client (OpenAI-style wire shape).

    Maps HTTP 429 to ``rate-limit``, request timeouts to ``timeout``, and
    connection errors, other HTTP errors and malformed response bodies to
    ``unavailable`` so the fallback chain can do its job.  The tests drive it
    through a stubbed ``requests.post``; the scripted provider is the
    reference path.
    """

    def __init__(self, base_url: str, api_key: str = "", timeout_s: float = 120.0):
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key
        self.timeout_s = timeout_s

    def _wire_messages(self, messages: list[Message]) -> list[dict]:
        wire = []
        for msg in messages:
            entry: dict = {"role": msg.role, "content": msg.content}
            if msg.role == "assistant" and msg.tool_calls:
                entry["tool_calls"] = [
                    {
                        "id": tc.call_id or f"call_{i}",
                        "type": "function",
                        "function": {"name": tc.name, "arguments": json.dumps(tc.arguments)},
                    }
                    for i, tc in enumerate(msg.tool_calls)
                ]
            if msg.role == "tool":
                entry["tool_call_id"] = msg.tool_call_id
            wire.append(entry)
        return wire

    def complete(self, request: ProviderRequest) -> ProviderResponse:
        import requests

        payload = {
            "model": request.model,
            "messages": self._wire_messages(request.messages),
            "temperature": request.temperature,
        }
        if request.tools:
            payload["tools"] = [
                {"type": "function", "function": schema} for schema in request.tools
            ]
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        try:
            resp = requests.post(
                f"{self.base_url}/chat/completions",
                json=payload,
                headers=headers,
                timeout=self.timeout_s,
            )
        except requests.Timeout as exc:
            raise ProviderError("timeout", str(exc)) from exc
        except requests.RequestException as exc:
            raise ProviderError("unavailable", str(exc)) from exc
        if resp.status_code == 429:
            raise ProviderError("rate-limit", "HTTP 429")
        if resp.status_code >= 500:
            raise ProviderError("unavailable", f"HTTP {resp.status_code}")
        if resp.status_code >= 400:
            raise ProviderError("unavailable", f"HTTP {resp.status_code}: {resp.text[:200]}")
        try:
            return self._parse(resp.json())
        except (ValueError, LookupError, TypeError, AttributeError) as exc:
            # A 200 without a usable completion (not JSON, no choices, bad
            # tool arguments) is a fault of this model, not of the worker.
            raise ProviderError("unavailable", f"malformed response: {exc!r}") from exc

    @staticmethod
    def _parse(body) -> ProviderResponse:
        message = body["choices"][0]["message"]
        finish = body["choices"][0].get("finish_reason", "stop")
        tool_calls = tuple(
            ToolCall(
                name=tc["function"]["name"],
                arguments=json.loads(tc["function"].get("arguments") or "{}"),
                call_id=tc.get("id", ""),
            )
            for tc in message.get("tool_calls") or []
        )
        usage = body.get("usage", {})
        return ProviderResponse(
            text=message.get("content") or "",
            tool_calls=tool_calls,
            stop=finish != "tool_calls",
            usage=TokenUsage(
                int(usage.get("prompt_tokens", 0)), int(usage.get("completion_tokens", 0))
            ),
        )
