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
marked reusable.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
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


@dataclass
class _ScriptRun:
    match: str = ""
    reusable: bool = False
    steps: list[dict] = field(default_factory=list)
    consumed: bool = False


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

    Each agent run (identified by the request's ``run_id``) selects the
    first unconsumed matching run for its role on the first call, then plays
    one step per call.  Exhausted steps yield an empty stop response.
    """

    def __init__(self, scenario: dict | str | Path):
        if isinstance(scenario, (str, Path)):
            scenario = load_scenario(scenario)
        self._runs: dict[str, list[_ScriptRun]] = {}
        agents = scenario.get("agents", {})
        if not isinstance(agents, dict):
            raise ValidationError("scenario 'agents' must be a mapping")
        for role, runs in agents.items():
            parsed: list[_ScriptRun] = []
            for i, run in enumerate(runs or []):
                if not isinstance(run, dict) or "steps" not in run:
                    raise ValidationError(f"scenario {role}[{i}]: run needs 'steps'")
                parsed.append(
                    _ScriptRun(
                        match=str(run.get("match", "") or ""),
                        reusable=bool(run.get("reusable", False)),
                        steps=list(run["steps"]),
                    )
                )
            self._runs[role] = parsed
        self._sessions: dict[tuple[str, str], tuple[_ScriptRun | None, int]] = {}
        self._lock = threading.Lock()

    def roles(self) -> set[str]:
        """Roles that have at least one scripted run."""
        return {role for role, runs in self._runs.items() if runs}

    def _select_run(self, role: str, seed_text: str) -> _ScriptRun | None:
        for run in self._runs.get(role, []):
            if run.consumed and not run.reusable:
                continue
            if run.match and run.match not in seed_text:
                continue
            if not run.reusable:
                run.consumed = True
            return run
        return None

    def complete(self, request: ProviderRequest) -> ProviderResponse:
        key = (request.agent_role, request.run_id)
        with self._lock:
            if key not in self._sessions:
                seed_text = "\n".join(m.content for m in request.messages if m.role == "user")
                self._sessions[key] = (self._select_run(request.agent_role, seed_text), 0)
            run, step_idx = self._sessions[key]
            step = None
            if run is not None and step_idx < len(run.steps):
                step = run.steps[step_idx]
            self._sessions[key] = (run, step_idx + 1)

        prompt_tokens = sum(m.token_estimate for m in request.messages)
        if step is None:
            return ProviderResponse(text="", stop=True, usage=TokenUsage(prompt_tokens, 0))
        tool_calls = tuple(
            ToolCall(
                name=str(tc["name"]),
                arguments=dict(tc.get("args", {})),
                call_id=f"{request.run_id}#{step_idx}.{j}",
            )
            for j, tc in enumerate(step.get("tool_calls", []))
        )
        text = str(step.get("text", ""))
        stop = bool(step.get("stop", not tool_calls))
        completion = estimate_tokens(text) + sum(
            estimate_tokens(json.dumps(tc.arguments, sort_keys=True)) for tc in tool_calls
        )
        return ProviderResponse(
            text=text,
            tool_calls=tool_calls,
            stop=stop,
            usage=TokenUsage(prompt_tokens, max(1, completion)),
        )


def load_scenario(path: str | Path) -> dict:
    """Load a scenario file (YAML or JSON by extension)."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix in (".yaml", ".yml"):
        data = yaml.safe_load(text)
    else:
        data = json.loads(text)
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
