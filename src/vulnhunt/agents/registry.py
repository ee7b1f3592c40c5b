"""Tool registries: a tool set with per-tool call counters and limits.

A registry is built once, over tools that other registries may share (a
worker's read-only code tools are in every role's registry), and ``reset``
zeroes its call counters so each run's limits start from zero.  Tool names
are unique within a registry, and each tool's schema, like the registry's
schema list, is built once.  Tool failures and refused calls are returned as
error text results (the loop feeds them back to the model), never raised
through the agent loop.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable

from ..errors import ValidationError

ToolFn = Callable[..., Any]


@dataclass
class Tool:
    """One callable tool plus its request schema."""

    name: str
    fn: ToolFn
    description: str = ""
    parameters: dict = field(default_factory=lambda: {"type": "object", "properties": {}})
    # Built once, at construction: every step of every run sends it.
    _schema: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._schema = {
            "name": self.name,
            "description": self.description,
            "parameters": self.parameters,
        }

    def schema(self) -> dict:
        return self._schema


# ``json.dumps`` with keyword arguments builds a new encoder per call.
_encode_result = json.JSONEncoder(sort_keys=True, default=str).encode


def _serialize_result(result: Any) -> str:
    if isinstance(result, str):
        return result
    try:
        return _encode_result(result)
    except (TypeError, ValueError):
        return repr(result)


def result_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


class ToolRegistry:
    """A tool set with per-tool call counters and limits.

    ``limits`` maps a tool name to the most calls allowed between resets; a
    call over its limit is refused by ``invoke`` and not counted.
    """

    def __init__(self, tools: list[Tool], limits: dict[str, int] | None = None):
        self._limits = dict(limits or {})
        self._tools = {tool.name: tool for tool in tools}
        if len(self._tools) != len(tools):
            seen: set[str] = set()
            for tool in tools:
                if tool.name in seen:
                    raise ValidationError(f"duplicate tool '{tool.name}'")
                seen.add(tool.name)
        self.call_counts: dict[str, int] = dict.fromkeys(self._tools, 0)
        self._schemas = [tool.schema() for tool in self._tools.values()]

    def reset(self) -> None:
        """Zero the call counts, for a new run's limits."""
        self.call_counts = dict.fromkeys(self._tools, 0)

    def schemas(self) -> list[dict]:
        """The tools' request schemas, in registration order; callers must
        not modify the list, which every request shares."""
        return self._schemas

    def invoke(self, name: str, arguments: dict) -> tuple[str, bool]:
        """Invoke a tool; returns (result text, ok flag).

        A call over its limit, an unknown tool and a tool exception produce
        an error-text result with ok=False so the model sees the failure and
        can route around it.
        """
        limit = self._limits.get(name)
        if limit is not None and self.call_counts.get(name, 0) >= limit:
            return f"tool error: '{name}' call limit ({limit}) reached; refused", False
        tool = self._tools.get(name)
        if tool is None:
            return f"tool error: unknown tool '{name}'", False
        self.call_counts[name] += 1
        try:
            result = tool.fn(**arguments)
        except TypeError as exc:
            return f"tool error: bad arguments for '{name}': {exc}", False
        except Exception as exc:  # noqa: BLE001 - fed back to the model as text
            return f"tool error: {name}: {exc}", False
        return _serialize_result(result), True
