"""Core agent types: roles, budgets, conversations, provider request/response shapes.

Every agent request runs at temperature 0.1.  Token counts come from the
provider when reported; otherwise the documented heuristic applies:
``tokens = max(1, ceil(len(text) / 4))``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ValidationError

TEMPERATURE = 0.1

# Role -> tier assignments are fixed; a run uses its tier's model chain.
ROLE_TIERS: dict[str, str] = {
    "direction-generator": "T1",
    "sp-generator": "T2",
    "sp-deduplicator": "T3",
    "sp-verifier": "T1",
    "poc-generator": "T2",
    "report": "T2",
    "seed-generator": "T2",
}


def estimate_tokens(text: str) -> int:
    """Length heuristic used when a provider reports no usage: a quarter of
    the length rounded up, which is 0 for empty text only."""
    return -(-len(text) // 4)


@dataclass
class Budgets:
    """Per-agent-run token caps; None disables a cap.  Tool-call limits
    belong to the :class:`~vulnhunt.agents.registry.ToolRegistry` a run gets."""

    max_total_tokens: int | None = None
    context_token_budget: int | None = None


@dataclass(frozen=True)
class ToolCall:
    """One tool invocation requested by the model."""

    name: str
    arguments: dict
    call_id: str = ""


@dataclass
class Message:
    """One conversation message; role is system|user|assistant|tool."""

    role: str
    content: str
    tool_calls: tuple[ToolCall, ...] = ()
    tool_call_id: str = ""
    # Computed once, at construction: every provider call sums it over the
    # whole conversation.  Nothing reassigns a message's content or calls.
    token_estimate: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        tokens = estimate_tokens(self.content)
        for tc in self.tool_calls:
            tokens += estimate_tokens(repr(tc.arguments))
        self.token_estimate = tokens


class Conversation:
    """Ordered message list enforcing the tool-result placement invariant:

    a tool message must directly follow the assistant message that requested
    tools (or another tool result of the same batch).
    """

    def __init__(self, messages: list[Message] | None = None):
        self.messages: list[Message] = []
        self._tokens = 0
        for msg in messages or []:
            self.append(msg)

    def append(self, message: Message) -> None:
        if message.role == "tool":
            prev = self.messages[-1] if self.messages else None
            ok = prev is not None and (
                (prev.role == "assistant" and prev.tool_calls) or prev.role == "tool"
            )
            if not ok:
                raise ValidationError("tool result without a preceding assistant tool request")
        self.messages.append(message)
        self._tokens += message.token_estimate

    def total_tokens(self) -> int:
        """Sum of the messages' token estimates, kept as they are appended."""
        return self._tokens

    def __len__(self) -> int:
        return len(self.messages)

    def __iter__(self):
        return iter(self.messages)


@dataclass(frozen=True)
class TokenUsage:
    prompt: int = 0
    completion: int = 0

    @property
    def total(self) -> int:
        return self.prompt + self.completion


@dataclass
class ProviderRequest:
    """What a provider adapter receives for one completion."""

    model: str
    messages: list[Message]
    tools: list[dict] = field(default_factory=list)
    temperature: float = TEMPERATURE
    agent_role: str = ""
    run_id: str = ""


@dataclass
class ProviderResponse:
    """What a provider adapter returns for one completion."""

    text: str = ""
    tool_calls: tuple[ToolCall, ...] = ()
    stop: bool = False
    usage: TokenUsage = field(default_factory=TokenUsage)
    served_by: str = ""
