"""Agent core: specs, providers with fallback, tool registries, run loop."""

from .compress import compress_context
from .loop import AgentOutcome, ToolLogEntry, run_agent
from .providers import (
    HttpChatProvider,
    Provider,
    ProviderError,
    ProviderPool,
    ScriptedProvider,
    load_scenario,
)
from .registry import Tool, ToolRegistry
from .prompts import PROMPT_VERSION, render_prompt
from .types import (
    AgentSpec,
    Budgets,
    Conversation,
    Message,
    ProviderRequest,
    ProviderResponse,
    ROLE_TIERS,
    TEMPERATURE,
    TokenUsage,
    ToolCall,
    estimate_tokens,
    make_spec,
)

__all__ = [
    "AgentOutcome",
    "AgentSpec",
    "Budgets",
    "Conversation",
    "HttpChatProvider",
    "Message",
    "PROMPT_VERSION",
    "Provider",
    "ProviderError",
    "ProviderPool",
    "ProviderRequest",
    "ProviderResponse",
    "ROLE_TIERS",
    "ScriptedProvider",
    "TEMPERATURE",
    "TokenUsage",
    "Tool",
    "ToolCall",
    "ToolLogEntry",
    "ToolRegistry",
    "compress_context",
    "estimate_tokens",
    "load_scenario",
    "make_spec",
    "render_prompt",
    "run_agent",
]
