"""Agent core: roles and budgets, providers with fallback, tool registries, run loop."""

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
)

__all__ = [
    "AgentOutcome",
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
    "render_prompt",
    "run_agent",
]
