"""The tool-calling agent loop.

One agent run is: send the conversation to the tier's model chain, execute
any requested tools, append the results, and repeat until the model stops or
a budget trips.  Budgets cover tokens and per-tool call counts, and an
optional context budget compresses the conversation before each step; a
tripped token budget or the step cap ends the run with ``budget_exhausted``
set rather than raising, and a tool over its limit is refused, not run.
Every tool invocation lands in the outcome's log with its arguments and a
digest of the result.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .compress import Summarizer, compress_context
from .providers import ProviderPool
from .registry import ToolRegistry, result_digest
from .types import AgentSpec, Conversation, Message, ProviderRequest, TokenUsage

logger = logging.getLogger(__name__)

DEFAULT_MAX_STEPS = 64


@dataclass
class ToolLogEntry:
    step: int
    name: str
    arguments: dict
    digest: str
    ok: bool


@dataclass
class AgentOutcome:
    """Everything a caller needs from one finished agent run."""

    role: str
    final_text: str = ""
    tool_log: list[ToolLogEntry] = field(default_factory=list)
    usage: TokenUsage = field(default_factory=TokenUsage)
    served_models: list[str] = field(default_factory=list)
    steps: int = 0
    budget_exhausted: bool = False
    budget_reason: str = ""
    conversation: Conversation | None = None


def run_agent(
    spec: AgentSpec,
    seed_context: str,
    registry: ToolRegistry,
    pool: ProviderPool,
    system_prompt: str,
    run_id: str = "",
    summarizer: Summarizer | None = None,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> AgentOutcome:
    """Run one agent to completion under its budgets.

    Args:
        spec: role, tier, model chain, budgets.
        seed_context: the initial user message.
        registry: this run's tool registry; its call counters enforce the
            spec's tool-call limits, while its tools may be shared between
            runs.
        pool: provider pool used for fallback dispatch.
        system_prompt: rendered system prompt for the role.
        run_id: stable id for scripted-run selection and logging.
        summarizer: optional context-compression summarizer.
        max_steps: hard cap on provider round-trips.

    Returns:
        An :class:`AgentOutcome`; provider chain exhaustion propagates as
        :class:`ChainExhaustedError` to the caller, which owns retry policy.
    """
    conversation = Conversation(
        [Message(role="system", content=system_prompt), Message(role="user", content=seed_context)]
    )
    outcome = AgentOutcome(role=spec.role)
    budgets = spec.budgets

    def tripped() -> str:
        if budgets.max_total_tokens is not None and outcome.usage.total >= budgets.max_total_tokens:
            return "token budget exhausted"
        return ""

    for step in range(1, max_steps + 1):
        reason = tripped()
        if reason:
            outcome.budget_exhausted = True
            outcome.budget_reason = reason
            break
        if budgets.context_token_budget is not None:
            conversation = compress_context(
                conversation, budgets.context_token_budget, summarizer
            )
        request = ProviderRequest(
            model=spec.model_chain[0],
            messages=list(conversation.messages),
            tools=registry.schemas(),
            agent_role=spec.role,
            run_id=run_id or spec.role,
        )
        response = pool.call_with_fallback(spec.model_chain, request)
        outcome.steps = step
        outcome.usage = outcome.usage + response.usage
        outcome.served_models.append(response.served_by)
        conversation.append(
            Message(role="assistant", content=response.text, tool_calls=response.tool_calls)
        )
        if response.tool_calls:
            for tc in response.tool_calls:
                limit = budgets.tool_call_limits.get(tc.name)
                if limit is not None and registry.call_counts.get(tc.name, 0) >= limit:
                    text, ok = (
                        f"tool error: '{tc.name}' call limit ({limit}) reached; refused",
                        False,
                    )
                else:
                    text, ok = registry.invoke(tc.name, tc.arguments)
                outcome.tool_log.append(
                    ToolLogEntry(
                        step=step,
                        name=tc.name,
                        arguments=dict(tc.arguments),
                        digest=result_digest(text),
                        ok=ok,
                    )
                )
                conversation.append(
                    Message(role="tool", content=text, tool_call_id=tc.call_id)
                )
            if response.stop:
                outcome.final_text = response.text
                break
            continue
        # A text response ends the run, with or without stop; the loop only
        # continues on tool activity.
        outcome.final_text = response.text
        break
    else:
        outcome.budget_exhausted = True
        outcome.budget_reason = f"step cap ({max_steps}) reached"

    reason = tripped()
    if reason and not outcome.final_text:
        outcome.budget_exhausted = True
        outcome.budget_reason = outcome.budget_reason or reason
    outcome.conversation = conversation
    logger.debug(
        "[agent:%s] steps=%d tools=%d tokens=%d exhausted=%s",
        spec.role,
        outcome.steps,
        len(outcome.tool_log),
        outcome.usage.total,
        outcome.budget_exhausted,
    )
    return outcome
