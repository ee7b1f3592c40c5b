"""The tool-calling agent loop.

One agent run is: send the conversation to the role's model chain, execute
any requested tools, append the results, and repeat until the model stops.
Every other way a run stops is also an ending of the run, reported on its
:class:`AgentOutcome` with the usage and tool log of the steps that ran:

- a tripped token budget or the ``MAX_STEPS`` cap sets ``budget_exhausted``;
- an exhausted model chain, or a context that its budget cannot hold even
  compressed, sets ``failure`` to the reason and ``failure_kind`` to
  ``"chain"`` or ``"context"``: a later run may find a model back, but the
  same context fails the same way.

Every tool call goes to the run's registry, which refuses a call over its
limit, and lands in the outcome's log with its arguments and a digest of the
result.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from ..errors import BudgetError, ChainExhaustedError, ValidationError
from .compress import compress_context
from .providers import ProviderPool
from .registry import ToolRegistry, result_digest
from .types import ROLE_TIERS, Budgets, Conversation, Message, ProviderRequest, TokenUsage

logger = logging.getLogger(__name__)

# Hard cap on provider round-trips per run.
MAX_STEPS = 64


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
    failure: str = ""
    failure_kind: str = ""  # "chain" or "context" when ``failure`` is set
    conversation: Conversation | None = None


def run_agent(
    role: str,
    seed_context: str,
    registry: ToolRegistry,
    pool: ProviderPool,
    model_chains: dict[str, list[str]],
    system_prompt: str,
    run_id: str = "",
    budgets: Budgets | None = None,
) -> AgentOutcome:
    """Run one agent to completion under its budgets.

    A run pays per step only for what changes.  The registry's ``invoke``,
    the pool's ``call_with_fallback``, the conversation's ``append`` and the
    registry's schema list are looked up once per run (``append`` again
    after a compression), and each request sends that one schema list.  The
    conversation keeps its token total as messages are appended, so it is
    compressed only when that total is over the context budget.  The step
    usages add up into two counters that become ``outcome.usage`` when the
    run ends.  A tool log entry keeps the call's own arguments dict: a
    provider hands out a fresh one per call, and a tool receives a copy.

    Args:
        role: the agent role; its tier picks the chain from ``model_chains``.
        seed_context: the initial user message.
        registry: the run's tool registry, which enforces its own tool-call
            limits; a caller that reuses it for another run resets it first.
        pool: provider pool used for fallback dispatch.
        model_chains: per-tier model chains.
        system_prompt: rendered system prompt for the role.
        run_id: stable id for scripted-run selection and logging.
        budgets: token and context caps; none by default.

    Returns:
        An :class:`AgentOutcome` for every way the run stops.

    Raises:
        ValidationError: for an unknown role or a tier without a model chain.
    """
    if role not in ROLE_TIERS:
        raise ValidationError(f"unknown agent role '{role}'")
    chain = model_chains.get(ROLE_TIERS[role])
    if not chain:
        raise ValidationError(f"role '{role}': model chain must be non-empty")
    budgets = budgets or Budgets()
    conversation = Conversation(
        [Message(role="system", content=system_prompt), Message(role="user", content=seed_context)]
    )
    outcome = AgentOutcome(role=role)
    tool_log, served_models = outcome.tool_log, outcome.served_models
    prompt_tokens = completion_tokens = 0
    token_limit, context_budget = budgets.max_total_tokens, budgets.context_token_budget
    model, run_id = chain[0], run_id or role
    schemas, invoke, call = registry.schemas(), registry.invoke, pool.call_with_fallback
    append = conversation.append

    for step in range(1, MAX_STEPS + 1):
        if token_limit is not None and prompt_tokens + completion_tokens >= token_limit:
            outcome.budget_exhausted = True
            outcome.budget_reason = "token budget exhausted"
            break
        try:
            if context_budget is not None and conversation.total_tokens() > context_budget:
                conversation = compress_context(conversation, context_budget)
                append = conversation.append
            request = ProviderRequest(
                model, list(conversation.messages), schemas, agent_role=role, run_id=run_id
            )
            response = call(chain, request)
        except (BudgetError, ChainExhaustedError) as exc:
            outcome.failure = str(exc)
            outcome.failure_kind = "context" if isinstance(exc, BudgetError) else "chain"
            break
        outcome.steps = step
        usage = response.usage
        prompt_tokens += usage.prompt
        completion_tokens += usage.completion
        served_models.append(response.served_by)
        tool_calls = response.tool_calls
        append(Message("assistant", response.text, tool_calls))
        for tc in tool_calls:
            text, ok = invoke(tc.name, tc.arguments)
            tool_log.append(ToolLogEntry(step, tc.name, tc.arguments, result_digest(text), ok))
            append(Message("tool", text, tool_call_id=tc.call_id))
        # A text response ends the run, with or without stop; the loop only
        # continues on tool activity that does not stop.
        if response.stop or not tool_calls:
            outcome.final_text = response.text
            break
    else:
        outcome.budget_exhausted = True
        outcome.budget_reason = f"step cap ({MAX_STEPS}) reached"

    outcome.usage = TokenUsage(prompt_tokens, completion_tokens)
    if (
        token_limit is not None
        and prompt_tokens + completion_tokens >= token_limit
        and not outcome.final_text
    ):
        outcome.budget_exhausted = True
        outcome.budget_reason = outcome.budget_reason or "token budget exhausted"
    outcome.conversation = conversation
    logger.debug(
        "[agent:%s] steps=%d tools=%d tokens=%d exhausted=%s failure=%s",
        role,
        outcome.steps,
        len(outcome.tool_log),
        outcome.usage.total,
        outcome.budget_exhausted,
        outcome.failure,
    )
    return outcome
