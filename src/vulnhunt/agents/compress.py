"""Context compression for long agent conversations.

When a conversation outgrows its token budget, everything between the seed
context (the first user message) and the most recent assistant/tool exchange
is replaced by a single summary block: a deterministic index listing each
replaced message's role and head.  The system message, the seed context and
that last exchange survive verbatim.
"""

from __future__ import annotations

from ..errors import BudgetError
from .types import Conversation, Message, estimate_tokens

_HEAD_CHARS = 80
# The smallest summary a budget must leave room for: a truncated index keeps
# at least "[compress..." (12 characters).
_MIN_SUMMARY_TOKENS = 3


def _tail_start(messages: list[Message]) -> int:
    """Index where the most recent assistant/tool exchange begins; never
    inside the system message and seed context."""
    for i in range(len(messages) - 1, 1, -1):
        if messages[i].role == "assistant":
            return i
    return max(2, len(messages) - 1)


def _index_summary(messages: list[Message]) -> str:
    lines = [f"[compressed {len(messages)} earlier messages]"]
    for msg in messages:
        head = msg.content.replace("\n", " ")[:_HEAD_CHARS]
        if msg.tool_calls:
            names = ",".join(tc.name for tc in msg.tool_calls)
            head = f"{head} (tool calls: {names})" if head else f"(tool calls: {names})"
        lines.append(f"- {msg.role}: {head}")
    return "\n".join(lines)


def compress_context(conversation: Conversation, token_budget: int) -> Conversation:
    """Compress a conversation to fit a token budget.

    Returns the conversation unchanged when it already fits.  Otherwise the
    system message, the seed context and the last exchange are preserved
    verbatim and the messages between them collapse into one summary
    message, truncated so that the result never exceeds the budget.

    Raises:
        BudgetError: when the budget cannot hold the preserved messages plus
            the smallest summary.
    """
    if conversation.total_tokens() <= token_budget:
        return conversation
    messages = conversation.messages
    if not messages or messages[0].role != "system":
        raise BudgetError("conversation has no leading system message")
    tail_from = _tail_start(messages)
    head, middle, tail = messages[:2], messages[2:tail_from], messages[tail_from:]
    kept = sum(m.token_estimate for m in head + tail)
    # With nothing in the middle the conversation is all kept messages, and
    # it is over the budget.
    floor = kept + _MIN_SUMMARY_TOKENS if middle else kept
    if floor > token_budget:
        raise BudgetError(
            f"budget {token_budget} cannot hold the system message, seed context "
            f"and last exchange ({floor} tokens)"
        )
    summary_text = _index_summary(middle)
    room = token_budget - kept
    if estimate_tokens(summary_text) > room:
        summary_text = summary_text[: room * 4 - len("...")] + "..."
    return Conversation([*head, Message(role="user", content=summary_text), *tail])
