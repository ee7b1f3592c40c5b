"""Independent oracles and builders shared by the test suite.

Everything here is deliberately written *without* reusing the package's own
traversal or scoring code, so the tests compare two independent
implementations of the same contract.
"""
from __future__ import annotations

import json
import random
import re
from collections import namedtuple

from vulnhunt.agents import ScriptedProvider, compress_context, loop
from vulnhunt.agents.loop import AgentOutcome, ToolLogEntry
from vulnhunt.agents.registry import result_digest
from vulnhunt.agents.types import ROLE_TIERS, Budgets, Conversation, Message, ProviderRequest, TokenUsage
from vulnhunt.callgraph import CallGraph, FunctionRecord, load_call_graph
from vulnhunt.directions import DirectionScheduler, Pick
from vulnhunt.errors import BudgetError, ChainExhaustedError, OversizeBlobError, ValidationError
from vulnhunt.fuzzing.mutate import OPERATORS, Mutator
from vulnhunt.fuzzing.seeds import _decode_string, _encode_number
from vulnhunt.fuzzing.target import DEFAULT_MAX_BLOB, ExecutionResult


def export_lines(records):
    """Serialize function records to JSONL lines."""
    return [json.dumps(rec, sort_keys=True) for rec in records]


def graph_from_records(records):
    """Load a CallGraph straight from in-memory records."""
    return load_call_graph(export_lines(records))


# ---------------------------------------------------------------------------
# Naive reachability / depth oracles
# ---------------------------------------------------------------------------


def naive_node_universe(records):
    """All node ids the loader will know about: declared + external callees."""
    declared = {rec["id"] for rec in records}
    externals = set()
    for rec in records:
        for callee in rec.get("callees", ()):
            if callee not in declared:
                externals.add(callee)
    return declared | externals


def naive_adjacency(records):
    adj = {node: [] for node in naive_node_universe(records)}
    for rec in records:
        adj[rec["id"]] = list(rec.get("callees", ()))
    return adj


def naive_entries(records, fuzzer):
    return [
        rec["id"]
        for rec in records
        if fuzzer in rec.get("is_entry_for", ())
    ]


def naive_closure(records, fuzzer):
    """Plain-list BFS closure from the fuzzer's entry functions."""
    adj = naive_adjacency(records)
    seen = set()
    frontier = [e for e in naive_entries(records, fuzzer)]
    seen.update(frontier)
    while frontier:
        nxt = []
        for node in frontier:
            for callee in adj.get(node, ()):
                if callee not in seen:
                    seen.add(callee)
                    nxt.append(callee)
        frontier = nxt
    return seen


def naive_reachable(records, fuzzer):
    """Closure plus explicit reached-by annotations (the loader unions both)."""
    annotated = {
        rec["id"]
        for rec in records
        if fuzzer in rec.get("reached_by_fuzzers", ())
    }
    return naive_closure(records, fuzzer) | annotated


def naive_reachable_subgraph(graph, fuzzer):
    """The reachable subgraph as a deep copy: fresh records whose callees are
    cut down to members (oracle for the shared-record view)."""
    entries = graph.fuzzer_entries[fuzzer]
    warnings = []
    member_ids = set()
    if entries:
        member_ids = {fid for fid, rec in graph.functions.items()
                      if fuzzer in rec.reached_by_fuzzers}
    else:
        warnings.append(f"fuzzer '{fuzzer}' has no entry points; subgraph is empty")
    members = {}
    for fid in sorted(member_ids):
        rec = graph.functions[fid]
        members[fid] = FunctionRecord(
            id=rec.id,
            name=rec.name,
            file_path=rec.file_path,
            source_text=rec.source_text,
            callees=[c for c in rec.callees if c in member_ids],
            reached_by_fuzzers=set(rec.reached_by_fuzzers),
            is_entry_for=list(rec.is_entry_for),
            call_depth=dict(rec.call_depth),
            is_external=rec.is_external,
        )
    sub_entries = {fuzzer: [e for e in entries if e in member_ids]}
    return CallGraph(functions=members, fuzzer_entries=sub_entries, warnings=warnings)


def naive_depths(records, fuzzer):
    """Entry functions sit at depth 1; each call edge adds one level."""
    adj = naive_adjacency(records)
    depths = {}
    frontier = naive_entries(records, fuzzer)
    for node in frontier:
        depths[node] = 1
    level = 1
    while frontier:
        level += 1
        nxt = []
        for node in frontier:
            for callee in adj.get(node, ()):
                if callee not in depths:
                    depths[callee] = level
                    nxt.append(callee)
        frontier = nxt
    return depths


# ---------------------------------------------------------------------------
# Naive predicate interpreter (oracle for the compiled target guards)
# ---------------------------------------------------------------------------


_NAIVE_OPS = {
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "ge": lambda a, b: a >= b,
    "gt": lambda a, b: a > b,
}


def _naive_literal(node):
    if "hex" in node:
        return bytes.fromhex(node["hex"])
    return node["text"].encode("utf-8")


def naive_eval_predicate(node, blob):
    """Walk a validated predicate tree against a blob on every call."""
    kind = node["kind"]
    if kind == "offset-equals":
        off = node["offset"]
        return off < len(blob) and blob[off] == node["value"]
    if kind == "prefix":
        return blob[: len(_naive_literal(node))] == _naive_literal(node)
    if kind == "contains":
        return _naive_literal(node) in blob
    if kind == "length-cmp":
        return _NAIVE_OPS[node["op"]](len(blob), node["value"])
    if kind == "u32-le-field-cmp":
        off = node["offset"]
        if off + 4 > len(blob):
            return False
        value = sum(blob[off + i] << (8 * i) for i in range(4))
        return _NAIVE_OPS[node["op"]](value, node["value"])
    if kind == "and":
        return all(naive_eval_predicate(t, blob) for t in node["terms"])
    if kind == "or":
        return any(naive_eval_predicate(t, blob) for t in node["terms"])
    if kind == "not":
        return not naive_eval_predicate(node["term"], blob)
    raise ValueError(f"unknown predicate kind {kind!r}")


# ---------------------------------------------------------------------------
# Fuzz hot-path oracles (for the seed draw, the operator table and the rule
# steps)
# ---------------------------------------------------------------------------


def naive_pick_index(rng, energies):
    """Energy-weighted parent index, drawn through ``random.choices``."""
    return rng.choices(range(len(energies)), weights=energies, k=1)[0]


class NaiveMutator(Mutator):
    """Looks each drawn operator up by name on every call, and draws through
    ``rng.choice`` and ``rng.randrange`` rather than ``getrandbits``."""

    def mutate(self, blob, rng, corpus_blobs=()):
        op = rng.choice(OPERATORS)
        out = getattr(self, f"_{op}")(blob, rng, corpus_blobs)
        return out[: self.max_len]

    def _bit_flip(self, blob, rng, _corpus):
        if not blob:
            return blob
        data = bytearray(blob)
        pos = rng.randrange(len(data))
        data[pos] ^= 1 << rng.randrange(8)
        return bytes(data)

    def _byte_set(self, blob, rng, _corpus):
        if not blob:
            return bytes([rng.randrange(256)])
        data = bytearray(blob)
        data[rng.randrange(len(data))] = rng.randrange(256)
        return bytes(data)

    def _insert(self, blob, rng, _corpus):
        pos = rng.randrange(len(blob) + 1)
        return blob[:pos] + bytes([rng.randrange(256)]) + blob[pos:]

    def _delete(self, blob, rng, _corpus):
        if not blob:
            return blob
        pos = rng.randrange(len(blob))
        return blob[:pos] + blob[pos + 1 :]

    def _block_duplicate(self, blob, rng, _corpus):
        if not blob:
            return blob
        start = rng.randrange(len(blob))
        length = rng.randrange(1, len(blob) - start + 1)
        block = blob[start : start + length]
        pos = rng.randrange(len(blob) + 1)
        return blob[:pos] + block + blob[pos:]

    def _splice(self, blob, rng, corpus_blobs):
        partners = [b for b in corpus_blobs if b]
        if not partners:
            return self._insert(blob, rng, corpus_blobs)
        partner = partners[rng.randrange(len(partners))]
        cut_a = rng.randrange(len(blob) + 1)
        cut_b = rng.randrange(len(partner) + 1)
        return blob[:cut_a] + partner[cut_b:]

    def _dict_insert(self, blob, rng, corpus_blobs):
        if not self.dictionary:
            return self._insert(blob, rng, corpus_blobs)
        token = self.dictionary[rng.randrange(len(self.dictionary))]
        pos = rng.randrange(len(blob) + 1)
        return blob[:pos] + token + blob[pos:]


def naive_execute(target, blob, max_blob=DEFAULT_MAX_BLOB, sanitizer=None):
    """Walk the target's rules, checking each crash's sanitizer as it fires,
    and build the result by keyword."""
    if len(blob) > max_blob:
        raise OversizeBlobError(f"blob of {len(blob)} bytes exceeds limit {max_blob}")
    trace = []
    crash = None
    for rule in target.rules:
        if not naive_eval_predicate(rule.guard, blob):
            continue
        trace.extend(rule.enter)
        if rule.crash is not None and (sanitizer is None or rule.crash.sanitizer == sanitizer):
            crash = rule.crash
            break
    return ExecutionResult(
        outcome="crash" if crash is not None else "ok",
        coverage=frozenset(trace),
        trace=tuple(trace),
        crash=crash,
    )


def naive_path(target, blob, sanitizer=None):
    """Indices of the rules an execution passes through: each rule whose
    guard holds, in order, up to the first whose crash fires."""
    matched = []
    for i, rule in enumerate(target.rules):
        if naive_eval_predicate(rule.guard, blob):
            matched.append(i)
            if rule.crash is not None and sanitizer in (None, rule.crash.sanitizer):
                break
    return tuple(matched)


# ---------------------------------------------------------------------------
# Literal scraping oracle
# ---------------------------------------------------------------------------

_NAIVE_STRING_RE = re.compile(r'"((?:\\.|[^"\\])*)"' + r"|'((?:\\.|[^'\\])*)'")
_NAIVE_HEX_RE = re.compile(r"0[xX][0-9a-fA-F]+")
_NAIVE_DEC_RE = re.compile(r"(?<![\w.])\d+(?![\w.])")


def naive_extract_literal_tokens(source_text):
    """Three separate scans (strings, then hex outside strings, then
    decimals outside strings and hex), merged by position, deduplicated in
    a list."""
    spans = []
    covered = []
    for match in _NAIVE_STRING_RE.finditer(source_text):
        raw = match.group(1) if match.group(1) is not None else match.group(2)
        token = _decode_string(raw)
        if token:
            spans.append((match.start(), token))
        covered.append(match.span())

    def inside_string(pos):
        return any(a <= pos < b for a, b in covered)

    hex_spans = []
    for match in _NAIVE_HEX_RE.finditer(source_text):
        if inside_string(match.start()):
            continue
        spans.append((match.start(), _encode_number(match.group(0))))
        hex_spans.append(match.span())
    for match in _NAIVE_DEC_RE.finditer(source_text):
        if inside_string(match.start()):
            continue
        if any(a <= match.start() < b for a, b in hex_spans):
            continue
        spans.append((match.start(), _encode_number(match.group(0))))
    spans.sort(key=lambda pair: pair[0])
    tokens = []
    for _, token in spans:
        if token and token not in tokens:
            tokens.append(token)
    return tokens


# ---------------------------------------------------------------------------
# Random graph generator (for the BFS-equivalence battery)
# ---------------------------------------------------------------------------


def random_graph_records(rng: random.Random, max_nodes: int = 200,
                         max_entries: int = 4):
    """Build a random but well-formed export: cycles, diamonds, unreachable
    islands, external callees, and one or two fuzzers with up to
    ``max_entries`` entry functions each."""
    n = rng.randint(1, max_nodes)
    ids = [f"fn{i:03d}" for i in range(n)]
    fuzzers = ["fz_a"] if rng.random() < 0.6 else ["fz_a", "fz_b"]

    records = []
    for i, fid in enumerate(ids):
        degree = rng.randint(0, 4)
        callees = [rng.choice(ids) for _ in range(degree)]
        if rng.random() < 0.15:  # sprinkle an undeclared (external) callee
            callees.append(f"ext{rng.randint(0, 9)}")
        records.append({
            "id": fid,
            "name": fid,
            "file": f"src/part{i % 7}.c",
            "source": f"int {fid}(void) {{ return {i}; }}",
            "callees": callees,
            "reached_by_fuzzers": [],
            "is_entry_for": [],
        })

    for fuzzer in fuzzers:
        k = rng.randint(1, min(max_entries, n))
        for idx in rng.sample(range(n), k):
            records[idx]["is_entry_for"].append(fuzzer)
            if fuzzer not in records[idx]["reached_by_fuzzers"]:
                records[idx]["reached_by_fuzzers"].append(fuzzer)
        if rng.random() < 0.3:  # annotation-only reachability on a few nodes
            for idx in rng.sample(range(n), min(n, rng.randint(1, 3))):
                if fuzzer not in records[idx]["reached_by_fuzzers"]:
                    records[idx]["reached_by_fuzzers"].append(fuzzer)
    return records, fuzzers


# ---------------------------------------------------------------------------
# Naive direction scheduler (oracle for the heap scheduler)
# ---------------------------------------------------------------------------


class NaiveScheduler(DirectionScheduler):
    """Ranks every entry of every pool afresh on each pick.

    Registration and pools are the package's own; only ``next_function`` is
    replaced, by the plain rescan the heap scheduler must agree with.
    """

    def next_function(self):
        if self._pools:
            pools = [(p.direction.name, p.core, p.general) for p in self._pools]
        else:
            pools = [("(general)", set(), set(self._subgraph.functions))]
        fresh, revisit = [], []
        any_unanalyzed = False
        for dir_name, core, general in pools:
            for pool_is_core, pool in ((True, core), (False, general)):
                for fid in pool:
                    is_analyzed = fid in self._analyzed
                    priority = _NAIVE_PRIORITY[(pool_is_core, is_analyzed)]
                    picks = self._picks.get(fid, 0)
                    entry = (priority, self._depth(fid), fid, dir_name)
                    if picks == 0:
                        fresh.append(entry)
                        if not is_analyzed:
                            any_unanalyzed = True
                    elif picks <= self._max_revisits:
                        revisit.append(entry)
        if fresh:
            # Unanalyzed candidates exist iff some fresh candidate has
            # priority 1 or 3; revisits stay ineligible while they do.
            pool = fresh if any_unanalyzed else fresh + revisit
            priority, _, fid, dir_name = min(pool)
        elif revisit:
            priority, _, fid, dir_name = min(revisit)
        else:
            return None
        self._picks[fid] = self._picks.get(fid, 0) + 1
        self._analyzed.add(fid)
        return Pick(function_id=fid, direction_name=dir_name, priority=priority)


_NAIVE_PRIORITY = {(True, False): 1, (True, True): 2, (False, False): 3, (False, True): 4}


# ---------------------------------------------------------------------------
# Linear duplicate search (oracle for the per-function dedup index)
# ---------------------------------------------------------------------------


def naive_jaccard(a, b):
    ta = set(re.findall(r"[a-z0-9_]+", a.lower()))
    tb = set(re.findall(r"[a-z0-9_]+", b.lower()))
    if not ta and not tb:
        return 1.0
    return len(ta & tb) / len(ta | tb)


def naive_duplicate_of(points, candidate, judge, threshold):
    """Id of the first point, in the given order, that the candidate
    duplicates, or None: same function and type, then the judge's answer,
    or the Jaccard threshold when there is no judge or it abstains."""
    for existing in points:
        if (existing.function_id, existing.vuln_type) != (candidate.function_id, candidate.vuln_type):
            continue
        answer = judge(candidate, existing) if judge is not None else None
        if answer is None:
            answer = naive_jaccard(candidate.description, existing.description) >= threshold
        if answer:
            return existing.id
    return None


# ---------------------------------------------------------------------------
# Scripted-run selection oracle
# ---------------------------------------------------------------------------


def naive_select_run(runs, consumed, seed_text):
    """Linear scripted-run selection over one role's scenario runs: the
    index of the first run, in scenario order, whose match is a substring
    of the seed and that is reusable or not in ``consumed``, or None.  A
    selected run that is not reusable is added to ``consumed``."""
    for i, run in enumerate(runs):
        reusable = bool(run.get("reusable", False))
        if i in consumed and not reusable:
            continue
        match = str(run.get("match", "") or "")
        if match and match not in seed_text:
            continue
        if not reusable:
            consumed.add(i)
        return i
    return None


# ---------------------------------------------------------------------------
# Agent loop oracle
# ---------------------------------------------------------------------------


def naive_run_agent(role, seed_context, registry, pool, model_chains, system_prompt,
                    run_id="", budgets=None):
    """``run_agent`` written plainly: a budget test re-run through a closure,
    the registry's schemas and the pool looked up per step, and each tool
    log entry holding its own copy of the arguments.  Reads ``loop.MAX_STEPS``
    at call time, so a patched cap applies to both."""
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
    prompt_tokens = completion_tokens = 0
    token_limit, context_budget = budgets.max_total_tokens, budgets.context_token_budget

    def tripped():
        if token_limit is not None and prompt_tokens + completion_tokens >= token_limit:
            return "token budget exhausted"
        return ""

    for step in range(1, loop.MAX_STEPS + 1):
        reason = tripped()
        if reason:
            outcome.budget_exhausted = True
            outcome.budget_reason = reason
            break
        try:
            if context_budget is not None and conversation.total_tokens() > context_budget:
                conversation = compress_context(conversation, context_budget)
            request = ProviderRequest(
                model=chain[0],
                messages=list(conversation.messages),
                tools=registry.schemas(),
                agent_role=role,
                run_id=run_id or role,
            )
            response = pool.call_with_fallback(chain, request)
        except (BudgetError, ChainExhaustedError) as exc:
            outcome.failure = str(exc)
            outcome.failure_kind = "context" if isinstance(exc, BudgetError) else "chain"
            break
        outcome.steps = step
        prompt_tokens += response.usage.prompt
        completion_tokens += response.usage.completion
        outcome.served_models.append(response.served_by)
        conversation.append(
            Message(role="assistant", content=response.text, tool_calls=response.tool_calls)
        )
        if response.tool_calls:
            for tc in response.tool_calls:
                text, ok = registry.invoke(tc.name, tc.arguments)
                outcome.tool_log.append(
                    ToolLogEntry(step=step, name=tc.name, arguments=dict(tc.arguments),
                                 digest=result_digest(text), ok=ok)
                )
                conversation.append(Message(role="tool", content=text, tool_call_id=tc.call_id))
            if response.stop:
                outcome.final_text = response.text
                break
            continue
        outcome.final_text = response.text
        break
    else:
        outcome.budget_exhausted = True
        outcome.budget_reason = f"step cap ({loop.MAX_STEPS}) reached"

    outcome.usage = TokenUsage(prompt_tokens, completion_tokens)
    reason = tripped()
    if reason and not outcome.final_text:
        outcome.budget_exhausted = True
        outcome.budget_reason = outcome.budget_reason or reason
    outcome.conversation = conversation
    return outcome


# ---------------------------------------------------------------------------
# Provider request capture
# ---------------------------------------------------------------------------


def capture_requests(monkeypatch):
    """Record every request the scripted provider completes; returns the
    list that fills as the scan runs."""
    requests = []
    complete = ScriptedProvider.complete

    def capture(self, request):
        requests.append(request)
        return complete(self, request)

    monkeypatch.setattr(ScriptedProvider, "complete", capture)
    return requests


SPGenRun = namedtuple("SPGenRun", "task_id function_id context candidates")


def sp_generator_runs(requests):
    """One SPGenRun per sp-generator agent run, in run order, read from its
    requests: the task (from the run id), the analysed function and the
    seed context (the first user message), and the candidates the run's
    ``create_suspicious_point`` calls got accepted."""
    last = {}  # run id -> messages of its latest request
    for request in requests:
        if request.agent_role == "sp-generator":
            last[request.run_id] = request.messages
    runs = []
    for run_id, messages in last.items():
        context = next(m.content for m in messages if m.role == "user")
        names = {tc.call_id: tc.name for m in messages for tc in m.tool_calls}
        candidates = sum(
            1 for m in messages
            if m.role == "tool" and names[m.tool_call_id] == "create_suspicious_point"
            and m.content.startswith('{"accepted": true')
        )
        function = re.search(r"^function: (\S+)$", context, re.M).group(1)
        runs.append(SPGenRun(run_id.split(":")[0], function, context, candidates))
    return runs
