"""Workload inputs for the scan benchmark, written as the files a user hands
to ``vulnhunt scan``: a config file, a call-graph export, a directory of
simulated targets and a scripted agent scenario.

Every generator is seeded, uses only the standard library, and returns the
outcome it plants: the crash location of every report a correct scan must
emit, with its discovery method (``S`` crafted proof, ``G`` fuzzer-found).

* ``fixture-full`` writes the test corpus from ``tests/fixture_data.py``
  unchanged; the seed only becomes ``Config.rng_seed``.
* ``graph-scale`` is a large call graph whose every function yields
  suspicious points that the verifier refutes.  Eight functions hide a
  string literal that crashes the first fuzzer's target, so false-positive
  seeding turns them into method-G reports.
* ``poc-grind`` is a smaller graph where about half the functions are
  confirmed true positives.  Each proof-of-crash run fails about thirty
  recipes before one hits one of eight planted crash locations, whose
  trigger word appears in no source text.
"""

from __future__ import annotations

import copy
import json
import random
import string
import sys
from collections import deque
from dataclasses import dataclass
from pathlib import Path

ALWAYS = {"kind": "length-cmp", "op": "ge", "value": 0}
ADDRESS_TYPES = (
    "heap-buffer-overflow",
    "stack-buffer-overflow",
    "out-of-bounds-read",
    "out-of-bounds-write",
    "use-after-free",
)
PLANTED_BUGS = 8
PLANTED_TYPE = "heap-buffer-overflow"
# The last planted bug is first reached at this share of the visits that
# can reach one, so time-to-all-bugs is the same share of a scan at every seed.
LAST_BUG_SHARE = 0.6
# Share of graph-scale functions whose second candidate near-duplicates the
# first, so the dedup merge path runs.
DUPLICATE_SHARE = 0.2


@dataclass(frozen=True)
class GraphScaleSize:
    functions: int = 150
    directions: int = 5
    cores_per_direction: int = 12
    global_fuzz_iterations: int = 2000


@dataclass(frozen=True)
class PocGrindSize:
    functions: int = 200
    confirmed: int = 100
    failing_attempts: int = 33
    global_fuzz_iterations: int = 2000


@dataclass(frozen=True)
class Sizes:
    graph_scale: GraphScaleSize = GraphScaleSize()
    poc_grind: PocGrindSize = PocGrindSize()


TINY = Sizes(
    graph_scale=GraphScaleSize(functions=40, directions=2, cores_per_direction=3,
                               global_fuzz_iterations=200),
    poc_grind=PocGrindSize(functions=30, confirmed=14, failing_attempts=18,
                           global_fuzz_iterations=200),
)


@dataclass
class Workload:
    """Paths of one materialized workload plus the outcome it plants."""

    config_path: Path
    export_path: Path
    targets_dir: Path
    scenario_path: Path
    expected_methods: dict[str, str]
    file_store: bool


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, sort_keys=True) + "\n", encoding="utf-8")


def _write_inputs(root: Path, records: list[dict], targets: list[dict],
                  scenario: dict, config: dict, expected: dict[str, str],
                  file_store: bool) -> Workload:
    wl = Workload(
        config_path=root / "config.json",
        export_path=root / "export.jsonl",
        targets_dir=root / "targets",
        scenario_path=root / "scenario.json",
        expected_methods=expected,
        file_store=file_store,
    )
    wl.export_path.parent.mkdir(parents=True, exist_ok=True)
    wl.export_path.write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in records), encoding="utf-8"
    )
    for target in targets:
        _write_json(wl.targets_dir / f"{target['fuzzer']}.json", target)
    _write_json(wl.scenario_path, scenario)
    _write_json(wl.config_path, {
        "mode": "full",
        "export_path": str(wl.export_path),
        "targets_dir": str(wl.targets_dir),
        "scenario_path": str(wl.scenario_path),
        "out_dir": "",
        "store_dir": "",
        "sanitizers": ["address"],
        "worker_parallelism": 1,
        **config,
    })
    return wl


# ===== fixture-full =====


def fixture_full(seed: int, root: Path, repo: Path) -> Workload:
    sys.path.insert(0, str(repo / "tests"))
    try:
        import fixture_data as fd
    finally:
        sys.path.remove(str(repo / "tests"))
    return _write_inputs(
        root, fd.E2E_EXPORT_RECORDS, fd.E2E_TARGET_OBJECTS,
        copy.deepcopy(fd.E2E_SCENARIO), {"rng_seed": seed},
        dict(fd.E2E_EXPECTED_METHODS), file_store=False,
    )


# ===== shared graph shape =====


def _callees(rng: random.Random, ids: list[str]) -> dict[str, list[str]]:
    """Three callees each: the next function (so every function is reachable
    from every entry and the work per seed is constant) plus two random ones."""
    n = len(ids)
    out = {}
    for i, fid in enumerate(ids):
        succ = (i + 1) % n
        others = [j for j in rng.sample(range(n), min(n, 4)) if j not in (i, succ)][:2]
        out[fid] = [ids[succ]] + [ids[j] for j in others]
    return out


def _depths(entry: str, callees: dict[str, list[str]]) -> dict[str, int]:
    depths = {entry: 1}
    frontier = deque([entry])
    while frontier:
        cur = frontier.popleft()
        for nxt in callees[cur]:
            if nxt not in depths:
                depths[nxt] = depths[cur] + 1
                frontier.append(nxt)
    return depths


def _pick_order(fids, cores: set[str], depths: dict[str, int]) -> list[str]:
    """First-visit order of the direction scheduler: core functions, then the
    rest, each by (call depth, id)."""
    return sorted(fids, key=lambda f: (f not in cores, depths[f], f))


def _source(fid: str, callees: list[str], rng: random.Random, literal: str = "") -> str:
    lines = [
        f"int {fid}(struct ctx *c, const uint8_t *p, size_t n)",
        "{",
        f"    if (n < {rng.randrange(4, 64)})",
        "        return -1;",
        f"    if (p[{rng.randrange(8)}] == {hex(rng.randrange(1, 256))})",
        f"        c->state = {rng.randrange(2, 9)};",
    ]
    if literal:
        lines.append(f'    if (memcmp(p, "{literal}", 4) == 0)')
        lines.append("        copy_block(c->buf, p + 4, n - 4);")
    lines.extend(f"    {callee}(c, p + 1, n - 1);" for callee in callees)
    lines.extend(["    return 0;", "}"])
    return "\n".join(lines) + "\n"


def _record(fid: str, callees: list[str], source: str, entry_for: list[str]) -> dict:
    return {
        "id": fid,
        "name": fid,
        "file": f"src/{fid[:2]}_{int(fid[2:]) // 20:03d}.c",
        "source": source,
        "callees": callees,
        "reached_by_fuzzers": [],
        "is_entry_for": entry_for,
    }


def _coverage_rules(rng: random.Random, ids: list[str], count: int) -> list[dict]:
    rules = []
    for fid in rng.sample(ids, min(count, len(ids))):
        rules.append({
            "guard": {"kind": "offset-equals", "offset": rng.randrange(4),
                      "value": rng.randrange(1, 256)},
            "enter": [fid],
        })
    return rules


def _direction_step(name_prefix: str, entry: str, core_sets: list[list[str]],
                    rng: random.Random) -> dict:
    calls = []
    for d, cores in enumerate(core_sets):
        calls.append({
            "name": "create_direction",
            "args": {
                "name": f"{name_prefix}-feature-{d}",
                "entry_functions": [entry],
                "core_functions": cores,
                "risk_level": ("high", "medium", "low")[rng.randrange(3)],
                "risk_reason": "length fields from the input drive buffer copies",
            },
        })
    return {"tool_calls": calls}


def _sp_args(fid: str, vuln_type: str, description: str, score: float) -> dict:
    return {
        "name": "create_suspicious_point",
        "args": {"function": fid, "description": description,
                 "vuln_type": vuln_type, "score": score},
    }


# ===== graph-scale =====


def graph_scale(seed: int, root: Path, size: GraphScaleSize = GraphScaleSize()) -> Workload:
    rng = random.Random(f"graph-scale|{seed}")
    n = size.functions
    ids = [f"gs{i:04d}" for i in range(n)]
    fuzzers = ["gs_a", "gs_b"]
    entries = {"gs_a": ids[0], "gs_b": ids[n // 2]}
    callees = _callees(rng, ids)

    inner = [f for f in ids if f not in entries.values()]
    core_sets = {
        fz: [sorted(rng.sample(inner, size.cores_per_direction))
             for _ in range(size.directions)]
        for fz in fuzzers
    }
    # Plant the bugs at fixed ranks of the first worker's pick order.
    cores_a = {f for cores in core_sets["gs_a"] for f in cores}
    order = [f for f in _pick_order(ids, cores_a, _depths(ids[0], callees))
             if f not in cores_a and f not in entries.values()]
    last = int(LAST_BUG_SHARE * len(order))
    planted = [order[(k + 1) * last // PLANTED_BUGS - 1] for k in range(PLANTED_BUGS)]
    words = _trigger_words(rng, PLANTED_BUGS)
    literal_of = dict(zip(planted, words))

    records = [
        _record(fid, callees[fid], _source(fid, callees[fid], rng, literal_of.get(fid, "")),
                [fz for fz, e in entries.items() if e == fid])
        for fid in ids
    ]

    targets = []
    for fz in fuzzers:
        rules = [{"guard": ALWAYS, "enter": [entries[fz]]}]
        rules += _coverage_rules(rng, ids, 24)
        if fz == "gs_a":
            rules += [
                {
                    "guard": {"kind": "contains", "text": word},
                    "enter": [fid],
                    "crash": {"location": fid, "vuln_type": PLANTED_TYPE,
                              "sanitizer": "address"},
                }
                for fid, word in literal_of.items()
            ]
        targets.append({"version": 1, "name": f"{fz}_target", "fuzzer": fz, "rules": rules})

    duplicates = set(rng.sample(ids, int(DUPLICATE_SHARE * n)))
    sp_runs = []
    for fid in ids:
        first_type, other_type = rng.sample(ADDRESS_TYPES, 2)
        if fid in literal_of:
            first_type = PLANTED_TYPE
        base = (f"{fid}() copies n bytes from p into c->buf without checking "
                "the length against the buffer size")
        if fid in duplicates:
            second = _sp_args(fid, first_type, base + " first", 0.5)
        else:
            second = _sp_args(fid, other_type,
                              f"{fid}() reads p[n] after the loop when the state check fails",
                              0.4)
        sp_runs.append({
            "match": f"function: {fid}\n",
            "steps": [
                {"tool_calls": [{"name": "get_callers", "args": {"function": fid}}]},
                {"tool_calls": [_sp_args(fid, first_type, base, 0.6), second]},
                {"text": "flagged 2 candidates"},
            ],
        })
    sp_runs.append({"match": "", "reusable": True,
                    "steps": [{"text": "no suspicious points identified"}]})

    scenario = {
        "version": 1,
        "agents": {
            "direction-generator": [
                {"match": f"fuzzer: {fz}\n",
                 "steps": [_direction_step(fz, entries[fz], core_sets[fz], rng),
                           {"text": "directions registered"}]}
                for fz in fuzzers
            ],
            "sp-generator": sp_runs,
            "sp-verifier": [{
                "match": "",
                "reusable": True,
                "steps": [
                    {"tool_calls": [{"name": "update_suspicious_point",
                                     "args": {"verdict": "fp",
                                              "poc_guidance": "callers bound n first"}}]},
                    {"text": "false positive: every caller bounds n"},
                ],
            }],
        },
    }
    config = {"rng_seed": seed, "global_fuzz_iterations": size.global_fuzz_iterations}
    return _write_inputs(root, records, targets, scenario, config,
                         {fid: "G" for fid in planted}, file_store=True)


def _trigger_words(rng: random.Random, count: int) -> list[str]:
    words: set[str] = set()
    while len(words) < count:
        words.add("".join(rng.choice(string.ascii_uppercase) for _ in range(4)))
    return sorted(words)


# ===== poc-grind =====


def _recipe(tag: int, word: int, pads: tuple[int, int, int]) -> dict:
    return {
        "recipe": {
            "instructions": [
                {"op": "literal", "text": "PG"},
                {"op": "integer", "value": {"param": "tag"}, "width": 2, "endian": "le"},
                {"op": "integer", "value": word, "width": 4, "endian": "le"},
                {"op": "repeat", "byte": 65, "count": {"param": "pad"}},
            ],
            "variants": [{"tag": tag, "pad": pad} for pad in pads],
        }
    }


def poc_grind(seed: int, root: Path, size: PocGrindSize = PocGrindSize()) -> Workload:
    rng = random.Random(f"poc-grind|{seed}")
    n = size.functions
    ids = [f"pg{i:04d}" for i in range(n)]
    fuzzer = "pg_fuzzer"
    entry = ids[0]
    callees = _callees(rng, ids)
    records = [_record(fid, callees[fid], _source(fid, callees[fid], rng),
                       [fuzzer] if fid == entry else []) for fid in ids]

    cores = sorted(rng.sample(ids[1:], min(6, n - 1)))
    confirmed = set(rng.sample(ids[1:], size.confirmed))
    order = [f for f in _pick_order(ids, set(cores), _depths(entry, callees)) if f in confirmed]
    # The first PoC to reach bug k is the one at rank first_hit[k]; every
    # other PoC hits the newest bug already found.
    last = int(LAST_BUG_SHARE * (len(order) - 1))
    if last < PLANTED_BUGS - 1:
        raise ValueError("poc-grind needs more confirmed points than planted bugs")
    first_hit = [k * last // (PLANTED_BUGS - 1) for k in range(PLANTED_BUGS)]
    bug_of: dict[str, int] = {}
    for rank, fid in enumerate(order):
        bug_of[fid] = max(k for k in range(PLANTED_BUGS) if first_hit[k] <= rank)
    locations = [order[r] for r in first_hit]
    words = []
    while len(words) < PLANTED_BUGS:
        word = rng.randrange(0x80000000, 1 << 32)
        if word not in words:
            words.append(word)

    rules = [
        {"guard": ALWAYS, "enter": [entry]},
        {"guard": {"kind": "prefix", "text": "PG"}, "enter": callees[entry][:2]},
    ] + _coverage_rules(rng, ids, 8)
    rules += [
        {
            "guard": {"kind": "and", "terms": [
                {"kind": "prefix", "text": "PG"},
                {"kind": "u32-le-field-cmp", "offset": 4, "op": "eq", "value": word},
                {"kind": "length-cmp", "op": "ge", "value": 24},
            ]},
            "enter": [loc],
            "crash": {"location": loc, "vuln_type": PLANTED_TYPE, "sanitizer": "address"},
        }
        for loc, word in zip(locations, words)
    ]
    target = {"version": 1, "name": "pg_target", "fuzzer": fuzzer, "rules": rules}

    sp_runs, poc_runs = [], []
    for fid in sorted(confirmed):
        sp_runs.append({
            "match": f"function: {fid}\n",
            "steps": [
                {"tool_calls": [_sp_args(
                    fid, rng.choice(ADDRESS_TYPES),
                    f"{fid}() trusts the tag word when sizing the copy into c->buf",
                    round(rng.uniform(0.5, 0.95), 2))]},
                {"text": "flagged 1 candidate"},
            ],
        })
        steps = []
        for attempt in range(1, size.failing_attempts + 1):
            wrong = rng.randrange(1 << 31)
            pads = tuple(sorted(rng.sample(range(2, 48), 3)))
            calls = [{"name": "create_pov",
                      "args": _recipe(rng.randrange(1 << 16), wrong, pads)}]
            if attempt >= 16 and attempt % 4 == 0:
                calls.insert(0, {"name": "trace_pov", "args": {"variant": attempt % 3}})
            steps.append({"tool_calls": calls})
        steps.append({"tool_calls": [{"name": "create_pov",
                                      "args": _recipe(7, words[bug_of[fid]], (4, 20, 40))}]})
        steps.append({"text": "crashing input found"})
        poc_runs.append({"match": f"function: {fid}\n", "steps": steps})
    sp_runs.append({"match": "", "reusable": True,
                    "steps": [{"text": "no suspicious points identified"}]})

    scenario = {
        "version": 1,
        "agents": {
            "direction-generator": [{
                "match": f"fuzzer: {fuzzer}\n",
                "steps": [_direction_step("pg", entry, [cores], rng),
                          {"text": "directions registered"}],
            }],
            "sp-generator": sp_runs,
            "sp-verifier": [{
                "match": "",
                "reusable": True,
                "steps": [
                    {"tool_calls": [{"name": "update_suspicious_point",
                                     "args": {"verdict": "tp",
                                              "poc_guidance": "tag word at offset 4"}}]},
                    {"text": "true positive"},
                ],
            }],
            "poc-generator": poc_runs,
        },
    }
    config = {"rng_seed": seed, "global_fuzz_iterations": size.global_fuzz_iterations}
    return _write_inputs(root, records, [target], scenario, config,
                         {loc: "S" for loc in locations}, file_store=False)


WORKLOADS = ("fixture-full", "graph-scale", "poc-grind")


def build(name: str, seed: int, root: Path, repo: Path, sizes: Sizes = Sizes()) -> Workload:
    """Write one workload's input files under ``root``."""
    if name == "fixture-full":
        return fixture_full(seed, root, repo)
    if name == "graph-scale":
        return graph_scale(seed, root, sizes.graph_scale)
    if name == "poc-grind":
        return poc_grind(seed, root, sizes.poc_grind)
    raise ValueError(f"unknown workload {name!r}")
