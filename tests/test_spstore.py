"""Suspicious-point store: validation, dedup algebra, lifecycle, invariants."""
from __future__ import annotations

import random
import sys
import threading
import time

import pytest
import helpers
from hypothesis import given, settings
from hypothesis import strategies as st

from vulnhunt.errors import (
    LifecycleError,
    ScoreBelowThresholdError,
    UnknownFunctionError,
    ValidationError,
)
from vulnhunt.spstore import (
    DEFAULT_SIMILARITY_THRESHOLD,
    DedupOutcome,
    SPStore,
    description_similarity,
    is_sanitizer_compatible,
    is_valid_vuln_type,
)

FUNCS = {"parse", "decode", "emit"}
SRC = ("fz", "address")


def store(**kw) -> SPStore:
    return SPStore(known_functions=FUNCS, **kw)


def make(st_, function="parse", description="memcpy() length is unchecked",
         vuln_type="heap-buffer-overflow", score=0.5, source=SRC):
    return st_.build_candidate(function, source, description, vuln_type, score)


# ---------------------------------------------------------------------------
# Candidate validation
# ---------------------------------------------------------------------------


def test_unknown_function_rejected():
    with pytest.raises(UnknownFunctionError):
        make(store(), function="ghost")


def test_vuln_type_validation():
    s = store()
    with pytest.raises(ValidationError):
        make(s, vuln_type="totally-new-kind")
    assert is_valid_vuln_type("other(signed wraparound in size math)")
    cand = make(s, vuln_type="other(signed wraparound in size math)")
    assert cand.vuln_type.startswith("other(")


def test_source_pair_validation():
    s = store()
    with pytest.raises(ValidationError):
        s.build_candidate("parse", "fz", "memcpy() overflow", "heap-buffer-overflow", 0.5)
    with pytest.raises(ValidationError):
        make(s, source=("fz", "asan"))


def test_score_range_and_skip_threshold():
    s = store()
    with pytest.raises(ValidationError):
        make(s, score=1.2)
    with pytest.raises(ValidationError):
        make(s, score=-0.1)
    with pytest.raises(ScoreBelowThresholdError, match="below skip threshold"):
        make(s, score=0.29)
    assert make(s, score=0.3).score == 0.3
    assert make(s, score=1.0).score == 1.0


def test_description_must_anchor_to_control_flow():
    s = store()
    with pytest.raises(ValidationError):
        make(s, description="   ")
    with pytest.raises(ValidationError, match="line number"):
        make(s, description="overflow at line 42")
    # A line number next to a real anchor is fine.
    ok = make(s, description="memcpy() at line 42 copies an unchecked length")
    assert "memcpy" in ok.description
    ok2 = make(s, description="the loop writes one element past the table")
    assert ok2.description


def test_sanitizer_compatibility_table():
    assert is_sanitizer_compatible("heap-buffer-overflow", "address")
    assert not is_sanitizer_compatible("heap-buffer-overflow", "undefined")
    assert is_sanitizer_compatible("null-pointer-dereference", "undefined")
    assert is_sanitizer_compatible("uninitialized-read", "memory")
    # The open-ended form binds to the undefined-behavior sanitizer.
    assert is_sanitizer_compatible("other(weird state machine)", "undefined")
    assert not is_sanitizer_compatible("other(weird state machine)", "address")


# ---------------------------------------------------------------------------
# Dedup
# ---------------------------------------------------------------------------


def test_merge_unions_sources_and_keeps_max_score():
    s = store()
    first = make(s, description="memcpy() copies count bytes without a bound check",
                 score=0.5, source=("fz_a", "address"))
    assert not s.deduplicate(first).merged
    second = make(s, description="memcpy() copies count bytes with no bound check",
                  score=0.8, source=("fz_b", "address"))
    out = s.deduplicate(second)
    assert out.merged and out.sp_id == first.id
    merged = s.get(first.id)
    assert merged.sources == {("fz_a", "address"), ("fz_b", "address")}
    assert merged.score == 0.8
    assert merged.description == second.description  # higher score wins


def test_score_tie_prefers_lexicographically_smaller_description():
    s = store()
    a = make(s, description="b memcpy() bound missing on copy length")
    s.deduplicate(a)
    b = make(s, description="a memcpy() bound missing on copy length")
    out = s.deduplicate(b)
    assert out.merged
    assert s.get(out.sp_id).description.startswith("a ")


def test_identical_text_different_function_or_type_stays_distinct():
    s = store()
    text = "memcpy() writes past the end of the table"
    s.deduplicate(make(s, function="parse", description=text))
    out_fn = s.deduplicate(make(s, function="decode", description=text))
    assert not out_fn.merged
    out_ty = s.deduplicate(make(s, function="parse", description=text,
                                vuln_type="out-of-bounds-write"))
    assert not out_ty.merged
    assert s.counts()["sp_deduped"] == 3


def test_first_duplicate_in_insertion_order_wins():
    s = store()
    # Two pre-existing records that are NOT duplicates of each other but are
    # both duplicates of the candidate (similarity is not transitive).
    base = "alpha beta gamma delta epsilon zeta eta theta calls"
    a = make(s, description=base + " aa1 aa2 aa3 aa4 aa5 aa6")
    s.deduplicate(a)
    b = make(s, description=base + " bb1 bb2 bb3 bb4 bb5 bb6")
    assert not s.deduplicate(b).merged
    cand = make(s, description=base)
    out = s.deduplicate(cand)
    assert out.merged and out.sp_id == a.id


def test_judge_overrides_jaccard_both_ways():
    forced_distinct = store(duplicate_judge=lambda c, e: False)
    text = "strcpy() has no destination bound"
    forced_distinct.deduplicate(make(forced_distinct, description=text))
    assert not forced_distinct.deduplicate(make(forced_distinct, description=text)).merged

    forced_merge = store(duplicate_judge=lambda c, e: True)
    forced_merge.deduplicate(make(forced_merge, description="memcpy() bound missing"))
    out = forced_merge.deduplicate(
        make(forced_merge, description="free() is reached twice on the error path"))
    assert out.merged

    # None defers to the Jaccard decision.
    neutral = store(duplicate_judge=lambda c, e: None)
    neutral.deduplicate(make(neutral, description=text))
    assert neutral.deduplicate(make(neutral, description=text)).merged


def _desc_from_tokens(tokens):
    return " ".join(tokens)


def test_jaccard_threshold_boundary():
    # 59 shared tokens out of a 100-token union: similarity exactly 0.59.
    shared59 = ["calls"] + [f"s{i:02d}" for i in range(58)]
    a59 = _desc_from_tokens(shared59 + [f"a{i:02d}" for i in range(21)])
    b59 = _desc_from_tokens(shared59 + [f"b{i:02d}" for i in range(20)])
    assert description_similarity(a59, b59) == pytest.approx(0.59)

    s = store()
    s.deduplicate(make(s, description=a59))
    assert not s.deduplicate(make(s, description=b59)).merged  # 0.59 < 0.6

    # 60 shared tokens out of 100: similarity exactly 0.60, merged (inclusive).
    shared60 = ["calls"] + [f"s{i:02d}" for i in range(59)]
    a60 = _desc_from_tokens(shared60 + [f"a{i:02d}" for i in range(20)])
    b60 = _desc_from_tokens(shared60 + [f"b{i:02d}" for i in range(20)])
    assert description_similarity(a60, b60) == pytest.approx(0.60)

    s2 = store()
    s2.deduplicate(make(s2, description=a60))
    assert s2.deduplicate(make(s2, description=b60)).merged


# ---------------------------------------------------------------------------
# Dedup algebra: order independence
# ---------------------------------------------------------------------------


def family_specs(n_families=6, members=5):
    """Candidate specs in families that merge within and not across."""
    specs = []
    for f in range(n_families):
        func = sorted(FUNCS)[f % len(FUNCS)]
        vuln = ("heap-buffer-overflow", "out-of-bounds-write")[f % 2]
        shared = [f"fam{f}tok{i}" for i in range(9)]
        for m in range(members):
            tokens = ["calls", *shared, f"only{f}x{m}"]
            specs.append({
                "function": func,
                "vuln_type": vuln,
                "description": _desc_from_tokens(tokens),
                "score": 0.3 + ((f * members + m) * 7 % 50) / 100,
                "source": (f"fz{m % 2}", "address"),
            })
    return specs


def canonical(s: SPStore):
    return {
        (sp.function_id, sp.vuln_type, sp.score, frozenset(sp.sources))
        for sp in s.all()
    }


def run_order(specs, order):
    s = store()
    for idx in order:
        spec = specs[idx]
        s.deduplicate(s.build_candidate(
            spec["function"], spec["source"], spec["description"],
            spec["vuln_type"], spec["score"]))
    return s


def test_dedup_is_order_independent():
    specs = family_specs()
    orders = []
    rng = random.Random(9)
    base = list(range(len(specs)))
    for _ in range(4):
        shuffled = base[:]
        rng.shuffle(shuffled)
        orders.append(shuffled)
    stores = [run_order(specs, order) for order in orders]
    canon0 = canonical(stores[0])
    for st_ in stores[1:]:
        assert canonical(st_) == canon0
        assert st_.counts() == stores[0].counts()
    # Merged scores are the element-wise maxima of each family.
    by_family = {}
    for spec in specs:
        key = (spec["function"], spec["vuln_type"], spec["description"].split()[1][:4])
        by_family.setdefault(key[:2], []).append(spec["score"])
    got_scores = sorted(sp.score for sp in stores[0].all())
    want_scores = sorted(max(v) for v in by_family.values())
    assert got_scores == want_scores


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_dedup_order_independence_property(seed):
    specs = family_specs(n_families=3, members=3)
    rng = random.Random(seed)
    order = list(range(len(specs)))
    rng.shuffle(order)
    assert canonical(run_order(specs, order)) == canonical(run_order(specs, list(range(len(specs)))))


# ---------------------------------------------------------------------------
# Indexed dedup against a linear scan over every point
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       judged=st.sampled_from(["none", "random", "abstains"]))
def test_indexed_dedup_matches_linear_scan(seed, judged):
    rng = random.Random(seed)
    store_calls, oracle_calls = [], []

    def judge_for(calls):
        def judge(candidate, existing):
            calls.append((candidate.id, existing.id))
            if judged == "abstains":
                return None
            answer = random.Random(f"{seed}|{candidate.id}|{existing.id}").random()
            return None if answer < 0.5 else answer < 0.6
        return None if judged == "none" else judge

    s = store(duplicate_judge=judge_for(store_calls))
    oracle_judge = judge_for(oracle_calls)
    words = ["memcpy()", "length", "bound", "header", "copies", "table", "free()", "twice"]
    for _ in range(rng.randint(1, 40)):
        cand = make(s, function=rng.choice(sorted(FUNCS)),
                    vuln_type=rng.choice(("heap-buffer-overflow", "double-free")),
                    description=" ".join(rng.sample(words, rng.randint(2, 5))),
                    score=rng.choice((0.4, 0.7, 0.9)))
        if rng.random() < 0.1:
            s.create_sp(cand.function_id, SRC, cand.description, cand.vuln_type, cand.score)
            continue
        want = helpers.naive_duplicate_of(
            s.all(), cand, oracle_judge, DEFAULT_SIMILARITY_THRESHOLD)
        out = s.deduplicate(cand)
        assert out.merged == (want is not None)
        assert out.sp_id == (want if want is not None else cand.id)
        assert store_calls == oracle_calls
    for function_id in FUNCS:
        assert s.for_function(function_id) == [sp for sp in s.all() if sp.function_id == function_id]


# ---------------------------------------------------------------------------
# A slow duplicate judge holds no lock
# ---------------------------------------------------------------------------


def start_blocked_dedup(s, candidate, entered):
    """Deduplicate ``candidate`` on a thread; returns the thread and its
    outcome list once the judge has been entered."""
    outcome = []
    worker = threading.Thread(target=lambda: outcome.append(s.deduplicate(candidate)))
    worker.start()
    assert entered.wait(timeout=10)
    return worker, outcome


def test_other_callers_proceed_while_the_judge_is_blocked():
    entered, release = threading.Event(), threading.Event()

    def judge(candidate, existing):
        entered.set()
        release.wait(timeout=10)
        return False

    s = store(duplicate_judge=judge)
    first = s.create_sp("parse", SRC, "memcpy() length is unchecked", "heap-buffer-overflow", 0.5)
    worker, _ = start_blocked_dedup(s, make(s), entered)
    other_done = threading.Event()

    def other():
        s.get(first)
        s.create_sp("decode", SRC, "free() is reached twice", "double-free", 0.5)
        other_done.set()

    threading.Thread(target=other, daemon=True).start()
    try:
        assert other_done.wait(timeout=5), "get/create_sp waited for the judge"
    finally:
        release.set()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert len(s.all()) == 3


def test_point_inserted_during_a_blocked_judge_is_compared_before_insert():
    entered, release = threading.Event(), threading.Event()
    ids = {}

    def judge(candidate, existing):
        if candidate.id != ids.get("cand"):
            return False
        if existing.id == ids["p1"]:
            entered.set()
            release.wait(timeout=10)
            return False  # distinct from P1
        return True  # a duplicate of anything else

    s = store(duplicate_judge=judge)
    ids["p1"] = s.create_sp("parse", SRC, "memcpy() length is unchecked", "heap-buffer-overflow", 0.5)
    cand = make(s, description="the header copy calls memcpy() with a raw length")
    ids["cand"] = cand.id
    worker, outcome = start_blocked_dedup(s, cand, entered)
    p2 = make(s, description="strcpy() into the fixed name buffer")
    inserter = threading.Thread(target=s.deduplicate, args=(p2,), daemon=True)
    inserter.start()
    inserter.join(timeout=5)
    release.set()
    worker.join(timeout=10)
    inserter.join(timeout=10)
    assert not worker.is_alive() and not inserter.is_alive()
    assert outcome == [DedupOutcome(sp_id=p2.id, merged=True)]
    assert [sp.id for sp in s.all()] == [ids["p1"], p2.id]


def test_concurrent_identical_candidates_leave_one_point_each():
    """Eight threads race a copy of each of 40 distinct candidates, in the
    same order, through a judge that yields the interpreter: a point inserted
    without comparing the points that joined meanwhile would leave two
    copies of one candidate."""
    texts = [f"memcpy() copies family{k} alpha{k} beta{k}" for k in range(40)]

    def judge(candidate, existing):
        time.sleep(0)  # let another thread in mid-comparison
        return None

    s = store(duplicate_judge=judge)
    errors = []

    def race(worker):
        try:
            for text in texts:
                s.deduplicate(make(s, description=text, source=(f"fz{worker}", "address")))
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=race, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert sorted(sp.description for sp in s.all()) == sorted(texts)
    assert all(sp.sources == {(f"fz{w}", "address") for w in range(8)} for sp in s.all())
    assert s.counts()["sp_total"] == 8 * len(texts)


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------


def test_verification_once_and_updates():
    s = store()
    sp_id = s.deduplicate(make(s)).sp_id
    s.apply_verification(sp_id, "tp",
                         corrected_description="memcpy() bound corrected detail",
                         new_score=0.95, poc_guidance="prefix then oversize")
    sp = s.get(sp_id)
    assert sp.is_verified and sp.verdict == "tp"
    assert sp.score == 0.95
    assert sp.poc_guidance == "prefix then oversize"
    assert sp.verified_stage is not None and sp.verified_stage > sp.created_stage
    with pytest.raises(LifecycleError):
        s.apply_verification(sp_id, "fp")


def test_verification_validation():
    s = store()
    sp_id = s.deduplicate(make(s)).sp_id
    with pytest.raises(ValidationError):
        s.apply_verification(sp_id, "maybe")
    with pytest.raises(ValidationError):
        s.apply_verification(sp_id, "tp", corrected_description="bad at line 3")
    with pytest.raises(ValidationError):
        s.apply_verification(sp_id, "tp", new_score=1.5)
    with pytest.raises(UnknownFunctionError):
        s.apply_verification("sp-999999", "tp")
    sp = s.get(sp_id)
    assert not sp.is_verified  # failed attempts left no partial state behind


def test_a_refused_verification_leaves_the_point_unchanged():
    """A valid corrected description beside an out-of-range score: the
    whole verdict is refused before anything is written."""
    s = store()
    sp = s.get(s.deduplicate(make(s)).sp_id)
    before = sp.to_dict()
    with pytest.raises(ValidationError, match=r"score 1.5 outside \[0, 1\]"):
        s.apply_verification(sp.id, "tp", corrected_description="memcpy() bound corrected detail",
                             new_score=1.5)
    assert sp.to_dict() == before


def test_a_verified_score_below_the_skip_threshold_is_refused():
    """The verifier cannot store a score that the store's own invariant and
    candidate screening refuse; the refusal reads as ``build_candidate``'s."""
    s = store()
    sp_id = s.deduplicate(make(s)).sp_id
    with pytest.raises(ScoreBelowThresholdError, match="score 0.10 below skip threshold 0.3"):
        s.apply_verification(sp_id, "tp", new_score=0.1)
    with pytest.raises(ScoreBelowThresholdError, match="score 0.10 below skip threshold 0.3"):
        make(s, score=0.1)
    assert not s.get(sp_id).is_verified
    s.check_invariants()


def test_poc_result_requires_verified_tp_unless_bypassed():
    s = store()
    sp_id = s.deduplicate(make(s)).sp_id
    with pytest.raises(LifecycleError):
        s.record_poc_result(sp_id, "fz", crashed=False)
    s.record_poc_result(sp_id, "fz", crashed=True, pov_id="pov-1", bypass=True)
    sp = s.get(sp_id)
    assert sp.is_real and sp.bypass and sp.poc_ids == ["pov-1"]
    s.check_invariants()


def test_poc_crash_requires_pov_id():
    s = store()
    sp_id = s.deduplicate(make(s)).sp_id
    s.apply_verification(sp_id, "tp")
    with pytest.raises(ValidationError):
        s.record_poc_result(sp_id, "fz", crashed=True)


def test_poc_failure_marks_attempt_without_reality():
    s = store()
    sp_id = s.deduplicate(make(s)).sp_id
    s.apply_verification(sp_id, "tp")
    s.record_poc_result(sp_id, "fz", crashed=False)
    sp = s.get(sp_id)
    assert sp.poc_attempted_by == {"fz"}
    assert not sp.is_real and sp.poc_ids == []
    first_stamp = sp.poc_stage
    assert first_stamp is not None
    s.record_poc_result(sp_id, "fz2", crashed=True, pov_id="pov-7")
    assert s.get(sp_id).poc_stage == first_stamp  # stamped once
    assert s.get(sp_id).poc_attempted_by == {"fz", "fz2"}


def test_fp_with_background_crash_keeps_fp_verdict():
    s = store()
    sp_id = s.deduplicate(make(s)).sp_id
    s.apply_verification(sp_id, "fp")
    s.record_poc_result(sp_id, "fz", crashed=True, pov_id="pov-2", bypass=True)
    sp = s.get(sp_id)
    assert sp.verdict == "fp" and sp.is_real and sp.bypass
    s.check_invariants()
    c = s.counts()
    assert c["fp"] == 1 and c["tp_v"] == 0


def test_counts_identity_and_serialization():
    s = store()
    ids = []
    for i in range(6):
        ids.append(s.deduplicate(make(
            s, function=sorted(FUNCS)[i % 3],
            description=f"memcpy() variant {i} uniq{i}a uniq{i}b uniq{i}c uniq{i}d")).sp_id)
    s.apply_verification(ids[0], "tp")
    s.apply_verification(ids[1], "tp")
    s.apply_verification(ids[2], "fp")
    c = s.counts()
    assert c == {"sp_total": 6, "sp_deduped": 6, "tp_v": 2, "fp": 1, "unverified": 3}
    assert c["sp_deduped"] == c["tp_v"] + c["fp"] + c["unverified"]
    d = s.get(ids[0]).to_dict()
    assert d["function"] == s.get(ids[0]).function_id
    assert "function_id" not in d
    assert d["sources"] == [["fz", "address"]]


# ---------------------------------------------------------------------------
# Concurrency
# ---------------------------------------------------------------------------


def test_thousand_op_interleaving_keeps_store_consistent():
    s = store()
    n_threads, per_thread = 4, 250
    errors: list[Exception] = []

    def hammer(worker: int):
        rng = random.Random(worker)
        try:
            my_ids = []
            for i in range(per_thread):
                desc = (f"memcpy() worker{worker} case{i} "
                        f"t{rng.randrange(4)} u{rng.randrange(4)}")
                cand = s.build_candidate(
                    sorted(FUNCS)[i % 3], (f"fz{worker}", "address"),
                    desc, "heap-buffer-overflow", 0.3 + (i % 60) / 100)
                out = s.deduplicate(cand)
                my_ids.append(out.sp_id)
                if i % 7 == 0:
                    sp = s.get(out.sp_id)
                    if not sp.is_verified:
                        try:
                            s.apply_verification(out.sp_id, "tp" if i % 2 else "fp")
                        except LifecycleError:
                            pass  # another thread verified it first
                if i % 11 == 0:
                    s.record_poc_result(out.sp_id, f"fz{worker}",
                                        crashed=True, pov_id=f"pov-{worker}-{i}",
                                        bypass=True)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(w,)) for w in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    s.check_invariants()
    c = s.counts()
    assert c["sp_total"] == n_threads * per_thread
    assert c["sp_deduped"] == c["tp_v"] + c["fp"] + c["unverified"]
    assert c["sp_deduped"] <= c["sp_total"]
