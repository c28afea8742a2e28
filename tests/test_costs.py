"""Meter arithmetic and closed-form bound checks."""

import json
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphreason.costs import (
    GENERATION_TAG,
    KG_UNIT_EXPLORE,
    KG_UNIT_OPS,
    MERGE_TAG,
    CostCounters,
    bound_for,
    check,
)
from graphreason.strategies import SearchConfig


def cfg(strategy="tot", interaction="agent", **kwargs):
    return SearchConfig(strategy=strategy, interaction=interaction, **kwargs)


# ---------------------------------------------------------------- counters


def test_counters_start_at_zero():
    counters = CostCounters()
    assert counters.llm_total() == 0
    assert counters.kg_total() == 0
    assert counters.generation_calls() == 0
    assert counters.merge_attempts() == 0
    assert counters.transport_retries == 0
    assert counters.explore_searches == 0
    assert counters.explore_search_cost_max == 0


def test_record_llm_call_groups_by_tag():
    counters = CostCounters()
    counters.record_llm_call("thought")
    counters.record_llm_call("thought")
    counters.record_llm_call("select")
    counters.record_llm_call("thought:reask")
    assert counters.llm_calls_by_tag == {"thought": 2, "select": 1, "thought:reask": 1}
    assert counters.llm_total() == 4
    # The generation meter counts only the bare tag; re-asks are separate.
    assert counters.generation_calls() == 2


def test_record_kg_op_groups_by_kind():
    counters = CostCounters()
    for kind in ("retrieve_node", "node_feature", "retrieve_node"):
        counters.record_kg_op(kind)
    assert counters.kg_ops_by_kind == {"retrieve_node": 2, "node_feature": 1}
    assert counters.kg_total() == 3


def test_merge_attempts_reads_the_merge_tag():
    counters = CostCounters()
    counters.record_llm_call(MERGE_TAG)
    counters.record_llm_call(MERGE_TAG)
    counters.record_llm_call(GENERATION_TAG)
    assert counters.merge_attempts() == 2


def test_record_explore_search_tracks_count_and_max_cost():
    counters = CostCounters()
    counters.record_explore_search(3)
    counters.record_explore_search(11)
    counters.record_explore_search(7)
    assert counters.explore_searches == 3
    assert counters.explore_search_cost_max == 11


def test_as_dict_shape():
    counters = CostCounters()
    counters.record_llm_call("thought")
    counters.record_llm_call("answer")
    counters.record_kg_op("node_fetch")
    counters.record_transport_retry()
    counters.record_explore_search(5)
    counters.record_repeat({}, {"prune_relations": 1})

    snapshot = counters.as_dict()
    assert snapshot == {
        "llm_calls_by_tag": {"answer": 1, "thought": 1},
        "llm_total": 2,
        "memo_hits_by_tag": {"prune_relations": 1},
        "kg_ops_by_kind": {"node_fetch": 1},
        "kg_total": 1,
        "transport_retries": 1,
        "explore_searches": 1,
        "explore_search_cost_max": 5,
    }
    # Tag keys come out sorted for stable serialization.
    assert list(snapshot["llm_calls_by_tag"]) == ["answer", "thought"]


_TALLIES = st.dictionaries(st.sampled_from(["node_fetch", "neighbor_check", "prune"]),
                           st.integers(0, 3), max_size=3)
_FOLDS = st.lists(
    st.one_of(
        st.tuples(st.just("repeat"), _TALLIES, _TALLIES),
        st.tuples(st.just("add"), _TALLIES, _TALLIES, _TALLIES, st.integers(0, 2)),
    ),
    max_size=8,
)


@given(_FOLDS)
def test_repeats_and_adds_fold_as_counter_update_does(folds):
    """``record_repeat`` and ``add`` leave every tally, a new key or a zero
    count included, and the ``as_dict()`` bytes, as ``Counter.update`` would."""
    counters = CostCounters()
    calls, hits, ops = Counter(), Counter(), Counter()
    retries = 0
    for fold, *args in folds:
        if fold == "repeat":
            kg_ops, memo_hits = args
            counters.record_repeat(kg_ops, memo_hits)
            ops.update(kg_ops)
            hits.update(memo_hits)
        else:
            other = CostCounters()
            other.llm_calls_by_tag, other.memo_hits_by_tag, other.kg_ops_by_kind = (
                Counter(tally) for tally in args[:3]
            )
            other.transport_retries = args[3]
            counters.add(other)
            for reference, tally in zip((calls, hits, ops), args[:3]):
                reference.update(Counter(tally))
            retries += args[3]
    # As dicts, so a key held at zero counts (``Counter`` equality ignores it).
    tallies = (counters.llm_calls_by_tag, counters.memo_hits_by_tag, counters.kg_ops_by_kind)
    assert [dict(t) for t in tallies] == [dict(calls), dict(hits), dict(ops)]
    expected = {
        "llm_calls_by_tag": dict(sorted(calls.items())),
        "llm_total": sum(calls.values()),
        "memo_hits_by_tag": dict(sorted(hits.items())),
        "kg_ops_by_kind": dict(sorted(ops.items())),
        "kg_total": sum(ops.values()),
        "transport_retries": retries,
        "explore_searches": 0,
        "explore_search_cost_max": 0,
    }
    assert json.dumps(counters.as_dict()) == json.dumps(expected)


def test_a_zero_count_records_its_key():
    counters = CostCounters()
    counters.record_repeat({"node_fetch": 0}, {"prune_entities": 0})
    assert counters.as_dict()["kg_ops_by_kind"] == {"node_fetch": 0}
    assert counters.as_dict()["memo_hits_by_tag"] == {"prune_entities": 0}


def test_counters_survive_concurrent_recording():
    counters = CostCounters()

    def hammer():
        for _ in range(200):
            counters.record_llm_call("thought")
            counters.record_kg_op("node_fetch")

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert counters.llm_calls_by_tag["thought"] == 1600
    assert counters.kg_ops_by_kind["node_fetch"] == 1600


def test_counters_stay_exact_while_read_and_added_to_concurrently():
    """Eight threads record calls, ops and repeats while one more reads a
    snapshot and the totals and adds another meter in, each read folding
    the events recorded so far. No event is lost or counted twice, and no
    snapshot ever shows a count go down or a total that is not its sum."""
    counters = CostCounters()
    search = CostCounters()
    search.record_llm_call("prune_relations")
    search.record_repeat({"node_fetch": 1}, {"prune_entities": 2})
    start, writers_done = threading.Barrier(9, timeout=10), threading.Event()
    adds, bad = [], []

    def record():
        start.wait()
        for _ in range(5000):
            counters.record_llm_call("thought")
            counters.record_kg_op("retrieve_node")
            counters.record_repeat({"node_fetch": 1, "neighbor_check": 2}, {"prune_relations": 1})

    def read():
        start.wait()
        last = 0
        while not writers_done.is_set() or not adds:
            snapshot = counters.as_dict()
            total = counters.llm_total()
            if not (
                snapshot["llm_total"] == sum(snapshot["llm_calls_by_tag"].values())
                and snapshot["kg_total"] == sum(snapshot["kg_ops_by_kind"].values())
                and total >= snapshot["llm_total"] >= last
            ):
                bad.append((last, total, snapshot))
            last = total
            counters.add(search)
            adds.append(1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        writers = [threading.Thread(target=record, daemon=True) for _ in range(8)]
        reader = threading.Thread(target=read, daemon=True)
        for thread in (*writers, reader):
            thread.start()
        for thread in writers:
            thread.join(30)
        writers_done.set()
        reader.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in (*writers, reader))
    assert bad == []
    events, searches = 8 * 5000, len(adds)
    assert counters.as_dict() == {
        "llm_calls_by_tag": {"prune_relations": searches, "thought": events},
        "llm_total": events + searches,
        "memo_hits_by_tag": {"prune_entities": 2 * searches, "prune_relations": events},
        "kg_ops_by_kind": {
            "neighbor_check": 2 * events, "node_fetch": events + searches, "retrieve_node": events,
        },
        "kg_total": 4 * events + searches,
        "transport_retries": 0,
        "explore_searches": 0,
        "explore_search_cost_max": 0,
    }


# ---------------------------------------------------------------- bounds


def test_chain_bound_is_the_step_limit():
    bound = bound_for(cfg("cot"), n=7, d=2)
    assert bound.generation_call_bound == 7
    assert bound.merge_attempt_bound == 0


def test_tree_bound_with_unit_beam_is_linear():
    bound = bound_for(cfg("tot", k=2, t=1, d_max=5), n=10, d=2)
    assert bound.generation_call_bound == 10  # k * d_max


def test_tree_bound_geometric_series():
    bound = bound_for(cfg("tot", k=3, t=3, d_max=2), n=10, d=2)
    assert bound.generation_call_bound == 12  # 3 * (9 - 1) / 2
    assert bound.merge_attempt_bound == 0


def test_graph_strategy_adds_the_merge_bound():
    bound = bound_for(cfg("got", k=3, t=3, d_max=2), n=10, d=2)
    assert bound.generation_call_bound == 12
    assert bound.merge_attempt_bound == 17  # floor(9/2) + floor(27/2)


def test_graph_merge_bound_is_zero_for_single_chains():
    bound = bound_for(cfg("got", k=1, t=1, d_max=4), n=10, d=2)
    assert bound.merge_attempt_bound == 0


def test_agent_kg_bound_multiplies_actions_per_step():
    bound = bound_for(cfg("tot", k=2, t=2, d_max=2), n=10, d=2, max_actions_per_step=5)
    assert bound.kg_unit == KG_UNIT_OPS
    assert bound.kg_op_bound == bound.generation_call_bound * 5


def test_explore_kg_bound_counts_searches():
    bound = bound_for(cfg("tot", "explore", k=2, t=2, d_max=2), n=10, d=2)
    assert bound.kg_unit == KG_UNIT_EXPLORE
    assert bound.kg_op_bound == bound.generation_call_bound


def test_bound_for_rejects_unknown_names():
    class Odd:
        strategy = "bfs"
        interaction = "agent"
        k = t = d_max = 1

    with pytest.raises(ValueError, match="bfs"):
        bound_for(Odd(), n=1, d=1)

    class OddInteraction:
        strategy = "tot"
        interaction = "telepathy"
        k = t = d_max = 1

    with pytest.raises(ValueError, match="telepathy"):
        bound_for(OddInteraction(), n=1, d=1)


@given(k=st.integers(1, 6), t=st.integers(2, 6), depth=st.integers(1, 7))
def test_tree_bound_matches_per_level_sum(k, t, depth):
    closed = bound_for(cfg("tot", k=k, t=t, d_max=depth), n=1, d=1)
    by_levels = sum(k * t ** (i - 1) for i in range(1, depth + 1))
    assert closed.generation_call_bound == by_levels


@given(k=st.integers(1, 5), t=st.integers(1, 5), depth=st.integers(1, 6))
def test_bounds_grow_with_each_parameter(k, t, depth):
    base = bound_for(cfg("got", k=k, t=t, d_max=depth), n=1, d=1)
    for grown in (
        bound_for(cfg("got", k=k + 1, t=t, d_max=depth), n=1, d=1),
        bound_for(cfg("got", k=k, t=t + 1, d_max=depth), n=1, d=1),
        bound_for(cfg("got", k=k, t=t, d_max=depth + 1), n=1, d=1),
    ):
        assert grown.generation_call_bound >= base.generation_call_bound
        assert grown.merge_attempt_bound >= base.merge_attempt_bound


@given(k=st.integers(1, 6), t=st.integers(1, 6), depth=st.integers(1, 6))
def test_graph_and_tree_share_the_generation_bound(k, t, depth):
    tree = bound_for(cfg("tot", k=k, t=t, d_max=depth), n=1, d=1)
    graph = bound_for(cfg("got", k=k, t=t, d_max=depth), n=1, d=1)
    assert graph.generation_call_bound == tree.generation_call_bound
    assert tree.merge_attempt_bound == 0
    assert graph.merge_attempt_bound >= 0


# ---------------------------------------------------------------- check()


def _counters(thoughts=0, merges=0, kg=0, cost_max=0, searches=0):
    counters = CostCounters()
    for _ in range(thoughts):
        counters.record_llm_call(GENERATION_TAG)
    for _ in range(merges):
        counters.record_llm_call(MERGE_TAG)
    for _ in range(kg):
        counters.record_kg_op("node_fetch")
    for _ in range(searches):
        counters.record_explore_search(cost_max)
    return counters


def test_check_passes_at_exactly_the_bound():
    bound = bound_for(cfg("got", k=2, t=2, d_max=2), n=1, d=1)
    counters = _counters(
        thoughts=bound.generation_call_bound,
        merges=bound.merge_attempt_bound,
        kg=bound.kg_op_bound,
    )
    result = check(counters, bound)
    assert result.ok
    assert result.violations == []


def test_check_names_the_offending_meter():
    bound = bound_for(cfg("tot", k=1, t=1, d_max=2), n=1, d=1)
    result = check(_counters(thoughts=bound.generation_call_bound + 1), bound)
    assert not result.ok
    assert len(result.violations) == 1
    assert "generation calls" in result.violations[0]

    result = check(_counters(merges=1), bound)
    assert any("merge attempts" in v for v in result.violations)

    result = check(_counters(kg=bound.kg_op_bound + 1), bound)
    assert any("kg ops" in v for v in result.violations)


def test_check_reports_every_violation_at_once():
    bound = bound_for(cfg("tot", k=1, t=1, d_max=1), n=1, d=1)
    result = check(_counters(thoughts=5, merges=5, kg=50), bound)
    assert not result.ok
    assert len(result.violations) == 3


def test_explore_check_scales_by_observed_search_cost():
    bound = bound_for(cfg("cot", "explore"), n=2, d=1)
    assert bound.kg_op_bound == 2

    # Two searches costing up to 6 graph ops each: 12 total ops is fine.
    heavy = _counters(thoughts=2, kg=12, cost_max=6, searches=2)
    assert check(heavy, bound).ok

    # A 13th op breaks the scaled ceiling.
    worse = _counters(thoughts=2, kg=13, cost_max=6, searches=2)
    assert not check(worse, bound).ok


def test_explore_check_defaults_the_cost_unit_to_one():
    # If no search ever ran, the multiplier floors at 1 rather than 0,
    # so stray graph ops are still caught.
    bound = bound_for(cfg("cot", "explore"), n=2, d=1)
    assert check(_counters(thoughts=2, kg=2), bound).ok
    assert not check(_counters(thoughts=2, kg=3), bound).ok
