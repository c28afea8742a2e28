"""Search strategies: expansion, evaluation, merging, and the run loop."""

import copy
import json
import random
import sys
import threading
import time
from collections import Counter
from concurrent.futures import Future, ThreadPoolExecutor
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphreason import explore as explore_module
from graphreason import strategies
from graphreason.costs import CostCounters
from graphreason.explore import AttributeHit, ExplorationState, render_attribute
from graphreason.kg import Triple, generate_synthetic_graph
from graphreason.llm import ReplayBackend, ReplayEntry, ReplayMismatchError, TransportError
from graphreason.strategies import (
    Evidence,
    SearchConfig,
    ThoughtState,
    evaluate_score,
    evaluate_select,
    expand_child,
    merge_pair,
    merged_state,
    parse_finish_answer,
    run_search,
    select_frontier,
)

from graphreason.traces import build_trace, serialize_trace

from helpers import (
    TEMPLATE_MATCHERS,
    assert_writes_deltas,
    krt39_graph,
    permissive_backend,
    permissive_entries,
    synthetic_question,
)


def make_state(sid, thought="probe", depth=1, status="active", score=None):
    return ThoughtState(
        id=sid,
        depth=depth,
        thought=thought,
        evidence=Evidence(thought_log=[thought]),
        parents=(0,),
        status=status,
        score=score,
    )


# --- config -------------------------------------------------------------------


def test_config_rejects_unknown_choices():
    with pytest.raises(ValueError):
        SearchConfig(strategy="dfs")
    with pytest.raises(ValueError):
        SearchConfig(strategy="tot", interaction="psychic")
    with pytest.raises(ValueError):
        SearchConfig(strategy="tot", evaluator="coin-flip")
    with pytest.raises(ValueError):
        SearchConfig(strategy="tot", k=0)
    with pytest.raises(ValueError):
        SearchConfig(strategy="cot", d_max=0)
    with pytest.raises(ValueError, match="search_depth must be >= 1"):
        SearchConfig(strategy="tot", interaction="explore", search_depth=0)
    # Checked before the pins: cot pins k and t, agent pins search_depth.
    with pytest.raises(ValueError, match="k must be >= 1"):
        SearchConfig(strategy="cot", k=0)
    with pytest.raises(ValueError, match="t must be >= 1"):
        SearchConfig(strategy="cot", t=-3)
    with pytest.raises(ValueError, match="search_depth must be >= 1"):
        SearchConfig(strategy="tot", search_depth=0)


def test_cot_pins_width_to_one():
    config = SearchConfig(strategy="cot", evaluator="score", k=5, t=7, d_max=4)
    assert (config.k, config.t, config.evaluator, config.d_max) == (1, 1, "select", 4)
    assert SearchConfig(strategy="tot", evaluator="score").evaluator == "score"


def test_agent_runs_hold_the_default_search_depth():
    assert SearchConfig(strategy="tot", search_depth=5).search_depth == 3
    assert SearchConfig(strategy="tot", interaction="explore", search_depth=5).search_depth == 5
    assert SearchConfig(strategy="tot", search_depth=5) == SearchConfig(strategy="tot")


# --- finish parsing -----------------------------------------------------------


def test_parse_finish_answer_keeps_payload_whole():
    assert parse_finish_answer("so Finish[head, skin of body] done") == "head, skin of body"
    assert parse_finish_answer("Finish [x]") == "x"
    assert parse_finish_answer("Finish[a [nested] b]") == "a [nested] b"


def test_parse_finish_answer_requires_span():
    from graphreason.llm import MalformedOutputError

    with pytest.raises(MalformedOutputError):
        parse_finish_answer("no finish here")
    with pytest.raises(MalformedOutputError):
        parse_finish_answer("Finish[unclosed")


# --- expansion ----------------------------------------------------------------


def test_expand_child_agent_carries_scratchpad():
    graph = krt39_graph()
    question = synthetic_question()
    root = ThoughtState(id=0, depth=0, thought=question.text, evidence=Evidence(), parents=())
    child = expand_child(
        root,
        question,
        graph,
        permissive_backend(),
        CostCounters(),
        SearchConfig(strategy="cot"),
        child_id=1,
    )
    assert child.parents == (0,)
    assert child.depth == 1
    assert child.status == "active"
    assert child.evidence.scratchpad is not None
    assert len(child.evidence.scratchpad.steps) == 1
    assert root.evidence.scratchpad is None  # parent untouched


def test_expand_child_agent_finish_sets_answer():
    child = expand_child(
        ThoughtState(id=0, depth=0, thought="q", evidence=Evidence(), parents=()),
        synthetic_question(),
        krt39_graph(),
        permissive_backend(agent_finish=True),
        CostCounters(),
        SearchConfig(strategy="cot"),
        child_id=1,
    )
    assert child.status == "finished"
    assert child.evidence.answer == "alpha 2"


@pytest.mark.parametrize("interaction", ["agent", "explore"])
def test_expand_child_transport_failure_is_born_pruned(interaction):
    class DeadBackend:
        def raw_complete(self, request):
            raise TransportError("down")

    parent = make_state(4)
    child = expand_child(
        parent,
        synthetic_question(),
        krt39_graph(),
        DeadBackend(),
        CostCounters(),
        SearchConfig(strategy="cot", interaction=interaction),
        child_id=7,
    )
    assert child.id == 7
    assert child.depth == 2
    assert child.parents == (4,)
    assert child.status == "pruned"
    assert child.thought == "(generation failed)"
    assert child.evidence == Evidence(thought_log=["probe"])


def test_expand_child_explore_records_search_cost():
    graph = generate_synthetic_graph(11)
    question = synthetic_question()
    counters = CostCounters()
    child = expand_child(
        ThoughtState(id=0, depth=0, thought=question.text, evidence=Evidence(), parents=()),
        question,
        graph,
        permissive_backend(),
        counters,
        SearchConfig(strategy="cot", interaction="explore", search_depth=2),
        child_id=1,
    )
    assert child.status == "active"
    assert child.evidence.exploration is not None
    assert counters.explore_searches == 1
    assert counters.explore_search_cost_max == counters.kg_total()
    assert counters.llm_calls_by_tag["thought"] == 1


def test_expand_child_explore_sufficient_finishes_with_answer():
    counters = CostCounters()
    child = expand_child(
        ThoughtState(id=0, depth=0, thought="q", evidence=Evidence(), parents=()),
        synthetic_question(),
        generate_synthetic_graph(11),
        permissive_backend(explore_finish=True),
        counters,
        SearchConfig(strategy="cot", interaction="explore"),
        child_id=1,
    )
    assert child.status == "finished"
    assert child.evidence.answer == "alpha 2"
    assert counters.llm_calls_by_tag["answer"] == 1


# --- evaluators ---------------------------------------------------------------


def selection_backend(reply):
    return ReplayBackend([ReplayEntry(TEMPLATE_MATCHERS["selection_vote"], reply)])


def test_evaluate_select_short_circuits_at_or_below_t():
    counters = CostCounters()
    candidates = [make_state(1), make_state(2)]
    kept = evaluate_select(candidates, 2, synthetic_question(), selection_backend("x"), counters)
    assert kept == candidates
    assert counters.llm_total() == 0


def test_evaluate_select_honors_picks_then_fills():
    candidates = [make_state(i) for i in range(1, 6)]
    kept = evaluate_select(
        candidates,
        3,
        synthetic_question(),
        selection_backend("The best choice is {{2, 2, 9, 1}}"),
        CostCounters(),
    )
    assert [c.id for c in kept] == [2, 1, 3]


def test_evaluate_select_malformed_fills_in_creation_order():
    counters = CostCounters()
    candidates = [make_state(i) for i in range(1, 5)]
    kept = evaluate_select(
        candidates, 2, synthetic_question(), selection_backend("cannot decide"), counters
    )
    assert [c.id for c in kept] == [1, 2]
    assert counters.llm_calls_by_tag == {"select": 1, "select:reask": 1}


@pytest.mark.parametrize(
    ("digits", "expected"),
    [("9" * 5000, [1, 2]), ("0" * 5000 + "3", [3, 1])],
    ids=["nines", "leading-zeros"],
)
def test_evaluate_select_reads_a_number_too_long_for_int(digits, expected):
    # Python 3.11+ int() refuses a run of over 4,300 digits. The number is
    # read by its value: 5,000 nines are out of range, so the first t
    # candidates are kept, with no re-ask; leading zeros do not count.
    counters = CostCounters()
    candidates = [make_state(i) for i in range(1, 5)]
    backend = selection_backend("The best choice is {{" + digits + "}}")
    kept = evaluate_select(candidates, 2, synthetic_question(), backend, counters)
    assert [c.id for c in kept] == expected
    assert counters.llm_calls_by_tag == {"select": 1}


@given(picks=st.lists(st.integers(0, 7), min_size=1, max_size=6), t=st.integers(1, 4))
def test_evaluate_select_keeps_in_range_picks_then_creation_order(picks, t):
    candidates = [make_state(i) for i in range(1, 6)]
    reply = "{{" + ", ".join(map(str, picks)) + "}}"
    kept = evaluate_select(
        candidates, t, synthetic_question(), selection_backend(reply), CostCounters()
    )
    expected: list[int] = []
    for choice in picks + [1, 2, 3, 4, 5]:
        if 1 <= choice <= 5 and choice not in expected:
            expected.append(choice)
    assert [c.id for c in kept] == expected[:t]


def test_select_vote_prompt_renders_attribute_hits_as_explore_does():
    hit = AttributeHit(entity_id="n0001", entity_name="alpha 1", key="colour", value="teal")
    candidates = [make_state(i) for i in range(1, 4)]
    candidates[1].evidence.exploration = ExplorationState(
        relevant_attributes={(hit.entity_id, hit.key): hit}
    )

    class Recording:
        def __init__(self):
            self.prompts = []

        def raw_complete(self, request):
            self.prompts.append(request.prompt)
            return "The best choice is {{2}}"

    backend = Recording()
    evaluate_select(candidates, 1, synthetic_question(), backend, CostCounters())
    assert render_attribute(hit) in backend.prompts[0]


def score_backend(scores_by_sentinel):
    return ReplayBackend(
        [
            ReplayEntry(sentinel, f"Score: {value}")
            for sentinel, value in scores_by_sentinel.items()
        ]
    )


def test_evaluate_score_ranks_and_keeps_scores():
    candidates = [make_state(i, thought=f"CAND-{i} probe") for i in range(1, 5)]
    backend = score_backend(
        {"CAND-1": 0.2, "CAND-2": 0.9, "CAND-3": 0.6, "CAND-4": 2.5}
    )
    kept = evaluate_score(candidates, 2, synthetic_question(), backend, CostCounters())
    # 2.5 clamps to 1.0, so candidate 4 ranks first.
    assert [c.id for c in kept] == [4, 2]
    assert candidates[0].score == 0.2
    assert candidates[3].score == 1.0


def test_evaluate_score_ties_break_toward_earlier_creation():
    candidates = [make_state(i, thought=f"CAND-{i} probe") for i in range(1, 4)]
    backend = score_backend({"CAND-1": 0.5, "CAND-2": 0.5, "CAND-3": 0.5})
    kept = evaluate_score(candidates, 2, synthetic_question(), backend, CostCounters())
    assert [c.id for c in kept] == [1, 2]


def test_evaluate_score_malformed_vote_scores_zero_after_one_reask():
    candidates = [make_state(i, thought=f"CAND-{i} probe") for i in range(1, 3)]
    counters = CostCounters()
    backend = ReplayBackend(
        [
            ReplayEntry("CAND-1", "Score: 0.8"),
            ReplayEntry("CAND-2", "no score given"),
        ]
    )
    kept = evaluate_score(candidates, 1, synthetic_question(), backend, counters)
    assert [c.id for c in kept] == [1]
    assert candidates[0].score == pytest.approx(0.8)
    assert candidates[1].score == 0.0
    assert counters.llm_calls_by_tag["score"] == 2
    assert counters.llm_calls_by_tag["score:reask"] == 1


def test_evaluate_score_is_input_order_invariant():
    candidates = [make_state(i, thought=f"CAND-{i} probe") for i in range(1, 7)]
    backend = score_backend(
        {f"CAND-{i}": value for i, value in enumerate((0.3, 0.9, 0.1, 0.9, 0.5, 0.2), 1)}
    )
    baseline = {
        c.id
        for c in evaluate_score(
            list(candidates), 3, synthetic_question(), backend, CostCounters()
        )
    }
    rng = random.Random(0)
    for _ in range(25):
        shuffled = list(candidates)
        rng.shuffle(shuffled)
        kept = {
            c.id
            for c in evaluate_score(
                shuffled, 3, synthetic_question(), backend, CostCounters()
            )
        }
        assert kept == baseline
    assert baseline == {2, 4, 5}  # ties 2/4 both kept; 0.5 fills the beam


def test_select_frontier_prunes_non_retained():
    candidates = [make_state(i) for i in range(1, 5)]
    config = SearchConfig(strategy="tot", t=2, evaluator="select")
    retained = select_frontier(
        candidates,
        config,
        synthetic_question(),
        selection_backend("The best choice is {{4, 3}}"),
        CostCounters(),
    )
    assert retained == [3, 4]
    assert [c.status for c in candidates] == ["pruned", "pruned", "active", "active"]


def test_select_frontier_ignores_pruned_and_merged():
    candidates = [
        make_state(1, status="pruned"),
        make_state(2, status="merged_away"),
        make_state(3),
    ]
    retained = select_frontier(
        candidates,
        SearchConfig(strategy="tot", t=2),
        synthetic_question(),
        selection_backend("unused"),
        CostCounters(),
    )
    assert retained == [3]


def test_select_frontier_empty_when_no_survivors():
    assert (
        select_frontier(
            [make_state(1, status="pruned")],
            SearchConfig(strategy="tot"),
            synthetic_question(),
            selection_backend("unused"),
            CostCounters(),
        )
        == []
    )


# --- merging ------------------------------------------------------------------


def merge_backend(reply="Unified view of both chains."):
    return ReplayBackend([ReplayEntry(TEMPLATE_MATCHERS["got_merge"], reply)])


def test_merged_state_unions_evidence_and_marks_parents():
    shared = Triple(head_name="a", relation="r", tail_name="b", head_id="1", tail_id="2")
    only_b = Triple(head_name="b", relation="r", tail_name="c", head_id="2", tail_id="3")
    a = make_state(5)
    a.evidence.exploration = ExplorationState(found_triples={("1", "r", "2"): shared})
    b = make_state(6, thought="other")
    b.evidence.exploration = ExplorationState(
        found_triples={("1", "r", "2"): shared, ("2", "r", "3"): only_b}
    )
    merged = merged_state(a, b, "Unified view of both chains.", 9)
    assert merged.id == 9
    assert merged.depth == a.depth
    assert merged.parents == (5, 6)
    assert merged.status == "active"
    assert list(merged.evidence.exploration.found_triples.values()) == [shared, only_b]
    assert merged.evidence.thought_log == ["probe", "other", "Unified view of both chains."]
    assert a.status == "merged_away"
    assert b.status == "merged_away"


def test_merge_pair_returns_the_thought_and_leaves_both_inputs_active():
    a, b = make_state(1), make_state(2, thought="other")
    before = copy.deepcopy((a, b))
    thought = merge_pair(a, b, synthetic_question(), merge_backend(), CostCounters())
    assert thought == "Unified view of both chains."
    assert (a, b) == before
    assert a.status == b.status == "active"


def test_merge_pair_aborts_on_empty_merge_thought():
    counters = CostCounters()
    a, b = make_state(1), make_state(2)
    assert merge_pair(a, b, synthetic_question(), merge_backend("   "), counters) is None
    assert a.status == "active"
    assert b.status == "active"
    assert counters.llm_calls_by_tag == {"merge": 1, "merge:reask": 1}


def test_merge_pair_raises_on_replay_mismatch():
    a, b = make_state(1), make_state(2)
    with pytest.raises(ReplayMismatchError):
        merge_pair(a, b, synthetic_question(), ReplayBackend([], strict=True), CostCounters())


def test_merge_pair_requires_same_depth_active_states():
    with pytest.raises(ValueError):
        merge_pair(
            make_state(1, depth=1),
            make_state(2, depth=2),
            synthetic_question(),
            merge_backend(),
            CostCounters(),
        )
    with pytest.raises(ValueError):
        merge_pair(
            make_state(1, status="pruned"),
            make_state(2),
            synthetic_question(),
            merge_backend(),
            CostCounters(),
        )


# --- the run loop ---------------------------------------------------------------


def run(strategy="cot", interaction="agent", finish=False, **overrides):
    config = SearchConfig(strategy=strategy, interaction=interaction, **overrides)
    graph = generate_synthetic_graph(11)
    backend = permissive_backend(agent_finish=finish, explore_finish=finish)
    return run_search(synthetic_question(), config, graph, backend)


def test_run_search_step_limit_without_finish():
    result = run(strategy="cot", d_max=3)
    assert result.answer is None
    assert result.termination == "step_limit"
    assert result.counters.generation_calls() == 3
    states = result.states
    assert sorted(states) == [0, 1, 2, 3]
    assert [states[i].depth for i in range(4)] == [0, 1, 2, 3]


def test_run_search_finish_short_circuits():
    result = run(strategy="cot", finish=True, d_max=5)
    assert result.answer == "alpha 2"
    assert result.termination == "finished"
    assert result.counters.generation_calls() == 1
    assert result.states[1].status == "finished"
    assert result.frontier == [1]


def test_run_search_tot_beam_stays_within_t():
    result = run(strategy="tot", k=3, t=2, d_max=3)
    assert result.termination == "step_limit"
    for state in result.states.values():
        assert state.status in {"active", "pruned"}
    assert len(result.frontier) <= 2
    depth_counts = {}
    for state in result.states.values():
        depth_counts[state.depth] = depth_counts.get(state.depth, 0) + 1
    assert depth_counts[1] == 3  # k children of the root
    assert depth_counts[2] == 6  # k per retained state
    assert result.counters.llm_calls_by_tag["select"] == 3


def test_run_search_got_merges_adjacent_actives():
    result = run(strategy="got", k=3, t=3, d_max=2)
    states = result.states
    merged = [s for s in states.values() if len(s.parents) == 2]
    assert merged, "expected at least one merged state"
    for state in merged:
        a, b = (states[p] for p in state.parents)
        assert a.status == "merged_away"
        assert b.status == "merged_away"
        assert state.depth == a.depth == b.depth
    assert result.counters.merge_attempts() == 4
    assert result.counters.generation_calls() == 9


def test_run_search_cot_equals_degenerate_tot():
    question = synthetic_question()
    graph = generate_synthetic_graph(11)
    results = {}
    for strategy, width_args in (("cot", {}), ("tot", {"k": 1, "t": 1})):
        config = SearchConfig(strategy=strategy, d_max=3, **width_args)
        results[strategy] = run_search(question, config, graph, permissive_backend())
    cot = build_trace(question, {}, results["cot"]).as_dict()
    tot = build_trace(question, {}, results["tot"]).as_dict()
    assert cot == tot


def test_run_search_explore_interaction_round_trip():
    result = run(strategy="tot", interaction="explore", k=2, t=2, d_max=2, finish=True)
    assert result.termination == "finished"
    assert result.answer == "alpha 2"
    assert result.states[1].evidence.exploration is not None


@pytest.mark.parametrize("interaction", ["agent", "explore"])
def test_got_trace_writes_each_state_only_what_it_added(interaction):
    result = run(strategy="got", interaction=interaction, k=3, t=3, d_max=2)
    data = build_trace(synthetic_question(), {}, result).as_dict()
    assert data["schema"] == "trace/v5"
    merged = [state for state in data["states"] if len(state["parents"]) == 2]
    assert merged
    if interaction == "explore":
        keys = {"anchors", "rounds", "sufficient", "triple_refs"}
        assert all(set(s["evidence"]["exploration"]) == keys for s in data["states"][1:])
        a, b = (result.states[p].evidence.exploration for p in merged[0]["parents"])
        assert ExplorationState.merge(a, b).found_triples
    assert_writes_deltas(data, result)


@pytest.mark.parametrize("interaction", ["agent", "explore"])
def test_run_search_raises_on_replay_mismatch(interaction):
    config = SearchConfig(strategy="cot", interaction=interaction, d_max=3)
    with pytest.raises(ReplayMismatchError):
        run_search(
            synthetic_question(),
            config,
            generate_synthetic_graph(11),
            ReplayBackend([], strict=True),
        )


# --- concurrent rounds ------------------------------------------------------------

MERGE_THOUGHT = "Merging the two candidate chains."


class JitteryReplay(ReplayBackend):
    """Non-strict replay that declares ``width`` calls in flight and sleeps a
    seeded random time per call, so completions arrive out of order. It
    records every request it was sent and the most calls it saw in flight
    at once, and raises TransportError for every request ``fail`` picks."""

    def __init__(self, entries, *, width=4, delay_s=0.002, seed=0, fail=None):
        super().__init__(entries)
        self.max_in_flight = width
        self.delay_s = delay_s
        self.fail = fail
        self.requests = []
        self.in_flight = 0
        self.peak = 0
        self._rng = random.Random(seed)
        self._meter = threading.Lock()

    def raw_complete(self, request):
        with self._meter:
            delay = self._rng.uniform(0, self.delay_s)
            self.requests.append(request)
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            time.sleep(delay)
            if self.fail is not None and self.fail(request):
                raise TransportError("injected")
            return super().raw_complete(request)
        finally:
            with self._meter:
                self.in_flight -= 1


@pytest.fixture
def fast_switching():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def concurrency_entries():
    """The permissive script, with replies that make a state's fate depend on
    its position and lineage: select picks out of creation order, and merged
    chains outscore plain ones."""
    return [
        ReplayEntry(TEMPLATE_MATCHERS["selection_vote"], "The best choice is {{9, 4, 2}}"),
        ReplayEntry(MERGE_THOUGHT + "\nTriples", "Score: 0.9"),
        *permissive_entries(),
    ]


def search_outcome(config, backend):
    question = synthetic_question()
    result = run_search(question, config, generate_synthetic_graph(11), backend)
    return serialize_trace(build_trace(question, {}, result)), result.counters.as_dict(), result


CONCURRENCY_CONFIGS = {
    "tot-agent-select": dict(strategy="tot", interaction="agent", evaluator="select"),
    "got-explore-score": dict(strategy="got", interaction="explore", evaluator="score"),
    "cot-agent": dict(strategy="cot", interaction="agent", d_max=4),
    # Every child anchors on one entity, so k siblings generated at once
    # reach its prunes together.
    "got-explore-siblings": dict(
        strategy="got", interaction="explore", evaluator="score", k=4, d_max=2, search_depth=1,
    ),
}

PRUNE_TAGS = ("prune_relations", "prune_entities")


def backend_calls_per_prune_key(backend):
    """A prune prompt holds one entity (and relation) of one question, so
    each distinct prompt stands for one memo key."""
    return Counter(r.prompt for r in backend.requests if r.tag in PRUNE_TAGS)


@pytest.mark.parametrize("name", sorted(CONCURRENCY_CONFIGS))
def test_concurrency_never_changes_results(name, fast_switching):
    config = SearchConfig(**CONCURRENCY_CONFIGS[name])
    serial = search_outcome(config, JitteryReplay(concurrency_entries(), width=1))
    for seed in range(3):
        backend = JitteryReplay(concurrency_entries(), width=4, seed=seed, delay_s=0.005)
        parallel = search_outcome(config, backend)
        assert parallel[0] == serial[0]
        assert parallel[1] == serial[1]
        if config.interaction == "explore":
            # Asks that overlap share the one in flight.
            assert set(backend_calls_per_prune_key(backend).values()) == {1}
    if config.interaction == "explore":
        assert serial[1]["memo_hits_by_tag"]["prune_relations"]
    if name != "cot-agent":
        assert backend.peak > 1
    if name == "got-explore-score":
        counters = serial[1]
        assert counters["llm_calls_by_tag"]["merge"] and counters["llm_calls_by_tag"]["score"]
        assert counters["explore_search_cost_max"] < counters["kg_total"]


def test_a_search_asks_each_prune_key_once(monkeypatch):
    """Prune and attribute calls equal distinct keys, and every other ask is
    a hit: the same search with no memo shared among its states makes one
    call per ask, the same graph ops and the same states."""
    monkeypatch.setattr(explore_module, "SELECT_ATTRIBUTES", True)
    config = SearchConfig(strategy="got", interaction="explore", evaluator="score", d_max=2)
    entries = [
        ReplayEntry(TEMPLATE_MATCHERS["search_attributes"], "keep everything please"),
        *permissive_entries(),
    ]
    shared = JitteryReplay(entries, width=1, delay_s=0)
    trace, counters, _ = search_outcome(config, shared)
    monkeypatch.setattr(strategies, "ExploreMemo", lambda: None)
    unshared = JitteryReplay(entries, width=1, delay_s=0)
    unshared_trace, unshared_counters, _ = search_outcome(config, unshared)

    assert json.loads(trace)["states"] == json.loads(unshared_trace)["states"]
    assert unshared_counters["memo_hits_by_tag"] == {}
    # A repeated expansion meters the node fetch and neighbor checks its walk made.
    assert counters["kg_ops_by_kind"] == unshared_counters["kg_ops_by_kind"]
    for tag in PRUNE_TAGS + ("attributes",):
        distinct = len({r.prompt for r in unshared.requests if r.tag == tag})
        asks = unshared_counters["llm_calls_by_tag"][tag]
        assert counters["llm_calls_by_tag"][tag] == distinct < asks
        assert counters["memo_hits_by_tag"][tag] == asks - distinct
        # The reply never parses, so each call draws one re-ask.
        assert counters["llm_calls_by_tag"][tag + ":reask"] == distinct
    assert set(backend_calls_per_prune_key(shared).values()) == {1}


def test_an_inline_search_walks_its_memo_without_a_future(monkeypatch, fast_switching):
    """On one thread no expansion ever waits, so a got/explore search makes
    no future at all; at width 4, where siblings reach one entity's prunes
    together, the waits still send each prune key once."""
    made = []
    init = Future.__init__

    def counting_init(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Future, "__init__", counting_init)
    for name in ("got-explore-score", "got-explore-siblings"):
        config = SearchConfig(**CONCURRENCY_CONFIGS[name])
        made.clear()
        _, counters, _ = search_outcome(config, JitteryReplay(concurrency_entries(), width=1))
        assert made == []
        assert counters["memo_hits_by_tag"]["prune_relations"]
        for seed in range(3):
            backend = JitteryReplay(concurrency_entries(), width=4, seed=seed, delay_s=0.005)
            assert search_outcome(config, backend)[1] == counters
            assert set(backend_calls_per_prune_key(backend).values()) == {1}
        assert made  # the pool's own, at least: the count sees a future made


@pytest.mark.parametrize("width", [pytest.param(1, id="inline"), pytest.param(4, id="concurrent")])
def test_a_search_builds_each_kept_edge_once(width, fast_switching):
    """The tail prune's memoized triples are the records states file, so
    every state holding a triple key holds the one object built for it."""
    config = SearchConfig(**CONCURRENCY_CONFIGS["got-explore-score"])
    _, _, result = search_outcome(config, JitteryReplay(concurrency_entries(), width=width))
    held = {}
    for state in result.states.values():
        if state.evidence.exploration is not None:
            for key, triple in state.evidence.exploration.found_triples.items():
                held.setdefault(key, []).append(triple)
    assert held and all(len(triples) > 1 for triples in held.values())
    for triples in held.values():
        assert all(triple is triples[0] for triple in triples)


def test_concurrent_round_overlaps_calls_up_to_the_limit():
    config = SearchConfig(strategy="tot", interaction="agent", k=3, t=3, d_max=2)
    backend = JitteryReplay(permissive_entries(), width=4, delay_s=0.005)
    result = run_search(synthetic_question(), config, generate_synthetic_graph(11), backend)
    assert result.counters.generation_calls() == 3 + 9
    assert 1 < backend.peak <= backend.max_in_flight


def failing_outcome(fail):
    """The got/explore search with ``fail`` injected, at width 4 and at
    width 1; the two must agree byte for byte."""
    config = SearchConfig(strategy="got", interaction="explore", d_max=2)
    serial = search_outcome(config, JitteryReplay(permissive_entries(), width=1, fail=fail))
    parallel = search_outcome(config, JitteryReplay(permissive_entries(), width=4, fail=fail))
    assert parallel[:2] == serial[:2]
    return parallel[2].states


def test_concurrent_transport_failure_prunes_only_its_children():
    # Round 2 expands plain state 3 into 5-7 and merged state 4 into 8-10;
    # only generation calls that carry the merge thought fail.
    states = failing_outcome(
        lambda request: request.tag == "thought" and MERGE_THOUGHT in request.prompt
    )
    assert [states[i].parents for i in range(5, 11)] == [(3,)] * 3 + [(4,)] * 3
    assert [states[i].status for i in range(8, 11)] == ["pruned"] * 3
    assert [states[i].thought for i in range(8, 11)] == ["(generation failed)"] * 3
    assert states[5].status == states[6].status == "merged_away"
    assert states[11].parents == (5, 6)
    assert sorted(states) == list(range(12))


def test_concurrent_merge_transport_failure_aborts_only_its_pair():
    # Round 2 pairs (5, 6), (7, 8) and (9, 10); only (7, 8) mixes a plain
    # chain with one that holds the merge thought.
    states = failing_outcome(
        lambda request: request.tag == "merge" and request.prompt.count(MERGE_THOUGHT) == 1
    )
    assert [states[i].parents for i in (11, 12)] == [(5, 6), (9, 10)]
    assert states[7].status == states[8].status == "active"
    assert sorted(states) == list(range(13))


@pytest.mark.parametrize("missing", ["search_thought", "got_merge", "score_vote"])
def test_concurrent_replay_mismatch_propagates(missing):
    entries = [
        e
        for e in concurrency_entries()
        if TEMPLATE_MATCHERS[missing] not in e.match and not e.match.startswith(MERGE_THOUGHT)
    ]
    config = SearchConfig(strategy="got", interaction="explore", evaluator="score")
    threads = threading.active_count()
    with pytest.raises(ReplayMismatchError):
        run_search(
            synthetic_question(),
            config,
            generate_synthetic_graph(11),
            JitteryReplay(entries, width=4),
        )
    assert threading.active_count() == threads


@pytest.mark.parametrize("interaction", ["agent", "explore"])
def test_concurrent_siblings_leave_their_shared_parent_unchanged(interaction, fast_switching):
    # Children share the parent's frozen steps and seen entities; k of them
    # grounding at once must still leave the parent's evidence as it was.
    graph = generate_synthetic_graph(11)
    question = synthetic_question()
    config = SearchConfig(strategy="tot", interaction=interaction, k=8, search_depth=1)
    chain = run_search(
        question,
        SearchConfig(strategy="cot", interaction=interaction, d_max=2, search_depth=1),
        graph,
        permissive_backend(),
    )
    parent = chain.states[chain.frontier[0]]
    before = copy.deepcopy(parent.evidence)
    backend = JitteryReplay(permissive_entries(), width=4)
    with ThreadPoolExecutor(backend.max_in_flight) as pool:
        children = list(
            pool.map(
                lambda child_id: expand_child(
                    parent, question, graph, backend, CostCounters(), config, child_id
                ),
                range(10, 10 + config.k),
            )
        )
    assert backend.peak > 1
    assert parent.evidence == before
    # Siblings get the same replies, so each grew the parent's evidence alike.
    grown = [(c.evidence.scratchpad, c.evidence.exploration) for c in children]
    assert grown == [grown[0]] * config.k
    assert grown[0] != (before.scratchpad, before.exploration)


def test_concurrent_round_failure_cancels_tasks_not_yet_started():
    # One worker: task 0 fails while at most one later task has been taken
    # up; every other task must be cancelled rather than run once the
    # failure has propagated.
    started = []
    release = threading.Event()

    def task(index):
        if index == 0:
            raise RuntimeError("task 0 failed")
        started.append(index)
        release.wait(timeout=5)
        return index

    with ThreadPoolExecutor(1) as pool:
        with pytest.raises(RuntimeError, match="task 0 failed"):
            strategies._gather(pool, [partial(task, i) for i in range(6)])
        release.set()
    assert len(started) <= 1
