"""Model-pruned breadth-first exploration."""

import copy
import threading
import time
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphreason import explore as explore_module
from graphreason.costs import CostCounters
from graphreason.evaluation import Question
from graphreason.explore import (
    AttributeHit,
    Expansion,
    ExplorationState,
    ExploreMemo,
    SeenEntity,
    end_check,
    explore,
    extract_entities,
    prune_entities,
    prune_relations,
    resolve_anchors,
    search_attributes,
)
from graphreason.kg import (
    GraphStats, KnowledgeGraph, NodeRecord, Triple, generate_synthetic_graph, node_name,
    render_triple,
)
from graphreason.llm import ReplayBackend, ReplayEntry
from graphreason.strategies import Evidence, ThoughtState, describe_candidate, describe_chain

from helpers import (
    TEMPLATE_MATCHERS,
    closure_oracle,
    fan_graph,
    krt39_graph,
    krt39_question,
    permissive_backend,
    reference_describe_candidate,
    reference_describe_chain,
    reference_rendered_triples,
    under_caps,
)


def backend_of(**responses):
    """Map template name -> canned response, matched on instruction text."""
    return ReplayBackend(
        [ReplayEntry(TEMPLATE_MATCHERS[name], text) for name, text in responses.items()]
    )


def test_extract_entities_splits_on_commas():
    counters = CostCounters()
    forms = extract_entities(
        "thought", backend_of(entity_extraction="{{alpha 2, beta 3}}"), counters, "synthetic"
    )
    assert forms == ["alpha 2", "beta 3"]
    assert counters.llm_calls_by_tag == {"extract": 1}


def test_extract_entities_malformed_yields_nothing():
    counters = CostCounters()
    forms = extract_entities(
        "thought", backend_of(entity_extraction="no brackets"), counters, "synthetic"
    )
    assert forms == []
    assert counters.llm_calls_by_tag == {"extract": 1, "extract:reask": 1}


def test_resolve_anchors_skips_misses_and_dedupes():
    graph = krt39_graph()
    counters = CostCounters()
    anchors = resolve_anchors(graph, ["KRT39", "unknown thing zz", "krt39"], counters)
    assert anchors == ["390792"]
    assert counters.kg_ops_by_kind == {"retrieve_node": 3}


FOUR_RELATIONS = ["r-one", "r-two", "r-three", "r-four"]


def test_prune_relations_keeps_named_order_and_cap():
    graph = krt39_graph()
    selected = prune_relations(
        krt39_question(),
        "390792",
        [*FOUR_RELATIONS, "r-five"],
        graph,
        backend_of(prune_relations="{{R-FIVE, r-four, r-three, r-one}}"),
        CostCounters(),
    )
    assert selected == ["r-one", "r-three", "r-four"]  # order preserved, then capped at 3


def test_prune_relations_falls_back_on_malformed():
    graph = krt39_graph()
    selected = prune_relations(
        krt39_question(),
        "390792",
        FOUR_RELATIONS,
        graph,
        backend_of(prune_relations="nothing usable"),
        CostCounters(),
    )
    assert selected == ["r-one", "r-two", "r-three"]


def test_prune_relations_falls_back_when_nothing_recognized():
    graph = krt39_graph()
    selected = prune_relations(
        krt39_question(),
        "390792",
        ["r-one", "r-two"],
        graph,
        backend_of(prune_relations="{{made-up-relation}}"),
        CostCounters(),
    )
    assert selected == ["r-one", "r-two"]


def edges(graph, head_id, relation, tail_ids):
    """The triples for these tails, named as the graph names their ends."""
    return [
        Triple(node_name(graph, head_id), relation, node_name(graph, tail_id), head_id, tail_id)
        for tail_id in tail_ids
    ]


def test_prune_entities_resolves_names_within_candidates_only():
    graph = krt39_graph()
    selected = prune_entities(
        krt39_question(),
        "390792",
        "Anatomy-expresses-Gene",
        ["UBERON:0000033", "UBERON:0002097"],
        graph,
        backend_of(prune_entities="{{skin of body, something else}}"),
        CostCounters(),
    )
    assert selected == edges(graph, "390792", "Anatomy-expresses-Gene", ["UBERON:0002097"])


def test_prune_entities_empty_selection_stays_empty():
    graph = krt39_graph()
    selected = prune_entities(
        krt39_question(),
        "390792",
        "Anatomy-expresses-Gene",
        ["UBERON:0000033"],
        graph,
        backend_of(prune_entities="{{unrelated name}}"),
        CostCounters(),
    )
    assert selected == []


def test_prune_entities_malformed_keeps_prefix():
    graph = fan_graph(6)
    tails = graph.nodes["390792"].out_edges["Anatomy-expresses-Gene"]
    selected = prune_entities(
        krt39_question(),
        "390792",
        "Anatomy-expresses-Gene",
        tails,
        graph,
        backend_of(prune_entities="who knows"),
        CostCounters(),
    )
    assert selected == edges(graph, "390792", "Anatomy-expresses-Gene", tails[:5])


@pytest.mark.parametrize("reply", ["{{name}}", "{{name, none}}"])
def test_search_attributes_exact_key_match(reply):
    graph = krt39_graph()
    hits = search_attributes(
        krt39_question(),
        "UBERON:0000033",
        backend_of(search_attributes=reply),
        CostCounters(),
        graph,
    )
    assert hits == [
        AttributeHit(entity_id="UBERON:0000033", entity_name="head", key="name", value="head")
    ]


def test_search_attributes_none_reply_yields_nothing():
    graph = krt39_graph()
    hits = search_attributes(
        krt39_question(),
        "UBERON:0000033",
        backend_of(search_attributes="{{None}}"),
        CostCounters(),
        graph,
    )
    assert hits == []


@pytest.mark.parametrize(
    "reply, expected",
    [("[Yes] plenty", True), ("[No] keep going", False), ("garbage", False)],
)
def test_end_check_parses_and_defaults_to_continue(reply, expected):
    state = ExplorationState()
    verdict = end_check(
        krt39_question(), state, backend_of(search_end=reply), CostCounters()
    )
    assert verdict is expected


# --- the exploration loop -----------------------------------------------------


def test_explore_marks_visited_and_tracks_depths():
    graph = krt39_graph()
    state = ExplorationState()
    explore(
        krt39_question(),
        ["390792"],
        state,
        3,
        graph,
        permissive_backend(),
        CostCounters(),
    )
    assert state.seen_entities["390792"] == SeenEntity(visited=True, depth_discovered=0)
    # Leaves get visited on the next round (they have no relations to prune).
    assert state.seen_entities["UBERON:0000033"].depth_discovered == 1
    assert state.seen_entities["UBERON:0000033"].visited
    assert not state.sufficient


def test_explore_stops_when_sufficient():
    graph = krt39_graph()
    state = ExplorationState()
    counters = CostCounters()
    explore(
        krt39_question(),
        ["390792"],
        state,
        3,
        graph,
        permissive_backend(explore_finish=True),
        counters,
    )
    assert state.sufficient
    assert counters.llm_calls_by_tag["end_check"] == 1
    # The two anatomy tails were discovered but never expanded.
    assert not state.seen_entities["UBERON:0000033"].visited


def test_explore_with_no_unvisited_entities_is_free():
    graph = krt39_graph()
    state = ExplorationState()
    state.seen_entities["390792"] = SeenEntity(visited=True, depth_discovered=0)
    counters = CostCounters()
    explore(
        krt39_question(), [], state, 3, graph, permissive_backend(), counters
    )
    assert counters.llm_total() == 0
    assert counters.kg_total() == 0


def test_explore_dedupes_triples_across_rounds():
    graph = krt39_graph()
    state = ExplorationState()
    backend = permissive_backend()
    explore(krt39_question(), ["390792"], state, 3, graph, backend, CostCounters())
    first = list(state.found_triples.values())
    # Re-exploring from the same anchor adds nothing: everything is visited.
    explore(krt39_question(), ["390792"], state, 3, graph, backend, CostCounters())
    assert list(state.found_triples.values()) == first
    keys = [(t.head_id, t.relation, t.tail_id) for t in state.found_triples.values()]
    assert len(keys) == len(set(keys))


def test_explore_attribute_selection_is_opt_in(monkeypatch):
    graph = krt39_graph()
    counters = CostCounters()
    explore(
        krt39_question(),
        ["390792"],
        ExplorationState(),
        3,
        graph,
        permissive_backend(),
        counters,
    )
    assert "attributes" not in counters.llm_calls_by_tag

    counters = CostCounters()
    monkeypatch.setattr(explore_module, "SELECT_ATTRIBUTES", True)
    backend = ReplayBackend(
        [
            ReplayEntry(TEMPLATE_MATCHERS["search_attributes"], "{{name}}"),
            ReplayEntry(TEMPLATE_MATCHERS["prune_relations"], "fallback please"),
            ReplayEntry(TEMPLATE_MATCHERS["prune_entities"], "fallback please"),
            ReplayEntry(TEMPLATE_MATCHERS["search_end"], "[No] more"),
        ]
    )
    state = ExplorationState()
    explore(krt39_question(), ["390792"], state, 1, graph, backend, counters)
    assert counters.llm_calls_by_tag["attributes"] == 1
    assert list(state.relevant_attributes.values()) == [
        AttributeHit(entity_id="390792", entity_name="KRT39", key="name", value="KRT39")
    ]


def test_explore_depth_one_stops_at_first_ring():
    graph = generate_synthetic_graph(11)
    assert under_caps(graph)  # so the closure is the whole first ring
    state = ExplorationState()
    explore(
        Question(qid="x", text="probe?", gold_answer="y", difficulty="easy"),
        ["n0000"],
        state,
        1,
        graph,
        permissive_backend(),
        CostCounters(),
    )
    visited = {eid for eid, meta in state.seen_entities.items() if meta.visited}
    assert visited == {"n0000"}
    oracle_triples, oracle_entities = closure_oracle(graph, ["n0000"], 1)
    found = {(t.head_id, t.relation, t.tail_id) for t in state.found_triples.values()}
    assert found == oracle_triples
    assert set(state.seen_entities) == oracle_entities


def test_state_merge_unions_and_dedupes():
    graph = krt39_graph()
    a = ExplorationState()
    b = ExplorationState()
    explore(krt39_question(), ["390792"], a, 3, graph, permissive_backend(), CostCounters())
    explore(krt39_question(), ["390792"], b, 3, graph, permissive_backend(), CostCounters())
    b.sufficient = True
    merged = ExplorationState.merge(a, b)
    assert merged.sufficient
    assert merged.found_triples == a.found_triples
    assert set(merged.seen_entities) == set(a.seen_entities)
    # Two explorations that agree on an entity hold one shared entry for it.
    for eid, meta in a.seen_entities.items():
        assert b.seen_entities[eid] is meta
        assert merged.seen_entities[eid] is meta


_IDS = st.sampled_from("xyz")


@st.composite
def exploration_states(draw, tag):
    """A state over a three-node alphabet, so two drawn states share keys;
    ``tag`` makes every entry's names tell which state it came from."""
    triple_keys = draw(st.lists(st.tuples(_IDS, st.sampled_from("rs"), _IDS), max_size=8))
    attr_keys = draw(st.lists(st.tuples(_IDS, st.sampled_from(["name", "size"])), max_size=4))
    seen = draw(st.dictionaries(_IDS, st.builds(SeenEntity, st.booleans(), st.integers(0, 2))))
    return ExplorationState(
        seen_entities=seen,
        found_triples={
            k: Triple(f"{tag}{k[0]}", k[1], f"{tag}{k[2]}", k[0], k[2]) for k in triple_keys
        },
        relevant_attributes={k: AttributeHit(k[0], f"{tag}{k[0]}", k[1], tag) for k in attr_keys},
        sufficient=draw(st.booleans()),
    )


@settings(deadline=None)
@given(exploration_states("a"), exploration_states("b"))
def test_state_merge_keeps_a_first_and_adds_only_b_new_keys(a, b):
    before = copy.deepcopy((a, b))
    merged = ExplorationState.merge(a, b)
    for name in ("found_triples", "relevant_attributes"):
        mine, theirs, union = getattr(a, name), getattr(b, name), getattr(merged, name)
        assert list(union) == list(mine) + [k for k in theirs if k not in mine]
        for key, entry in union.items():
            assert entry is (mine[key] if key in mine else theirs[key])
    mine, theirs, union = a.seen_entities, b.seen_entities, merged.seen_entities
    assert list(union) == list(mine) + [k for k in theirs if k not in mine]
    for eid, meta in union.items():
        held = [side[eid] for side in (mine, theirs) if eid in side]
        assert meta == SeenEntity(
            any(m.visited for m in held), min(m.depth_discovered for m in held)
        )
    assert (a, b) == before


def test_state_merge_keeps_the_visited_flag_and_the_shallower_depth():
    a = ExplorationState(seen_entities={"x": SeenEntity(visited=False, depth_discovered=1)})
    b = ExplorationState(seen_entities={"x": SeenEntity(visited=True, depth_discovered=2)})
    merged = ExplorationState.merge(a, b)
    assert merged.seen_entities == {"x": SeenEntity(visited=True, depth_discovered=1)}
    assert a.seen_entities == {"x": SeenEntity(visited=False, depth_discovered=1)}
    assert b.seen_entities == {"x": SeenEntity(visited=True, depth_discovered=2)}


def test_seen_entities_are_frozen():
    with pytest.raises(FrozenInstanceError):
        SeenEntity(visited=False, depth_discovered=0).visited = True


def test_state_clone_is_independent():
    state = ExplorationState()
    state.add_anchors(["x"])
    clone = state.clone()
    clone.seen_entities["x"] = SeenEntity(visited=True, depth_discovered=0)
    clone.add_anchors(["y"])
    clone.found_triples[("x", "rel", "y")] = Triple("x", "rel", "y", "x", "y")
    clone.relevant_attributes[("x", "name")] = AttributeHit("x", "x", "name", "x")
    clone.sufficient = True
    assert state == ExplorationState(
        seen_entities={"x": SeenEntity(visited=False, depth_discovered=0)}
    )


def test_exploring_a_clone_leaves_the_original_unchanged():
    graph = krt39_graph()
    state = explore(
        krt39_question(), ["390792"], ExplorationState(), 1, graph,
        permissive_backend(), CostCounters(),
    )
    before = copy.deepcopy(state)
    clone = state.clone()
    # The second round visits the tails the first one discovered.
    explore(krt39_question(), [], clone, 1, graph, permissive_backend(), CostCounters())
    assert clone.seen_entities["UBERON:0000033"].visited
    first = next(iter(state.found_triples))
    assert clone.found_triples[first] is state.found_triples[first]  # shared, not copied
    assert state == before


def test_a_shared_memo_leaves_each_state_its_own_depths():
    """One entity at depth 0 in one state and at depth 1 in another: the
    second expansion reuses the first one's kept triples from the memo, but
    its tails are discovered one hop below its own depth."""
    graph = krt39_graph()
    memo = ExploreMemo()
    shallow = ExplorationState()
    deep = ExplorationState(seen_entities={"390792": SeenEntity(False, 1)})
    explore(krt39_question(), ["390792"], shallow, 1, graph, permissive_backend(),
            CostCounters(), memo=memo)
    counters = CostCounters()
    explore(krt39_question(), [], deep, 1, graph, permissive_backend(), counters,
            memo=memo)
    assert counters.memo_hits_by_tag["prune_entities"]
    tails = {t.tail_id for t in shallow.found_triples.values()} - {"390792"}
    assert tails and deep.found_triples == shallow.found_triples
    for tail_id in tails:
        assert shallow.seen_entities[tail_id] == SeenEntity(False, 1)
        assert deep.seen_entities[tail_id] == SeenEntity(False, 2)


@pytest.mark.parametrize(
    "features, walk_calls, hits",
    [
        pytest.param({"name": "head"}, {"attributes": 1}, {"attributes": 1}, id="features"),
        pytest.param({}, {}, {}, id="bare"),
    ],
)
def test_a_repeated_leaf_expansion_meters_only_the_asks_its_walk_made(
    features, walk_calls, hits, monkeypatch
):
    """A node with no out-edges asks no relation prune, and one with no
    features no attribute selection, even with ``SELECT_ATTRIBUTES`` on. A
    second expansion of it in the same search meters its node fetch and a
    hit for each ask the walk made, and nothing else."""
    graph = KnowledgeGraph(
        nodes={"leaf": NodeRecord("leaf", "anatomy", features, {})},
        stats=GraphStats(node_count=1, edge_count=0, relation_types=frozenset()),
    )
    monkeypatch.setattr(explore_module, "SELECT_ATTRIBUTES", True)
    backend = backend_of(search_attributes="{{name}}", search_end="[No] more")
    memo = ExploreMemo()
    walked, repeated = CostCounters(), CostCounters()
    first = explore(krt39_question(), ["leaf"], ExplorationState(), 1, graph, backend,
                    walked, memo=memo)
    second = explore(krt39_question(), ["leaf"], ExplorationState(), 1, graph, backend,
                     repeated, memo=memo)
    assert walked.llm_calls_by_tag == {**walk_calls, "end_check": 1}
    assert walked.kg_ops_by_kind == repeated.kg_ops_by_kind == {"node_fetch": 1}
    assert repeated.llm_calls_by_tag == {"end_check": 1}
    assert walked.memo_hits_by_tag == {}
    assert repeated.memo_hits_by_tag == hits
    assert second == first
    assert len(first.relevant_attributes) == len(features)


def test_a_failed_memo_computation_reaches_every_ask_waiting_on_it(monkeypatch):
    """Two expansions of one entity: the first walks it and fails in its
    relation prune, the second waits on the same future and gets the same
    error. The threads are daemons joined with a timeout, so a memo that
    never settles the future fails the test instead of hanging it."""
    memo = ExploreMemo()
    counters = CostCounters()
    computing, release = threading.Event(), threading.Event()
    calls = []
    raised = {}

    def compute(*args):
        calls.append(1)
        computing.set()
        release.wait(5)
        raise RuntimeError("prune failed")

    monkeypatch.setattr("graphreason.explore.prune_relations", compute)
    graph = krt39_graph()

    def ask(name):
        try:
            memo.expand(krt39_question(), "390792", graph, permissive_backend(), counters)
        except RuntimeError as exc:
            raised[name] = exc

    first = threading.Thread(target=ask, args=("first",), daemon=True)
    second = threading.Thread(target=ask, args=("second",), daemon=True)
    first.start()
    assert computing.wait(5)
    second.start()
    time.sleep(0.05)  # let the second ask reach the in-flight future
    release.set()
    for thread in (first, second):
        thread.join(5)
        assert not thread.is_alive()
    assert calls == [1]
    assert raised.keys() == {"first", "second"}
    assert raised["second"] is raised["first"]
    assert counters.memo_hits_by_tag == {}
    assert counters.kg_ops_by_kind == {"node_fetch": 1}


# --- each triple's prompt line, rendered once --------------------------------


def _triple(key, variant):
    """The triple at ``key``; ``variant`` names its ends, so two states can
    hold different entries under one key and a merge must keep a's."""
    head, relation, tail = key
    return Triple(f"{head}{variant}", relation, f"{tail}{variant}", head, tail)


_TRIPLE_KEYS = st.tuples(_IDS, st.sampled_from("rs"), _IDS)
_VARIANTS = st.sampled_from(["", "'", '"'])


@st.composite
def _expansions(draw):
    variant = draw(_VARIANTS)
    rows = []
    for key in draw(st.lists(_TRIPLE_KEYS, max_size=5)):
        triple = _triple(key, variant)
        rows.append((key, triple, render_triple(triple)))
    hits = tuple(
        AttributeHit(eid, f"{eid}{variant}", key, variant)
        for eid, key in draw(st.lists(st.tuples(_IDS, st.sampled_from(["name", "size"])),
                                      max_size=2))
    )
    return Expansion(hits, tuple(rows), {}, {})


_STATE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("file"), st.integers(0, 20), _expansions(), st.integers(1, 3)),
        st.tuples(st.just("clone"), st.integers(0, 20)),
        st.tuples(st.just("merge"), st.integers(0, 20), st.integers(0, 20)),
        st.tuples(st.just("build"), st.lists(st.tuples(_TRIPLE_KEYS, _VARIANTS), max_size=4)),
    ),
    max_size=14,
)


@settings(deadline=None, max_examples=300)
@given(_STATE_OPS)
def test_stored_triple_lines_render_as_fresh_rendering_does(ops):
    """Filing, cloning, merging and building states in any order: every
    state's prompt renderings equal the ones that render each of its triples
    afresh, so the lines stay in step with ``found_triples`` and no state
    shares its line list with another."""
    states = [ExplorationState()]
    for op, *args in ops:
        if op == "file":
            index, found, depth = args
            states[index % len(states)].file(found, depth)
        elif op == "clone":
            states.append(states[args[0] % len(states)].clone())
        elif op == "merge":
            a, b = (states[i % len(states)] for i in args)
            states.append(ExplorationState.merge(a, b))
        else:
            states.append(
                ExplorationState(found_triples={k: _triple(k, v) for k, v in args[0]})
            )
        for state in states:
            assert state.rendered_triples() == reference_rendered_triples(state)
            thought = ThoughtState(1, 1, "t", Evidence(["t0", "t"], exploration=state), (0,))
            assert describe_chain(thought) == reference_describe_chain(thought)
            assert describe_candidate(thought) == reference_describe_candidate(thought)


class _Recording(ReplayBackend):
    """A replay backend that keeps every prompt it was sent."""

    def __init__(self, entries):
        super().__init__(entries)
        self.prompts = []

    def raw_complete(self, request):
        self.prompts.append(request.prompt)
        return super().raw_complete(request)


def test_a_named_tail_prune_files_exactly_the_named_tails():
    """A bracketed reply naming some tails, one name that is no tail among
    them: the walk files exactly the named tails, in the graph's order, and
    the stop check's prompt holds exactly their lines. A second state that
    reaches the entity through the memo files the same triples and lines."""
    graph = fan_graph(6)
    tails = graph.nodes["390792"].out_edges["Anatomy-expresses-Gene"]
    entries = [
        ReplayEntry(TEMPLATE_MATCHERS["prune_relations"], "{{Anatomy-expresses-Gene}}"),
        ReplayEntry(TEMPLATE_MATCHERS["prune_entities"], "{{tissue 4, not a tail, tissue 1}}"),
        ReplayEntry(TEMPLATE_MATCHERS["search_end"], "[No] more"),
    ]
    memo = ExploreMemo()
    named = edges(graph, "390792", "Anatomy-expresses-Gene", [tails[1], tails[4]])
    lines = [render_triple(t) for t in named]
    for repeat in (False, True):
        backend, counters = _Recording(entries), CostCounters()
        state = explore(krt39_question(), ["390792"], ExplorationState(), 1, graph, backend,
                        counters, memo=memo)
        assert list(state.found_triples.values()) == named
        assert state.triple_lines == lines
        assert set(state.seen_entities) == {"390792", tails[1], tails[4]}
        end_prompt = backend.prompts[-1]
        assert "\nKnowledge Triples: " + "\n".join(lines) + "\nEntity Attributes:" in end_prompt
        if repeat:
            assert len(backend.prompts) == 1
            assert counters.memo_hits_by_tag == {"prune_relations": 1, "prune_entities": 1}
        else:
            assert counters.llm_calls_by_tag == {
                "prune_relations": 1, "prune_entities": 1, "end_check": 1
            }
