"""Graph store: loading, lookups, retrieval, synthetic generation."""

import json
import re
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphreason.kg import (
    EXACT_MATCH_SCORE,
    EmptyGraphError,
    FeatureAbsentError,
    GraphLoadError,
    GraphStats,
    KnowledgeGraph,
    LexicalOverlapRetriever,
    NodeRecord,
    NoMatchError,
    SyntheticGraphSpec,
    Triple,
    UnknownNodeError,
    all_triples,
    generate_synthetic_graph,
    graph_definition,
    load_graph,
    neighbor_check,
    node_degree,
    node_feature,
    node_name,
    render_triple,
    retrieve_node,
    save_graph,
)

from helpers import krt39_graph


def write_nodes(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    return path


GOOD_ROWS = [
    {"id": "a", "type": "gene", "features": {"name": "alpha"}, "neighbors": {"rel": ["b"]}},
    {"id": "b", "type": "gene", "features": {"name": "beta"}, "neighbors": {}},
]


def test_load_and_lookups(tmp_path):
    graph = load_graph(write_nodes(tmp_path / "g.lines", GOOD_ROWS))
    assert graph.stats.node_count == 2
    assert graph.stats.edge_count == 1
    assert graph.stats.relation_types == {"rel"}
    assert node_feature(graph, "a", "name") == "alpha"
    assert neighbor_check(graph, "a", "rel") == ["b"]
    assert neighbor_check(graph, "a", "missing-rel") == []
    assert node_degree(graph, "a", "rel") == 1
    assert node_degree(graph, "b", "rel") == 0
    assert node_name(graph, "a") == "alpha"


def test_load_skips_blank_lines(tmp_path):
    path = tmp_path / "g.lines"
    path.write_text(json.dumps(GOOD_ROWS[1]) + "\n\n\n", encoding="utf-8")
    assert load_graph(path).stats.node_count == 1


@pytest.mark.parametrize(
    "row, fragment",
    [
        ("not json at all", "line 2"),
        (json.dumps({"id": "c", "type": "", "features": {}}), "missing fields"),
        (
            json.dumps(
                {"id": "c", "type": "", "features": {}, "neighbors": {}, "extra": 1}
            ),
            "unknown fields",
        ),
        (json.dumps({"id": "", "type": "", "features": {}, "neighbors": {}}), "non-empty"),
        (
            json.dumps({"id": "c", "type": "", "features": {"k": 3}, "neighbors": {}}),
            "strings",
        ),
        (
            json.dumps({"id": "c", "type": "", "features": {}, "neighbors": {"r": "b"}}),
            "lists of node ids",
        ),
    ],
)
def test_load_rejects_bad_lines(tmp_path, row, fragment):
    path = tmp_path / "g.lines"
    path.write_text(json.dumps(GOOD_ROWS[1]) + "\n" + row + "\n", encoding="utf-8")
    with pytest.raises(GraphLoadError, match=fragment):
        load_graph(path)


def test_load_rejects_duplicate_id(tmp_path):
    rows = [GOOD_ROWS[1], GOOD_ROWS[1]]
    with pytest.raises(GraphLoadError, match="duplicate node id"):
        load_graph(write_nodes(tmp_path / "g.lines", rows))


def test_load_rejects_dangling_edge(tmp_path):
    rows = [
        {"id": "a", "type": "", "features": {}, "neighbors": {"rel": ["ghost"]}},
    ]
    with pytest.raises(GraphLoadError, match="missing node 'ghost'"):
        load_graph(write_nodes(tmp_path / "g.lines", rows))


def test_load_rejects_duplicate_neighbor(tmp_path):
    rows = [
        {"id": "a", "type": "", "features": {}, "neighbors": {"rel": ["a", "a"]}},
    ]
    with pytest.raises(GraphLoadError, match="duplicate neighbor"):
        load_graph(write_nodes(tmp_path / "g.lines", rows))


def test_inverse_materialization(tmp_path):
    graph = load_graph(
        write_nodes(tmp_path / "g.lines", GOOD_ROWS), materialize_inverse=True
    )
    assert neighbor_check(graph, "b", "inverse:rel") == ["a"]
    assert neighbor_check(graph, "a", "rel") == ["b"]
    assert graph.stats.edge_count == 2


def test_save_round_trip(tmp_path):
    graph = generate_synthetic_graph(7)
    path = tmp_path / "out.lines"
    save_graph(graph, path)
    again = load_graph(path)
    assert again == graph
    save_graph(again, tmp_path / "twice.lines")
    assert (tmp_path / "twice.lines").read_bytes() == path.read_bytes()


def test_retrieve_exact_match_beats_overlap():
    graph = krt39_graph()
    assert retrieve_node(graph, "KRT39") == "390792"
    assert retrieve_node(graph, "krt39") == "390792"  # case-folded
    assert retrieve_node(graph, "skin of body") == "UBERON:0002097"


def test_retrieve_partial_overlap_and_ties():
    graph = krt39_graph()
    # "skin" overlaps only one name; "of body skin" ties nothing else.
    assert retrieve_node(graph, "skin") == "UBERON:0002097"
    with pytest.raises(NoMatchError):
        retrieve_node(graph, "zzz qqq")


def test_retrieve_empty_graph():
    empty = KnowledgeGraph(
        nodes={}, stats=GraphStats(node_count=0, edge_count=0, relation_types=frozenset())
    )
    with pytest.raises(EmptyGraphError):
        retrieve_node(empty, "anything")


def scan_oracle(names: list[str | None], query: str) -> int | None:
    """Retrieval written from its contract, scanning every node: the first
    exact case-folded name in load order, else the best token-overlap F1 with
    the earlier node winning ties, else nothing."""
    for position, name in enumerate(names):
        if name is not None and name.casefold() == query.casefold():
            return position
    wanted = set(re.findall(r"[0-9a-z]+", query.lower()))
    best, best_f1 = None, 0.0
    for position, name in enumerate(names):
        have = set(re.findall(r"[0-9a-z]+", name.lower())) if name is not None else set()
        overlap = len(wanted & have)
        if overlap:
            precision, recall = overlap / len(wanted), overlap / len(have)
            f1 = 2.0 * precision * recall / (precision + recall)
            if f1 > best_f1:
                best, best_f1 = position, f1
    return best


def graph_of(names: list[str | None]) -> KnowledgeGraph:
    records = [
        NodeRecord(
            id=f"n{i}",
            node_type="t",
            features={} if name is None else {"name": name},
            out_edges={},
        )
        for i, name in enumerate(names)
    ]
    return KnowledgeGraph(
        nodes={r.id: r for r in records},
        stats=GraphStats(node_count=len(records), edge_count=0, relation_types=frozenset()),
    )


# Duplicates, case-only and casefold-only variants ("Straße" folds to
# "strasse" but tokenizes to "stra", "e"), words without [0-9a-z] tokens, and
# shared words so that F1 ties are common.
NAME_WORDS = ["alpha", "Alpha", "beta", "7", "Straße", "STRASSE", "ß", "--", "é", ""]
names_st = st.lists(st.sampled_from(NAME_WORDS), max_size=3).map(" ".join)


@settings(max_examples=300, deadline=None)
@given(
    names=st.lists(st.none() | names_st, max_size=10),
    queries=st.lists(names_st | st.text(max_size=8), min_size=1, max_size=6),
)
@example(names=["alpha beta", "beta alpha", "alpha"], queries=["beta", "ALPHA", "alpha 7"])
@example(names=[None, "Straße", "strasse"], queries=["STRASSE", "stra", "ß"])
@example(names=["ß", "--", None, "é 7"], queries=["ß", "--", "7", "x"])
@example(names=["beta", "Beta", "alpha 7", "7 alpha"], queries=["BETA", "7", "alpha"])
@example(names=[], queries=["alpha"])
def test_retrieve_matches_a_full_scan(names, queries):
    graph = graph_of(names)
    for query in queries:
        if not names:
            with pytest.raises(EmptyGraphError):
                retrieve_node(graph, query)
            continue
        expected = scan_oracle(names, query)
        if expected is None:
            with pytest.raises(NoMatchError):
                retrieve_node(graph, query)
        else:
            assert retrieve_node(graph, query) == f"n{expected}"


def test_index_and_definition_are_built_once():
    graph = krt39_graph()
    assert graph.name_index is graph.name_index
    assert graph_definition(graph) is graph_definition(graph)
    assert retrieve_node(graph, "body") == "UBERON:0002097"
    assert graph == krt39_graph()  # cached values are not part of equality


def test_concurrent_first_retrievals_agree():
    """Threads racing to build the lazy index all see the serial answers."""
    names = [f"{word} {i}" for i in range(400) for word in ("alpha", "beta")]
    queries = ["beta 7", "alpha zeta", "399 gamma", "zzz"]
    expected = [scan_oracle(names, q) for q in queries]
    expected = [None if e is None else f"n{e}" for e in expected]

    def lookup(graph, query):
        try:
            return retrieve_node(graph, query)
        except NoMatchError:
            return None

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            graph = graph_of(names)
            barrier = threading.Barrier(8)
            results = [None] * 8

            def worker(slot):
                barrier.wait(timeout=10)
                results[slot] = [lookup(graph, q) for q in queries]

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            assert results == [expected] * 8
    finally:
        sys.setswitchinterval(interval)


def test_retriever_scores():
    retriever = LexicalOverlapRetriever()
    node = krt39_graph().nodes["UBERON:0002097"]
    assert retriever.score("skin of body", node) == EXACT_MATCH_SCORE
    partial = retriever.score("skin", node)
    assert 0.0 < partial < 1.0
    assert retriever.score("unrelated words", node) == 0.0


def test_feature_errors_distinguish_absent_from_empty():
    graph = krt39_graph()
    with pytest.raises(UnknownNodeError):
        node_feature(graph, "nope", "name")
    with pytest.raises(FeatureAbsentError):
        node_feature(graph, "390792", "blurb")


def test_empty_feature_value_is_returned(tmp_path):
    rows = [{"id": "a", "type": "", "features": {"name": ""}, "neighbors": {}}]
    graph = load_graph(write_nodes(tmp_path / "g.lines", rows))
    assert node_feature(graph, "a", "name") == ""


def test_node_records_are_immutable():
    graph = krt39_graph()
    with pytest.raises(AttributeError):
        graph.nodes["390792"].node_type = "other"


def test_render_triple_quotes_head_only():
    triple = Triple(
        head_name="KRT39",
        relation="Anatomy-expresses-Gene",
        tail_name="head",
        head_id="390792",
        tail_id="UBERON:0000033",
    )
    assert render_triple(triple) == '"KRT39" --> Anatomy-expresses-Gene --> head'


def test_all_triples_enumerates_every_edge():
    graph = krt39_graph()
    triples = list(all_triples(graph))
    assert len(triples) == graph.stats.edge_count
    assert {t.tail_name for t in triples} == {"head", "skin of body"}


def test_graph_definition_mentions_counts():
    text = graph_definition(krt39_graph())
    assert "3 nodes" in text
    assert "2 edges" in text
    assert "anatomy, gene" in text


def test_synthetic_graph_is_seed_deterministic():
    a = generate_synthetic_graph(11)
    b = generate_synthetic_graph(11)
    assert a == b
    assert generate_synthetic_graph(12) != a


def test_synthetic_graph_respects_spec():
    spec = SyntheticGraphSpec(
        node_types=("only",), relations=("r1", "r2"), node_count=6, edges_per_node=3
    )
    graph = generate_synthetic_graph(3, spec)
    assert graph.stats.node_count == 6
    assert graph.stats.edge_count == 18
    assert all(record.node_type == "only" for record in graph.nodes.values())


@pytest.mark.parametrize(
    "kwargs",
    [
        {"node_count": 0},
        {"edges_per_node": -1},
        {"node_types": ()},
        {"relations": (), "edges_per_node": 1},
    ],
)
def test_synthetic_spec_rejects_bad_shapes(kwargs):
    with pytest.raises(ValueError):
        SyntheticGraphSpec(**kwargs)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), nodes=st.integers(2, 25))
def test_synthetic_round_trip_property(tmp_path_factory, seed, nodes):
    """Any generated graph survives save/load unchanged, and every node is
    retrievable by its own exact name."""
    spec = SyntheticGraphSpec(node_count=nodes, edges_per_node=1)
    graph = generate_synthetic_graph(seed, spec)
    path = tmp_path_factory.mktemp("rt") / "g.lines"
    save_graph(graph, path)
    assert load_graph(path) == graph
    some = list(graph.nodes.values())[seed % nodes]
    assert retrieve_node(graph, some.features["name"]) == some.id
