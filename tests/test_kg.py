"""Graph store: loading, lookups, retrieval, synthetic generation."""

import gc
import json
import re
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphreason.kg import (
    EmptyGraphError,
    FeatureAbsentError,
    GraphLoadError,
    GraphStats,
    KnowledgeGraph,
    NodeRecord,
    NoMatchError,
    SyntheticGraphSpec,
    Triple,
    UnknownNodeError,
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
from graphreason.textops import tokenize

from helpers import krt39_graph, reference_name_index


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


def test_save_round_trip(tmp_path):
    graph = generate_synthetic_graph(7)
    path = tmp_path / "out.lines"
    save_graph(graph, path)
    again = load_graph(path)
    assert again == graph
    save_graph(again, tmp_path / "twice.lines")
    assert (tmp_path / "twice.lines").read_bytes() == path.read_bytes()


# ------------------------------------------------ exact load errors, in order

GOOD = json.dumps(GOOD_ROWS[1])


def node_row(node_id, **neighbors):
    return {"id": node_id, "type": "", "features": {}, "neighbors": neighbors}


def row_with(**fields):
    row = {"id": "c", "type": "", "features": {}, "neighbors": {}}
    row.update(fields)
    return json.dumps(row)


NOT_JSON = "line 2: not valid JSON ({})"
BAD_FEATURES = "line 2: 'features' must map strings to strings"
BAD_NEIGHBORS = "line 2: 'neighbors' must map relation names to lists of node ids"


@pytest.mark.parametrize(
    "line, message",
    [
        ("not json at all", NOT_JSON.format("Expecting value")),
        ("\ufeff" + GOOD, NOT_JSON.format("Unexpected UTF-8 BOM (decode using utf-8-sig)")),
        (GOOD + " x", NOT_JSON.format("Extra data")),
        (GOOD + "\t" + GOOD, NOT_JSON.format("Extra data")),
        ("\f" + GOOD, NOT_JSON.format("Expecting value")),
        (GOOD + "\f", NOT_JSON.format("Extra data")),
        ('{"id": "c",', NOT_JSON.format("Expecting property name enclosed in double quotes")),
        ("[1, 2]", "line 2: expected an object, got list"),
        ('"c"', "line 2: expected an object, got str"),
        ("null", "line 2: expected an object, got NoneType"),
        (row_with(extra=1, zeta=2), "line 2: unknown fields ['extra', 'zeta']"),
        (
            json.dumps({"id": "c", "type": "", "features": {}, "extra": 1}),
            "line 2: unknown fields ['extra']",
        ),
        (json.dumps({"id": "c"}), "line 2: missing fields ['features', 'neighbors', 'type']"),
        (row_with(id=""), "line 2: 'id' must be a non-empty string"),
        (row_with(id=3, type=3), "line 2: 'id' must be a non-empty string"),
        (row_with(id=None), "line 2: 'id' must be a non-empty string"),
        (row_with(type=3, features=[]), "line 2: 'type' must be a string"),
        (row_with(features=[], neighbors=[]), BAD_FEATURES),
        (row_with(features={"k": 3}), BAD_FEATURES),
        (row_with(features={"k": None}), BAD_FEATURES),
        (row_with(features={"k": "v", "j": ["v"]}), BAD_FEATURES),
        ('{"id": "c", "type": "", "features": {"k": NaN}, "neighbors": {}}', BAD_FEATURES),
        (row_with(neighbors=[]), "line 2: 'neighbors' must be an object"),
        (row_with(neighbors={"r": "b"}), BAD_NEIGHBORS),
        (row_with(neighbors={"r": [1]}), BAD_NEIGHBORS),
        (row_with(neighbors={"r": ["b"], "s": ["b", None]}), BAD_NEIGHBORS),
    ],
)
def test_load_reports_a_bad_line_exactly(tmp_path, line, message):
    path = tmp_path / "g.lines"
    path.write_text(GOOD + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(GraphLoadError) as caught:
        load_graph(path)
    assert str(caught.value) == message


def test_a_bom_at_the_start_of_the_file_is_not_json(tmp_path):
    path = tmp_path / "g.lines"
    path.write_bytes(b"\xef\xbb\xbf" + GOOD.encode("utf-8") + b"\n")
    with pytest.raises(GraphLoadError) as caught:
        load_graph(path)
    assert str(caught.value) == "line 1: not valid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))"


@pytest.mark.parametrize(
    "data, message",
    [
        (
            "\n".join(json.dumps(row) for row in GOOD_ROWS).encode("utf-8")
            + b'\n{"id": "c", "type": "", "features": {"name": "\xff"}, "neighbors": {}}\n',
            "line 3: not UTF-8 (invalid start byte)",
        ),
        (b"\xff\xfe" + GOOD.encode("utf-16-le"), "line 1: not UTF-8 (invalid start byte)"),
        (GOOD.encode("utf-8") + b"\n\n" + b'"\xe2\x82', "line 3: not UTF-8 (unexpected end of data)"),
    ],
    ids=["bad-byte-on-line-3", "utf-16-bom", "truncated-at-end"],
)
def test_a_line_that_is_not_utf8_is_reported_by_number(tmp_path, data, message):
    path = tmp_path / "g.lines"
    path.write_bytes(data)
    with pytest.raises(GraphLoadError) as caught:
        load_graph(path)
    assert str(caught.value) == message


def test_whitespace_only_lines_are_skipped_but_counted(tmp_path):
    """Any whitespace counts as blank, not just JSON's: a form feed, a
    vertical tab or a no-break space alone on a line is skipped."""
    path = tmp_path / "g.lines"
    blanks = ["", "  \t", "\f", "\v", "\u00a0"]
    path.write_text("\n".join([GOOD, *blanks, "not json"]) + "\n", encoding="utf-8")
    with pytest.raises(GraphLoadError) as caught:
        load_graph(path)
    assert str(caught.value) == f"line {len(blanks) + 2}: not valid JSON (Expecting value)"
    path.write_text("\n".join([*blanks, GOOD, *blanks]) + "\n", encoding="utf-8")
    assert load_graph(path).stats.node_count == 1


@pytest.mark.parametrize(
    "rows, message",
    [
        # A line that does not parse wins over anything about the graph.
        (
            [node_row("a", r=["ghost"]), node_row("b"), node_row("b"), "not json"],
            "line 4: not valid JSON (Expecting value)",
        ),
        # Any duplicate id wins over any edge, and the first repeat is named.
        (
            [node_row("a", r=["ghost"]), node_row("b"), node_row("b"), node_row("a")],
            "duplicate node id: 'b'",
        ),
        # Edges are checked record by record in file order.
        (
            [node_row("a", r=["ghost"]), node_row("b", r=["a", "a"])],
            "node 'a' references missing node 'ghost' under relation 'r'",
        ),
        (
            [node_row("a", r=["b", "b"]), node_row("b", r=["ghost"])],
            "node 'a' lists duplicate neighbor 'b' under relation 'r'",
        ),
        # Within a record, relations and targets in stored order.
        (
            [node_row("a", r=["b", "ghost"], s=["b", "b"]), node_row("b")],
            "node 'a' references missing node 'ghost' under relation 'r'",
        ),
        (
            [node_row("a", s=["b", "b"], r=["ghost"]), node_row("b")],
            "node 'a' lists duplicate neighbor 'b' under relation 's'",
        ),
        (
            [node_row("a", r=["b", "b", "ghost"]), node_row("b")],
            "node 'a' lists duplicate neighbor 'b' under relation 'r'",
        ),
        (
            [node_row("a", r=["ghost", "b", "b"]), node_row("b")],
            "node 'a' references missing node 'ghost' under relation 'r'",
        ),
    ],
)
def test_the_first_defect_of_a_file_is_the_one_reported(tmp_path, rows, message):
    path = tmp_path / "g.lines"
    lines = [row if isinstance(row, str) else json.dumps(row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(GraphLoadError) as caught:
        load_graph(path)
    assert str(caught.value) == message


def test_one_target_under_two_relations_is_not_a_duplicate(tmp_path):
    rows = [node_row("a", r=["b"], s=["b", "a"]), node_row("b")]
    graph = load_graph(write_nodes(tmp_path / "g.lines", rows))
    assert graph.stats.edge_count == 3
    assert graph.stats.relation_types == {"r", "s"}


def reference_graph_error(rows):
    """The graph checks written as one walk over the file, in order."""
    ids = set()
    for row in rows:
        if row["id"] in ids:
            return f"duplicate node id: {row['id']!r}"
        ids.add(row["id"])
    for row in rows:
        for relation, targets in row["neighbors"].items():
            seen = set()
            for target in targets:
                if target in seen:
                    return (
                        f"node {row['id']!r} lists duplicate neighbor {target!r} "
                        f"under relation {relation!r}"
                    )
                seen.add(target)
                if target not in ids:
                    return (
                        f"node {row['id']!r} references missing node {target!r} "
                        f"under relation {relation!r}"
                    )
    return None


NODE_IDS = st.sampled_from(["a", "b", "c", "d"])
GRAPH_ROWS = st.lists(
    st.builds(
        node_row,
        NODE_IDS,
        **{relation: st.lists(NODE_IDS, max_size=3) for relation in ("r", "s")},
    ),
    max_size=5,
)


@settings(max_examples=200, deadline=None)
@given(rows=GRAPH_ROWS)
def test_graph_checks_match_one_ordered_walk(tmp_path_factory, rows):
    """Duplicate ids, duplicate neighbors and dangling targets, alone or
    together: the error is the one an ordered walk meets first, and a graph
    with none loads with every edge."""
    path = write_nodes(tmp_path_factory.mktemp("walk") / "g.lines", rows)
    expected = reference_graph_error(rows)
    if expected is None:
        graph = load_graph(path)
        assert graph.stats.edge_count == sum(
            len(targets) for row in rows for targets in row["neighbors"].values()
        )
        assert {node.id: node.out_edges for node in graph.nodes.values()} == {
            row["id"]: row["neighbors"] for row in rows
        }
    else:
        with pytest.raises(GraphLoadError) as caught:
            load_graph(path)
        assert str(caught.value) == expected


# ------------------------------------------------------ the cyclic collector


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("valid", [True, False])
def test_loading_leaves_the_collector_as_it_found_it(tmp_path, collector_state, enabled, valid):
    rows = GOOD_ROWS if valid else GOOD_ROWS[:1]  # "a" -> "b" dangles without "b"
    path = write_nodes(tmp_path / "g.lines", rows)
    if enabled:
        gc.enable()
    else:
        gc.disable()
    if valid:
        load_graph(path)
    else:
        with pytest.raises(GraphLoadError):
            load_graph(path)
    assert gc.isenabled() is enabled


def test_loading_runs_no_collection(tmp_path, collector_state):
    """A graph allocates far more objects than a young-generation threshold,
    and none of them can be cyclic garbage, so loading collects nothing."""
    path = tmp_path / "g.lines"
    save_graph(generate_synthetic_graph(3, SyntheticGraphSpec(node_count=2000)), path)
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.enable()
    gc.callbacks.append(count)
    try:
        graph = load_graph(path)
    finally:
        gc.callbacks.remove(count)
    assert graph.stats.node_count == 2000
    assert collections == []


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


# Repeated tokens within a name, names with no [0-9a-z] token, case
# variants, and names whose case-fold is not their lower-case: "ß" folds to
# "ss", "İ" lower-cases to "i" plus a combining dot, and the Kelvin sign
# folds and lower-cases to "k".
INDEX_WORDS = ["a", "A", "b", "7", "ß", "SS", "ss", "İ", "i", "\u212a", "k", "K", "--", ""]
index_names_st = st.lists(st.sampled_from(INDEX_WORDS), max_size=4).map(" ".join)


@settings(max_examples=300, deadline=None)
@given(names=st.lists(st.none() | index_names_st | st.text(max_size=6), max_size=12))
@example(names=["a a b", "b", "a"])
@example(names=[None, "", "--", None])
@example(names=["ß", "SS", "ss", "İ", "i\u0307", "\u212a", "k", "K"])
@example(names=["A b", "a B", "a b", "A B"])
def test_name_index_equals_a_set_per_name_build(names):
    graph = graph_of(names)
    index = graph.name_index
    expected = reference_name_index(graph)
    assert list(index.exact.items()) == list(expected.exact.items())
    assert index.postings == expected.postings
    assert index.token_counts == expected.token_counts
    assert index.records == expected.records


def test_a_repeated_token_counts_once_and_is_posted_once():
    index = graph_of(["a a b", None, "b b b", ""]).name_index
    assert index.token_counts == [2, 0, 1, 0]
    assert index.postings == {"a": [0], "b": [0, 2]}
    assert index.exact == {"a a b": "n0", "b b b": "n2", "": "n3"}


def test_retrieve_ties_follow_the_float_f1():
    """Each pair ties exactly as rationals, and the float F1 puts the later
    node ahead, so exact arithmetic or the simplified 2o/(|q|+|n|) would
    pick the earlier one."""
    # 0.6666666666666665 for n0, 0.6666666666666666 for n1.
    assert retrieve_node(graph_of(["a b c x y", "a b c d p q r s"]), "a b c d") == "n1"
    assert retrieve_node(graph_of(["a v p q r s t", "a"]), "a v w x y") == "n1"


# Up to 8 words from 9, so names and queries of 1 to 8 distinct tokens meet,
# which the ties above need and names_st cannot reach.
LONG_WORDS = ["a", "b", "c", "d", "p", "q", "r", "s", "V"]
long_names_st = st.lists(st.sampled_from(LONG_WORDS), min_size=1, max_size=8).map(" ".join)


@settings(max_examples=300, deadline=None)
@given(
    names=st.lists(st.none() | long_names_st, min_size=1, max_size=10),
    queries=st.lists(long_names_st, min_size=1, max_size=6),
)
@example(names=["a b c x y", "a b c d p q r s"], queries=["a b c d"])
@example(names=["a v p q r s t", "a"], queries=["a v w x y"])
def test_retrieve_over_longer_names_matches_a_full_scan(names, queries):
    graph = graph_of(names)
    for query in queries:
        expected = scan_oracle(names, query)
        if expected is None:
            with pytest.raises(NoMatchError):
                retrieve_node(graph, query)
        else:
            assert retrieve_node(graph, query) == f"n{expected}"


def test_a_lookup_tokenizes_only_its_query(monkeypatch):
    graph = graph_of([f"alpha {word} {i}" for i in range(50) for word in ("beta", "gamma")])
    graph.name_index  # built before counting
    calls = []

    def counting_tokenize(text):
        calls.append(text)
        return tokenize(text)

    monkeypatch.setattr("graphreason.kg.tokenize", counting_tokenize)
    assert retrieve_node(graph, "alpha gamma zz") == "n1"
    assert calls == ["alpha gamma zz"]


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
    graph = graph_of(["cell skin", "red skin cell", "Skin Cell", "blood"])
    # An exact match wins over an earlier name with the same tokens.
    assert retrieve_node(graph, "skin cell") == "n2"
    # A partial overlap picks the best F1: 0.8 for "red skin cell", 0.5 for
    # the others sharing "skin".
    assert retrieve_node(graph, "red skin") == "n1"
    with pytest.raises(NoMatchError):
        retrieve_node(graph, "unrelated words")


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
