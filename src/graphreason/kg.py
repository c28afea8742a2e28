"""In-memory directed knowledge graph with typed nodes and per-relation adjacency.

The graph is loaded once from a line-delimited node file (or generated
synthetically) and is immutable afterwards: there is no mutation API, and any
number of readers may share one instance. Four primitive lookups are exposed
for the reasoning drivers: node retrieval by text query, feature lookup,
neighbor listing, and degree counting.
"""

from __future__ import annotations

import gc
import json
import random
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable

from .textops import first_undecodable_line, tokenize

NAME_FEATURE = "name"

_NODE_FILE_FIELDS = frozenset({"id", "type", "features", "neighbors"})


class GraphError(Exception):
    """Base class for graph-store failures."""


class GraphLoadError(GraphError):
    """A node file could not be ingested; message carries the line number."""


class UnknownNodeError(GraphError):
    """A lookup referenced a node id that does not exist."""


class FeatureAbsentError(GraphError):
    """A node exists but does not carry the requested feature key.

    Distinct from an empty-string feature value: callers must be able to tell
    "no such attribute" apart from "attribute present but blank".
    """


class EmptyGraphError(GraphError):
    """Retrieval was attempted on a graph with no nodes."""


class NoMatchError(GraphError):
    """No node scored above zero for a retrieval query."""


@dataclass(frozen=True)
class NodeRecord:
    """One graph node: unique id, a type label, string features, out-edges.

    ``out_edges`` maps a relation name to the list of target node ids in load
    order; a relation never lists the same target twice.
    """

    id: str
    node_type: str
    features: dict[str, str]
    out_edges: dict[str, list[str]]


@dataclass(frozen=True)
class GraphStats:
    node_count: int
    edge_count: int
    relation_types: frozenset[str]


@dataclass(frozen=True)
class NameIndex:
    """Retrieval index over the ``name`` feature.

    ``exact`` maps a case-folded name to the first node id in load order that
    carries it; ``postings`` maps a token to the ascending load positions of
    the nodes whose name contains it; ``records`` lists the nodes in load
    order, so a position resolves to its node.
    """

    exact: dict[str, str]
    postings: dict[str, list[int]]
    records: tuple[NodeRecord, ...]


@dataclass(frozen=True)
class KnowledgeGraph:
    """All nodes keyed by id (in load order) plus derived summary stats.

    The retrieval index and the graph definition are derived on first use and
    kept, so graphs built directly get them too and loading does not pay for
    them.
    """

    nodes: dict[str, NodeRecord]
    stats: GraphStats

    @cached_property
    def name_index(self) -> NameIndex:
        """The index ``retrieve_node`` looks names up in."""
        exact: dict[str, str] = {}
        postings: dict[str, list[int]] = {}
        records = tuple(self.nodes.values())
        for position, node in enumerate(records):
            name = node.features.get(NAME_FEATURE)
            if name is None:
                continue
            folded = name.casefold()
            # Key on the name itself when folding leaves it unchanged, so the
            # common all-lowercase name costs no second string.
            exact.setdefault(name if folded == name else folded, node.id)
            for token in set(tokenize(name)):
                postings.setdefault(token, []).append(position)
        return NameIndex(exact=exact, postings=postings, records=records)

    @cached_property
    def definition(self) -> str:
        """Frozen one-line textual description of the graph for prompt headers."""
        node_types = sorted({node.node_type for node in self.nodes.values()})
        relations = sorted(self.stats.relation_types)
        return (
            f"A directed knowledge graph with {self.stats.node_count} nodes and "
            f"{self.stats.edge_count} edges. Node types: {', '.join(node_types) or 'none'}. "
            f"Relation types: {', '.join(relations) or 'none'}."
        )


@dataclass(frozen=True)
class Triple:
    """One directed fact: (head, relation, tail) with both ids and names."""

    head_name: str
    relation: str
    tail_name: str
    head_id: str
    tail_id: str


def render_triple(triple: Triple) -> str:
    """Frozen display form used in prompts and traces."""
    return f'"{triple.head_name}" --> {triple.relation} --> {triple.tail_name}'


def _raise_first_graph_error(records: list[NodeRecord]) -> None:
    """Raise the error a check of ``records`` in file order meets first.

    Duplicate ids are checked over the whole file before any edge; then each
    record's targets in stored order, a duplicate or a missing target,
    whichever comes first.
    """
    ids: set[str] = set()
    for record in records:
        if record.id in ids:
            raise GraphLoadError(f"duplicate node id: {record.id!r}")
        ids.add(record.id)
    for record in records:
        for relation, targets in record.out_edges.items():
            seen: set[str] = set()
            for target in targets:
                if target in seen:
                    raise GraphLoadError(
                        f"node {record.id!r} lists duplicate neighbor {target!r} "
                        f"under relation {relation!r}"
                    )
                seen.add(target)
                if target not in ids:
                    raise GraphLoadError(
                        f"node {record.id!r} references missing node {target!r} "
                        f"under relation {relation!r}"
                    )


def _build_graph(records: list[NodeRecord]) -> KnowledgeGraph:
    """Assemble and validate a graph from node records.

    The checks run over whole records; only a graph that fails one is walked
    again in file order, so the error reported is the first one there.

    Raises:
        GraphLoadError: on duplicate node ids, a duplicate neighbor under one
            relation, or dangling edge references.
    """
    nodes = {record.id: record for record in records}
    valid = len(nodes) == len(records)
    relation_types: set[str] = set()
    all_targets: list[str] = []
    for record in records:
        relation_types.update(record.out_edges)
        for targets in record.out_edges.values():
            all_targets.extend(targets)
            if len(targets) > 1 and len(set(targets)) != len(targets):
                valid = False
    if not valid or not nodes.keys() >= set(all_targets):
        _raise_first_graph_error(records)

    stats = GraphStats(
        node_count=len(nodes),
        edge_count=len(all_targets),
        relation_types=frozenset(relation_types),
    )
    return KnowledgeGraph(nodes=nodes, stats=stats)


# JSON's own whitespace; ``str.strip()`` with no argument strips more (a form
# feed, say), which the decoder rejects.
_JSON_WHITESPACE = " \t\n\r"
_decode_prefix = json.JSONDecoder().raw_decode


def _decode_line(line: str, line_number: int) -> object:
    text = line.strip(_JSON_WHITESPACE)
    try:
        value, end = _decode_prefix(text)
        if end == len(text):
            return value
    except json.JSONDecodeError:
        pass
    # Whatever the prefix decode rejects, ``json.loads`` rejects too, and its
    # message is the one reported.
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise GraphLoadError(f"line {line_number}: not valid JSON ({exc.msg})") from exc


def _all_strings(values: Iterable) -> bool:
    # A plain loop: ``all()`` over a generator costs about twice as much on
    # the handful of values a record holds.
    for value in values:
        if not isinstance(value, str):
            return False
    return True


def _parse_node_line(line: str, line_number: int) -> NodeRecord:
    raw = _decode_line(line, line_number)
    if not isinstance(raw, dict):
        raise GraphLoadError(f"line {line_number}: expected an object, got {type(raw).__name__}")

    if raw.keys() != _NODE_FILE_FIELDS:
        unknown = raw.keys() - _NODE_FILE_FIELDS
        if unknown:
            raise GraphLoadError(f"line {line_number}: unknown fields {sorted(unknown)}")
        missing = _NODE_FILE_FIELDS - raw.keys()
        raise GraphLoadError(f"line {line_number}: missing fields {sorted(missing)}")

    # JSON object keys are always strings, so only the values need checking,
    # and the decoded dicts and lists are fresh, so they are kept as they are.
    node_id = raw["id"]
    node_type = raw["type"]
    features = raw["features"]
    neighbors = raw["neighbors"]
    if not isinstance(node_id, str) or not node_id:
        raise GraphLoadError(f"line {line_number}: 'id' must be a non-empty string")
    if not isinstance(node_type, str):
        raise GraphLoadError(f"line {line_number}: 'type' must be a string")
    if not isinstance(features, dict) or not _all_strings(features.values()):
        raise GraphLoadError(f"line {line_number}: 'features' must map strings to strings")
    if not isinstance(neighbors, dict):
        raise GraphLoadError(f"line {line_number}: 'neighbors' must be an object")
    for targets in neighbors.values():
        if not isinstance(targets, list) or not _all_strings(targets):
            raise GraphLoadError(
                f"line {line_number}: 'neighbors' must map relation names to lists of node ids"
            )

    return NodeRecord(node_id, node_type, features, neighbors)


def load_graph(path: str | Path) -> KnowledgeGraph:
    """Load a graph from a UTF-8 line-delimited node file.

    Each non-blank line is one JSON object with exactly the fields ``id``,
    ``type``, ``features`` (string-to-string map) and ``neighbors`` (relation
    name to list of target node ids). Unknown fields are rejected. Every
    referenced target must itself be a node in the file.

    The file is read a line at a time. Parsing builds no reference cycles, so
    the cyclic garbage collector is paused while loading and then left as it
    was found.

    Raises:
        GraphLoadError: malformed or non-UTF-8 line (reported with its line number),
            duplicate node id, duplicate neighbor, or dangling reference.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        records: list[NodeRecord] = []
        try:
            with open(path, encoding="utf-8") as handle:
                for line_number, line in enumerate(handle, start=1):
                    if not line.strip():
                        continue
                    records.append(_parse_node_line(line, line_number))
        except UnicodeDecodeError as exc:
            line = first_undecodable_line(path)
            raise GraphLoadError(f"line {line}: not UTF-8 ({exc.reason})") from exc
        return _build_graph(records)
    finally:
        if collecting:
            gc.enable()


def save_graph(graph: KnowledgeGraph, path: str | Path) -> None:
    """Write a graph back out in the node-file format ``load_graph`` reads.

    Round-tripping through save/load preserves nodes, features, and adjacency
    order exactly.
    """
    with open(path, "w", encoding="utf-8") as handle:
        for record in graph.nodes.values():
            handle.write(
                json.dumps(
                    {
                        "id": record.id,
                        "type": record.node_type,
                        "features": record.features,
                        "neighbors": record.out_edges,
                    },
                    ensure_ascii=False,
                )
                + "\n"
            )


#: Score returned on an exact (case-folded) name match; it dominates every F1
#: value.
EXACT_MATCH_SCORE = 2.0


class LexicalOverlapRetriever:
    """Retrieval scoring: token-overlap F1 against the name feature.

    The query and the node's ``name`` feature are tokenized with the frozen
    tokenizer; the score is the F1 of the shared-token overlap. An exact
    case-folded name match returns ``EXACT_MATCH_SCORE`` instead, which
    dominates every F1 value.
    """

    def score(self, query: str, node: NodeRecord) -> float:
        name = node.features.get(NAME_FEATURE)
        if name is None:
            return 0.0
        if name.casefold() == query.casefold():
            return EXACT_MATCH_SCORE
        query_tokens = set(tokenize(query))
        name_tokens = set(tokenize(name))
        if not query_tokens or not name_tokens:
            return 0.0
        overlap = len(query_tokens & name_tokens)
        if overlap == 0:
            return 0.0
        precision = overlap / len(query_tokens)
        recall = overlap / len(name_tokens)
        return 2.0 * precision * recall / (precision + recall)


_LEXICAL = LexicalOverlapRetriever()


def retrieve_node(graph: KnowledgeGraph, query: str) -> str:
    """Return the id of the best node for ``query``.

    The first node in load order whose name equals the query case-folded
    wins outright. Otherwise only nodes sharing a token with the query can
    score above zero, so just those are scored, in load order; the highest
    token-overlap F1 wins and ties break toward the node loaded earlier.

    Raises:
        EmptyGraphError: the graph has no nodes.
        NoMatchError: no node scored above zero.
    """
    if not graph.nodes:
        raise EmptyGraphError("cannot retrieve from an empty graph")
    index = graph.name_index
    exact = index.exact.get(query.casefold())
    if exact is not None:
        return exact

    candidates: set[int] = set()
    for token in set(tokenize(query)):
        candidates.update(index.postings.get(token, ()))
    best_id: str | None = None
    best_score = 0.0
    for position in sorted(candidates):
        node = index.records[position]
        score = _LEXICAL.score(query, node)
        if score > best_score:
            best_id = node.id
            best_score = score
    if best_id is None:
        raise NoMatchError(f"no node matches query {query!r}")
    return best_id


def _require_node(graph: KnowledgeGraph, node_id: str) -> NodeRecord:
    node = graph.nodes.get(node_id)
    if node is None:
        raise UnknownNodeError(f"no such node: {node_id!r}")
    return node


def node_feature(graph: KnowledgeGraph, node_id: str, key: str) -> str:
    """Return the node's feature value verbatim.

    Raises:
        UnknownNodeError: the id does not exist.
        FeatureAbsentError: the node has no feature under ``key`` (an empty
            string value is NOT absent and is returned as-is).
    """
    node = _require_node(graph, node_id)
    if key not in node.features:
        raise FeatureAbsentError(f"node {node_id!r} has no feature {key!r}")
    return node.features[key]


def neighbor_check(graph: KnowledgeGraph, node_id: str, relation: str) -> list[str]:
    """Return the node's out-neighbors under ``relation`` in stored order.

    A node with no edges of that relation yields an empty list.
    """
    node = _require_node(graph, node_id)
    return list(node.out_edges.get(relation, ()))


def node_degree(graph: KnowledgeGraph, node_id: str, relation: str) -> int:
    """Return the number of out-neighbors under ``relation`` (0 when absent)."""
    node = _require_node(graph, node_id)
    return len(node.out_edges.get(relation, ()))


def node_name(graph: KnowledgeGraph, node_id: str) -> str:
    """The node's display name: its name feature, falling back to the id."""
    node = _require_node(graph, node_id)
    return node.features.get(NAME_FEATURE, node_id)


def graph_definition(graph: KnowledgeGraph) -> str:
    """Frozen one-line textual description of the graph for prompt headers."""
    return graph.definition


@dataclass(frozen=True)
class SyntheticGraphSpec:
    """Shape of a generated desk-scale graph.

    ``edges_per_node`` out-edges are drawn per node (relation and target both
    seeded-random), never duplicating a (relation, target) pair on one node.
    """

    node_types: tuple[str, ...] = ("alpha", "beta")
    relations: tuple[str, ...] = ("linked-to", "derived-from")
    node_count: int = 10
    edges_per_node: int = 2

    def __post_init__(self) -> None:
        if self.node_count <= 0:
            raise ValueError("node_count must be positive")
        if self.edges_per_node < 0:
            raise ValueError("edges_per_node must be non-negative")
        if not self.node_types:
            raise ValueError("at least one node type is required")
        if self.edges_per_node > 0 and not self.relations:
            raise ValueError("edges need at least one relation type")
        if self.edges_per_node > self.node_count * max(len(self.relations), 1):
            raise ValueError("edges_per_node exceeds the distinct (relation, target) pairs")


def generate_synthetic_graph(
    seed: int, spec: SyntheticGraphSpec | None = None
) -> KnowledgeGraph:
    """Deterministically generate a small graph for tests and demos.

    The same seed and spec always produce an identical graph, including
    adjacency order, so saved copies are byte-identical.
    """
    if spec is None:
        spec = SyntheticGraphSpec()
    rng = random.Random(seed)
    ids = [f"n{i:04d}" for i in range(spec.node_count)]
    records: list[NodeRecord] = []
    for index, node_id in enumerate(ids):
        node_type = spec.node_types[index % len(spec.node_types)]
        features = {
            NAME_FEATURE: f"{node_type} {index}",
            "blurb": f"synthetic {node_type} entry number {index}",
        }
        out_edges: dict[str, list[str]] = {}
        chosen: set[tuple[str, str]] = set()
        while len(chosen) < spec.edges_per_node:
            relation = spec.relations[rng.randrange(len(spec.relations))]
            target = ids[rng.randrange(len(ids))]
            if (relation, target) in chosen:
                continue
            chosen.add((relation, target))
            out_edges.setdefault(relation, []).append(target)
        records.append(
            NodeRecord(id=node_id, node_type=node_type, features=features, out_edges=out_edges)
        )
    return _build_graph(records)

