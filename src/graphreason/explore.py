"""Automatic breadth-first graph exploration steered by model pruning.

Starting from anchor nodes, each round expands every not-yet-visited
entity: the model selects which relations to follow and which tail
entities to keep, the kept edges are harvested as triples, and newly seen
tails join the queue one hop deeper. After each round a stop check asks
whether the collected evidence already answers the question. The state
keys each triple by ``(head_id, relation, tail_id)`` and each attribute
hit by ``(entity_id, key)``, so an entry found twice is stored once.

The relation prune, the tail prune and the attribute selection see only
the question, one entity and what the graph holds about it, never a
thought or a state, and decode greedily; the graph never changes. Expanding
an entity therefore finds the same attributes and edges in every state of
one search, so an :class:`ExploreMemo` keyed on entity ids walks each
entity once per search and every later expansion only files what that walk
kept. A state that reaches an entity while another is walking it waits for
the whole walk. The tail prune returns its kept edges as triples, so a
search builds each one once.

Every model-driven selection has a deterministic fallback (a first-N
prefix, or "keep nothing") so a run never dies on a malformed reply; with
permissive replies and the caps effectively disabled, exploration reduces
to the plain d-hop closure of the anchors.
"""

from __future__ import annotations

import logging
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field

from . import kg
from .costs import CostCounters
from .evaluation import Question
from .llm import (
    Backend, complete_with_reask, parse_bracketed_answer, parse_bracketed_list, request_for
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SeenEntity:
    visited: bool
    depth_discovered: int


@dataclass(frozen=True)
class AttributeHit:
    entity_id: str
    entity_name: str
    key: str
    value: str


def render_attribute(hit: AttributeHit) -> str:
    """Display form used in prompts and judge evidence."""
    return f"{hit.entity_name}.{hit.key}: {hit.value}"


@dataclass(frozen=True)
class ExploreConfig:
    search_depth: int = 3
    max_relations_per_entity: int = 3
    max_neighbors_per_relation: int = 5
    select_attributes: bool = False

    def __post_init__(self) -> None:
        for name in ("search_depth", "max_relations_per_entity", "max_neighbors_per_relation"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass
class ExplorationState:
    """Everything a search has seen: entities, harvested triples, attributes.

    Triples are keyed by ``(head_id, relation, tail_id)`` and attribute hits
    by ``(entity_id, key)``, so each is stored once, in discovery order. The
    entries are frozen values, so a clone copies only the containers and
    shares the entries with the state it came from.
    """

    seen_entities: dict[str, SeenEntity] = field(default_factory=dict)
    found_triples: dict[tuple[str, str, str], kg.Triple] = field(default_factory=dict)
    relevant_attributes: dict[tuple[str, str], AttributeHit] = field(default_factory=dict)
    sufficient: bool = False

    def add_anchors(self, node_ids: list[str]) -> None:
        for node_id in node_ids:
            if node_id not in self.seen_entities:
                self.seen_entities[node_id] = SeenEntity(visited=False, depth_discovered=0)

    def clone(self) -> "ExplorationState":
        return ExplorationState(
            seen_entities=dict(self.seen_entities),
            found_triples=dict(self.found_triples),
            relevant_attributes=dict(self.relevant_attributes),
            sufficient=self.sufficient,
        )

    @classmethod
    def merge(cls, a: "ExplorationState", b: "ExplorationState") -> "ExplorationState":
        """Union of two states: a's entries first and kept on a shared key."""
        merged = a.clone()
        for eid, meta in b.seen_entities.items():
            mine = merged.seen_entities.get(eid)
            if mine is not None and mine is not meta:
                meta = SeenEntity(
                    mine.visited or meta.visited,
                    min(mine.depth_discovered, meta.depth_discovered),
                )
            merged.seen_entities[eid] = meta
        for key, triple in b.found_triples.items():
            merged.found_triples.setdefault(key, triple)
        for key, hit in b.relevant_attributes.items():
            merged.relevant_attributes.setdefault(key, hit)
        merged.sufficient = a.sufficient or b.sufficient
        return merged

    def rendered_triples(self) -> str:
        return "\n".join(kg.render_triple(t) for t in self.found_triples.values())

    def rendered_attributes(self) -> str:
        return "\n".join(render_attribute(hit) for hit in self.relevant_attributes.values())


@dataclass(frozen=True)
class Expansion:
    """One entity's walk in one search: what it kept and the asks it made.

    ``rows`` are the kept edges as ``((head_id, relation, tail_id), triple)``
    in the order the walk filed them. ``kg_ops`` and ``memo_hits`` are what a
    later expansion of the entity meters in place of the walk: its node
    fetch and neighbor checks, and one hit per prune or attribute ask. It
    holds nothing that depends on the expanding state.
    """

    hits: tuple[AttributeHit, ...]
    rows: tuple[tuple[tuple[str, str, str], kg.Triple], ...]
    kg_ops: dict[str, int]
    memo_hits: dict[str, int]


class ExploreMemo:
    """One search's entity expansions, keyed on entity id.

    An expansion sees only the question, the entity and what the graph holds
    about it. Within one search the question, its domain, the graph and the
    caps are fixed, so an entity's id fixes every prompt its walk sends and
    every fallback it takes. A memo must therefore never outlive its search.

    The first expansion of an entity walks it (:func:`_expand`); one that
    starts while that walk runs waits on the same in-flight future, so each
    entity is walked once whatever the thread timing. Such a wait lasts the
    whole walk, every prune of the entity, not one call. Every later
    expansion is metered, in one update, as the node fetch, neighbor checks
    and prune and attribute hits the walk would have made, never as a call.
    """

    def __init__(self) -> None:
        self._done: dict[str, Expansion] = {}
        self._running: dict[str, Future] = {}
        self._lock = threading.Lock()

    def expand(
        self,
        question: Question,
        entity_id: str,
        graph: kg.KnowledgeGraph,
        backend: Backend,
        counters: CostCounters,
        config: ExploreConfig,
    ) -> Expansion:
        """The entity's :class:`Expansion`, walked once per memo."""
        try:
            found = self._done[entity_id]
        except KeyError:
            with self._lock:
                future = self._running.get(entity_id)
                owner = future is None
                if owner:
                    future = self._running[entity_id] = Future()
            if owner:
                try:
                    found = _expand(question, entity_id, graph, backend, counters, config)
                except BaseException as exc:
                    future.set_exception(exc)
                    raise
                self._done[entity_id] = found
                future.set_result(found)
                return found
            found = future.result()
        counters.record_repeat(found.kg_ops, found.memo_hits)
        return found


def extract_entities(
    text: str,
    backend: Backend,
    counters: CostCounters,
    domain: str,
) -> list[str]:
    """Pull entity surface forms out of free text; malformed replies yield []."""
    request = request_for("entity_extraction", {"text": text}, tag="extract", domain=domain)
    return complete_with_reask(backend, request, counters, parse_bracketed_list, [])


def resolve_anchors(
    graph: kg.KnowledgeGraph,
    surface_forms: list[str],
    counters: CostCounters,
) -> list[str]:
    """Resolve surface forms to node ids; misses are skipped, order kept."""
    anchors: list[str] = []
    for form in surface_forms:
        counters.record_kg_op("retrieve_node")
        try:
            node_id = kg.retrieve_node(graph, form)
        except (kg.EmptyGraphError, kg.NoMatchError):
            logger.debug("anchor %r did not resolve", form)
            continue
        if node_id not in anchors:
            anchors.append(node_id)
    return anchors


def prune_relations(
    question: Question,
    entity_id: str,
    relations: list[str],
    graph: kg.KnowledgeGraph,
    backend: Backend,
    counters: CostCounters,
    config: ExploreConfig,
) -> list[str]:
    """Model-select relations worth following, order-preserving and capped.

    Malformed replies — or replies naming nothing we recognize — fall back
    to the first ``max_relations_per_entity`` relations.
    """
    if not relations:
        raise ValueError(f"prune_relations needs a nonempty relation list for {entity_id}")
    request = request_for(
        "prune_relations",
        {
            "question": question.text,
            "entity": kg.node_name(graph, entity_id),
            "relations": ", ".join(relations),
        },
        tag="prune_relations",
        domain=question.domain,
    )
    replied = complete_with_reask(backend, request, counters, parse_bracketed_list, [])
    answered = {name.casefold() for name in replied}
    selected = [rel for rel in relations if rel.casefold() in answered] or relations
    return selected[: config.max_relations_per_entity]


def prune_entities(
    question: Question,
    head_id: str,
    relation: str,
    tail_ids: list[str],
    graph: kg.KnowledgeGraph,
    backend: Backend,
    counters: CostCounters,
    config: ExploreConfig,
) -> list[kg.Triple]:
    """Model-select tail entities and return the kept edges as triples;
    answered names resolve only within the candidate set (exact name match),
    so the model cannot steer the search to arbitrary nodes. Malformed
    replies keep the first ``max_neighbors_per_relation`` tails.
    """
    if not tail_ids:
        raise ValueError(f"prune_entities needs a nonempty tail list for {head_id}")
    head_name = kg.node_name(graph, head_id)
    names = [kg.node_name(graph, tid) for tid in tail_ids]
    request = request_for(
        "prune_entities",
        {
            "question": question.text,
            "head_entity": head_name,
            "relation": relation,
            "tail_entities": ", ".join(names),
        },
        tag="prune_entities",
        domain=question.domain,
    )
    replied = complete_with_reask(backend, request, counters, parse_bracketed_list, None)
    answered = set(names if replied is None else replied)
    kept = [
        kg.Triple(head_name, relation, name, head_id, tail_id)
        for tail_id, name in zip(tail_ids, names)
        if name in answered
    ]
    return kept[: config.max_neighbors_per_relation]


def search_attributes(
    question: Question,
    entity_id: str,
    backend: Backend,
    counters: CostCounters,
    graph: kg.KnowledgeGraph,
) -> list[AttributeHit]:
    """Ask which of an entity's features matter for the question.

    A ``{{None}}`` reply, an unrecognized key list, or a malformed reply all
    yield no hits.
    """
    node = graph.nodes[entity_id]
    name = kg.node_name(graph, entity_id)
    rendered = "; ".join(f"{key}: {value}" for key, value in node.features.items())
    request = request_for(
        "search_attributes",
        {"question": question.text, "entity": name, "attributes": rendered},
        tag="attributes",
        domain=question.domain,
    )

    def parse(reply: str) -> list[str]:
        if parse_bracketed_answer(reply).casefold() == "none":
            return []
        return parse_bracketed_list(reply)

    answered = set(complete_with_reask(backend, request, counters, parse, []))
    return [
        AttributeHit(entity_id=entity_id, entity_name=name, key=key, value=value)
        for key, value in node.features.items()
        if key in answered
    ]


def _expand(
    question: Question,
    entity_id: str,
    graph: kg.KnowledgeGraph,
    backend: Backend,
    counters: CostCounters,
    config: ExploreConfig,
) -> Expansion:
    """Walk one entity: fetch its node, select its attributes when asked,
    prune its relations, then check and prune each selected relation's tails.
    """
    counters.record_kg_op("node_fetch")
    node = graph.nodes[entity_id]
    kg_ops = {"node_fetch": 1}
    memo_hits: dict[str, int] = {}
    hits: tuple[AttributeHit, ...] = ()
    if config.select_attributes and node.features:
        hits = tuple(search_attributes(question, entity_id, backend, counters, graph))
        memo_hits["attributes"] = 1
    rows = []
    relations = [rel for rel, tails in node.out_edges.items() if tails]
    if relations:
        selected = prune_relations(
            question, entity_id, relations, graph, backend, counters, config
        )
        for relation in selected:
            counters.record_kg_op("neighbor_check")
            kept = prune_entities(
                question, entity_id, relation, node.out_edges[relation],
                graph, backend, counters, config,
            )
            rows.extend(((entity_id, relation, t.tail_id), t) for t in kept)
        memo_hits["prune_relations"] = 1
        kg_ops["neighbor_check"] = memo_hits["prune_entities"] = len(selected)
    return Expansion(hits, tuple(rows), kg_ops, memo_hits)


def end_check(
    question: Question,
    state: ExplorationState,
    backend: Backend,
    counters: CostCounters,
    *,
    thoughts: str = "",
) -> bool:
    """Is the collected evidence sufficient? Malformed replies mean "keep going"."""
    request = request_for(
        "search_end",
        {
            "question": question.text,
            "thoughts": thoughts,
            "triples": state.rendered_triples(),
            "attributes": state.rendered_attributes(),
        },
        tag="end_check",
        domain=question.domain,
    )

    def parse(reply: str) -> bool:
        return parse_bracketed_answer(reply).casefold() == "yes"

    return complete_with_reask(backend, request, counters, parse, False)


def explore(
    question: Question,
    anchors: list[str],
    state: ExplorationState,
    config: ExploreConfig,
    graph: kg.KnowledgeGraph,
    backend: Backend,
    counters: CostCounters,
    *,
    thoughts: str = "",
    memo: ExploreMemo | None = None,
) -> ExplorationState:
    """Run up to ``search_depth`` pruned expansion rounds from the anchors.

    Mutates and returns ``state``. Each round expands every unvisited seen
    entity (one node fetch plus one neighbor scan per selected relation),
    files the attributes and triples its walk kept, each new tail one hop
    deeper than the entity is in this state, then runs the stop check once;
    a Yes marks the state sufficient and ends the search. With no unvisited
    entities the round does nothing and no model call is made.

    Each entity is expanded through ``memo``, which the search shares among
    all its states and which keys expansions by entity id: an entity another
    state already walked costs no call, no prune and no triple here, only the
    filing of what that walk kept; one that another thread is walking waits
    for the whole walk. Without a memo the call makes its own. The stop check
    sees the state and is asked every round.
    """
    if memo is None:
        memo = ExploreMemo()
    state.add_anchors(anchors)
    for _ in range(config.search_depth):
        frontier = [eid for eid, meta in state.seen_entities.items() if not meta.visited]
        if not frontier:
            break
        for entity_id in frontier:
            meta = state.seen_entities[entity_id]
            state.seen_entities[entity_id] = SeenEntity(True, meta.depth_discovered)
            found = memo.expand(question, entity_id, graph, backend, counters, config)
            for hit in found.hits:
                state.relevant_attributes.setdefault((hit.entity_id, hit.key), hit)
            # Frozen, so every tail this entity discovers shares it.
            discovered = SeenEntity(False, meta.depth_discovered + 1)
            for key, triple in found.rows:
                state.found_triples.setdefault(key, triple)
                state.seen_entities.setdefault(triple.tail_id, discovered)
        state.sufficient = end_check(question, state, backend, counters, thoughts=thoughts)
        if state.sufficient:
            break
    return state
