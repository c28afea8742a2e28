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
thought or a state, and decode greedily. A search therefore asks each of
them once per entity (or entity and relation): an :class:`ExploreMemo`
keyed on graph ids answers every later ask in that search.

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
from typing import Callable

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


class ExploreMemo:
    """The results of one search's stateless explore calls, keyed on graph ids.

    Keys are ``("prune_relations", entity_id)``, ``("prune_entities",
    head_id, relation)`` and ``("attributes", entity_id)``; the first item is
    the tag of the call the key stands for. Within one search the question,
    its domain, the graph and the caps are fixed, so the ids fix the prompt,
    and the stored value is the call site's final result, fallback included.
    A memo must therefore never outlive its search.

    The first ask of a key computes it; an ask while that is running waits
    on the same in-flight future, so each key is computed once whatever the
    thread timing. Every other ask is metered as a hit, not as a call.
    """

    def __init__(self) -> None:
        self._done: dict[tuple[str, ...], tuple] = {}
        self._running: dict[tuple[str, ...], Future] = {}
        self._lock = threading.Lock()

    def get(
        self,
        key: tuple[str, ...],
        counters: CostCounters,
        compute: Callable[..., list],
        *args: object,
    ) -> tuple:
        """``compute(*args)`` as a tuple, computed once per key."""
        try:
            result = self._done[key]
        except KeyError:
            with self._lock:
                future = self._running.get(key)
                owner = future is None
                if owner:
                    future = self._running[key] = Future()
            if owner:
                try:
                    result = tuple(compute(*args))
                except BaseException as exc:
                    future.set_exception(exc)
                    raise
                self._done[key] = result
                future.set_result(result)
                return result
            result = future.result()
        counters.record_memo_hit(key[0])
        return result


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
) -> list[str]:
    """Model-select tail entities; answered names resolve only within the
    candidate set (exact name match), so the model cannot steer the search
    to arbitrary nodes. Malformed replies keep the first
    ``max_neighbors_per_relation`` tails.
    """
    if not tail_ids:
        raise ValueError(f"prune_entities needs a nonempty tail list for {head_id}")
    names = [kg.node_name(graph, tid) for tid in tail_ids]
    request = request_for(
        "prune_entities",
        {
            "question": question.text,
            "head_entity": kg.node_name(graph, head_id),
            "relation": relation,
            "tail_entities": ", ".join(names),
        },
        tag="prune_entities",
        domain=question.domain,
    )
    replied = complete_with_reask(backend, request, counters, parse_bracketed_list, None)
    if replied is None:
        return tail_ids[: config.max_neighbors_per_relation]
    answered = set(replied)
    selected = [tid for tid, name in zip(tail_ids, names) if name in answered]
    return selected[: config.max_neighbors_per_relation]


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
    name = node.features.get(kg.NAME_FEATURE, entity_id)
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
    harvests the kept edges into the state's keyed triples, then runs the stop
    check once; a Yes marks the state sufficient and ends the search. With
    no unvisited entities the round does nothing and no model call is made.

    The relation and tail prunes and the attribute selection go through
    ``memo``, which the search shares among all its states, so an entity
    another state already pruned costs no call here; without one the call
    makes its own. The stop check sees the state and is asked every round.
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
            counters.record_kg_op("node_fetch")
            node = graph.nodes[entity_id]
            head_name = node.features.get(kg.NAME_FEATURE, entity_id)
            if config.select_attributes and node.features:
                hits = memo.get(
                    ("attributes", entity_id), counters,
                    search_attributes, question, entity_id, backend, counters, graph,
                )
                for hit in hits:
                    state.relevant_attributes.setdefault((hit.entity_id, hit.key), hit)
            relations = [rel for rel, tails in node.out_edges.items() if tails]
            if not relations:
                continue
            selected_relations = memo.get(
                ("prune_relations", entity_id), counters,
                prune_relations, question, entity_id, relations, graph, backend, counters, config,
            )
            for relation in selected_relations:
                counters.record_kg_op("neighbor_check")
                tails = node.out_edges[relation]
                selected_tails = memo.get(
                    ("prune_entities", entity_id, relation), counters,
                    prune_entities, question, entity_id, relation, tails, graph, backend,
                    counters, config,
                )
                for tail_id in selected_tails:
                    key = (entity_id, relation, tail_id)
                    if key not in state.found_triples:
                        tail_node = graph.nodes[tail_id]
                        state.found_triples[key] = kg.Triple(
                            head_name=head_name,
                            relation=relation,
                            tail_name=tail_node.features.get(kg.NAME_FEATURE, tail_id),
                            head_id=entity_id,
                            tail_id=tail_id,
                        )
                    if tail_id not in state.seen_entities:
                        state.seen_entities[tail_id] = SeenEntity(
                            visited=False,
                            depth_discovered=meta.depth_discovered + 1,
                        )
        state.sufficient = end_check(question, state, backend, counters, thoughts=thoughts)
        if state.sufficient:
            break
    return state
