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
the whole walk; only such a wait makes a future, so a search on one thread
walks without one. The tail prune returns its kept edges as triples, and the
walk renders each one's prompt line beside it, so a search builds and
renders each triple once; a state files the lines with the triples, and
every prompt that lists a state's triples joins its lines.

The relation prune keeps at most ``MAX_RELATIONS_PER_ENTITY`` (3) relations
and the tail prune at most ``MAX_NEIGHBORS_PER_RELATION`` (5) tails; the
attribute selection runs only under ``SELECT_ATTRIBUTES`` (``False``). These
are constants: only the search depth varies between runs.

Every model-driven selection has a deterministic fallback (a first-N
prefix, or "keep nothing") so a run never dies on a malformed reply; with
permissive replies on a graph whose nodes stay under both caps,
exploration reduces to the plain d-hop closure of the anchors.
"""

from __future__ import annotations

import functools
import logging
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from itertools import compress
from operator import is_not

from . import kg
from .costs import CostCounters
from .evaluation import Question
from .llm import (
    Backend, complete_with_reask, parse_bracketed_answer, parse_bracketed_list, request_for
)

logger = logging.getLogger(__name__)

MAX_RELATIONS_PER_ENTITY = 3
MAX_NEIGHBORS_PER_RELATION = 5
SELECT_ATTRIBUTES = False


@dataclass(frozen=True)
class SeenEntity:
    visited: bool
    depth_discovered: int


@functools.cache
def seen_entity(visited: bool, depth_discovered: int) -> SeenEntity:
    """The one shared :class:`SeenEntity` for these values.

    Exploration and merges take their entries from here, so two states that
    agree on an entity hold the same object, and a merge finds where they
    disagree by identity alone. The cache holds two entries per depth.
    """
    return SeenEntity(visited, depth_discovered)


def _union(first: dict, second: dict) -> dict:
    """``first``'s entries, then ``second``'s new keys, in order; on a shared
    key ``first``'s value is kept."""
    union = first | second
    union.update(first)
    return union


@dataclass(frozen=True)
class AttributeHit:
    entity_id: str
    entity_name: str
    key: str
    value: str


def render_attribute(hit: AttributeHit) -> str:
    """Display form used in prompts and judge evidence."""
    return f"{hit.entity_name}.{hit.key}: {hit.value}"


@dataclass
class ExplorationState:
    """Everything a search has seen: entities, harvested triples, attributes.

    Triples are keyed by ``(head_id, relation, tail_id)`` and attribute hits
    by ``(entity_id, key)``, so each is stored once, in discovery order. The
    entries are frozen values, so a clone copies only the containers and
    shares the entries with the state it came from.

    ``triple_lines`` holds each found triple's prompt line
    (:func:`kg.render_triple`), in the order of ``found_triples``, so a
    prompt joins stored lines and a search renders each triple once. Filing
    (:meth:`file`), :meth:`clone` and :meth:`merge` keep the two in step. It
    is derived data: state equality ignores it, and a state built with
    triples but no lines renders them once.

    ``new_anchors`` and ``rounds`` say what :func:`explore` did to this
    state: the anchors it added at depth 0, in order, and how many rounds it
    ran with a nonempty frontier. A new state, a clone and a merge start
    with none, so in a search they describe the one step that built the
    state from its parent; with the parent's seen entities and the triples
    the step added they fix the state's seen entities (see
    :mod:`.traces`). State equality ignores them.
    """

    seen_entities: dict[str, SeenEntity] = field(default_factory=dict)
    found_triples: dict[tuple[str, str, str], kg.Triple] = field(default_factory=dict)
    relevant_attributes: dict[tuple[str, str], AttributeHit] = field(default_factory=dict)
    sufficient: bool = False
    # None, the default, renders the lines of ``found_triples``.
    triple_lines: list[str] = field(default=None, compare=False, repr=False)
    new_anchors: list[str] = field(default_factory=list, compare=False, repr=False)
    rounds: int = field(default=0, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.triple_lines is None:
            self.triple_lines = [kg.render_triple(t) for t in self.found_triples.values()]

    def add_anchors(self, node_ids: list[str]) -> None:
        """Seed each node not yet seen at depth 0, unvisited, and note it in ``new_anchors``."""
        for node_id in node_ids:
            if node_id not in self.seen_entities:
                self.seen_entities[node_id] = seen_entity(False, 0)
                self.new_anchors.append(node_id)

    def file(self, found: Expansion, depth: int) -> None:
        """File an expansion's attributes and triples; a tail not yet seen
        joins at ``depth``, unvisited. An entry already held is kept."""
        for hit in found.hits:
            self.relevant_attributes.setdefault((hit.entity_id, hit.key), hit)
        triples, lines, seen = self.found_triples, self.triple_lines, self.seen_entities
        discovered = seen_entity(False, depth)
        for key, triple, line in found.rows:
            if key not in triples:
                triples[key] = triple
                lines.append(line)
            seen.setdefault(triple.tail_id, discovered)

    def clone(self) -> "ExplorationState":
        return ExplorationState(
            seen_entities=dict(self.seen_entities),
            found_triples=dict(self.found_triples),
            relevant_attributes=dict(self.relevant_attributes),
            sufficient=self.sufficient,
            triple_lines=list(self.triple_lines),
        )

    @classmethod
    def merge(cls, a: "ExplorationState", b: "ExplorationState") -> "ExplorationState":
        """Union of two states: a's entries first and kept on a shared key,
        except that an entity both hold is visited if either visited it and
        sits at the shallower depth."""
        mine, theirs = a.seen_entities, b.seen_entities
        seen = mine | theirs
        # Only b's entries that a lacks or holds as another object reach this
        # loop; with entries from ``seen_entity`` that is where they differ.
        for eid in compress(theirs, map(is_not, map(mine.get, theirs), theirs.values())):
            held = mine.get(eid)
            if held is not None:
                meta = theirs[eid]
                seen[eid] = seen_entity(
                    held.visited or meta.visited,
                    min(held.depth_discovered, meta.depth_discovered),
                )
        return cls(
            seen_entities=seen,
            found_triples=_union(a.found_triples, b.found_triples),
            relevant_attributes=_union(a.relevant_attributes, b.relevant_attributes),
            sufficient=a.sufficient or b.sufficient,
            triple_lines=a.triple_lines + [
                line
                for key, line in zip(b.found_triples, b.triple_lines)
                if key not in a.found_triples
            ],
        )

    def rendered_triples(self) -> str:
        return "\n".join(self.triple_lines)

    def rendered_attributes(self) -> str:
        return "\n".join(render_attribute(hit) for hit in self.relevant_attributes.values())


@dataclass(frozen=True)
class Expansion:
    """One entity's walk in one search: what it kept and the asks it made.

    ``rows`` are the kept edges as ``((head_id, relation, tail_id), triple,
    line)`` in the order the walk filed them, ``line`` being the triple's
    prompt line, rendered once for every state that files it. ``kg_ops``
    and ``memo_hits`` are what a later expansion of the entity meters in
    place of the walk: its node fetch and neighbor checks, and one hit per
    prune or attribute ask. It holds nothing that depends on the expanding
    state.
    """

    hits: tuple[AttributeHit, ...]
    rows: tuple[tuple[tuple[str, str, str], kg.Triple, str], ...]
    kg_ops: dict[str, int]
    memo_hits: dict[str, int]


class ExploreMemo:
    """One search's entity expansions, keyed on entity id.

    An expansion sees only the question, the entity and what the graph holds
    about it. Within one search the question, its domain and the graph are
    fixed, and so are the constants ``MAX_RELATIONS_PER_ENTITY`` (3),
    ``MAX_NEIGHBORS_PER_RELATION`` (5) and ``SELECT_ATTRIBUTES`` (``False``),
    so an entity's id fixes every prompt its walk sends and every fallback it
    takes. A memo must therefore never outlive its search.

    The first expansion of an entity marks it running under the memo's lock
    and walks it (:func:`_expand`). A walk that nobody waits for costs the
    lock twice and nothing more. An expansion that starts while the walk
    runs puts a :class:`~concurrent.futures.Future` in its place, and the
    walk settles that future when it ends, so each entity is walked once
    whatever the thread timing. Such a wait lasts the whole walk, every
    prune of the entity, not one call. A walk that raises leaves a failed
    future in its place, so every expansion of the entity, waiting or later,
    raises the same error and none walks it again. Every later expansion is
    metered, in one update, as the node fetch, neighbor checks and prune and
    attribute hits the walk would have made, never as a call.
    """

    def __init__(self) -> None:
        self._done: dict[str, Expansion] = {}
        # Entity id -> None while its walk runs with nobody waiting, else the
        # future its waiters wait on; a failed walk's future stays.
        self._running: dict[str, Future | None] = {}
        self._lock = threading.Lock()

    def expand(
        self,
        question: Question,
        entity_id: str,
        graph: kg.KnowledgeGraph,
        backend: Backend,
        counters: CostCounters,
    ) -> Expansion:
        """The entity's :class:`Expansion`, walked once per memo."""
        try:
            found = self._done[entity_id]
        except KeyError:
            with self._lock:
                # The walk may have ended since the look above.
                found = self._done.get(entity_id)
                owner = found is None and entity_id not in self._running
                if owner:
                    self._running[entity_id] = None
                elif found is None:
                    waiter = self._running[entity_id]
                    if waiter is None:
                        waiter = self._running[entity_id] = Future()
            if owner:
                return self._walk(question, entity_id, graph, backend, counters)
            if found is None:
                found = waiter.result()
        counters.record_repeat(found.kg_ops, found.memo_hits)
        return found

    def _walk(
        self,
        question: Question,
        entity_id: str,
        graph: kg.KnowledgeGraph,
        backend: Backend,
        counters: CostCounters,
    ) -> Expansion:
        """Walk the entity this thread marked running, then settle the
        future of any expansion that arrived meanwhile."""
        try:
            found = _expand(question, entity_id, graph, backend, counters)
        except BaseException as exc:
            with self._lock:
                waiter = self._running[entity_id]
                if waiter is None:
                    waiter = self._running[entity_id] = Future()
            waiter.set_exception(exc)
            raise
        with self._lock:
            self._done[entity_id] = found
            waiter = self._running.pop(entity_id)
        if waiter is not None:
            waiter.set_result(found)
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
) -> list[str]:
    """Model-select relations worth following, order-preserving and capped
    at ``MAX_RELATIONS_PER_ENTITY`` (3).

    Malformed replies — or replies naming nothing we recognize — fall back
    to the first three relations.
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
    return selected[:MAX_RELATIONS_PER_ENTITY]


def prune_entities(
    question: Question,
    head_id: str,
    relation: str,
    tail_ids: list[str],
    graph: kg.KnowledgeGraph,
    backend: Backend,
    counters: CostCounters,
) -> list[kg.Triple]:
    """Model-select tail entities and return the kept edges as triples;
    answered names resolve only within the candidate set (exact name match),
    so the model cannot steer the search to arbitrary nodes. At most
    ``MAX_NEIGHBORS_PER_RELATION`` (5) are kept, and malformed replies keep
    the first five tails.
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
    return kept[:MAX_NEIGHBORS_PER_RELATION]


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
) -> Expansion:
    """Walk one entity: fetch its node, select its attributes under
    ``SELECT_ATTRIBUTES``, prune its relations, then check and prune each
    selected relation's tails.
    """
    counters.record_kg_op("node_fetch")
    node = graph.nodes[entity_id]
    kg_ops = {"node_fetch": 1}
    memo_hits: dict[str, int] = {}
    hits: tuple[AttributeHit, ...] = ()
    if SELECT_ATTRIBUTES and node.features:
        hits = tuple(search_attributes(question, entity_id, backend, counters, graph))
        memo_hits["attributes"] = 1
    rows = []
    relations = [rel for rel, tails in node.out_edges.items() if tails]
    if relations:
        selected = prune_relations(question, entity_id, relations, graph, backend, counters)
        for relation in selected:
            counters.record_kg_op("neighbor_check")
            kept = prune_entities(
                question, entity_id, relation, node.out_edges[relation], graph, backend, counters
            )
            rows.extend(((entity_id, relation, t.tail_id), t, kg.render_triple(t)) for t in kept)
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
    search_depth: int,
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
    for _ in range(search_depth):
        frontier = [eid for eid, meta in state.seen_entities.items() if not meta.visited]
        if not frontier:
            break
        state.rounds += 1
        for entity_id in frontier:
            meta = state.seen_entities[entity_id]
            state.seen_entities[entity_id] = seen_entity(True, meta.depth_discovered)
            found = memo.expand(question, entity_id, graph, backend, counters)
            state.file(found, meta.depth_discovered + 1)
        state.sufficient = end_check(question, state, backend, counters, thoughts=thoughts)
        if state.sufficient:
            break
    return state
