"""Shared fixtures, replay-script builders, and independent oracles.

The oracles here are deliberately written from scratch against the
definitions (full-matrix LCS, breadth-first closure) rather than calling
into the package, so they can catch implementation drift.
"""

from __future__ import annotations

import json
import re
from collections import deque
from functools import reduce
from pathlib import Path

from graphreason.agent import AgentAction, AgentStep, Scratchpad
from graphreason.evaluation import Question
from graphreason.explore import (
    MAX_NEIGHBORS_PER_RELATION,
    MAX_RELATIONS_PER_ENTITY,
    AttributeHit,
    ExplorationState,
    SeenEntity,
)
from graphreason.kg import (
    NAME_FEATURE, GraphStats, KnowledgeGraph, NameIndex, NodeRecord, Triple, render_triple
)
from graphreason.llm import ReplayBackend, ReplayEntry
from graphreason.prompts import MissingPlaceholderError, PromptTemplate
from graphreason.textops import tokenize
from graphreason.strategies import Evidence, SearchResult, ThoughtState

# One phrase per template, lifted from each template's instruction text.
# Every rendered prompt contains exactly its own template's phrase, so a
# non-strict script keyed on these serves each call site unambiguously.
TEMPLATE_MATCHERS = {
    "agent_step": "Generate the next step",
    "search_thought": "next thought to answer the provided question",
    "search_end": "sufficient for you to answer",
    "entity_extraction": "extract the relevant entities",
    "prune_relations": "select only the relevant relations",
    "prune_entities": "Select the tail entity or entities",
    "search_attributes": "Is any of the attributes relevant",
    "selection_vote": "The best choice is",
    "score_vote": "Generate a score",
    "got_merge": "merged chain of thoughts",
    "judge_correctness": "convey the same information",
    "judge_error_class": "Decide which failure mode applies",
}


def krt39_graph() -> KnowledgeGraph:
    records = [
        NodeRecord(
            id="390792",
            node_type="gene",
            features={"name": "KRT39"},
            out_edges={"Anatomy-expresses-Gene": ["UBERON:0000033", "UBERON:0002097"]},
        ),
        NodeRecord(
            id="UBERON:0000033", node_type="anatomy", features={"name": "head"}, out_edges={}
        ),
        NodeRecord(
            id="UBERON:0002097",
            node_type="anatomy",
            features={"name": "skin of body"},
            out_edges={},
        ),
    ]
    return KnowledgeGraph(
        nodes={r.id: r for r in records},
        stats=GraphStats(
            node_count=3, edge_count=2, relation_types=frozenset({"Anatomy-expresses-Gene"})
        ),
    )


def fan_graph(width: int) -> KnowledgeGraph:
    """KRT39 with one relation reaching ``width`` anatomy leaves."""
    tails = [f"UBERON:{i:07d}" for i in range(width)]
    records = [
        NodeRecord(
            id="390792",
            node_type="gene",
            features={"name": "KRT39"},
            out_edges={"Anatomy-expresses-Gene": tails},
        ),
        *(
            NodeRecord(id=tail, node_type="anatomy", features={"name": f"tissue {i}"}, out_edges={})
            for i, tail in enumerate(tails)
        ),
    ]
    return KnowledgeGraph(
        nodes={r.id: r for r in records},
        stats=GraphStats(
            node_count=width + 1,
            edge_count=width,
            relation_types=frozenset({"Anatomy-expresses-Gene"}),
        ),
    )


def under_caps(graph: KnowledgeGraph) -> bool:
    """No node has more relations, or one relation more tails, than an
    expansion keeps, so a prune that keeps everything is never capped."""
    return all(
        len(node.out_edges) <= MAX_RELATIONS_PER_ENTITY
        and all(len(tails) <= MAX_NEIGHBORS_PER_RELATION for tails in node.out_edges.values())
        for node in graph.nodes.values()
    )


def krt39_question(qid: str = "g1") -> Question:
    return Question(
        qid=qid,
        text="What anatomy can be expressed by gene KRT39?",
        gold_answer="head, skin of body",
        difficulty="easy",
        domain="biomedical",
    )


def golden_agent_entries() -> list[ReplayEntry]:
    """The four agent-step replies of the gene/anatomy worked example."""
    return [
        ReplayEntry(
            "Generate the next step",
            "Thought 1: The question is related to a gene node (KRT39). "
            "We need to find this node in the graph.\nAction 1: RetrieveNode[KRT39]",
        ),
        ReplayEntry(
            "The ID of the node is 390792.",
            "Thought 2: We need to check the 'Anatomy-expresses-Gene' neighbors of this "
            "gene node.\nAction 2: NeighbourCheck[390792, Anatomy-expresses-Gene]",
        ),
        ReplayEntry(
            "The neighbors are ['UBERON:0000033', 'UBERON:0002097'].",
            "Thought 3: Retrieve names of the anatomy nodes.\n"
            "Action 3: NodeFeature[UBERON:0000033, name], NodeFeature[UBERON:0002097, name]",
        ),
        ReplayEntry(
            "skin of body",
            "Thought 4: These are the anatomy terms expressed by the gene.\n"
            "Action 4: Finish[head, skin of body]",
        ),
    ]


def golden_explore_entries() -> list[ReplayEntry]:
    """The exploration-driver replies of the gene/anatomy worked example."""
    return [
        ReplayEntry(
            TEMPLATE_MATCHERS["search_thought"],
            "KRT39 is a gene that is known to be expressed in two anatomical regions.",
        ),
        ReplayEntry(TEMPLATE_MATCHERS["entity_extraction"], "{{KRT39}}"),
        ReplayEntry(TEMPLATE_MATCHERS["prune_relations"], "{{Anatomy-expresses-Gene}}"),
        ReplayEntry(TEMPLATE_MATCHERS["prune_entities"], "{{head, skin of body}}"),
        ReplayEntry(
            TEMPLATE_MATCHERS["search_end"], "[Yes] The triples name both anatomy terms."
        ),
        ReplayEntry(
            TEMPLATE_MATCHERS["search_thought"],
            "The triples give both anatomy terms. Action: Finish[head, skin of body]",
        ),
    ]


def permissive_entries(
    *,
    agent_finish: bool = False,
    explore_finish: bool = False,
    extraction: str = "{{alpha 0}}",
) -> list[ReplayEntry]:
    """A stateless script that keeps any strategy/interaction combo running.

    Agent steps either probe a degree or immediately finish; exploration
    pruning falls back to its first-N prefixes via a deliberately
    bracket-free reply. Evaluator and merge calls always parse. With
    ``explore_finish`` the stop check says yes and the thought carries a
    Finish span for answer extraction.
    """
    if agent_finish:
        agent_reply = "Thought: The answer is clear.\nAction 1: Finish[alpha 2]"
    else:
        agent_reply = "Thought: Poke the graph again.\nAction 1: NodeDegree[n0000, linked-to]"
    if explore_finish:
        explore_end = "[Yes] The evidence suffices."
        thought_reply = "Consider the entries near the anchor. Finish[alpha 2]"
    else:
        explore_end = "[No] Keep exploring."
        thought_reply = "Consider the entries near the anchor."
    return [
        ReplayEntry(TEMPLATE_MATCHERS["agent_step"], agent_reply),
        ReplayEntry(TEMPLATE_MATCHERS["search_thought"], thought_reply),
        ReplayEntry(TEMPLATE_MATCHERS["entity_extraction"], extraction),
        ReplayEntry(TEMPLATE_MATCHERS["prune_relations"], "keep everything please"),
        ReplayEntry(TEMPLATE_MATCHERS["prune_entities"], "keep everything please"),
        ReplayEntry(TEMPLATE_MATCHERS["search_end"], explore_end),
        ReplayEntry(TEMPLATE_MATCHERS["selection_vote"], "The best choice is {{1, 2, 3}}"),
        ReplayEntry(TEMPLATE_MATCHERS["score_vote"], "Score: 0.5"),
        ReplayEntry(TEMPLATE_MATCHERS["got_merge"], "Merging the two candidate chains."),
        ReplayEntry(TEMPLATE_MATCHERS["judge_correctness"], "[Yes] Matches."),
        ReplayEntry(TEMPLATE_MATCHERS["judge_error_class"], "[wrong_step] Off track."),
    ]


def permissive_backend(**kwargs) -> ReplayBackend:
    return ReplayBackend(permissive_entries(**kwargs))


def synthetic_question(qid: str = "q1") -> Question:
    return Question(
        qid=qid,
        text="Which entries are linked to beta 1?",
        gold_answer="alpha 2",
        difficulty="easy",
        domain="synthetic",
    )


def write_replay_script(path: Path, entries: list[ReplayEntry]) -> Path:
    with open(path, "w", encoding="utf-8") as handle:
        for entry in entries:
            handle.write(json.dumps({"match": entry.match, "response": entry.response}) + "\n")
    return path


def write_question_file(path: Path, questions: list[Question]) -> Path:
    with open(path, "w", encoding="utf-8") as handle:
        for q in questions:
            handle.write(
                json.dumps(
                    {
                        "qid": q.qid,
                        "question": q.text,
                        "answer": q.gold_answer,
                        "difficulty": q.difficulty,
                        "domain": q.domain,
                    }
                )
                + "\n"
            )
    return path


def lcs_f1_oracle(candidate_tokens: list[str], reference_tokens: list[str]) -> float:
    """Independent full-matrix LCS F1 over pre-tokenized inputs."""
    n, m = len(candidate_tokens), len(reference_tokens)
    if n == 0 or m == 0:
        return 0.0
    table = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if candidate_tokens[i - 1] == reference_tokens[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = table[i - 1][j] if table[i - 1][j] >= table[i][j - 1] else table[i][j - 1]
    lcs = table[n][m]
    if lcs == 0:
        return 0.0
    precision = lcs / n
    recall = lcs / m
    return 2 * precision * recall / (precision + recall)


def closure_oracle(
    graph: KnowledgeGraph, anchors: list[str], depth: int
) -> tuple[set[tuple[str, str, str]], set[str]]:
    """Breadth-first d-hop closure: edges whose head lies within depth-1 of
    an anchor, and every entity within depth hops."""
    dist: dict[str, int] = {}
    queue: deque[str] = deque()
    for anchor in anchors:
        if anchor not in dist:
            dist[anchor] = 0
            queue.append(anchor)
    triples: set[tuple[str, str, str]] = set()
    while queue:
        node_id = queue.popleft()
        if dist[node_id] >= depth:
            continue
        record = graph.nodes[node_id]
        for relation, tails in record.out_edges.items():
            for tail in tails:
                triples.add((node_id, relation, tail))
                if tail not in dist:
                    dist[tail] = dist[node_id] + 1
                    queue.append(tail)
    entities = {node_id for node_id, d in dist.items() if d <= depth}
    return triples, entities


def reference_name_index(graph: KnowledgeGraph) -> NameIndex:
    """The name index as a loop over nodes with a set of tokens per name,
    the way ``KnowledgeGraph.name_index`` once built it."""
    exact: dict[str, str] = {}
    postings: dict[str, list[int]] = {}
    records = tuple(graph.nodes.values())
    token_counts = [0] * len(records)
    for position, node in enumerate(records):
        name = node.features.get(NAME_FEATURE)
        if name is None:
            continue
        folded = name.casefold()
        exact.setdefault(name if folded == name else folded, node.id)
        tokens = set(tokenize(name))
        token_counts[position] = len(tokens)
        for token in tokens:
            postings.setdefault(token, []).append(position)
    return NameIndex(exact=exact, postings=postings, token_counts=token_counts, records=records)


def reference_render(template: PromptTemplate, variables: dict) -> str:
    """``prompts.render`` as one regex pass over the body with a callback
    per ``{word}``, the way it once rendered."""
    required = template.required_placeholders
    missing = required - set(variables)
    if missing:
        raise MissingPlaceholderError(
            f"template {template.name!r} is missing placeholders {sorted(missing)}"
        )

    def substitute(match: re.Match[str]) -> str:
        key = match[1]
        return str(variables[key]) if key in required else match[0]

    return re.sub(r"\{(\w+)\}", substitute, template.body)


def reference_rendered_triples(exploration: ExplorationState) -> str:
    """``ExplorationState.rendered_triples`` rendering every found triple
    afresh, the way it did before states kept their lines."""
    return "\n".join(render_triple(t) for t in exploration.found_triples.values())


def _reference_triples_part(state: ThoughtState) -> list[str]:
    explored = state.evidence.exploration
    if explored is None or not explored.found_triples:
        return []
    return ["Triples: " + "; ".join(render_triple(t) for t in explored.found_triples.values())]


def reference_describe_candidate(state: ThoughtState) -> str:
    """``strategies.describe_candidate``, rendering every triple afresh."""
    parts = [state.thought, *_reference_triples_part(state)]
    explored = state.evidence.exploration
    if explored is not None and explored.relevant_attributes:
        parts.append(
            "Attributes: "
            + "; ".join(
                f"{hit.entity_name}.{hit.key}: {hit.value}"
                for hit in explored.relevant_attributes.values()
            )
        )
    if state.evidence.scratchpad is not None and state.evidence.scratchpad.steps:
        last = state.evidence.scratchpad.steps[-1]
        if last.observations:
            parts.append("Observations: " + " | ".join(last.observations))
    return " ".join(parts)


def reference_describe_chain(state: ThoughtState) -> str:
    """``strategies.describe_chain``, rendering every triple afresh."""
    lines = list(state.evidence.thought_log) or [state.thought]
    return "\n".join(lines + _reference_triples_part(state))


def _joined(parts, merge, empty):
    present = [part if part is not None else empty() for part in parts]
    return reduce(merge, present).clone() if present else empty()


def _step(row: dict) -> AgentStep:
    return AgentStep(
        thought=row["thought"],
        raw_action=row["raw_action"],
        actions=tuple(AgentAction(a["kind"], tuple(a["args"])) for a in row["actions"]),
        observations=tuple(row["observations"]),
        malformed=row["malformed"],
    )


def rebuild_evidence(data: dict) -> dict[int, Evidence]:
    """Each state's whole evidence, rebuilt from a trace/v3 dict's rows.

    A state holds its parents' evidence joined by the union rules of
    ``ExplorationState.merge`` and ``Scratchpad.merge``, then its own rows;
    a null ``exploration`` or ``scratchpad`` means it holds none. Its thought
    log is its parents' logs joined as ``merged_state`` joins them, then its
    thought; a non-root state holding neither was born pruned and keeps its
    parent's log.
    """
    built: dict[int, Evidence] = {}
    for state in data["states"]:
        rows = state["evidence"]
        parents = [built[pid] for pid in state["parents"]]
        exploration = pad = None
        if rows["exploration"] is not None:
            exploration = _joined(
                [p.exploration for p in parents], ExplorationState.merge, ExplorationState
            )
            for eid, depth, visited in rows["exploration"]["seen_entities"]:
                exploration.seen_entities[eid] = SeenEntity(visited, depth)
            for row in rows["triples"]:
                exploration.found_triples[row["head_id"], row["relation"], row["tail_id"]] = (
                    Triple(**row)
                )
            for row in rows["attributes"]:
                exploration.relevant_attributes[row["entity_id"], row["key"]] = AttributeHit(**row)
            exploration.sufficient = rows["exploration"]["sufficient"]
        if rows["scratchpad"] is not None:
            pad = _joined([p.scratchpad for p in parents], Scratchpad.merge, Scratchpad)
            for row in rows["scratchpad"]:
                assert row["index"] == len(pad.steps) + 1, (state["id"], row["index"])
                pad.steps.append(_step(row))
        thought_log = list(parents[0].thought_log) if parents else []
        for entry in (entry for parent in parents[1:] for entry in parent.thought_log):
            if entry not in thought_log:
                thought_log.append(entry)
        if parents and (exploration is not None or pad is not None):
            thought_log.append(state["thought"])
        built[state["id"]] = Evidence(
            thought_log=thought_log, scratchpad=pad, exploration=exploration,
            answer=rows["answer"],
        )
    return built


def _fact_keys(evidence: dict) -> list:
    keys = [("triple", t["head_id"], t["relation"], t["tail_id"]) for t in evidence["triples"]]
    return keys + [("attribute", h["entity_id"], h["key"]) for h in evidence["attributes"]]


def assert_writes_deltas(data: dict, result: SearchResult) -> None:
    """A trace/v3 dict holds each state's additions only, and they rebuild
    every in-memory state's evidence.

    No state writes a triple or attribute row that an ancestor holds, and
    each step row extends its parents' joined scratchpad (checked by the
    rebuild: ``Scratchpad.merge`` keeps one step per thought and action, so
    a step an ancestor repeated may be dropped and added again later). A
    merged state writes no rows at all.
    """
    by_id = {state["id"]: state for state in data["states"]}
    ancestors: dict[int, set[int]] = {}
    for state in data["states"]:
        sid, parents = state["id"], state["parents"]
        ancestors[sid] = set(parents).union(*(ancestors[pid] for pid in parents))
        own = _fact_keys(state["evidence"])
        assert len(set(own)) == len(own), sid
        inherited = {key for aid in ancestors[sid] for key in _fact_keys(by_id[aid]["evidence"])}
        assert not inherited.intersection(own), (sid, inherited.intersection(own))
        if len(parents) == 2:
            evidence = state["evidence"]
            exploration = evidence["exploration"] or {"seen_entities": []}
            assert own == [] and not evidence["scratchpad"], sid
            assert exploration["seen_entities"] == [], sid
    assert rebuild_evidence(data) == {sid: s.evidence for sid, s in result.states.items()}
