"""Seeded inputs for the benchmark workloads.

Everything the program under test reads is generated here from the seed:
the node file, one question file per batch, and one replay script (or stub
response table) per batch. Alongside, each batch carries what its script
plants, so the benchmark can check every question's outcome.

The seed picks names, edges and which nodes the questions touch; it never
changes a workload's cost shape. Graph size, out-degree, the plan of every
question in a batch (when it finishes, which lookups miss) and the load-order
position of every lookup are fixed per workload, so a held-out seed measures
the same work.
"""

from __future__ import annotations

import json
import random
import re
import string
from dataclasses import dataclass, field
from pathlib import Path

NODE_TYPES = ("protein", "gene", "disease", "compound")
_TOKENS = re.compile(r"[0-9a-z]+")
VOCAB_SIZE = 400
WORD_LENGTH = 6

# Template phrases that occur in exactly one prompt template each, so a
# script entry keyed on one can never answer another kind of request.
SELECT_KEY = "Decide which choice is most promising"
SCORE_KEY = "Generate a score for the given reasoning chain."
MERGE_KEY = "Generate the next thought for the merged chain of thoughts."
PRUNE_RELATIONS_KEY = "select only the relevant relations to answer the question"
PRUNE_ENTITIES_KEY = "Select the tail entity or entities to answer the question."
END_CHECK_KEY = "whether it's sufficient for you to answer the original question"
ERROR_CLASS_KEY = "Decide which failure mode applies"
JUDGE_KEY = "You are grading a question answering system.\nQuestion: "
MERGE_REPLY = "Both chains point the same way; keep exploring."


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: run settings, input shape and why it exists."""

    name: str
    why: str
    run: dict
    nodes: int
    edges_per_node: int
    relations: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="agent-retrieval",
            why=(
                "tot/agent select k=t=3 d=3 on 10k nodes x4 edges, judge off, replay: "
                "RetrieveNode scans the graph (1/3 of queries miss), so kg retrieval dominates"
            ),
            run=dict(strategy="tot", interaction="agent", evaluator="select",
                     branching=3, retain=3, max_depth=3, judge="none", backend="replay"),
            nodes=10_000,
            edges_per_node=4,
            relations=("linked-to", "derived-from", "part-of", "regulates"),
        ),
        Workload(
            name="explore-merge",
            why=(
                "got/explore score k=t=3 d=2 search_depth=2 on 2k nodes x4 edges, judge llm, "
                "replay keeping every edge: prompts, llm calls, explore, merges and trace I/O"
            ),
            run=dict(strategy="got", interaction="explore", evaluator="score",
                     branching=3, retain=3, max_depth=2, search_depth=2, judge="llm",
                     backend="replay"),
            nodes=2_000,
            edges_per_node=4,
            relations=("linked-to", "derived-from", "part-of"),
        ),
        Workload(
            name="wire-latency",
            why=(
                "tot/agent k=t=3 d=3 on 200 nodes, judge llm, over HTTP to a stub that "
                "sleeps 10 ms per call and fails 1 in 20 once: serial model latency"
            ),
            run=dict(strategy="tot", interaction="agent", evaluator="select",
                     branching=3, retain=3, max_depth=3, judge="llm", backend="wire"),
            nodes=200,
            edges_per_node=4,
            relations=("linked-to", "derived-from", "part-of", "regulates"),
        ),
    )
}

#: Stub model server settings for the wire workload.
STUB_DELAY_S = 0.010
STUB_FAIL_EVERY = 20


@dataclass
class Graph:
    """The generated graph as the benchmark keeps it for checking outputs."""

    ids: list[str]
    names: list[str]
    edges: list[dict[str, list[str]]]
    index: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.index = {node_id: i for i, node_id in enumerate(self.ids)}

    def has_edge(self, head: str, relation: str, tail: str) -> bool:
        i = self.index.get(head)
        return i is not None and tail in self.edges[i].get(relation, ())

    def name_of(self, node_id: str) -> str:
        return self.names[self.index[node_id]]

    def best_match(self, query: str) -> int:
        """Reference retrieval, written from its contract: the first exact
        case-folded name match in load order, else the best token-overlap F1
        with the earlier node winning ties."""
        folded = query.casefold()
        wanted = set(_TOKENS.findall(query.lower()))
        best, best_score = -1, 0.0
        for i, name in enumerate(self.names):
            if name.casefold() == folded:
                return i
            have = set(_TOKENS.findall(name.lower()))
            overlap = len(wanted & have)
            if overlap:
                precision, recall = overlap / len(wanted), overlap / len(have)
                score = 2 * precision * recall / (precision + recall)
                if score > best_score:
                    best, best_score = i, score
        return best


@dataclass
class Expected:
    """What a question's script plants: its outcome, the thoughts its states
    may hold, and for agent workloads the observations every step at a given
    index must produce."""

    answer: str | None
    termination: str
    thoughts: set[str]
    observations: dict[int, list[str]] = field(default_factory=dict)


@dataclass
class Batch:
    questions: list[dict]
    script: list[dict]
    expected: dict[str, Expected]

    def write(self, directory: Path) -> tuple[Path, Path]:
        directory.mkdir(parents=True, exist_ok=True)
        questions_path = directory / "questions.lines"
        script_path = directory / "script.replay"
        _write_lines(questions_path, self.questions)
        _write_lines(script_path, self.script)
        return questions_path, script_path


def _write_lines(path: Path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")


def _vocabulary(rng: random.Random) -> list[str]:
    words: set[str] = set()
    while len(words) < VOCAB_SIZE:
        words.add("".join(rng.choice(string.ascii_lowercase) for _ in range(WORD_LENGTH)))
    return sorted(words)


def make_graph(workload: Workload, seed: int, path: Path) -> Graph:
    """Write the workload's node file and return the graph for checking."""
    rng = random.Random(f"{seed}:{workload.name}:graph")
    vocab = _vocabulary(rng)
    n = workload.nodes
    ids = [f"e{i:05d}" for i in range(n)]
    names = [f"{rng.choice(vocab)} {rng.choice(vocab)} {i}" for i in range(n)]
    edges: list[dict[str, list[str]]] = []
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(n):
            out: dict[str, list[str]] = {}
            chosen: set[tuple[str, int]] = set()
            while len(chosen) < workload.edges_per_node:
                pair = (rng.choice(workload.relations), rng.randrange(n))
                if pair in chosen or pair[1] == i:
                    continue
                chosen.add(pair)
                out.setdefault(pair[0], []).append(ids[pair[1]])
            edges.append(out)
            record = {
                "id": ids[i],
                "type": NODE_TYPES[i % len(NODE_TYPES)],
                "features": {"name": names[i], "summary": f"{NODE_TYPES[i % len(NODE_TYPES)]} record {i}"},
                "neighbors": out,
            }
            handle.write(json.dumps(record) + "\n")
    return Graph(ids=ids, names=names, edges=edges)


def _question(qid: str, text: str, answer: str) -> dict:
    return {"qid": qid, "question": text, "answer": answer, "difficulty": "medium",
            "domain": "synthetic"}


def _near(rng: random.Random, fraction: float, n: int) -> int:
    """A node index within half a percent of load order around ``fraction``,
    so the cost of reaching it barely depends on the seed."""
    return int(n * (fraction + 0.01 * (rng.random() - 0.5)))


# Question plans. A batch asks one question per plan, so the plans form three
# latency classes of equal size: the median falls in the middle of the middle
# class and the tail inside the top class, not on a boundary between classes
# that would flip with the sample count.
#
# Agent plan: the step whose reply is Finish (None runs to the depth limit),
# the judge verdict planted for the answer, and for every step before the
# Finish the query its RetrieveNode issues: a float is an exact name at that
# share of load order; "miss" is a name plus a token no node has, whose best
# F1 match is that node; "tie" is one word of a name plus that token, which
# several nodes match equally, so the earliest must win. Both have no exact
# match and force a full-graph scan; they are a third of all retrievals.
AGENT_PLANS = (
    (2, True, (0.2,)),
    (3, False, ("tie", 0.6)),
    (None, None, (0.9, "miss", 0.4)),
)
AGENT_STEPS = 3


def _agent_marker(qid: str, step: int) -> str:
    return f"(case {qid} step {step})"


def agent_batch(workload: Workload, graph: Graph, seed: int, batch: int) -> Batch:
    """Questions whose every agent step retrieves a node, reads its name and
    lists one relation of it; the script is keyed on each question's text."""
    rng = random.Random(f"{seed}:{workload.name}:batch:{batch}")
    n = len(graph.ids)
    questions: list[dict] = []
    keyed: list[dict] = []
    judged: list[dict] = []
    expected: dict[str, Expected] = {}
    for slot, (finish_step, verdict, positions) in enumerate(AGENT_PLANS):
        qid = f"b{batch:03d}q{slot}"
        targets, queries = [], []
        for position in positions:
            target = _near(rng, position if isinstance(position, float) else 0.5, n)
            query = graph.names[target]
            if position == "miss":
                query += " zq"
            elif position == "tie":
                query = query.split()[0] + " zq"
                target = graph.best_match(query)
            targets.append(target)
            queries.append(query)
        # Steps after the last lookup only Finish; their target is unused.
        targets.append(0)
        queries.append("")
        first = graph.names[targets[0]]
        text = f"What does {first} reach, step by step? (case {qid})"
        replies: list[str] = []
        thoughts: set[str] = set()
        observations: dict[int, list[str]] = {}
        answer: str | None = None
        for s in range(1, AGENT_STEPS + 1):
            target = targets[s - 1]
            tid = graph.ids[target]
            name = graph.names[target]
            query = queries[s - 1] or name
            thought = f"Look up {query} next. {_agent_marker(qid, s)}"
            thoughts.add(thought)
            if s == finish_step:
                previous = graph.edges[targets[s - 2]]
                answer = graph.name_of(next(iter(previous.values()))[0])
                replies.append(f"Thought {s}: {thought}\nAction {s}: Finish[{answer}]")
                observations[s] = []
                break
            relation, tails = next(iter(graph.edges[target].items()))
            replies.append(
                f"Thought {s}: {thought}\nAction {s}: RetrieveNode[{query}] then "
                f"NodeFeature[{tid}, name] then NeighborCheck[{tid}, {relation}]"
            )
            listing = ", ".join(f"'{t}'" for t in tails)
            observations[s] = [
                f"The ID of the node is {tid}.",
                f"{tid} -> {name}",
                f"The neighbors are [{listing}].",
            ]
        # Deepest step first: a later prompt also contains every earlier key.
        for s in range(len(replies), 1, -1):
            keyed.append({"case": qid, "match": _agent_marker(qid, s - 1), "response": replies[s - 1]})
        keyed.append({"case": qid, "match": f"(case {qid})\nThought 1:", "response": replies[0]})
        gold = answer if verdict else f"{first} itself"
        if answer is not None:
            judged.append({
                "case": qid,
                "match": JUDGE_KEY + text + "\n",
                "response": "[Yes] Same entity." if verdict else "[No] Different entity.",
            })
        questions.append(_question(qid, text, gold))
        expected[qid] = Expected(
            answer=answer,
            termination="finished" if answer is not None else "step_limit",
            thoughts=thoughts,
            observations=observations,
        )
    generic = [
        {"match": SELECT_KEY, "response": "All three look sound. The best choice is {{1, 2, 3}}"},
        {"match": ERROR_CLASS_KEY, "response": "[wrong_step] The evidence never held it."},
    ]
    return Batch(questions=questions, script=generic + keyed + judged, expected=expected)


# Explore plan: the search depth at whose first stop check the evidence is
# declared sufficient (None: never), and the planted judge verdict. Thoughts
# name two anchors at depth 1 and one at depth 2, all early in load order, so
# resolving them stays a small share of the work.
EXPLORE_PLANS = ((None, None), (2, True), (1, False))
EXPLORE_ANCHORS = ((0.1, 0.15), (0.2,))


def explore_batch(workload: Workload, graph: Graph, seed: int, batch: int) -> Batch:
    """Questions explored from their anchors, pruning keeping every
    edge: relation pruning names every relation, and entity pruning answers
    without brackets, so after its re-ask the first-N fallback keeps all tails."""
    rng = random.Random(f"{seed}:{workload.name}:batch:{batch}")
    n = len(graph.ids)
    questions: list[dict] = []
    keyed: list[dict] = []
    expected: dict[str, Expected] = {}
    for slot, (sufficient_at, verdict) in enumerate(EXPLORE_PLANS):
        qid = f"b{batch:03d}q{slot}"
        anchors = [
            [graph.names[_near(rng, fraction, n)] for fraction in depth]
            for depth in EXPLORE_ANCHORS
        ]
        answer = graph.names[rng.randrange(n)]
        text = f"What links {anchors[0][0]} and {anchors[0][1]}? (case {qid})"
        t1 = f"Step 1 of case {qid}: explore around {' and '.join(anchors[0])}."
        t2 = f"Step 2 of case {qid}: widen the search from {anchors[1][0]}."
        finish = f"The evidence suffices. Finish[{answer}]"
        entries = [
            {"match": f"Text: {t1}\nRelevant Entities:", "response": f"{{{{{', '.join(anchors[0])}}}}}"},
            {"match": f"Text: {t2}\nRelevant Entities:", "response": f"{{{{{anchors[1][0]}}}}}"},
            # The answer request after depth 2, whose thoughts end with t2.
            {"match": f"{t2}\nRelated Entity Attributes:", "response": finish},
            # Depth-2 thoughts, under a child or a merged state of depth 1; an
            # answer request at depth 1 has the same prompt.
            {"match": f"Previous thoughts:\n{t1}\n", "response": finish if sufficient_at == 1 else t2},
            {"match": f"(case {qid})\nKnowledge Triples:\n\nPrevious thoughts:\n\n", "response": t1},
        ]
        if sufficient_at == 1:
            entries.append({"match": f"Thoughts: {t1}\nKnowledge Triples:", "response": "{{Yes}}"})
        elif sufficient_at == 2:
            entries.append({"match": f"{t2}\nKnowledge Triples:", "response": "{{Yes}}"})
        final = answer if sufficient_at is not None else None
        if final is not None:
            entries.append({
                "match": JUDGE_KEY + text + "\n",
                "response": "[Yes] Same entity." if verdict else "[No] Different entity.",
            })
        keyed.extend(dict(entry, case=qid) for entry in entries)
        questions.append(_question(qid, text, answer if verdict else anchors[1][0]))
        expected[qid] = Expected(
            answer=final,
            termination="finished" if final is not None else "step_limit",
            thoughts={t1, t2, MERGE_REPLY},
        )
    relations = ", ".join(workload.relations)
    generic = [
        {"match": PRUNE_ENTITIES_KEY, "response": "Every tail entity may matter here."},
        {"match": PRUNE_RELATIONS_KEY, "response": f"{{{{{relations}}}}}"},
        {"match": SCORE_KEY, "response": "Score: 0.5"},
        {"match": MERGE_KEY, "response": MERGE_REPLY},
        {"match": ERROR_CLASS_KEY, "response": "[found_not_returned] It was in the evidence."},
    ]
    # The stop check defaults to "keep going"; it must come after the keyed
    # entries that declare some stop checks sufficient.
    tail = [{"match": END_CHECK_KEY, "response": "{{No}}"}]
    return Batch(questions=questions, script=generic + keyed + tail, expected=expected)


def make_batch(workload: Workload, graph: Graph, seed: int, batch: int) -> Batch:
    if workload.run["interaction"] == "explore":
        return explore_batch(workload, graph, seed, batch)
    return agent_batch(workload, graph, seed, batch)
