"""Search strategies over thought states: single chain, beam, and merge.

A run grows a DAG of thought states from a root holding the question. Each
round expands every frontier state into ``k`` children (one generation call
plus grounding via the configured interaction driver), optionally merges
adjacent expansion pairs, then keeps the best ``t`` candidates as the next
frontier. The single-chain strategy is the degenerate beam with k = t = 1;
the merge strategy is the beam plus pairwise merges.

Children are grounded either by one agent step against the graph or by one
round of automatic exploration seeded from entities extracted out of the
fresh thought.
"""

from __future__ import annotations

import logging
import re
from concurrent.futures import Executor, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, TypeVar

from . import kg
from .agent import AgentStep, Scratchpad, run_agent_step
from .costs import GENERATION_TAG, MERGE_TAG, CostCounters
from .evaluation import Question
from .explore import (
    ExplorationState,
    ExploreConfig,
    explore,
    extract_entities,
    render_attribute,
    resolve_anchors,
)
from .llm import (
    Backend,
    CompletionRequest,
    MalformedOutputError,
    TransportError,
    complete,
    complete_with_reask,
    parse_bracketed_answer,
    parse_last_number,
    request_for,
)

logger = logging.getLogger(__name__)

T = TypeVar("T")

VALID_STRATEGIES = frozenset({"cot", "tot", "got"})
VALID_EVALUATORS = frozenset({"select", "score"})
VALID_INTERACTIONS = frozenset({"agent", "explore"})

STATUS_ACTIVE = "active"
STATUS_PRUNED = "pruned"
STATUS_FINISHED = "finished"
STATUS_MERGED_AWAY = "merged_away"

VALID_STATUSES = frozenset({STATUS_ACTIVE, STATUS_PRUNED, STATUS_FINISHED, STATUS_MERGED_AWAY})

TERMINATION_FINISHED = "finished"
TERMINATION_STEP_LIMIT = "step_limit"


@dataclass
class Evidence:
    """What a thought state has gathered so far.

    The agent driver accumulates a scratchpad; the explore driver an
    exploration state, the one home of its triples and attributes.
    ``answer`` is set exactly on finished states.
    """

    thought_log: list[str] = field(default_factory=list)
    scratchpad: Scratchpad | None = None
    exploration: ExplorationState | None = None
    answer: str | None = None


@dataclass
class ThoughtState:
    id: int
    depth: int
    thought: str
    evidence: Evidence
    parents: tuple[int, ...]
    status: str = STATUS_ACTIVE
    score: float | None = None


@dataclass(frozen=True)
class SearchConfig:
    """Run parameters: every strategy stops after ``d_max`` rounds.

    ``tot``/``got`` expand ``k`` children per frontier state and retain a
    beam of ``t``. ``cot`` pins k = t = 1, so its one candidate per round
    never reaches an evaluator, and the evaluator is pinned to ``select``.
    Only ``explore`` runs read ``explore``; ``agent`` runs hold the default.
    """

    strategy: str
    interaction: str = "agent"
    evaluator: str = "select"
    k: int = 3
    t: int = 3
    d_max: int = 3
    score_votes: int = 1
    max_actions_per_step: int = 4
    explore: ExploreConfig = ExploreConfig()

    def __post_init__(self) -> None:
        if self.strategy not in VALID_STRATEGIES:
            raise ValueError(f"strategy {self.strategy!r} not in {sorted(VALID_STRATEGIES)}")
        if self.interaction not in VALID_INTERACTIONS:
            raise ValueError(
                f"interaction {self.interaction!r} not in {sorted(VALID_INTERACTIONS)}"
            )
        if self.evaluator not in VALID_EVALUATORS:
            raise ValueError(f"evaluator {self.evaluator!r} not in {sorted(VALID_EVALUATORS)}")
        if self.strategy == "cot":
            object.__setattr__(self, "k", 1)
            object.__setattr__(self, "t", 1)
            object.__setattr__(self, "evaluator", "select")
        if self.interaction == "agent":
            object.__setattr__(self, "explore", ExploreConfig())
        for name in ("k", "t", "d_max", "score_votes", "max_actions_per_step"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass
class ReasoningGraph:
    states: dict[int, ThoughtState]
    frontier: list[int]
    answer: str | None


@dataclass
class SearchResult:
    answer: str | None
    graph: ReasoningGraph
    counters: CostCounters
    termination: str


def describe_candidate(state: ThoughtState) -> str:
    """Compact single-candidate rendering for evaluator prompts."""
    parts = [state.thought]
    explored = state.evidence.exploration or ExplorationState()
    if explored.found_triples:
        parts.append("Triples: " + "; ".join(kg.render_triple(t) for t in explored.found_triples))
    if explored.relevant_attributes:
        parts.append(
            "Attributes: " + "; ".join(render_attribute(h) for h in explored.relevant_attributes)
        )
    if state.evidence.scratchpad is not None and state.evidence.scratchpad.steps:
        last = state.evidence.scratchpad.steps[-1]
        if last.observations:
            parts.append("Observations: " + " | ".join(last.observations))
    return " ".join(parts)


def describe_chain(state: ThoughtState) -> str:
    """Whole-chain rendering (thought log plus triples) for scoring/merging."""
    lines = list(state.evidence.thought_log) or [state.thought]
    explored = state.evidence.exploration or ExplorationState()
    if explored.found_triples:
        lines.append("Triples: " + "; ".join(kg.render_triple(t) for t in explored.found_triples))
    return "\n".join(lines)


_FINISH_RE = re.compile(r"Finish\s*\[")


def parse_finish_answer(text: str) -> str:
    """Pull the payload out of the first Finish[...] span, kept whole."""
    match = _FINISH_RE.search(text)
    if match is None:
        raise MalformedOutputError(f"no Finish[...] span in: {text[:120]!r}")
    depth = 0
    for i in range(match.end() - 1, len(text)):
        if text[i] == "[":
            depth += 1
        elif text[i] == "]":
            depth -= 1
            if depth == 0:
                return text[match.end() : i].strip()
    raise MalformedOutputError("unbalanced Finish[...] span")


def _born_pruned(parent: ThoughtState, child_id: int) -> ThoughtState:
    """The child whose generation call failed: pruned, carrying no evidence."""
    logger.debug("child %d generation failed; born pruned", child_id)
    return ThoughtState(
        id=child_id,
        depth=parent.depth + 1,
        thought="(generation failed)",
        evidence=Evidence(thought_log=list(parent.evidence.thought_log)),
        parents=(parent.id,),
        status=STATUS_PRUNED,
    )


def _expand_child_agent(
    parent: ThoughtState,
    question: Question,
    graph: kg.KnowledgeGraph,
    backend: Backend,
    counters: CostCounters,
    config: SearchConfig,
    child_id: int,
) -> ThoughtState:
    pad = parent.evidence.scratchpad.clone() if parent.evidence.scratchpad else Scratchpad()
    try:
        answer = run_agent_step(
            pad,
            question,
            graph,
            backend,
            counters,
            max_actions_per_step=config.max_actions_per_step,
        )
    except TransportError:
        return _born_pruned(parent, child_id)
    thought = pad.steps[-1].thought if pad.steps else ""
    evidence = Evidence(
        thought_log=list(parent.evidence.thought_log) + [thought],
        scratchpad=pad,
        answer=answer,
    )
    return ThoughtState(
        id=child_id,
        depth=parent.depth + 1,
        thought=thought,
        evidence=evidence,
        parents=(parent.id,),
        status=STATUS_FINISHED if answer is not None else STATUS_ACTIVE,
    )


def _expand_child_explore(
    parent: ThoughtState,
    question: Question,
    graph: kg.KnowledgeGraph,
    backend: Backend,
    counters: CostCounters,
    config: SearchConfig,
    child_id: int,
) -> ThoughtState:
    exploration = (
        parent.evidence.exploration.clone()
        if parent.evidence.exploration is not None
        else ExplorationState()
    )

    def thought_request(thought_log: list[str], tag: str) -> CompletionRequest:
        return request_for(
            "search_thought",
            {
                "graph_definition": kg.graph_definition(graph),
                "question": question.text,
                "triples": exploration.rendered_triples(),
                "thoughts": "\n".join(thought_log),
                "attributes": exploration.rendered_attributes(),
            },
            tag=tag,
            domain=question.domain,
        )

    request = thought_request(parent.evidence.thought_log, GENERATION_TAG)
    try:
        thought = complete(backend, request, counters).strip()
    except TransportError:
        return _born_pruned(parent, child_id)
    thought_log = list(parent.evidence.thought_log) + [thought]
    kg_before = counters.kg_total()
    surface_forms = extract_entities(thought, backend, counters, question.domain)
    anchors = resolve_anchors(graph, surface_forms, counters)
    explore(
        question,
        anchors,
        exploration,
        config.explore,
        graph,
        backend,
        counters,
        thoughts="\n".join(thought_log),
    )
    counters.record_explore_search(counters.kg_total() - kg_before)

    answer: str | None = None
    if exploration.sufficient:
        answer_request = thought_request(thought_log, "answer")
        answer = complete_with_reask(backend, answer_request, counters, parse_finish_answer, None)
    evidence = Evidence(
        thought_log=thought_log,
        exploration=exploration,
        answer=answer,
    )
    return ThoughtState(
        id=child_id,
        depth=parent.depth + 1,
        thought=thought,
        evidence=evidence,
        parents=(parent.id,),
        status=STATUS_FINISHED if answer is not None else STATUS_ACTIVE,
    )


def expand_child(
    parent: ThoughtState,
    question: Question,
    graph: kg.KnowledgeGraph,
    backend: Backend,
    counters: CostCounters,
    config: SearchConfig,
    child_id: int,
) -> ThoughtState:
    """Generate and ground one child of ``parent``.

    A transport failure during generation yields a child born pruned, so a
    flaky call costs one candidate rather than the whole run.
    """
    if config.interaction == "agent":
        return _expand_child_agent(parent, question, graph, backend, counters, config, child_id)
    return _expand_child_explore(parent, question, graph, backend, counters, config, child_id)


def evaluate_select(
    candidates: list[ThoughtState],
    t: int,
    question: Question,
    backend: Backend,
    counters: CostCounters,
) -> list[ThoughtState]:
    """One voting completion picks the ``t`` most promising candidates.

    The reply's bracketed span may name several choice numbers; missing or
    out-of-range picks are filled by candidate (creation) order, so exactly
    ``t`` states come back. With ``t`` or fewer candidates no call is made.
    """
    if len(candidates) <= t:
        return list(candidates)
    choices = "\n".join(f"{i}. {describe_candidate(c)}" for i, c in enumerate(candidates, 1))
    request = request_for(
        "selection_vote",
        {"question": question.text, "choices": choices},
        tag="select",
        domain=question.domain,
    )

    def parse(reply: str) -> list[int]:
        span = parse_bracketed_answer(reply)
        numbers = [int(x) for x in re.findall(r"\d+", span)]
        if not numbers:
            raise MalformedOutputError(f"no choice numbers in span {span!r}")
        return numbers

    picks = complete_with_reask(backend, request, counters, parse, [])
    retained: list[ThoughtState] = []
    seen: set[int] = set()
    for pick in picks:
        if 1 <= pick <= len(candidates) and pick not in seen:
            seen.add(pick)
            retained.append(candidates[pick - 1])
        if len(retained) == t:
            return retained
    for i, candidate in enumerate(candidates, 1):
        if i not in seen:
            retained.append(candidate)
        if len(retained) == t:
            break
    return retained


def evaluate_score(
    candidates: list[ThoughtState],
    t: int,
    question: Question,
    backend: Backend,
    counters: CostCounters,
    *,
    votes: int = 1,
    pool: Executor | None = None,
) -> list[ThoughtState]:
    """Score each candidate (mean of ``votes`` samples, clamped to [0, 1])
    and keep the top ``t``; ties break toward earlier creation. Every
    candidate keeps its score for later answer ranking. With ``t`` or fewer
    candidates no call is made. The votes are independent and run on
    ``pool`` when one is given.
    """
    if len(candidates) <= t:
        return list(candidates)

    def clamped(reply: str) -> float:
        return min(1.0, max(0.0, parse_last_number(reply)))

    tasks = []
    for candidate in candidates:
        request = request_for(
            "score_vote",
            {"question": question.text, "thoughts": describe_chain(candidate)},
            tag="score",
            domain=question.domain,
        )
        tasks += [
            partial(complete_with_reask, backend, request, parse=clamped, fallback=0.0)
        ] * votes
    values = _gather(pool, tasks, counters)
    for i, candidate in enumerate(candidates):
        candidate.score = sum(values[i * votes : (i + 1) * votes]) / votes
    ranked = sorted(candidates, key=lambda c: (-(c.score or 0.0), c.id))
    return ranked[:t]


def select_frontier(
    candidates: list[ThoughtState],
    config: SearchConfig,
    question: Question,
    backend: Backend,
    counters: CostCounters,
    *,
    pool: Executor | None = None,
) -> list[int]:
    """Retain up to ``t`` candidates and prune the rest.

    Only active and finished candidates compete; states already pruned or
    merged away are out. Returns retained ids in creation order.
    """
    eligible = [c for c in candidates if c.status in (STATUS_ACTIVE, STATUS_FINISHED)]
    if not eligible:
        return []
    if len(eligible) <= config.t:
        retained = eligible
    elif config.evaluator == "select":
        retained = evaluate_select(eligible, config.t, question, backend, counters)
    else:
        retained = evaluate_score(
            eligible, config.t, question, backend, counters, votes=config.score_votes, pool=pool
        )
    retained_ids = {c.id for c in retained}
    for candidate in eligible:
        if candidate.id not in retained_ids:
            candidate.status = STATUS_PRUNED
    return sorted(retained_ids)


def _merge_scratchpads(a: Scratchpad | None, b: Scratchpad | None) -> Scratchpad | None:
    if a is None and b is None:
        return None
    steps: list[AgentStep] = []
    seen: set[tuple[str, str]] = set()
    for pad in (a, b):
        if pad is None:
            continue
        for step in pad.steps:
            key = (step.thought, step.raw_action)
            if key in seen:
                continue
            seen.add(key)
            steps.append(replace(step, index=len(steps) + 1))
    return Scratchpad(steps=steps)


def merge_pair(
    a: ThoughtState,
    b: ThoughtState,
    question: Question,
    backend: Backend,
    counters: CostCounters,
    merged_id: int,
) -> ThoughtState | None:
    """Try to merge two same-depth active states into one.

    On success both inputs become ``merged_away`` and the merged state
    (deduplicated union of their evidence, parents ``(a, b)``, same depth)
    is returned. An empty or failed merge completion aborts: ``None`` comes
    back and the inputs stay active.
    """
    if a.status != STATUS_ACTIVE or b.status != STATUS_ACTIVE:
        raise ValueError("merge_pair requires two active states")
    if a.depth != b.depth:
        raise ValueError(f"merge_pair requires equal depths, got {a.depth} and {b.depth}")
    request = request_for(
        "got_merge",
        {
            "question": question.text,
            "chain_1": describe_chain(a),
            "chain_2": describe_chain(b),
            "merged_chain": "",
        },
        tag=MERGE_TAG,
        domain=question.domain,
    )

    def parse(reply: str) -> str:
        thought = reply.strip()
        if not thought:
            raise MalformedOutputError("empty merge thought")
        return thought

    thought = complete_with_reask(backend, request, counters, parse, None)
    if thought is None:
        logger.debug("merge of %d and %d aborted", a.id, b.id)
        return None

    thought_log = list(a.evidence.thought_log)
    for entry in b.evidence.thought_log:
        if entry not in thought_log:
            thought_log.append(entry)
    thought_log.append(thought)

    exploration: ExplorationState | None = None
    if a.evidence.exploration is not None or b.evidence.exploration is not None:
        exploration = ExplorationState.merge(
            a.evidence.exploration or ExplorationState(),
            b.evidence.exploration or ExplorationState(),
        )

    merged = ThoughtState(
        id=merged_id,
        depth=a.depth,
        thought=thought,
        evidence=Evidence(
            thought_log=thought_log,
            scratchpad=_merge_scratchpads(a.evidence.scratchpad, b.evidence.scratchpad),
            exploration=exploration,
        ),
        parents=(a.id, b.id),
    )
    a.status = STATUS_MERGED_AWAY
    b.status = STATUS_MERGED_AWAY
    return merged


def _gather(
    pool: Executor | None, tasks: list[Callable[..., T]], counters: CostCounters
) -> list[T]:
    """Run independent tasks and return their results in task order.

    Each task is called as ``task(counters=meters)`` with meters of its own,
    folded into ``counters`` in task order once all are done, so a task's
    meters (an explore search's cost among them) never hold another task's
    work. Without a pool the tasks run inline, in order; with one, the first
    failure in task order propagates and tasks not yet started are cancelled.
    """
    meters = [CostCounters() for _ in tasks]
    if pool is None:
        results = [task(counters=m) for task, m in zip(tasks, meters)]
    else:
        futures = [pool.submit(task, counters=m) for task, m in zip(tasks, meters)]
        try:
            results = [future.result() for future in futures]
        except BaseException:
            for future in futures:
                future.cancel()
            raise
    for m in meters:
        counters.add(m)
    return results


def run_search(
    question: Question,
    config: SearchConfig,
    graph: kg.KnowledgeGraph,
    backend: Backend,
    counters: CostCounters | None = None,
) -> SearchResult:
    """Run one full search for a question.

    Rounds proceed to the depth limit ``d_max``; the search ends early as
    soon as the retained frontier contains a finished state, answering with
    the best-scored (earliest-created on ties) finished state. An exhausted
    limit or an empty frontier ends the run with no answer.

    A round's expansions, merges and score votes are independent model
    work. When the backend declares ``max_in_flight`` above 1 they run on
    that many threads, otherwise inline; results are collected in state-id
    order either way, so the state graph does not depend on timing.
    """
    if counters is None:
        counters = CostCounters()
    root = ThoughtState(
        id=0, depth=0, thought=question.text, evidence=Evidence(), parents=()
    )
    states: dict[int, ThoughtState] = {0: root}
    frontier = [0]
    next_id = 1
    answer: str | None = None
    termination = TERMINATION_STEP_LIMIT

    width = getattr(backend, "max_in_flight", 1)
    with ThreadPoolExecutor(width) if width > 1 else nullcontext() as pool:
        for _ in range(config.d_max):
            tasks = []
            for sid in frontier:
                for _ in range(config.k):
                    tasks.append(
                        partial(
                            expand_child, states[sid], question, graph, backend,
                            config=config, child_id=next_id,
                        )
                    )
                    next_id += 1
            expansions = _gather(pool, tasks, counters)
            for child in expansions:
                states[child.id] = child
            candidates = list(expansions)
            if config.strategy == "got":
                actives = [c for c in expansions if c.status == STATUS_ACTIVE]
                # Ids go to successful merges only, in pair order, once all
                # are back; -1 holds the place until then.
                pairs = [
                    partial(merge_pair, a, b, question, backend, merged_id=-1)
                    for a, b in zip(actives[0::2], actives[1::2])
                ]
                for merged in _gather(pool, pairs, counters):
                    if merged is not None:
                        merged.id = next_id
                        states[next_id] = merged
                        next_id += 1
                        candidates.append(merged)
            frontier = select_frontier(candidates, config, question, backend, counters, pool=pool)
            if not frontier:
                break
            finished = [states[i] for i in frontier if states[i].status == STATUS_FINISHED]
            if finished:
                best = min(
                    finished,
                    key=lambda s: ((-s.score) if s.score is not None else float("inf"), s.id),
                )
                answer = best.evidence.answer
                termination = TERMINATION_FINISHED
                break

    return SearchResult(
        answer=answer,
        graph=ReasoningGraph(states=states, frontier=list(frontier), answer=answer),
        counters=counters,
        termination=termination,
    )
