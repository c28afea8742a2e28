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

Model calls return parsed values only. ``expand_child`` builds every child
and ``run_search`` every other state: the root, and each merged state, which
``merged_state`` builds from the thought ``merge_pair`` returns. Beyond
that, ``evaluate_score`` sets scores and ``select_frontier`` prunes; no
other code changes a state.
"""

from __future__ import annotations

import logging
import re
from concurrent.futures import Executor, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, TypeVar

from . import kg
from .agent import Scratchpad, run_agent_step
from .costs import GENERATION_TAG, MERGE_TAG, CostCounters
from .evaluation import TERMINATION_FINISHED, TERMINATION_STEP_LIMIT, Question
from .explore import (
    ExplorationState,
    ExploreMemo,
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
    closing_bracket,
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
    Only ``explore`` runs read ``search_depth``; ``agent`` runs hold the
    default. The explore caps are the constants ``MAX_RELATIONS_PER_ENTITY``
    (3) and ``MAX_NEIGHBORS_PER_RELATION`` (5) of :mod:`.explore`. A value
    below 1 is rejected before any pin, even where ``cot`` or ``agent`` pins it.
    """

    strategy: str
    interaction: str = "agent"
    evaluator: str = "select"
    k: int = 3
    t: int = 3
    d_max: int = 3
    search_depth: int = 3

    def __post_init__(self) -> None:
        if self.strategy not in VALID_STRATEGIES:
            raise ValueError(f"strategy {self.strategy!r} not in {sorted(VALID_STRATEGIES)}")
        if self.interaction not in VALID_INTERACTIONS:
            raise ValueError(
                f"interaction {self.interaction!r} not in {sorted(VALID_INTERACTIONS)}"
            )
        if self.evaluator not in VALID_EVALUATORS:
            raise ValueError(f"evaluator {self.evaluator!r} not in {sorted(VALID_EVALUATORS)}")
        for name in ("k", "t", "d_max", "search_depth"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.strategy == "cot":
            object.__setattr__(self, "k", 1)
            object.__setattr__(self, "t", 1)
            object.__setattr__(self, "evaluator", "select")
        if self.interaction == "agent":
            object.__setattr__(self, "search_depth", SearchConfig.search_depth)


@dataclass
class SearchResult:
    answer: str | None
    states: dict[int, ThoughtState]
    frontier: list[int]
    counters: CostCounters
    termination: str


def _triples_part(state: ThoughtState) -> list[str]:
    """The ``Triples: ...`` part of a rendering, absent when the state holds none."""
    explored = state.evidence.exploration
    if explored is None or not explored.found_triples:
        return []
    return ["Triples: " + "; ".join(explored.triple_lines)]


def describe_candidate(state: ThoughtState) -> str:
    """Compact single-candidate rendering for evaluator prompts."""
    parts = [state.thought, *_triples_part(state)]
    explored = state.evidence.exploration
    if explored is not None and explored.relevant_attributes:
        hits = explored.relevant_attributes.values()
        parts.append("Attributes: " + "; ".join(map(render_attribute, hits)))
    if state.evidence.scratchpad is not None and state.evidence.scratchpad.steps:
        last = state.evidence.scratchpad.steps[-1]
        if last.observations:
            parts.append("Observations: " + " | ".join(last.observations))
    return " ".join(parts)


def describe_chain(state: ThoughtState) -> str:
    """Whole-chain rendering (thought log plus triples) for scoring/merging."""
    lines = list(state.evidence.thought_log) or [state.thought]
    return "\n".join(lines + _triples_part(state))


_FINISH_RE = re.compile(r"Finish\s*\[")


def parse_finish_answer(text: str) -> str:
    """Pull the payload out of the first Finish[...] span, kept whole."""
    match = _FINISH_RE.search(text)
    if match is None:
        raise MalformedOutputError(f"no Finish[...] span in: {text[:120]!r}")
    end = closing_bracket(text, match.end() - 1)
    if end is None:
        raise MalformedOutputError("unbalanced Finish[...] span")
    return text[match.end() : end].strip()


def _ground_agent(
    parent: ThoughtState,
    question: Question,
    graph: kg.KnowledgeGraph,
    backend: Backend,
    counters: CostCounters,
) -> tuple[str, Evidence]:
    pad = parent.evidence.scratchpad.clone() if parent.evidence.scratchpad else Scratchpad()
    answer = run_agent_step(pad, question, graph, backend, counters)
    thought = pad.steps[-1].thought if pad.steps else ""
    thought_log = list(parent.evidence.thought_log) + [thought]
    return thought, Evidence(thought_log=thought_log, scratchpad=pad, answer=answer)


def _ground_explore(
    parent: ThoughtState,
    question: Question,
    graph: kg.KnowledgeGraph,
    backend: Backend,
    counters: CostCounters,
    config: SearchConfig,
    memo: ExploreMemo | None,
) -> tuple[str, Evidence]:
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
    thought = complete(backend, request, counters).strip()
    thought_log = list(parent.evidence.thought_log) + [thought]
    surface_forms = extract_entities(thought, backend, counters, question.domain)
    # The search meters itself, so its graph cost holds no other task's work.
    search = CostCounters()
    anchors = resolve_anchors(graph, surface_forms, search)
    explore(
        question,
        anchors,
        exploration,
        config.search_depth,
        graph,
        backend,
        search,
        thoughts="\n".join(thought_log),
        memo=memo,
    )
    counters.add(search)
    counters.record_explore_search(search.kg_total())

    answer: str | None = None
    if exploration.sufficient:
        answer_request = thought_request(thought_log, "answer")
        answer = complete_with_reask(backend, answer_request, counters, parse_finish_answer, None)
    return thought, Evidence(thought_log=thought_log, exploration=exploration, answer=answer)


def expand_child(
    parent: ThoughtState,
    question: Question,
    graph: kg.KnowledgeGraph,
    backend: Backend,
    counters: CostCounters,
    config: SearchConfig,
    child_id: int,
    memo: ExploreMemo | None = None,
) -> ThoughtState:
    """Generate and ground one child of ``parent``.

    An explore child expands entities through ``memo``, its search's memo
    of entity expansions keyed by entity id (see :func:`explore`), and waits
    for the whole walk of an entity another child is expanding; without one
    its exploration makes its own.

    Generation is the one call in either driver that is not made through
    ``complete_with_reask``, so a ``TransportError`` can only come from it.
    The child is then born pruned, carrying its parent's thought log and no
    other evidence, so a flaky call costs one candidate rather than the run.
    """
    if config.interaction == "agent":
        ground = _ground_agent
    else:
        ground = partial(_ground_explore, config=config, memo=memo)
    try:
        thought, evidence = ground(parent, question, graph, backend, counters)
    except TransportError:
        logger.debug("child %d generation failed; born pruned", child_id)
        thought = "(generation failed)"
        evidence = Evidence(thought_log=list(parent.evidence.thought_log))
        status = STATUS_PRUNED
    else:
        status = STATUS_ACTIVE if evidence.answer is None else STATUS_FINISHED
    return ThoughtState(
        id=child_id,
        depth=parent.depth + 1,
        thought=thought,
        evidence=evidence,
        parents=(parent.id,),
        status=status,
    )


def _pick(run: str) -> int:
    """The choice number a run of digits names.

    A run of more than 18 significant digits is past any candidate list and
    reads as the out-of-range pick 0: ``int()`` refuses a run of over 4,300
    digits (Python 3.11+), and a reply may hold one.
    """
    digits = run.lstrip("0") or "0"
    return int(digits) if len(digits) <= 18 else 0


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
        runs = re.findall(r"\d+", span)
        if not runs:
            raise MalformedOutputError(f"no choice numbers in span {span!r}")
        return [_pick(run) for run in runs]

    picks = complete_with_reask(backend, request, counters, parse, [])
    in_range = [pick - 1 for pick in picks if 1 <= pick <= len(candidates)]
    order = dict.fromkeys(in_range + list(range(len(candidates))))
    return [candidates[i] for i in list(order)[:t]]


def evaluate_score(
    candidates: list[ThoughtState],
    t: int,
    question: Question,
    backend: Backend,
    counters: CostCounters,
    *,
    pool: Executor | None = None,
) -> list[ThoughtState]:
    """Score each candidate with one vote, clamped to [0, 1], and keep the
    top ``t``; ties break toward earlier creation. Every candidate keeps its
    score for later answer ranking. With ``t`` or fewer candidates no call
    is made. The votes are independent and run on ``pool`` when one is given.
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
        tasks.append(
            partial(complete_with_reask, backend, request, counters, parse=clamped, fallback=0.0)
        )
    for candidate, score in zip(candidates, _gather(pool, tasks)):
        candidate.score = score
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
    merged away are out. Returns retained ids in creation order; ``t`` or
    fewer eligible candidates are all retained, with no evaluator call.
    """
    eligible = [c for c in candidates if c.status in (STATUS_ACTIVE, STATUS_FINISHED)]
    if config.evaluator == "select":
        retained = evaluate_select(eligible, config.t, question, backend, counters)
    else:
        retained = evaluate_score(eligible, config.t, question, backend, counters, pool=pool)
    retained_ids = {c.id for c in retained}
    for candidate in eligible:
        if candidate.id not in retained_ids:
            candidate.status = STATUS_PRUNED
    return sorted(retained_ids)


def merge_pair(
    a: ThoughtState,
    b: ThoughtState,
    question: Question,
    backend: Backend,
    counters: CostCounters,
) -> str | None:
    """Ask for the thought that merges two same-depth active states.

    Returns the merged thought, or ``None`` when the merge completion comes
    back empty or fails. Neither input is changed: ``run_search`` builds the
    merged state from the thought with :func:`merged_state`.
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
    return thought


def merged_state(a: ThoughtState, b: ThoughtState, thought: str, merged_id: int) -> ThoughtState:
    """The state merging ``a`` and ``b`` under ``thought``.

    Its thought log is a's, then b's entries not already in it, then
    ``thought``; its scratchpad and exploration are the unions that
    :meth:`Scratchpad.merge` and :meth:`ExplorationState.merge` build. Both
    inputs are active children of one round, so they share an interaction:
    both hold a scratchpad or neither does, and so for an exploration. It
    has parents ``(a, b)`` and their depth; both inputs become
    ``merged_away``.
    """
    ea, eb = a.evidence, b.evidence
    thought_log = list(ea.thought_log)
    for entry in eb.thought_log:
        if entry not in thought_log:
            thought_log.append(entry)
    thought_log.append(thought)
    evidence = Evidence(
        thought_log=thought_log,
        scratchpad=(
            Scratchpad.merge(ea.scratchpad, eb.scratchpad) if ea.scratchpad is not None else None
        ),
        exploration=(
            ExplorationState.merge(ea.exploration, eb.exploration)
            if ea.exploration is not None
            else None
        ),
    )
    a.status = STATUS_MERGED_AWAY
    b.status = STATUS_MERGED_AWAY
    return ThoughtState(
        id=merged_id, depth=a.depth, thought=thought, evidence=evidence, parents=(a.id, b.id)
    )


def _gather(pool: Executor | None, tasks: list[Callable[[], T]]) -> list[T]:
    """Run independent zero-argument tasks and return their results in task order.

    Without a pool the tasks run inline, in order; with one they run through
    ``pool.map``, so the first failure in task order propagates and tasks not
    yet started are cancelled. Tasks meter into the question's one locked
    meter, whose tallies are sums, so counts do not depend on thread order.
    """
    mapper = map if pool is None else pool.map
    return list(mapper(lambda task: task(), tasks))


def run_search(
    question: Question,
    config: SearchConfig,
    graph: kg.KnowledgeGraph,
    backend: Backend,
) -> SearchResult:
    """Run one full search for a question.

    The search makes its own meter, a fresh :class:`CostCounters`, and
    returns it as ``SearchResult.counters``; work a caller does for the
    question afterwards (the judge) is metered into it there.

    Rounds proceed to the depth limit ``d_max``; the search ends early as
    soon as the retained frontier contains a finished state, answering with
    the best-scored (earliest-created on ties) finished state. An exhausted
    limit or an empty frontier ends the run with no answer.

    A round's expansions, merges and score votes are independent model
    work. When the backend declares ``max_in_flight`` above 1 they run on
    that many threads, otherwise inline; results are collected in state-id
    order either way, so the state graph does not depend on timing. Merged
    states are built here, on the calling thread, in pair order once every
    merge thought is back, so no worker changes a shared state. Explore
    children share one :class:`ExploreMemo`, made here and dropped when the
    search returns: it walks each entity once per search, a child reaching
    an entity another child is walking waits for that whole walk, and no
    question reuses another's expansions.
    """
    counters = CostCounters()
    memo = ExploreMemo()
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
                            expand_child, states[sid], question, graph, backend, counters,
                            config=config, child_id=next_id, memo=memo,
                        )
                    )
                    next_id += 1
            expansions = _gather(pool, tasks)
            for child in expansions:
                states[child.id] = child
            candidates = list(expansions)
            if config.strategy == "got":
                actives = [c for c in expansions if c.status == STATUS_ACTIVE]
                pairs = list(zip(actives[0::2], actives[1::2]))
                asks = [partial(merge_pair, a, b, question, backend, counters) for a, b in pairs]
                for (a, b), thought in zip(pairs, _gather(pool, asks)):
                    if thought is not None:
                        states[next_id] = merged_state(a, b, thought, next_id)
                        candidates.append(states[next_id])
                        next_id += 1
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
        states=states,
        frontier=list(frontier),
        counters=counters,
        termination=termination,
    )
