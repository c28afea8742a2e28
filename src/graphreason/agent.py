"""Stepwise agent that interleaves thoughts with graph lookups.

Each step asks the model for a thought plus one or more actions, executes
the actions against the graph store, and appends the observations to a
scratchpad that is replayed into the next prompt. ``Finish[...]`` ends the
run immediately; its payload — commas and all — is the answer.

Both ``NeighborCheck`` and the ``NeighbourCheck`` spelling used in prompt
examples are accepted and normalized to the former.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field, replace

from . import kg
from .costs import GENERATION_TAG, CostCounters
from .evaluation import Question
from .llm import Backend, MalformedOutputError, complete, reask_request, request_for

logger = logging.getLogger(__name__)

ACTION_RETRIEVE = "RetrieveNode"
ACTION_FEATURE = "NodeFeature"
ACTION_NEIGHBORS = "NeighborCheck"
ACTION_DEGREE = "NodeDegree"
ACTION_FINISH = "Finish"

_ARITY = {
    ACTION_RETRIEVE: 1,
    ACTION_FEATURE: 2,
    ACTION_NEIGHBORS: 2,
    ACTION_DEGREE: 2,
}

_SPELLING_ALIASES = {"NeighbourCheck": ACTION_NEIGHBORS}

_KNOWN_NAMES = frozenset(_ARITY) | {ACTION_FINISH} | frozenset(_SPELLING_ALIASES)

DEFAULT_MAX_ACTIONS_PER_STEP = 4

ACTION_REMINDER = (
    "\nReminder: reply with a Thought followed by a line of the form "
    "'Action <i>: ActionName[arguments]'."
)


class MalformedActionError(MalformedOutputError):
    """The step reply had no usable action."""


@dataclass(frozen=True)
class AgentAction:
    kind: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class AgentStep:
    """One executed step: thought, actions as parsed and as written, feedback.

    Frozen, so a child's scratchpad shares its ancestors' steps.
    """

    index: int
    thought: str
    raw_action: str
    actions: tuple[AgentAction, ...]
    observations: tuple[str, ...]
    malformed: bool = False


@dataclass
class Scratchpad:
    steps: list[AgentStep] = field(default_factory=list)

    def next_index(self) -> int:
        return len(self.steps) + 1

    def render(self, next_index: int | None = None) -> str:
        lines: list[str] = []
        for step in self.steps:
            lines.append(f"Thought {step.index}: {step.thought}")
            if step.malformed:
                lines.append(f"Action {step.index}: (malformed output; no operation executed)")
                continue
            lines.append(f"Action {step.index}: {step.raw_action}")
            for obs in step.observations:
                lines.append(f"Observation {step.index}: {obs}")
        if next_index is not None:
            lines.append(f"Thought {next_index}:")
        return "\n".join(lines)

    def clone(self) -> "Scratchpad":
        return Scratchpad(steps=list(self.steps))

    @classmethod
    def merge(cls, a: "Scratchpad", b: "Scratchpad") -> "Scratchpad":
        """a's steps then b's, each ``(thought, raw_action)`` once, renumbered from 1."""
        steps: dict[tuple[str, str], AgentStep] = {}
        for step in a.steps + b.steps:
            key = (step.thought, step.raw_action)
            if key not in steps:
                steps[key] = replace(step, index=len(steps) + 1)
        return cls(steps=list(steps.values()))


_ACTION_MARKER_RE = re.compile(r"\bAction(?:\s+\d+)?\s*:")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_THOUGHT_PREFIX_RE = re.compile(r"^Thought(?:\s+\d+)?\s*:\s*")


def _split_top_level(content: str) -> list[str]:
    """Split on commas outside nested brackets; arguments are trimmed."""
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for char in content:
        if char == "[":
            depth += 1
        elif char == "]":
            depth -= 1
        if char == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(char)
    parts.append("".join(current).strip())
    return parts


def _scan_spans(text: str):
    """Yield (name, bracket_content) for each capitalized Name[...] span.

    Lowercase identifiers followed by brackets are treated as prose, not
    actions, so trailing commentary cannot corrupt a parse.
    """
    pos = 0
    while True:
        match = _NAME_RE.search(text, pos)
        if match is None:
            return
        name = match.group(0)
        cursor = match.end()
        while cursor < len(text) and text[cursor] in " \t":
            cursor += 1
        if cursor >= len(text) or text[cursor] != "[" or not name[0].isupper():
            pos = match.end()
            continue
        depth = 0
        end = None
        for i in range(cursor, len(text)):
            if text[i] == "[":
                depth += 1
            elif text[i] == "]":
                depth -= 1
                if depth == 0:
                    end = i
                    break
        if end is None:
            raise MalformedActionError(f"unbalanced brackets in action text: {text[pos:pos+80]!r}")
        yield name, text[cursor + 1 : end]
        pos = end + 1


def parse_actions(text: str) -> list[AgentAction]:
    """Parse every action span after the first 'Action' marker.

    A ``Finish`` span stops the parse; whatever follows it is dropped. Its
    bracket content is kept whole as a single payload argument, so an answer
    like ``Finish[head, skin of body]`` is not split.

    Raises:
        MalformedActionError: no marker, no span, unknown name, or bad arity.
    """
    marker = _ACTION_MARKER_RE.search(text)
    if marker is None:
        raise MalformedActionError("no 'Action:' marker in reply")
    actions: list[AgentAction] = []
    for name, content in _scan_spans(text[marker.end() :]):
        kind = _SPELLING_ALIASES.get(name, name)
        if kind not in _KNOWN_NAMES:
            raise MalformedActionError(f"unknown action name {name!r}")
        if kind == ACTION_FINISH:
            payload = content.strip()
            actions.append(AgentAction(ACTION_FINISH, (payload,) if payload else ()))
            break
        args = _split_top_level(content)
        if len(args) != _ARITY[kind]:
            raise MalformedActionError(
                f"{kind} takes {_ARITY[kind]} argument(s), got {len(args)}: {content!r}"
            )
        actions.append(AgentAction(kind, tuple(args)))
    if not actions:
        raise MalformedActionError("no action span after the 'Action:' marker")
    return actions


def execute_action(graph: kg.KnowledgeGraph, action: AgentAction, counters: CostCounters) -> str:
    """Run one non-Finish action; errors come back as observation text."""
    if action.kind == ACTION_RETRIEVE:
        counters.record_kg_op("retrieve_node")
        (query,) = action.args
        try:
            node_id = kg.retrieve_node(graph, query)
        except kg.EmptyGraphError:
            return "The graph has no nodes."
        except kg.NoMatchError:
            return f"No node matches the query '{query}'."
        return f"The ID of the node is {node_id}."
    if action.kind == ACTION_FEATURE:
        counters.record_kg_op("node_feature")
        node_id, feature = action.args
        try:
            value = kg.node_feature(graph, node_id, feature)
        except kg.UnknownNodeError:
            return f"No such node: {node_id}."
        except kg.FeatureAbsentError:
            return f"Node {node_id} has no feature '{feature}'."
        return f"{node_id} -> {value}"
    if action.kind == ACTION_NEIGHBORS:
        counters.record_kg_op("neighbor_check")
        node_id, relation = action.args
        try:
            neighbors = kg.neighbor_check(graph, node_id, relation)
        except kg.UnknownNodeError:
            return f"No such node: {node_id}."
        listing = ", ".join(f"'{n}'" for n in neighbors)
        return f"The neighbors are [{listing}]."
    if action.kind == ACTION_DEGREE:
        counters.record_kg_op("node_degree")
        node_id, relation = action.args
        try:
            degree = kg.node_degree(graph, node_id, relation)
        except kg.UnknownNodeError:
            return f"No such node: {node_id}."
        return f"The number of '{relation}' neighbors is {degree}."
    raise ValueError(f"cannot execute action kind {action.kind!r}")


def _parse_step_reply(text: str) -> tuple[str, str, list[AgentAction]]:
    marker = _ACTION_MARKER_RE.search(text)
    if marker is None:
        raise MalformedActionError("no 'Action' marker in step reply")
    thought = _THOUGHT_PREFIX_RE.sub("", text[: marker.start()].strip(), count=1).strip()
    raw_action = text[marker.end() :].strip()
    return thought, raw_action, parse_actions(text)


def run_agent_step(
    scratchpad: Scratchpad,
    question: Question,
    graph: kg.KnowledgeGraph,
    backend: Backend,
    counters: CostCounters,
    *,
    max_actions_per_step: int = DEFAULT_MAX_ACTIONS_PER_STEP,
) -> str | None:
    """Run one thought/action/observation step, appending it to ``scratchpad``.

    Returns the Finish payload (possibly ``""``) when the step issued
    Finish, else None to keep going. A reply that stays malformed after one
    re-ask is recorded as a no-op step that still counts toward the step
    limit.
    """
    index = scratchpad.next_index()
    request = request_for(
        "agent_step",
        {
            "graph_definition": kg.graph_definition(graph),
            "question": question.text,
            "scratchpad": scratchpad.render(next_index=index),
        },
        tag=GENERATION_TAG,
        domain=question.domain,
    )
    reply = complete(backend, request, counters)
    try:
        thought, raw_action, actions = _parse_step_reply(reply)
    except MalformedActionError:
        # Not complete_with_reask: the no-op step below records the second reply.
        reply = complete(backend, reask_request(request, ACTION_REMINDER), counters)
        try:
            thought, raw_action, actions = _parse_step_reply(reply)
        except MalformedActionError:
            logger.debug("step %d stayed malformed after re-ask", index)
            scratchpad.steps.append(
                AgentStep(
                    index=index,
                    thought=reply.strip(),
                    raw_action="",
                    actions=(),
                    observations=(),
                    malformed=True,
                )
            )
            return None

    observations: list[str] = []
    finish_answer: str | None = None
    executed = 0
    for action in actions:
        if action.kind == ACTION_FINISH:
            finish_answer = action.args[0] if action.args else ""
            break
        if executed >= max_actions_per_step:
            observations.append(f"Action limit reached; {action.kind} was not executed.")
            continue
        observations.append(execute_action(graph, action, counters))
        executed += 1
    scratchpad.steps.append(
        AgentStep(
            index=index,
            thought=thought,
            raw_action=raw_action,
            actions=tuple(actions),
            observations=tuple(observations),
        )
    )
    return finish_answer

