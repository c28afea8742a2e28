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
from dataclasses import dataclass, field

from . import kg
from .costs import GENERATION_TAG, MAX_ACTIONS_PER_STEP, CostCounters
from .evaluation import Question
from .llm import (
    Backend, MalformedOutputError, closing_bracket, complete, reask_request, request_for
)

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

    Frozen, so a child's scratchpad shares its ancestors' steps. Its number
    is its position in the scratchpad, counted from 1.
    """

    thought: str
    raw_action: str
    actions: tuple[AgentAction, ...]
    observations: tuple[str, ...]
    malformed: bool = False


@dataclass
class Scratchpad:
    steps: list[AgentStep] = field(default_factory=list)

    def render(self, next_index: int | None = None) -> str:
        lines: list[str] = []
        for index, step in enumerate(self.steps, 1):
            lines.append(f"Thought {index}: {step.thought}")
            if step.malformed:
                lines.append(f"Action {index}: (malformed output; no operation executed)")
                continue
            lines.append(f"Action {index}: {step.raw_action}")
            for obs in step.observations:
                lines.append(f"Observation {index}: {obs}")
        if next_index is not None:
            lines.append(f"Thought {next_index}:")
        return "\n".join(lines)

    def clone(self) -> "Scratchpad":
        return Scratchpad(steps=list(self.steps))

    @classmethod
    def merge(cls, a: "Scratchpad", b: "Scratchpad") -> "Scratchpad":
        """a's steps then b's, each ``(thought, raw_action)`` once; the steps are shared."""
        steps: dict[tuple[str, str], AgentStep] = {}
        for step in a.steps + b.steps:
            steps.setdefault((step.thought, step.raw_action), step)
        return cls(steps=list(steps.values()))


_ACTION_MARKER_RE = re.compile(r"\bAction(?:\s+\d+)?\s*:")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_THOUGHT_PREFIX_RE = re.compile(r"^Thought(?:\s+\d+)?\s*:\s*")


def _split_top_level(content: str) -> list[str]:
    """Split on commas outside nested brackets; arguments are trimmed.

    ``content`` is the inside of a balanced span, so every ``[`` in it closes.
    """
    parts: list[str] = []
    start = i = 0
    while i < len(content):
        if content[i] == "[":
            i = closing_bracket(content, i)
        elif content[i] == ",":
            parts.append(content[start:i].strip())
            start = i + 1
        i += 1
    parts.append(content[start:].strip())
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
        end = closing_bracket(text, cursor)
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


#: The node lookups by action kind: the ``kg`` function, also the kind its
#: cost is metered under, and the observation its result gives.
_NODE_LOOKUPS = {
    ACTION_FEATURE: ("node_feature", lambda node_id, feature, value: f"{node_id} -> {value}"),
    ACTION_NEIGHBORS: (
        "neighbor_check",
        lambda node_id, relation, ids: (
            "The neighbors are [" + ", ".join(f"'{n}'" for n in ids) + "]."
        ),
    ),
    ACTION_DEGREE: (
        "node_degree",
        lambda node_id, relation, degree: f"The number of '{relation}' neighbors is {degree}.",
    ),
}


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
    if action.kind not in _NODE_LOOKUPS:
        raise ValueError(f"cannot execute action kind {action.kind!r}")
    op, observation = _NODE_LOOKUPS[action.kind]
    counters.record_kg_op(op)
    node_id, key = action.args
    try:
        # Found by name at call time, so a function rebound on ``kg`` is the one called.
        found = getattr(kg, op)(graph, node_id, key)
    except kg.UnknownNodeError:
        return f"No such node: {node_id}."
    except kg.FeatureAbsentError:
        return f"Node {node_id} has no feature '{key}'."
    return observation(node_id, key, found)


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
) -> str | None:
    """Run one thought/action/observation step, appending it to ``scratchpad``.

    Returns the Finish payload (possibly ``""``) when the step issued
    Finish, else None to keep going. At most ``MAX_ACTIONS_PER_STEP`` graph
    actions run; later ones are observed as skipped. A reply that stays
    malformed after one re-ask is recorded as a no-op step that still counts
    toward the step limit.
    """
    index = len(scratchpad.steps) + 1
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
    malformed = False
    try:
        thought, raw_action, actions = _parse_step_reply(reply)
    except MalformedActionError:
        # Not complete_with_reask: the no-op step records the second reply.
        reply = complete(backend, reask_request(request, ACTION_REMINDER), counters)
        try:
            thought, raw_action, actions = _parse_step_reply(reply)
        except MalformedActionError:
            logger.debug("step %d stayed malformed after re-ask", index)
            thought, raw_action, actions, malformed = reply.strip(), "", [], True

    # Until the cap, each executed action adds exactly one observation.
    observations: list[str] = []
    finish_answer: str | None = None
    for action in actions:
        if action.kind == ACTION_FINISH:
            finish_answer = action.args[0] if action.args else ""
            break
        if len(observations) >= MAX_ACTIONS_PER_STEP:
            observations.append(f"Action limit reached; {action.kind} was not executed.")
            continue
        observations.append(execute_action(graph, action, counters))
    scratchpad.steps.append(
        AgentStep(
            thought=thought,
            raw_action=raw_action,
            actions=tuple(actions),
            observations=tuple(observations),
            malformed=malformed,
        )
    )
    return finish_answer

