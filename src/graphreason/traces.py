"""Run artifacts: trace records, their serialization, and validation.

A trace is the full account of one question's run — every thought state
with its evidence, the final frontier, the answer, the cost meters, and
the evaluation block — written as one line of canonical JSON (sorted keys,
no indent) so replay runs are byte-identical. The validator re-checks the
structural invariants on the raw dict, so hand-edited or truncated artifacts
are caught.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import kg
from .agent import Scratchpad
from .evaluation import ERROR_CLASSES, ERROR_CORRECT, ERROR_REACHED_LIMIT, Question
from .explore import AttributeHit, ExplorationState, render_attribute
from .strategies import (
    STATUS_ACTIVE,
    STATUS_FINISHED,
    TERMINATION_FINISHED,
    TERMINATION_STEP_LIMIT,
    SearchResult,
    ThoughtState,
    VALID_STATUSES,
)

TRACE_SCHEMA = "trace/v2"
RESULTS_SCHEMA = "results/v1"
REPORT_SCHEMA = "report/v1"
SWEEP_SCHEMA = "sweep/v1"


def _serialize_scratchpad(pad: Scratchpad | None) -> list[dict] | None:
    """Each step's fields and its position from 1 as ``index``, its tuples
    written as lists so a loaded trace equals the one built in memory."""
    if pad is None:
        return None
    return [
        {
            **vars(step),
            "index": index,
            "actions": [{"kind": a.kind, "args": list(a.args)} for a in step.actions],
            "observations": list(step.observations),
        }
        for index, step in enumerate(pad.steps, 1)
    ]


def _serialize_exploration(exploration: ExplorationState | None) -> dict | None:
    """What an exploration has seen; its triples and attributes are written
    once, as the state's ``evidence.triples``/``evidence.attributes``."""
    if exploration is None:
        return None
    return {
        "seen_entities": {
            eid: vars(meta).copy() for eid, meta in exploration.seen_entities.items()
        },
        "sufficient": exploration.sufficient,
    }


def _serialize_state(state: ThoughtState) -> dict:
    """A state's fields; triple, attribute and seen-entity rows hold exactly
    the fields of their records, which ``TraceRecord.evidence_strings``
    reads back."""
    evidence = state.evidence
    explored = evidence.exploration or ExplorationState()
    return {
        "id": state.id,
        "depth": state.depth,
        "thought": state.thought,
        "parents": list(state.parents),
        "status": state.status,
        "score": state.score,
        "evidence": {
            "triples": [vars(t).copy() for t in explored.found_triples.values()],
            "attributes": [vars(h).copy() for h in explored.relevant_attributes.values()],
            "thought_log": list(evidence.thought_log),
            "answer": evidence.answer,
            "scratchpad": _serialize_scratchpad(evidence.scratchpad),
            "exploration": _serialize_exploration(evidence.exploration),
        },
    }


@dataclass
class TraceRecord:
    """One run's artifact, held in its serialized (dict) shape."""

    qid: str
    question: dict
    config: dict
    states: list[dict]
    frontier: list[int]
    answer: str | None
    termination: str
    counters: dict
    eval: dict = field(default_factory=dict)
    schema: str = TRACE_SCHEMA

    def evidence_strings(self) -> list[str]:
        """All observation and triple strings, deduplicated in order."""
        strings: list[str] = []
        seen: set[str] = set()

        def push(text: str) -> None:
            if text and text not in seen:
                seen.add(text)
                strings.append(text)

        for state in self.states:
            evidence = state.get("evidence", {})
            pad = evidence.get("scratchpad") or []
            for step in pad:
                for obs in step.get("observations", []):
                    push(obs)
            for triple in evidence.get("triples", []):
                push(kg.render_triple(kg.Triple(**triple)))
            for hit in evidence.get("attributes", []):
                push(render_attribute(AttributeHit(**hit)))
        return strings

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def build_trace(
    question: Question,
    config: dict,
    result: SearchResult,
    eval_block: dict | None = None,
) -> TraceRecord:
    states = [_serialize_state(result.states[sid]) for sid in sorted(result.states)]
    return TraceRecord(
        qid=question.qid,
        question={
            "text": question.text,
            "gold_answer": question.gold_answer,
            "difficulty": question.difficulty,
            "domain": question.domain,
        },
        config=dict(config),
        states=states,
        frontier=list(result.frontier),
        answer=result.answer,
        termination=result.termination,
        counters=result.counters.as_dict(),
        eval=dict(eval_block) if eval_block else {},
    )


def serialize_trace(trace: TraceRecord) -> str:
    # No indent: CPython 3.10/3.11 use the C encoder only when ``indent`` is None.
    return json.dumps(trace.as_dict(), sort_keys=True) + "\n"


def write_trace(trace: TraceRecord, path: str | Path) -> None:
    """Write the trace to a temporary file beside ``path``, then rename it
    into place, so ``path`` never holds a partly written trace."""
    path = Path(path)
    partial = path.with_name(path.name + ".tmp")
    try:
        partial.write_text(serialize_trace(trace), encoding="utf-8")
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def load_trace(path: str | Path) -> TraceRecord:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return trace_from_dict(data)


def trace_from_dict(data: dict) -> TraceRecord:
    return TraceRecord(
        qid=data["qid"],
        question=data["question"],
        config=data["config"],
        states=data["states"],
        frontier=data["frontier"],
        answer=data["answer"],
        termination=data["termination"],
        counters=data["counters"],
        eval=data.get("eval", {}),
        schema=data.get("schema", ""),
    )


_JSON_NAMES = {dict: "an object", list: "a list", str: "a string", bool: "a boolean",
               int: "a number", float: "a number", type(None): "null"}


def _json_type(value: object) -> str:
    return _JSON_NAMES.get(type(value), type(value).__name__)


def validate_trace(data: object) -> list[str]:
    """Check a raw trace against the structural invariants.

    Takes any JSON value: a hand-edited trace whose fields have the wrong
    JSON type is reported, never raised on. Returns human-readable violation
    strings; an empty list means the trace is well-formed.
    """
    violations: list[str] = []
    bad = violations.append

    def typed(holder: dict, key: str, kind: type, where: str = "") -> dict | list:
        """``holder[key]`` if it is a ``kind`` (absent reads as empty), else
        report it and read an empty one."""
        value = holder.get(key, kind())
        if isinstance(value, kind):
            return value
        bad(f"{where}{key} must be {_JSON_NAMES[kind]}, got {_json_type(value)}")
        return kind()

    if not isinstance(data, dict):
        bad(f"a trace must be an object, got {_json_type(data)}")
        return violations
    if data.get("schema") != TRACE_SCHEMA:
        bad(f"schema is {data.get('schema')!r}, expected {TRACE_SCHEMA!r}")
    states = data.get("states")
    if not isinstance(states, list) or not states:
        bad("states must be a nonempty list")
        return violations

    strategy = typed(data, "config", dict).get("strategy")
    by_id: dict[int, dict] = {}
    previous_id = -1
    for position, state in enumerate(states):
        if not isinstance(state, dict):
            bad(f"state at position {position} must be an object, got {_json_type(state)}")
            return violations
        sid = state.get("id")
        if not isinstance(sid, int) or sid <= previous_id:
            bad(f"state ids must be strictly increasing, got {sid!r} after {previous_id}")
            return violations
        if not isinstance(state.get("depth"), int):
            bad(f"state {sid}: depth must be an integer, got {state.get('depth')!r}")
            return violations
        previous_id = sid
        by_id[sid] = state

    root = states[0]
    if root.get("id") != 0 or root.get("depth") != 0 or root.get("parents"):
        bad("first state must be the root: id 0, depth 0, no parents")

    max_parents = 2 if strategy == "got" else 1
    for state in states:
        sid = state["id"]
        where = f"state {sid}: "
        evidence = typed(state, "evidence", dict, where)
        triples = typed(evidence, "triples", list, where + "evidence.")
        try:
            keys = {(t.get("head_id"), t.get("relation"), t.get("tail_id")) for t in triples}
        except (AttributeError, TypeError):  # a triple that is no object, or a list id
            bad(f"state {sid}: every triple must be an object with scalar ids")
        else:
            if len(keys) != len(triples):
                bad(f"state {sid}: duplicate triples in evidence")
        pad = evidence.get("scratchpad")
        if pad and not (isinstance(pad, list) and all(isinstance(step, dict) for step in pad)):
            bad(f"state {sid}: scratchpad must be a list of step objects")
        elif pad:
            indices = [step.get("index") for step in pad]
            if indices != list(range(1, len(pad) + 1)):
                bad(f"state {sid}: scratchpad indices {indices} are not contiguous from 1")
        if state is root:
            continue

        parents = typed(state, "parents", list, where)
        status = state.get("status")
        if not isinstance(status, str) or status not in VALID_STATUSES:
            bad(f"state {sid}: unknown status {status!r}")
        if not parents:
            bad(f"state {sid}: non-root state has no parents")
            continue
        if not all(isinstance(pid, int) for pid in parents):
            bad(f"state {sid}: parents {parents!r} are not all state ids")
            continue
        if len(parents) > max_parents:
            bad(f"state {sid}: {len(parents)} parents exceeds {max_parents} for {strategy}")
        if len(set(parents)) != len(parents):
            bad(f"state {sid}: duplicate parents {parents}")
        for pid in parents:
            if pid not in by_id:
                bad(f"state {sid}: unknown parent {pid}")
            elif pid >= sid:
                bad(f"state {sid}: parent {pid} does not precede it (cycle)")
        known = [by_id[p] for p in parents if p in by_id]
        if len(parents) == 1 and known:
            if state["depth"] != known[0]["depth"] + 1:
                bad(f"state {sid}: depth {state['depth']} is not parent depth + 1")
        elif len(parents) == 2 and len(known) == 2:
            depths = {k["depth"] for k in known}
            if len(depths) != 1 or state["depth"] not in depths:
                bad(f"state {sid}: merged state must share its parents' depth")

    frontier = typed(data, "frontier", list)
    if not all(isinstance(sid, int) for sid in frontier):
        bad(f"frontier {frontier!r} does not list state ids")
        frontier = []
    frontier_depths = set()
    for sid in frontier:
        state = by_id.get(sid)
        if state is None:
            bad(f"frontier references unknown state {sid}")
            continue
        if state.get("status") not in (STATUS_ACTIVE, STATUS_FINISHED):
            bad(f"frontier state {sid} has status {state.get('status')!r}")
        frontier_depths.add(state["depth"])
    if len(frontier_depths) > 1:
        bad(f"frontier spans multiple depths {sorted(frontier_depths)}")
    if list(frontier) != sorted(frontier):
        bad("frontier ids are not in ascending order")

    answer = data.get("answer")
    termination = data.get("termination")
    if termination not in (TERMINATION_FINISHED, TERMINATION_STEP_LIMIT):
        bad(f"unknown termination {termination!r}")
    if (answer is not None) != (termination == TERMINATION_FINISHED):
        bad("answer must be present exactly when termination is 'finished'")

    eval_block = typed(data, "eval", dict)
    rouge = eval_block.get("rouge_l")
    if (rouge is not None) != (answer is not None):
        bad("eval.rouge_l must be present exactly when an answer is")
    error_class = eval_block.get("error_class")
    if error_class is not None:
        if not isinstance(error_class, str) or error_class not in ERROR_CLASSES:
            bad(f"unknown error class {error_class!r}")
        if error_class == ERROR_CORRECT and eval_block.get("judge_correct") is not True:
            bad("error class 'correct' requires a true judge verdict")
        if termination == TERMINATION_STEP_LIMIT and error_class != ERROR_REACHED_LIMIT:
            bad("step-limit runs must classify as 'reached_limit'")

    counters = typed(data, "counters", dict)
    for group in ("llm_calls_by_tag", "memo_hits_by_tag", "kg_ops_by_kind"):
        for key, value in typed(counters, group, dict, "counters.").items():
            if not isinstance(value, int) or value < 0:
                bad(f"counters.{group}[{key!r}] must be a nonnegative integer")

    return violations


__all__ = [
    "TRACE_SCHEMA",
    "RESULTS_SCHEMA",
    "REPORT_SCHEMA",
    "SWEEP_SCHEMA",
    "TraceRecord",
    "build_trace",
    "serialize_trace",
    "write_trace",
    "load_trace",
    "trace_from_dict",
    "validate_trace",
]
