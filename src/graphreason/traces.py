"""Run artifacts: trace records, their serialization, and validation.

A trace accounts for one question's run — every thought state with the
evidence its own step added, the final frontier, the answer, the cost
meters, and the evaluation block — written as one line of canonical JSON
(sorted keys, no indent) so replay runs are byte-identical. Each state
writes deltas: a state with one parent writes only the triples, attributes,
agent steps and seen entities its parent lacks. The root holds no evidence,
and a merged state's is exactly its parents' union, so neither writes a row.
A state's whole evidence is thus its parents' evidence joined by the union
rules of :meth:`ExplorationState.merge` and :meth:`Scratchpad.merge`, plus
its own rows. The validator re-checks the structural invariants on the raw
dict, so hand-edited or truncated artifacts are caught.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields
from itertools import chain, groupby
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Callable

from . import kg
from .agent import Scratchpad
from .evaluation import (
    ERROR_CLASSES,
    ERROR_CORRECT,
    ERROR_REACHED_LIMIT,
    TERMINATION_FINISHED,
    TERMINATION_STEP_LIMIT,
    Question,
)
from .explore import AttributeHit, ExplorationState, render_attribute
from .strategies import (
    STATUS_ACTIVE,
    STATUS_FINISHED,
    SearchResult,
    ThoughtState,
    VALID_STATUSES,
)
from .textops import clip, decode_json

TRACE_SCHEMA = "trace/v3"
# Each state wrote its cumulative evidence and thought log; such traces
# still load, validate and score.
TRACE_SCHEMA_V2 = "trace/v2"
RESULTS_SCHEMA = "results/v1"
REPORT_SCHEMA = "report/v1"
SWEEP_SCHEMA = "sweep/v1"

_TRIPLE_FIELDS = frozenset(f.name for f in fields(kg.Triple))
_HIT_FIELDS = frozenset(f.name for f in fields(AttributeHit))


def _serialize_steps(
    pad: Scratchpad | None, inherited_pad: Scratchpad | None
) -> list[dict] | None:
    """The steps ``pad`` holds past ``inherited_pad``'s, each with its
    position in ``pad`` from 1 as ``index`` and its tuples written as lists,
    so a loaded trace equals the one built in memory."""
    if pad is None:
        return None
    first = len(inherited_pad.steps) if inherited_pad is not None else 0
    return [
        {
            **vars(step),
            "index": index,
            "actions": [{"kind": a.kind, "args": list(a.args)} for a in step.actions],
            "observations": list(step.observations),
        }
        for index, step in enumerate(pad.steps[first:], first + 1)
    ]


def _new_rows(records: dict, inherited: dict, rows: dict[int, dict]) -> list[dict]:
    """The row of each record whose key ``inherited`` lacks, in order. A
    record's row holds its fields and is made once: ``rows`` keeps it by the
    record's identity, so every state that writes the record shares it."""
    return [
        rows.get(id(record)) or rows.setdefault(id(record), vars(record).copy())
        for key, record in records.items()
        if key not in inherited
    ]


def _serialize_exploration(
    exploration: ExplorationState | None, inherited: ExplorationState
) -> dict | None:
    """Whether an exploration found enough, and a ``[entity_id,
    depth_discovered, visited]`` row per seen entity that is new or differs
    from ``inherited``; its triples and attributes are the state's
    ``evidence.triples``/``evidence.attributes``."""
    if exploration is None:
        return None
    seen = inherited.seen_entities
    # Entries come from ``seen_entity``, so an entry both hold is nearly
    # always one object, and ``!=``, a Python-level call, runs only where not.
    return {
        "seen_entities": [
            [eid, meta.depth_discovered, meta.visited]
            for eid, meta in exploration.seen_entities.items()
            if eid not in seen or (seen[eid] is not meta and seen[eid] != meta)
        ],
        "sufficient": exploration.sufficient,
    }


def _serialize_state(state: ThoughtState, base: ThoughtState, rows: dict[int, dict]) -> dict:
    """A state's fields and the evidence it holds beyond ``base``'s: its
    parent's for a state with one parent, else its own, so the root and a
    merged state write no rows. Triple and attribute rows hold exactly the
    fields of their records, which ``TraceRecord.evidence_strings`` reads
    back; they come from ``rows``, shared with the trace's other states."""
    evidence = state.evidence
    explored = evidence.exploration or ExplorationState()
    inherited = base.evidence.exploration or ExplorationState()
    return {
        "id": state.id,
        "depth": state.depth,
        "thought": state.thought,
        "parents": list(state.parents),
        "status": state.status,
        "score": state.score,
        "evidence": {
            "triples": _new_rows(explored.found_triples, inherited.found_triples, rows),
            "attributes": _new_rows(
                explored.relevant_attributes, inherited.relevant_attributes, rows
            ),
            "answer": evidence.answer,
            "scratchpad": _serialize_steps(evidence.scratchpad, base.evidence.scratchpad),
            "exploration": _serialize_exploration(evidence.exploration, inherited),
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
    """The trace of one question's run, in its serialized shape.

    Each triple or attribute record gets one row dict per trace, and every
    state that writes the record holds that same dict, so the writer encodes
    it once; editing a row edits every state that holds it.
    """
    by_id = result.states
    rows: dict[int, dict] = {}
    # A merged state's evidence is its parents' union, so, like the root,
    # it is read against itself and adds nothing.
    states = [
        _serialize_state(s, by_id[s.parents[0]] if len(s.parents) == 1 else s, rows)
        for _, s in sorted(by_id.items())
    ]
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


# No indent: CPython 3.10/3.11 use the C encoder only when ``indent`` is None.
_encode = json.JSONEncoder(sort_keys=True).encode
_TRACE_FIELDS = sorted(f.name for f in fields(TraceRecord))
_BEFORE_STATES = _TRACE_FIELDS[: _TRACE_FIELDS.index("states")]
_AFTER_STATES = _TRACE_FIELDS[_TRACE_FIELDS.index("states") + 1 :]
# The shape ``_serialize_state`` writes. In key order "depth" comes first,
# "evidence" second, and "triples" last within the evidence.
_STATE_KEYS = frozenset(("depth", "evidence", "id", "parents", "score", "status", "thought"))
_EVIDENCE_KEYS = frozenset(("answer", "attributes", "exploration", "scratchpad", "triples"))
_AFTER_EVIDENCE = sorted(_STATE_KEYS - {"depth", "evidence"})
_BEFORE_TRIPLES = sorted(_EVIDENCE_KEYS - {"triples"})
_ROW_FIELDS = sorted(_TRIPLE_FIELDS)
_ROW_VALUES = itemgetter(*_ROW_FIELDS)
_ROW_TEMPLATE = "{" + ", ".join(f'"{name}": %s' for name in _ROW_FIELDS) + "}"


def _holds_triple_rows(state: object) -> bool:
    """Whether ``state`` has the shape ``_serialize_state`` writes and holds triple rows."""
    if type(state) is not dict or state.keys() != _STATE_KEYS:
        return False
    evidence = state["evidence"]
    return (
        type(evidence) is dict
        and evidence.keys() == _EVIDENCE_KEYS
        and type(evidence["triples"]) is list
        and len(evidence["triples"]) > 0
    )


def _encode_row(row: object) -> str:
    """``_encode(row)``, spelled out for a plain dict of the string fields of a ``kg.Triple``."""
    if type(row) is dict and row.keys() == _TRIPLE_FIELDS:
        values = _ROW_VALUES(row)
        if all(type(value) is str for value in values):
            return _ROW_TEMPLATE % tuple(map(encode_basestring_ascii, values))
    return _encode(row)


def _encode_state(state: dict, rows: dict[int, str], parts: list[str]) -> None:
    """Append ``_encode(state)`` to ``parts`` in pieces, each triple row's
    text from ``rows``, which keeps it by the row's identity."""
    evidence = state["evidence"]
    parts += (
        '{"depth": ', _encode(state["depth"]),
        ', "evidence": ', _encode({key: evidence[key] for key in _BEFORE_TRIPLES})[:-1],
        ', "triples": [',
    )
    for row in evidence["triples"]:
        text = rows.get(id(row))
        if text is None:
            text = rows[id(row)] = _encode_row(row)
        parts += (text, ", ")
    parts[-1] = "]}, "
    parts.append(_encode({key: state[key] for key in _AFTER_EVIDENCE})[1:])


def serialize_trace(trace: TraceRecord) -> str:
    """``json.dumps(trace.as_dict(), sort_keys=True) + "\\n"``, encoding each
    distinct triple row object once.

    ``build_trace`` shares a row among the states that write it, and
    sibling explore states write many of the same triples, so a state
    holding triple rows is composed around its rows' memoized texts. Each
    run of states between them, and every other value, is one call of the
    C encoder, and the pieces are joined once.
    """
    data = trace.as_dict()
    states = data["states"]
    runs = []
    if type(states) is list:
        runs = [(holds, list(run)) for holds, run in groupby(states, _holds_triple_rows)]
    if not any(holds for holds, _ in runs):
        return _encode(data) + "\n"
    parts = [_encode({key: data[key] for key in _BEFORE_STATES})[:-1], ', "states": [']
    rows: dict[int, str] = {}
    for holds_rows, run in runs:
        if not holds_rows:
            parts += (_encode(run)[1:-1], ", ")
            continue
        for state in run:
            _encode_state(state, rows, parts)
            parts.append(", ")
    parts[-1] = "], "
    parts += (_encode({key: data[key] for key in _AFTER_STATES})[1:], "\n")
    return "".join(parts)


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
    data = decode_json(Path(path).read_text(encoding="utf-8"))
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


def _shown(value: object) -> str:
    """An input value as an error line echoes it: its repr, clipped."""
    return clip(repr(value))


def _json_type(value: object) -> str:
    return _JSON_NAMES.get(type(value), type(value).__name__)


def _typed(holder: dict, key: str, kind: type, bad: Callable[[str], None], where: str = ""):
    """``holder[key]`` if it is a ``kind``, else an empty one: absent silently, mistyped reported."""
    value = holder.get(key, kind())
    if isinstance(value, kind):
        return value
    bad(f"{where}{key} must be {_JSON_NAMES[kind]}, got {_json_type(value)}")
    return kind()


_SEEN_ROW = (str, int, bool)  # [entity_id, depth_discovered, visited]
_TRIPLE_KEY = itemgetter("head_id", "relation", "tail_id")

# The row checks below see every row of a trace, so they loop in map and
# set rather than in Python code: they run inside every readback.


def _check_records(
    rows: list, names: frozenset[str], what: str, where: str, bad: Callable[[str], None]
) -> bool:
    """Whether every row is an object holding exactly ``names``, all
    strings, as ``evidence_strings`` reads it back; if not, report it."""
    try:
        if (
            set(map(type, rows)) <= {dict}
            and set(map(len, rows)) <= {len(names)}
            and set(map(type, chain.from_iterable(map(itemgetter(*names), rows)))) <= {str}
        ):
            return True
    except KeyError:  # a row of the right size with another key
        pass
    bad(f"{where}every {what} must be an object of the string fields {', '.join(sorted(names))}")
    return False


def _check_seen_rows(rows: list, where: str, bad: Callable[[str], None]) -> None:
    """Report unless every row is a list of a string, an integer and a boolean."""
    if not (
        set(map(type, rows)) <= {list}
        and set(map(len, rows)) <= {len(_SEEN_ROW)}
        and all(set(map(type, column)) <= {kind} for column, kind in zip(zip(*rows), _SEEN_ROW))
    ):
        bad(f"{where}every seen entity must be an [entity_id, depth_discovered, visited] "
            "row of a string, an integer and a boolean")


def _check_steps(pad: object, cumulative: bool, where: str, bad: Callable[[str], None]) -> None:
    """A scratchpad is null or a list of step objects whose observations are
    lists of strings. Its indices count up by one: from 1 where each state
    wrote its whole scratchpad, else from the first new step's position."""
    if not pad:
        return
    if not (isinstance(pad, list) and all(isinstance(step, dict) for step in pad)):
        bad(f"{where}scratchpad must be a list of step objects")
        return
    for step in pad:
        observations = step.get("observations", [])
        if not (isinstance(observations, list) and all(type(o) is str for o in observations)):
            bad(f"{where}step {_shown(step.get('index'))}: "
                "observations must be a list of strings")
    indices = [step.get("index") for step in pad]
    first = 1 if cumulative else indices[0]
    if type(first) is not int or first < 1:
        bad(f"{where}scratchpad indices {_shown(indices)} must start at a positive integer")
    elif indices != list(range(first, first + len(pad))):
        bad(f"{where}scratchpad indices {_shown(indices)} "
            f"are not contiguous from {_shown(first)}")


def outcome_violations(data: dict) -> list[str]:
    """Violations of the shared outcome rules: termination, answer, eval block, counters."""
    violations: list[str] = []
    bad = violations.append
    answer = data.get("answer")
    termination = data.get("termination")
    if not isinstance(answer, (str, type(None))):
        bad(f"answer must be a string or null, got {_json_type(answer)}")
    if termination not in (TERMINATION_FINISHED, TERMINATION_STEP_LIMIT):
        bad(f"unknown termination {_shown(termination)}")
    if (answer is not None) != (termination == TERMINATION_FINISHED):
        bad("answer must be present exactly when termination is 'finished'")
    eval_block = _typed(data, "eval", dict, bad)
    if (eval_block.get("rouge_l") is not None) != (answer is not None):
        bad("eval.rouge_l must be present exactly when an answer is")
    if not isinstance(eval_block.get("judge_correct"), (bool, type(None))):
        bad("eval.judge_correct must be true, false or null")
    error_class = eval_block.get("error_class")
    if error_class is not None:
        if not isinstance(error_class, str) or error_class not in ERROR_CLASSES:
            bad(f"unknown error class {_shown(error_class)}")
        if error_class == ERROR_CORRECT and eval_block.get("judge_correct") is not True:
            bad("error class 'correct' requires a true judge verdict")
        if termination == TERMINATION_STEP_LIMIT and error_class != ERROR_REACHED_LIMIT:
            bad("step-limit runs must classify as 'reached_limit'")
    counters = _typed(data, "counters", dict, bad)
    for group in ("llm_calls_by_tag", "memo_hits_by_tag", "kg_ops_by_kind"):
        for key, value in _typed(counters, group, dict, bad, "counters.").items():
            if type(value) is not int or value < 0:
                bad(f"counters.{group}[{_shown(key)}] must be a nonnegative integer")
    return violations


def validate_trace(data: object) -> list[str]:
    """Check a raw trace against the structural invariants.

    Takes any JSON value: a hand-edited trace whose fields have the wrong
    JSON type is reported, never raised on. Returns human-readable violation
    strings; an empty list means the trace is well-formed.
    """
    violations: list[str] = []
    bad = violations.append

    if not isinstance(data, dict):
        bad(f"a trace must be an object, got {_json_type(data)}")
        return violations
    schema = data.get("schema")
    if schema not in (TRACE_SCHEMA, TRACE_SCHEMA_V2):
        bad(f"schema is {_shown(schema)}, expected {TRACE_SCHEMA!r} or {TRACE_SCHEMA_V2!r}")
    cumulative = schema == TRACE_SCHEMA_V2
    states = data.get("states")
    if not isinstance(states, list) or not states:
        bad("states must be a nonempty list")
        return violations

    strategy = _typed(data, "config", dict, bad).get("strategy")
    by_id: dict[int, dict] = {}
    previous_id = -1
    for position, state in enumerate(states):
        if not isinstance(state, dict):
            bad(f"state at position {position} must be an object, got {_json_type(state)}")
            return violations
        sid = state.get("id")
        if type(sid) is not int or sid <= previous_id:
            bad(f"state ids must be strictly increasing, got {_shown(sid)} "
                f"after {_shown(previous_id)}")
            return violations
        if type(state.get("depth")) is not int:
            bad(f"state {_shown(sid)}: depth must be an integer, "
                f"got {_shown(state.get('depth'))}")
            return violations
        previous_id = sid
        by_id[sid] = state

    root = states[0]
    if root.get("id") != 0 or root.get("depth") != 0 or root.get("parents"):
        bad("first state must be the root: id 0, depth 0, no parents")

    max_parents = 2 if strategy == "got" else 1
    for state in states:
        sid = state["id"]
        where = f"state {_shown(sid)}: "
        evidence = _typed(state, "evidence", dict, bad, where)
        triples = _typed(evidence, "triples", list, bad, where + "evidence.")
        if _check_records(triples, _TRIPLE_FIELDS, "triple", where, bad):
            if len(set(map(_TRIPLE_KEY, triples))) < len(triples):
                bad(f"{where}duplicate triples in evidence")
        attributes = _typed(evidence, "attributes", list, bad, where + "evidence.")
        _check_records(attributes, _HIT_FIELDS, "attribute", where, bad)
        _check_steps(evidence.get("scratchpad"), cumulative, where, bad)
        exploration = evidence.get("exploration")
        seen: list = []
        if exploration is not None and not isinstance(exploration, dict):
            bad(f"{where}exploration must be an object or null, got {_json_type(exploration)}")
        elif exploration is not None and not cumulative:
            seen = _typed(exploration, "seen_entities", list, bad, where + "exploration.")
            _check_seen_rows(seen, where, bad)
        holds_rows = triples or attributes or evidence.get("scratchpad") or seen
        if state is root:
            if holds_rows:
                bad(f"{where}the root holds no evidence, "
                    "so it writes no triple, attribute, step or seen row")
            continue

        parents = _typed(state, "parents", list, bad, where)
        status = state.get("status")
        if not isinstance(status, str) or status not in VALID_STATUSES:
            bad(f"{where}unknown status {_shown(status)}")
        if not parents:
            bad(f"{where}non-root state has no parents")
            continue
        if not all(type(pid) is int for pid in parents):
            bad(f"{where}parents {_shown(parents)} are not all state ids")
            continue
        if len(parents) == 2 and not cumulative and holds_rows:
            bad(f"{where}a merged state holds exactly its parents' evidence, "
                "so it writes no triple, attribute, step or seen row")
        if len(parents) > max_parents:
            bad(f"{where}{len(parents)} parents exceeds {max_parents} for {clip(str(strategy))}")
        if len(set(parents)) != len(parents):
            bad(f"{where}duplicate parents {_shown(parents)}")
        for pid in parents:
            if pid not in by_id:
                bad(f"{where}unknown parent {_shown(pid)}")
            elif pid >= sid:
                bad(f"{where}parent {_shown(pid)} does not precede it (cycle)")
        known = [by_id[p] for p in parents if p in by_id]
        if len(parents) == 1 and known:
            if state["depth"] != known[0]["depth"] + 1:
                bad(f"{where}depth {_shown(state['depth'])} is not parent depth + 1")
        elif len(parents) == 2 and len(known) == 2:
            depths = {k["depth"] for k in known}
            if len(depths) != 1 or state["depth"] not in depths:
                bad(f"{where}merged state must share its parents' depth")

    frontier = _typed(data, "frontier", list, bad)
    if not all(type(sid) is int for sid in frontier):
        bad(f"frontier {_shown(frontier)} does not list state ids")
        frontier = []
    frontier_depths = set()
    for sid in frontier:
        state = by_id.get(sid)
        if state is None:
            bad(f"frontier references unknown state {_shown(sid)}")
            continue
        if state.get("status") not in (STATUS_ACTIVE, STATUS_FINISHED):
            bad(f"frontier state {_shown(sid)} has status {_shown(state.get('status'))}")
        frontier_depths.add(state["depth"])
    if len(frontier_depths) > 1:
        bad(f"frontier spans multiple depths {_shown(sorted(frontier_depths))}")
    if list(frontier) != sorted(frontier):
        bad("frontier ids are not in ascending order")

    return violations + outcome_violations(data)
