"""Run artifacts: trace records, their serialization, and validation.

A trace accounts for one question's run — every thought state with the
evidence its own step added, the final frontier, the answer, the cost
meters, and the evaluation block — written as one line of canonical JSON
(sorted keys, no indent) so replay runs are byte-identical. Each state
writes deltas: a state with one parent writes only the triples, attributes
and agent steps its parent lacks. A triple row is written once per trace,
by the first state that adds the triple; rows are numbered in the order
they are written, and each state cites the triples it added by number. The
root holds no evidence, and a merged state's is exactly its parents' union,
so neither writes a row. A state's whole evidence is thus its parents'
evidence joined by the union rules of :meth:`ExplorationState.merge` and
:meth:`Scratchpad.merge`, plus what it added.

An explore state's seen entities are not written: its step's ``anchors``
and ``rounds`` fix them. Start from the parent's map and append each anchor,
unvisited, at depth 0. Then, ``rounds`` times: mark every unvisited entity
visited, in map order, and for each such entity ``setdefault`` the tail of
each triple the step added that it heads, unvisited, at its depth + 1. That
replays :func:`explore`'s breadth-first rounds, key order included.

``load_trace`` reads back a trace that keeps the record rules; the
validator checks those and the states on the raw dict, so tampering shows.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields
from itertools import chain, count
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

TRACE_SCHEMA = "trace/v5"
RESULTS_SCHEMA = "results/v1"
REPORT_SCHEMA = "report/v1"
SWEEP_SCHEMA = "sweep/v1"

_TRIPLE_FIELDS = frozenset(kg.Triple._fields)
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


def _serialize_exploration(
    exploration: ExplorationState | None, triple_refs: list[int]
) -> dict | None:
    """Whether an exploration found enough, the anchors its step added and
    the rounds it ran, and the numbers of the triple rows it added; its
    attributes and first-written triples are the state's
    ``evidence.attributes`` and ``evidence.triples``."""
    if exploration is None:
        return None
    return {
        "anchors": list(exploration.new_anchors),
        "rounds": exploration.rounds,
        "sufficient": exploration.sufficient,
        "triple_refs": triple_refs,
    }


def _serialize_state(
    state: ThoughtState, base: ThoughtState, numbers: dict[tuple[str, str, str], int]
) -> dict:
    """A state's fields and the evidence it holds beyond ``base``'s: its
    parent's for a state with one parent, else its own, so the root and a
    merged state write no rows.

    ``numbers`` maps each triple key the trace has written to its row
    number. The state cites every triple it added by number, and writes the
    row of each one no earlier state wrote, numbering it next. Triple and
    attribute rows hold exactly the fields of their records, which
    ``TraceRecord.evidence_strings`` reads back.
    """
    evidence = state.evidence
    explored = evidence.exploration or ExplorationState()
    inherited = base.evidence.exploration or ExplorationState()
    found, known = explored.found_triples, inherited.found_triples
    added = [key for key in found if key not in known]
    first = [key for key in added if key not in numbers]
    numbers.update(zip(first, count(len(numbers))))
    hits = inherited.relevant_attributes
    return {
        "id": state.id,
        "depth": state.depth,
        "thought": state.thought,
        "parents": list(state.parents),
        "status": state.status,
        "score": state.score,
        "evidence": {
            # Built from the tuple's fields: about half the cost of ``_asdict()``.
            "triples": [
                {"head_name": head, "relation": relation, "tail_name": tail,
                 "head_id": head_id, "tail_id": tail_id}
                for head, relation, tail, head_id, tail_id in map(found.__getitem__, first)
            ],
            "attributes": [
                dict(vars(hit))
                for key, hit in explored.relevant_attributes.items()
                if key not in hits
            ],
            "answer": evidence.answer,
            "scratchpad": _serialize_steps(evidence.scratchpad, base.evidence.scratchpad),
            "exploration": _serialize_exploration(
                evidence.exploration, list(map(numbers.__getitem__, added))
            ),
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


def question_block(question: Question) -> dict:
    """What a trace records of its question, beside the qid."""
    return {
        "text": question.text,
        "gold_answer": question.gold_answer,
        "difficulty": question.difficulty,
        "domain": question.domain,
    }


def build_trace(
    question: Question,
    config: dict,
    result: SearchResult,
    eval_block: dict | None = None,
) -> TraceRecord:
    """The trace of one question's run, in its serialized shape."""
    by_id = result.states
    numbers: dict[tuple[str, str, str], int] = {}
    # A merged state's evidence is its parents' union, so, like the root,
    # it is read against itself and adds nothing.
    states = [
        _serialize_state(s, by_id[s.parents[0]] if len(s.parents) == 1 else s, numbers)
        for _, s in sorted(by_id.items())
    ]
    return TraceRecord(
        qid=question.qid,
        question=question_block(question),
        config=dict(config),
        states=states,
        frontier=list(result.frontier),
        answer=result.answer,
        termination=result.termination,
        counters=result.counters.as_dict(),
        eval=dict(eval_block) if eval_block else {},
    )


# No indent: CPython 3.10/3.11 use the C encoder only when ``indent`` is None.
# ``build_trace`` builds a fresh tree, so there is no cycle to check for.
_encode = json.JSONEncoder(sort_keys=True, check_circular=False).encode
_TRACE_FIELDS = sorted(f.name for f in fields(TraceRecord))


def serialize_trace(trace: TraceRecord) -> str:
    """``json.dumps(trace.as_dict(), sort_keys=True) + "\\n"``: one line of canonical JSON."""
    return _encode(trace.as_dict()) + "\n"


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


class TraceLoadError(ValueError):
    """A stored trace cannot be read as a record; the text says why."""


def read_document(path: str | Path) -> object:
    """A trace file's JSON value; ``TraceLoadError`` says why it cannot be read or decoded."""
    try:
        return decode_json(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceLoadError(str(exc)) from exc


def load_trace(path: str | Path) -> TraceRecord:
    """The record a trace file holds. ``TraceLoadError`` says why the file cannot
    be read, or else names the first record rule it breaks; no state is walked."""
    data = read_document(path)
    if violations := record_violations(data):
        raise TraceLoadError(violations[0])
    return TraceRecord(**{name: data[name] for name in _TRACE_FIELDS if name in data})


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


_TRIPLE_KEY = itemgetter("head_id", "relation", "tail_id")

# The row checks below see every row of a trace, so they loop in map and
# set rather than in Python code: they run inside every readback.


def _check_records(
    rows: list, names: frozenset[str], what: str, where: str, bad: Callable[[str], None]
) -> bool:
    """Whether every row is an object holding exactly ``names``, all
    strings, as ``evidence_strings`` reads it back; if not, report it."""
    if not rows:  # agent traces write no triple or attribute rows
        return True
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


def _check_steps(pad: object, where: str, bad: Callable[[str], None]) -> None:
    """A scratchpad is null or a list of step objects whose observations are
    lists of strings. Its indices count up by one from the first new step's
    position."""
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
    first = indices[0]
    if type(first) is not int or first < 1:
        bad(f"{where}scratchpad indices {_shown(indices)} must start at a positive integer")
    elif indices != list(range(first, first + len(pad))):
        bad(f"{where}scratchpad indices {_shown(indices)} "
            f"are not contiguous from {_shown(first)}")


def _triple_ref_problem(triples: list, refs: object, written: int, keys: set) -> str | None:
    """What breaks the row numbering in a state with one parent that writes
    ``triples`` and cites ``refs``, after ``written`` rows of the triple
    ``keys``; None if nothing does.

    Rows are numbered across the trace in the order they are written, each
    triple's row once. A state cites the triples it added: rows written
    before it or by it, each at most once. The rows it writes are exactly
    those its references introduce, in order.
    """
    if not triples and refs == []:
        return None  # an agent or born-pruned state: it writes and cites nothing
    limit = written + len(triples)
    if not (type(refs) is list and set(map(type, refs)) <= {int} and min(refs, default=0) >= 0):
        return "exploration.triple_refs must be a list of nonnegative integers"
    if len(set(refs)) < len(refs):
        return "exploration.triple_refs cites a row twice"
    if refs and max(refs) >= limit:
        return (f"exploration.triple_refs cites row {max(refs)}, "
                f"but only {limit} rows are written by then")
    if list(filter(written.__le__, refs)) != list(range(written, limit)):
        return (f"its triple rows, numbered {written} on, must be the rows "
                "its triple_refs introduce, in order")
    if not keys.isdisjoint(map(_TRIPLE_KEY, triples)):
        return "writes a triple row an earlier state wrote"
    return None


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


def record_violations(data: object) -> list[str]:
    """Violations of the rules a trace keeps to be read as a ``TraceRecord``:
    its top-level fields' presence and types, then the outcome rules."""
    if not isinstance(data, dict):
        return [f"a trace must be an object, got {_json_type(data)}"]
    violations: list[str] = []
    bad = violations.append
    schema = data.get("schema")
    # Any JSON value, a list included, so compared, not looked up.
    if schema != TRACE_SCHEMA:
        bad(f"schema is {_shown(schema)}, expected {TRACE_SCHEMA!r}")
    if not isinstance(data.get("states"), list) or not data["states"]:
        bad("states must be a nonempty list")
    # A missing schema, states or termination breaks a rule of its own.
    required = ("qid", "question", "config", "frontier", "answer", "counters")
    violations += [f"{key} is missing" for key in required if key not in data]
    for key, kind in (("qid", str), ("question", dict), ("config", dict), ("frontier", list)):
        _typed(data, key, kind, bad)
    return violations + outcome_violations(data)


def validate_trace(data: object) -> list[str]:
    """Check a raw trace against the record rules, then the structural invariants.

    Takes any JSON value: a hand-edited trace whose fields have the wrong
    JSON type is reported, never raised on. Returns human-readable violation
    strings; an empty list means the trace is well-formed. A trace of
    another schema followed none of the state rules, so it gets the record
    rules' lines alone.
    """
    violations = record_violations(data)
    bad = violations.append
    states = data.get("states") if isinstance(data, dict) else None
    if not isinstance(states, list) or not states or data.get("schema") != TRACE_SCHEMA:
        return violations
    config = data["config"] if isinstance(data.get("config"), dict) else {}
    strategy = config.get("strategy")
    # A step runs at most search_depth rounds; a config without one bounds nothing.
    most_rounds = config.get("search_depth")
    if type(most_rounds) is not int:
        most_rounds = math.inf
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
    # The row numbering: rows written so far, their triple keys, and
    # whether a broken state has put every later row number in doubt.
    written = 0
    keys: set = set()
    numbered = True
    for state in states:
        sid = state["id"]
        where = f"state {_shown(sid)}: "
        reported = len(violations)
        evidence = _typed(state, "evidence", dict, bad, where)
        triples = _typed(evidence, "triples", list, bad, where + "evidence.")
        if _check_records(triples, _TRIPLE_FIELDS, "triple", where, bad):
            if len(set(map(_TRIPLE_KEY, triples))) < len(triples):
                bad(f"{where}duplicate triples in evidence")
        attributes = _typed(evidence, "attributes", list, bad, where + "evidence.")
        _check_records(attributes, _HIT_FIELDS, "attribute", where, bad)
        _check_steps(evidence.get("scratchpad"), where, bad)
        exploration = evidence.get("exploration")
        anchors: object = []
        rounds: object = 0
        refs: object = []
        if exploration is not None and not isinstance(exploration, dict):
            bad(f"{where}exploration must be an object or null, got {_json_type(exploration)}")
        elif exploration is not None:
            anchors, rounds = exploration.get("anchors"), exploration.get("rounds")
            if not (type(anchors) is list and set(map(type, anchors)) <= {str}):
                bad(f"{where}exploration.anchors must be a list of strings")
                anchors = []
            if type(rounds) is not int or not 0 <= rounds <= most_rounds:
                bad(f"{where}exploration.rounds must be an integer from 0 to the config's "
                    f"search_depth, got {_shown(rounds)}")
                rounds = 0
            refs = exploration.get("triple_refs")
        holds_rows = (triples or attributes or evidence.get("scratchpad") or anchors or rounds
                      or refs)
        parents = [] if state is root else _typed(state, "parents", list, bad, where)
        if numbered:
            # Only the first state that breaks the numbering is reported. A
            # state with another violation, or a root or merged state that
            # writes or cites a row (reported below), ends it unreported.
            if len(violations) > reported or state is root or len(parents) == 2:
                numbered = len(violations) == reported and not (triples or refs)
            elif problem := _triple_ref_problem(triples, refs, written, keys):
                bad(where + problem)
                numbered = False
            else:
                keys.update(map(_TRIPLE_KEY, triples))
                written += len(triples)
        if state is root:
            if holds_rows:
                bad(f"{where}the root holds no evidence, "
                    "so it writes no triple, attribute, step, seen or anchor row "
                    "and runs no round")
            continue

        status = state.get("status")
        if not isinstance(status, str) or status not in VALID_STATUSES:
            bad(f"{where}unknown status {_shown(status)}")
        if not parents:
            bad(f"{where}non-root state has no parents")
            continue
        if not all(type(pid) is int for pid in parents):
            bad(f"{where}parents {_shown(parents)} are not all state ids")
            continue
        if len(parents) == 2 and holds_rows:
            bad(f"{where}a merged state holds exactly its parents' evidence, "
                "so it writes no triple, attribute, step, seen or anchor row "
                "and runs no round")
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

    frontier = data["frontier"] if isinstance(data.get("frontier"), list) else []
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

    return violations
