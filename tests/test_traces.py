"""Trace artifacts: build, round trip, evidence flattening, validation."""

import copy
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import TEMPLATE_MATCHERS, permissive_backend, permissive_entries, synthetic_question
from graphreason.costs import CostCounters
from graphreason.evaluation import classify_error, rouge_l
from graphreason.explore import ExploreConfig
from graphreason.kg import generate_synthetic_graph
from graphreason.llm import ReplayBackend, ReplayEntry
from graphreason.strategies import SearchConfig, run_search
from graphreason.traces import (
    TRACE_SCHEMA,
    TraceRecord,
    build_trace,
    load_trace,
    serialize_trace,
    trace_from_dict,
    validate_trace,
    write_trace,
)


def run_trace(strategy="got", interaction="agent", finish=False, **overrides):
    config = SearchConfig(
        strategy=strategy,
        interaction=interaction,
        k=2,
        t=2,
        d_max=2,
        **overrides,
    )
    question = synthetic_question()
    result = run_search(
        question,
        config,
        generate_synthetic_graph(11),
        permissive_backend(agent_finish=finish),
    )
    eval_block = (
        {"rouge_l": rouge_l(result.answer, question.gold_answer)}
        if result.answer is not None
        else {}
    )
    return build_trace(
        question,
        {"strategy": strategy, "interaction": interaction},
        result,
        eval_block,
    )


@pytest.fixture(scope="module")
def got_trace():
    return run_trace()


def minimal_trace_dict():
    """The smallest well-formed trace: a root and one finished child."""
    return {
        "schema": TRACE_SCHEMA,
        "qid": "q1",
        "question": {
            "text": "Which entries are linked to beta 1?",
            "gold_answer": "alpha 2",
            "difficulty": "easy",
            "domain": "synthetic",
        },
        "config": {"strategy": "cot", "interaction": "agent"},
        "states": [
            {
                "id": 0,
                "depth": 0,
                "thought": "Which entries are linked to beta 1?",
                "parents": [],
                "status": "active",
                "score": None,
                "evidence": {
                    "triples": [],
                    "attributes": [],
                    "thought_log": [],
                    "answer": None,
                    "scratchpad": None,
                    "exploration": None,
                },
            },
            {
                "id": 1,
                "depth": 1,
                "thought": "The answer is clear.",
                "parents": [0],
                "status": "finished",
                "score": None,
                "evidence": {
                    "triples": [],
                    "attributes": [],
                    "thought_log": ["The answer is clear."],
                    "answer": "alpha 2",
                    "scratchpad": None,
                    "exploration": None,
                },
            },
        ],
        "frontier": [1],
        "answer": "alpha 2",
        "termination": "finished",
        "counters": {
            "llm_calls_by_tag": {"thought": 1},
            "llm_total": 1,
            "kg_ops_by_kind": {},
            "kg_total": 0,
            "transport_retries": 0,
            "explore_searches": 0,
            "explore_search_cost_max": 0,
        },
        "eval": {"rouge_l": 1.0},
    }


# ------------------------------------------------------------- round trip


def test_serialized_form_is_canonical(got_trace):
    text = serialize_trace(got_trace)
    assert text.endswith("\n")
    data = json.loads(text)
    assert text == json.dumps(data, sort_keys=True) + "\n"
    assert "\n" not in text[:-1]
    assert data["schema"] == "trace/v2"


def test_write_then_load_round_trips(tmp_path, got_trace):
    path = tmp_path / "run.trace"
    write_trace(got_trace, path)
    loaded = load_trace(path)
    assert loaded.as_dict() == got_trace.as_dict()
    # Re-writing the loaded record is byte-identical.
    again = tmp_path / "again.trace"
    write_trace(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_write_leaves_no_partial_trace_when_the_rename_fails(tmp_path, got_trace, monkeypatch):
    def failing_replace(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", failing_replace)
    path = tmp_path / "q1.trace"
    with pytest.raises(OSError, match="rename refused"):
        write_trace(got_trace, path)
    assert list(tmp_path.iterdir()) == []


def test_trace_from_dict_fills_optional_blocks():
    data = minimal_trace_dict()
    del data["eval"]
    record = trace_from_dict(data)
    assert record.eval == {}


def test_built_trace_lists_states_by_ascending_id(got_trace):
    ids = [state["id"] for state in got_trace.states]
    assert ids == sorted(ids)
    assert ids[0] == 0


# ------------------------------------------------------- evidence strings


def test_evidence_strings_flatten_and_dedupe():
    record = trace_from_dict(minimal_trace_dict())
    record.states[0]["evidence"] = {
        "triples": [
            {
                "head_id": "390792",
                "head_name": "KRT39",
                "relation": "Anatomy-expresses-Gene",
                "tail_id": "UBERON:0000033",
                "tail_name": "head",
            }
        ],
        "attributes": [
            {"entity_id": "390792", "entity_name": "KRT39", "key": "name", "value": "KRT39"}
        ],
        "scratchpad": [
            {"observations": ["The ID of the node is 390792.", ""]},
            {"observations": ["The ID of the node is 390792."]},
        ],
        "thought_log": [],
        "answer": None,
        "exploration": None,
    }
    record.states[1]["evidence"]["scratchpad"] = [
        {"observations": ["The ID of the node is 390792."]}
    ]
    strings = record.evidence_strings()
    assert strings == [
        "The ID of the node is 390792.",
        '"KRT39" --> Anatomy-expresses-Gene --> head',
        "KRT39.name: KRT39",
    ]


def test_evidence_strings_from_a_real_agent_run(got_trace):
    strings = got_trace.evidence_strings()
    assert strings  # the permissive agent pokes the graph every step
    assert len(strings) == len(set(strings))
    assert any("neighbors" in s for s in strings)


def test_judge_evidence_lines_are_the_prompt_renderings():
    # The error judge reads a got/explore run's triples and attributes in
    # the very form the search prompts showed the model.
    question = synthetic_question()
    config = SearchConfig(
        strategy="got", interaction="explore", k=2, t=2, d_max=2,
        explore=ExploreConfig(search_depth=1, select_attributes=True),
    )
    backend = ReplayBackend(
        [ReplayEntry(TEMPLATE_MATCHERS["search_attributes"], "{{name, blurb}}")]
        + permissive_entries(explore_finish=True)
    )
    result = run_search(question, config, generate_synthetic_graph(11), backend)
    expected: list[str] = []
    for sid in sorted(result.states):
        explored = result.states[sid].evidence.exploration
        if explored is None:
            continue
        rendered = explored.rendered_triples().splitlines()
        rendered += explored.rendered_attributes().splitlines()
        expected += [line for line in rendered if line not in expected]
    assert any(".blurb: synthetic" in line for line in expected)

    prompts = []

    class Judge:
        def raw_complete(self, request):
            prompts.append(request.prompt)
            return "[wrong_step] Off track."

    trace = build_trace(question, {"strategy": "got"}, result)
    assert result.answer is not None
    assert classify_error(trace, question, Judge(), CostCounters()) == "wrong_step"
    (prompt,) = prompts
    block = prompt.split("Evidence collected during the run:\n")[1]
    assert block.split("\nDecide which failure mode applies")[0].split("\n") == expected


# ------------------------------------------------------------- validation


def test_real_runs_validate_clean(got_trace):
    assert validate_trace(got_trace.as_dict()) == []
    for strategy, interaction, finish in (
        ("cot", "agent", True),
        ("tot", "explore", False),
        ("got", "explore", False),
    ):
        trace = run_trace(strategy, interaction, finish)
        assert validate_trace(trace.as_dict()) == []


def test_minimal_dict_validates_clean():
    assert validate_trace(minimal_trace_dict()) == []


def tampered(mutate):
    data = copy.deepcopy(minimal_trace_dict())
    mutate(data)
    return validate_trace(data)


def expect(violations, fragment):
    assert any(fragment in v for v in violations), (fragment, violations)


def test_validator_checks_the_schema_tag():
    expect(tampered(lambda d: d.update(schema="trace/v0")), "schema is 'trace/v0'")


def test_validator_requires_states():
    expect(tampered(lambda d: d.update(states=[])), "nonempty list")


def test_validator_rejects_nonincreasing_ids():
    def mutate(d):
        d["states"][1]["id"] = 0

    expect(tampered(mutate), "strictly increasing")


def test_validator_pins_the_root_shape():
    def mutate(d):
        d["states"][0]["depth"] = 1

    expect(tampered(mutate), "must be the root")

    def mutate(d):
        d["states"][0]["parents"] = [0]

    expect(tampered(mutate), "must be the root")


def test_validator_rejects_unknown_status():
    def mutate(d):
        d["states"][1]["status"] = "simmering"
        d["frontier"] = []

    expect(tampered(mutate), "unknown status 'simmering'")


def test_validator_requires_parents_past_the_root():
    def mutate(d):
        d["states"][1]["parents"] = []

    expect(tampered(mutate), "no parents")


def test_validator_caps_parent_count_by_strategy():
    def mutate(d):
        d["states"][1]["parents"] = [0, 0]

    violations = tampered(mutate)
    expect(violations, "exceeds 1 for cot")
    expect(violations, "duplicate parents")


def test_validator_allows_two_parents_only_for_graph_strategy():
    data = minimal_trace_dict()
    data["config"]["strategy"] = "got"
    extra = copy.deepcopy(data["states"][1])
    extra.update(id=2, status="active", thought="sibling")
    extra["evidence"] = dict(extra["evidence"], answer=None)
    merged = copy.deepcopy(data["states"][1])
    merged.update(id=3, depth=1, parents=[1, 2], status="active", thought="merged")
    merged["evidence"] = dict(merged["evidence"], answer=None)
    data["states"] += [extra, merged]
    data["frontier"] = [1]
    assert validate_trace(data) == []

    merged["parents"] = [0, 1, 2]
    expect(validate_trace(data), "exceeds 2 for got")


def test_validator_rejects_forward_and_unknown_parents():
    def mutate(d):
        d["states"][1]["parents"] = [1]

    expect(tampered(mutate), "does not precede")

    def mutate(d):
        d["states"][1]["parents"] = [7]

    expect(tampered(mutate), "unknown parent 7")


def test_validator_checks_single_parent_depth():
    def mutate(d):
        d["states"][1]["depth"] = 3

    expect(tampered(mutate), "not parent depth + 1")


def test_validator_checks_merged_depth():
    data = minimal_trace_dict()
    data["config"]["strategy"] = "got"
    extra = copy.deepcopy(data["states"][1])
    extra.update(id=2, depth=2, status="active", thought="deeper")
    extra["evidence"] = dict(extra["evidence"], answer=None)
    merged = copy.deepcopy(data["states"][1])
    merged.update(id=3, depth=1, parents=[1, 2], status="active", thought="merged")
    merged["evidence"] = dict(merged["evidence"], answer=None)
    data["states"] += [extra, merged]
    expect(validate_trace(data), "share its parents' depth")


def test_validator_rejects_duplicate_triples():
    triple = {
        "head_id": "a",
        "head_name": "a",
        "relation": "r",
        "tail_id": "b",
        "tail_name": "b",
    }

    def mutate(d):
        d["states"][1]["evidence"]["triples"] = [triple, dict(triple)]

    expect(tampered(mutate), "duplicate triples")


def test_validator_checks_scratchpad_indices():
    def mutate(d):
        d["states"][1]["evidence"]["scratchpad"] = [
            {"index": 1, "observations": []},
            {"index": 3, "observations": []},
        ]

    expect(tampered(mutate), "not contiguous from 1")


def test_validator_checks_the_frontier():
    expect(tampered(lambda d: d.update(frontier=[9])), "unknown state 9")

    def mutate(d):
        d["states"][1]["status"] = "pruned"
        d["answer"] = None
        d["termination"] = "step_limit"
        d["eval"] = {"error_class": "reached_limit"}

    expect(tampered(mutate), "has status 'pruned'")

    def mutate(d):
        d["frontier"] = [0, 1]

    expect(tampered(mutate), "multiple depths")

    def mutate(d):
        d["states"][1]["depth"] = 0
        d["states"][1]["parents"] = []
        d["frontier"] = [1, 0]

    expect(tampered(mutate), "ascending order")


def test_validator_ties_answer_to_termination():
    expect(tampered(lambda d: d.update(termination="wandered")), "unknown termination")
    expect(tampered(lambda d: d.update(answer=None)), "exactly when termination")

    def mutate(d):
        d["termination"] = "step_limit"

    expect(tampered(mutate), "exactly when termination")


def test_validator_ties_rouge_to_answer():
    expect(tampered(lambda d: d.update(eval={})), "rouge_l must be present")

    def mutate(d):
        d.update(answer=None, termination="step_limit")
        d["eval"] = {"rouge_l": 0.5, "error_class": "reached_limit"}

    expect(tampered(mutate), "rouge_l must be present")


def test_validator_checks_the_eval_block():
    def mutate(d):
        d["eval"]["error_class"] = "gave_up"

    expect(tampered(mutate), "unknown error class")

    def mutate(d):
        d["eval"]["error_class"] = "correct"

    expect(tampered(mutate), "requires a true judge verdict")

    def mutate(d):
        d.update(answer=None, termination="step_limit")
        d["eval"] = {"error_class": "wrong_step"}

    expect(tampered(mutate), "must classify as 'reached_limit'")


def test_validator_rejects_negative_counters():
    def mutate(d):
        d["counters"]["llm_calls_by_tag"]["thought"] = -1

    expect(tampered(mutate), "nonnegative")

    def mutate(d):
        d["counters"]["kg_ops_by_kind"] = {"node_fetch": 1.5}

    expect(tampered(mutate), "nonnegative integer")

    def mutate(d):
        d["counters"]["memo_hits_by_tag"] = {"prune_entities": -2}

    expect(tampered(mutate), "counters.memo_hits_by_tag['prune_entities'] must be a nonnegative")


def test_validator_reports_multiple_violations_at_once():
    def mutate(d):
        d["schema"] = "nope"
        d["termination"] = "wandered"
        d["eval"] = {}

    assert len(tampered(mutate)) >= 3


def test_tampering_a_real_trace_is_caught(got_trace):
    data = got_trace.as_dict()
    broken = copy.deepcopy(data)
    for state in broken["states"]:
        if len(state["parents"]) == 2:
            state["depth"] += 1
            break
    else:  # pragma: no cover - the got run always merges
        pytest.fail("expected a merged state in a got trace")
    assert validate_trace(data) == []
    assert validate_trace(broken) != []


# (dotted path into the minimal trace, JSON value put there, expected fragment)
WRONG_TYPES = [
    ("states.1", None, "position 1 must be an object, got null"),
    ("states.1", [1], "position 1 must be an object, got a list"),
    ("states.0", "root", "position 0 must be an object, got a string"),
    ("states.1.evidence", None, "state 1: evidence must be an object, got null"),
    ("states.1.evidence", [], "state 1: evidence must be an object, got a list"),
    ("states.1.evidence", "x", "state 1: evidence must be an object, got a string"),
    ("states.0.evidence", None, "state 0: evidence must be an object, got null"),
    ("states.0.evidence.scratchpad", "steps", "state 0: scratchpad must be a list"),
    ("states.1.parents", 0, "state 1: parents must be a list, got a number"),
    ("states.1.parents", [[0]], "are not all state ids"),
    ("states.1.depth", "1", "state 1: depth must be an integer"),
    ("states.1.status", ["active"], "unknown status"),
    ("states.1.evidence.triples", None, "evidence.triples must be a list, got null"),
    ("states.1.evidence.triples", ["a -> r -> b"], "every triple must be an object"),
    ("states.1.evidence.triples", [{"head_id": ["a"]}], "every triple must be an object"),
    ("states.1.evidence.scratchpad", ["step"], "scratchpad must be a list of step objects"),
    ("states.1.evidence.scratchpad", "steps", "scratchpad must be a list of step objects"),
    ("config", None, "config must be an object, got null"),
    ("config", ["got"], "config must be an object, got a list"),
    ("config", "got", "config must be an object, got a string"),
    ("counters", None, "counters must be an object, got null"),
    ("counters", [], "counters must be an object, got a list"),
    ("counters", "0", "counters must be an object, got a string"),
    ("counters.llm_calls_by_tag", [1], "counters.llm_calls_by_tag must be an object"),
    ("counters.memo_hits_by_tag", [1], "counters.memo_hits_by_tag must be an object"),
    ("eval", None, "eval must be an object, got null"),
    ("eval", [], "eval must be an object, got a list"),
    ("eval", "1.0", "eval must be an object, got a string"),
    ("eval.error_class", ["wrong_step"], "unknown error class"),
    ("frontier", None, "frontier must be a list, got null"),
    ("frontier", [[1]], "does not list state ids"),
]


@pytest.mark.parametrize(
    "path, value, fragment",
    WRONG_TYPES,
    ids=[f"{path}={json.dumps(value)}" for path, value, _ in WRONG_TYPES],
)
def test_validator_reports_wrong_json_types(path, value, fragment):
    *parents, last = [int(key) if key.isdigit() else key for key in path.split(".")]

    def mutate(data):
        for key in parents:
            data = data[key]
        data[last] = value

    expect(tampered(mutate), fragment)


@pytest.mark.parametrize("document", [[], ["trace"], "trace", 3, None, True])
def test_validator_reports_a_document_that_is_not_an_object(document):
    expect(validate_trace(document), "a trace must be an object")


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(document=_json_values)
def test_validator_returns_a_list_for_any_json_value(document):
    assert isinstance(validate_trace(document), list)


def _holders(data):
    """Every object in a trace paired with each of its keys, depth first."""
    if isinstance(data, dict):
        for key, value in data.items():
            yield data, key
            yield from _holders(value)
    elif isinstance(data, list):
        for value in data:
            yield from _holders(value)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), value=_json_values)
def test_validator_returns_a_list_for_any_field_replaced(data, value):
    """A well-formed trace with one field, at any depth, set to any JSON value."""
    document = minimal_trace_dict()
    document["states"][1]["evidence"]["triples"] = [
        {"head_id": "a", "head_name": "a", "relation": "r", "tail_id": "b", "tail_name": "b"}
    ]
    document["states"][1]["evidence"]["scratchpad"] = [{"index": 1, "observations": []}]
    holders = list(_holders(document))
    holder, key = data.draw(st.sampled_from(holders))
    holder[key] = value
    assert isinstance(validate_trace(document), list)
