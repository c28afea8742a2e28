"""Trace artifacts: build, round trip, evidence flattening, validation."""

import copy
import json
import os
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    TEMPLATE_MATCHERS,
    assert_writes_deltas,
    golden_agent_entries,
    golden_explore_entries,
    krt39_graph,
    krt39_question,
    permissive_backend,
    permissive_entries,
    rebuild_evidence,
    synthetic_question,
    write_replay_script,
)
from graphreason import explore, kg
from graphreason.agent import Scratchpad
from graphreason.costs import CostCounters
from graphreason.evaluation import classify_error, load_questions, rouge_l
from graphreason.explore import ExplorationState, render_attribute
from graphreason.kg import generate_synthetic_graph, save_graph
from graphreason.llm import ReplayBackend, ReplayEntry, TransportError
from graphreason.runner import RunConfig, _outcome, run_experiment, score_run
from graphreason.strategies import (
    Evidence,
    SearchConfig,
    SearchResult,
    ThoughtState,
    run_search,
)
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

DATA = Path(__file__).parent / "data"

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
    assert data["schema"] == "trace/v3"


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


# ----------------------------------------------------------------- writer


def canonical(data):
    """The one encoding of a trace: sorted keys, no indent, one line."""
    return json.dumps(data, sort_keys=True) + "\n"


# Strings holding what JSON must escape, or escapes only because the output
# is ASCII: quotes, backslashes, control characters, characters past the
# basic plane and lone surrogates.
HOSTILE_TEXT = st.text(
    st.one_of(st.characters(), st.sampled_from('"\\\x00\x1f\x7f\u2028\U0001f600\ud800\udfff')),
    max_size=6,
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | HOSTILE_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(HOSTILE_TEXT, inner, max_size=3),
    max_leaves=6,
)
TRIPLES = st.builds(kg.Triple, HOSTILE_TEXT, HOSTILE_TEXT, HOSTILE_TEXT, HOSTILE_TEXT, HOSTILE_TEXT)
TRIPLE_ROWS = st.fixed_dictionaries({f.name: HOSTILE_TEXT for f in fields(kg.Triple)})
ODD_ROWS = st.one_of(
    TRIPLE_ROWS.map(lambda row: {**row, "extra": 1}),
    TRIPLE_ROWS.map(lambda row: {k: v for k, v in row.items() if k != "relation"}),
    st.tuples(TRIPLE_ROWS, JSON_VALUES.filter(lambda v: type(v) is not str)).map(
        lambda pair: {**pair[0], "tail_id": pair[1]}
    ),
    JSON_VALUES,
)
STATE_SHAPES = ("rows", "no rows", "triples not a list", "evidence not a dict", "extra key", "any")


@st.composite
def built_traces(draw):
    """``build_trace`` over a tree of explore states whose triples come from
    one pool of records, so sibling states share rows."""
    pool = draw(st.lists(TRIPLES, min_size=1, max_size=6))
    states = {0: ThoughtState(0, 0, draw(HOSTILE_TEXT), Evidence(), ())}
    for sid in range(1, draw(st.integers(1, 6)) + 1):
        parent = states[draw(st.integers(0, sid - 1))]
        explored = (parent.evidence.exploration or ExplorationState()).clone()
        for triple in draw(st.lists(st.sampled_from(pool), max_size=4)):
            explored.found_triples.setdefault(
                (triple.head_id, triple.relation, triple.tail_id), triple
            )
        states[sid] = ThoughtState(
            sid, parent.depth + 1, draw(HOSTILE_TEXT), Evidence(exploration=explored),
            (parent.id,), score=draw(st.none() | st.floats()),
        )
    result = SearchResult(None, states, [max(states)], CostCounters(), "step_limit")
    return build_trace(synthetic_question(), {"strategy": "tot"}, result)


@st.composite
def hand_made_traces(draw):
    """Traces of any JSON values, with states of the writer's shape and
    others in any order, their rows drawn from one pool of row objects."""
    pool = draw(st.lists(TRIPLE_ROWS | ODD_ROWS, min_size=1, max_size=5))
    states = []
    for shape in draw(st.lists(st.sampled_from(STATE_SHAPES), max_size=6)):
        evidence = {key: draw(JSON_VALUES)
                    for key in ("answer", "attributes", "exploration", "scratchpad")}
        evidence["triples"] = [] if shape == "no rows" else [
            pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=4))
        ]
        state = {key: draw(JSON_VALUES)
                 for key in ("depth", "id", "parents", "score", "status", "thought")}
        state["evidence"] = evidence
        if shape == "triples not a list":
            evidence["triples"] = draw(JSON_VALUES.filter(lambda v: type(v) is not list))
        elif shape == "evidence not a dict":
            state["evidence"] = draw(JSON_VALUES.filter(lambda v: type(v) is not dict))
        elif shape == "extra key":
            state[draw(HOSTILE_TEXT)] = draw(JSON_VALUES)
        elif shape == "any":
            state = draw(JSON_VALUES)
        states.append(state)
    if draw(st.booleans()):
        states = draw(JSON_VALUES)
    record = {name: draw(JSON_VALUES) for name in (
        "qid", "question", "config", "frontier", "answer", "termination", "counters", "eval",
        "schema",
    )}
    return TraceRecord(states=states, **record)


@settings(max_examples=300, deadline=None)
@given(st.one_of(built_traces(), hand_made_traces()))
def test_the_writer_writes_what_json_dumps_writes(trace):
    assert serialize_trace(trace) == canonical(trace.as_dict())


def golden_traces():
    question, graph = krt39_question(), krt39_graph()
    for interaction, entries in (("agent", golden_agent_entries()),
                                 ("explore", golden_explore_entries())):
        config = SearchConfig(strategy="cot", interaction=interaction, d_max=10)
        result = run_search(question, config, graph, ReplayBackend(entries, strict=True))
        yield build_trace(question, {}, result)


def test_the_writer_writes_what_json_dumps_writes_for_real_traces(got_trace, real_traces):
    v2 = load_trace(DATA / "got_explore_v2.trace")
    traces = [got_trace, v2, *golden_traces(), *map(trace_from_dict, real_traces.values())]
    assert any(state["evidence"]["triples"] for trace in traces for state in trace.states)
    for trace in traces:
        assert serialize_trace(trace) == canonical(trace.as_dict())
    assert serialize_trace(v2) == (DATA / "got_explore_v2.trace").read_text(encoding="utf-8")


def test_build_trace_shares_one_row_per_triple_among_states():
    """Sibling explore states that found the same triple hold one row
    object for it, so the writer encodes it once."""
    result = explore_with_attributes(finish=False)
    states = build_trace(synthetic_question(), {"strategy": "got"}, result).states
    by_key: dict = {}
    holders: dict = {}
    for state in states:
        for row in state["evidence"]["triples"] + state["evidence"]["attributes"]:
            key = tuple(sorted(row.items()))
            assert by_key.setdefault(key, row) is row
            holders.setdefault(key, set()).add(state["id"])
    shared = [ids for ids in holders.values() if len(ids) > 1]
    assert shared, "no two states wrote the same triple"
    parents = {state["id"]: tuple(state["parents"]) for state in states}
    siblings = [ids for ids in shared if len({parents[sid] for sid in ids}) < len(ids)]
    assert siblings, "no two siblings wrote the same triple"


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


def explore_with_attributes(finish=True):
    """A got/explore run that keeps attribute hits: it answers at depth 1,
    or without ``finish`` explores on and merges."""
    config = SearchConfig(strategy="got", interaction="explore", k=2, t=2, d_max=2, search_depth=1)
    backend = ReplayBackend(
        [ReplayEntry(TEMPLATE_MATCHERS["search_attributes"], "{{name, blurb}}")]
        + permissive_entries(explore_finish=finish)
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(explore, "SELECT_ATTRIBUTES", True)
        return run_search(synthetic_question(), config, generate_synthetic_graph(11), backend)


def test_judge_evidence_lines_are_the_prompt_renderings():
    # The error judge reads a got/explore run's triples and attributes in
    # the very form the search prompts showed the model.
    question = synthetic_question()
    result = explore_with_attributes()
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


class SecondGenerationFails(ReplayBackend):
    """Replay whose second generation call fails on every transport attempt,
    so that child is born pruned and the run goes on."""

    def __init__(self, entries):
        super().__init__(entries)
        self.generations = 0

    def raw_complete(self, request):
        phrases = (TEMPLATE_MATCHERS["search_thought"], TEMPLATE_MATCHERS["agent_step"])
        if any(phrase in request.prompt for phrase in phrases):
            self.generations += 1
            if 2 <= self.generations <= 4:  # the second call and both its retries
                raise TransportError("injected")
        return super().raw_complete(request)


def cumulative_evidence_strings(result):
    """What ``evidence_strings`` returned when every state wrote its whole
    evidence: each state's observations, triples and attributes, in state-id
    order, deduplicated."""
    strings: list[str] = []
    for sid in sorted(result.states):
        evidence = result.states[sid].evidence
        explored = evidence.exploration or ExplorationState()
        steps = evidence.scratchpad.steps if evidence.scratchpad else []
        texts = [obs for step in steps for obs in step.observations]
        texts += [kg.render_triple(t) for t in explored.found_triples.values()]
        texts += [render_attribute(h) for h in explored.relevant_attributes.values()]
        for text in texts:
            if text and text not in strings:
                strings.append(text)
    return strings


def born_pruned_run(interaction):
    config = SearchConfig(strategy="got", interaction=interaction, k=3, t=3, d_max=2)
    backend = SecondGenerationFails(permissive_entries())
    result = run_search(synthetic_question(), config, generate_synthetic_graph(11), backend)
    assert result.states[2].thought == "(generation failed)"
    return result


JUDGED_RUNS = {
    "got-explore": lambda: explore_with_attributes(finish=False),
    "got-agent": lambda: run_search(
        synthetic_question(),
        SearchConfig(strategy="got", interaction="agent", k=3, t=3, d_max=3),
        generate_synthetic_graph(11),
        permissive_backend(),
    ),
    "born-pruned-explore": lambda: born_pruned_run("explore"),
    "born-pruned-agent": lambda: born_pruned_run("agent"),
}


@pytest.mark.parametrize("name", JUDGED_RUNS)
def test_delta_rows_give_the_judge_the_cumulative_evidence(name):
    """The judge's evidence block is unchanged by writing deltas: the rows
    pushed in state-id order dedupe to what whole-evidence states gave."""
    result = JUDGED_RUNS[name]()
    if name.startswith("got"):
        assert any(len(state.parents) == 2 for state in result.states.values())
    data = build_trace(synthetic_question(), {"strategy": "got"}, result).as_dict()
    reference = cumulative_evidence_strings(result)
    assert reference
    assert trace_from_dict(data).evidence_strings() == reference
    assert_writes_deltas(data, result)


@pytest.mark.parametrize("name", ["got-explore", "got-agent"])
def test_build_trace_makes_no_merge(name, monkeypatch):
    """A merged state's evidence is built once, by ``merged_state``: the
    writer reads each state against its one parent and never merges."""
    result = JUDGED_RUNS[name]()
    assert any(len(state.parents) == 2 for state in result.states.values())

    def refuse(*args):
        raise AssertionError("build_trace merged evidence")

    monkeypatch.setattr(ExplorationState, "merge", refuse)
    monkeypatch.setattr(Scratchpad, "merge", refuse)
    data = build_trace(synthetic_question(), {"strategy": "got"}, result).as_dict()
    monkeypatch.undo()
    assert_writes_deltas(data, result)


# The CI got/explore replay (its run was written as trace/v2 into DATA).
V2_RUN_REPLAY = [
    ReplayEntry("Generate the next thought for the merged chain",
                "Both chains point the same way; keep exploring."),
    ReplayEntry("Generate a score", "Score: 0.5"),
    ReplayEntry("Select the tail entity", "keep everything please"),
    ReplayEntry("select only the relevant relations", "keep everything please"),
    ReplayEntry("extract the relevant entities", "{{beta 1}}"),
    ReplayEntry("whether it's sufficient", "{{No}}"),
    ReplayEntry("Next Thought:", "Look at the entries linked to beta 1."),
]


def test_a_v2_trace_loads_validates_and_scores_as_its_v3_rewrite(tmp_path):
    questions = tmp_path / "questions.lines"
    questions.write_text(
        '{"qid": "q1", "question": "Which entries are linked to beta 1?", '
        '"answer": "alpha 2", "difficulty": "easy"}\n',
        encoding="utf-8",
    )
    graph_path = tmp_path / "graph.kg"
    save_graph(generate_synthetic_graph(11), graph_path)
    run_experiment(RunConfig(
        kg_path=str(graph_path), questions_path=str(questions), out_dir=str(tmp_path / "v3"),
        replay_path=str(write_replay_script(tmp_path / "explore.replay", V2_RUN_REPLAY)),
        strategy="got", interaction="explore", evaluator="score", max_depth=2, search_depth=1,
    ))
    v2_path = DATA / "got_explore_v2.trace"
    v2, v3 = load_trace(v2_path), load_trace(tmp_path / "v3" / "traces" / "q1.trace")
    assert (v2.schema, v3.schema) == ("trace/v2", "trace/v3")
    assert validate_trace(json.loads(v2_path.read_text(encoding="utf-8"))) == []

    (question,) = load_questions(questions)
    assert _outcome(question, v2) == _outcome(question, v3)
    assert v2.evidence_strings() == v3.evidence_strings()
    old = tmp_path / "v2"
    old.mkdir()
    (old / "q1.trace").write_bytes(v2_path.read_bytes())
    score_run(old, questions, tmp_path / "rescore")
    lines = (tmp_path / "v3" / "results.lines").read_bytes()
    assert (tmp_path / "rescore" / "results.lines").read_bytes() == lines

    # Everything but the evidence is written alike, and the v3 rows rebuild
    # each state's v2 evidence.
    def without(record, *names):
        return {k: v for k, v in record.items() if k not in names}

    assert without(v2.as_dict(), "schema", "states") == without(v3.as_dict(), "schema", "states")
    rebuilt = rebuild_evidence(v3.as_dict())
    for old_state, new_state in zip(v2.states, v3.states, strict=True):
        assert without(old_state, "evidence") == without(new_state, "evidence")
        rows, whole = old_state["evidence"], rebuilt[new_state["id"]]
        explored = whole.exploration or ExplorationState()
        assert rows["thought_log"] == whole.thought_log
        assert rows["triples"] == [vars(t) for t in explored.found_triples.values()]
        assert rows["attributes"] == [vars(h) for h in explored.relevant_attributes.values()]
        if rows["exploration"] is not None:
            assert rows["exploration"] == {
                "seen_entities": {e: vars(m) for e, m in explored.seen_entities.items()},
                "sufficient": explored.sufficient,
            }
    assert len(serialize_trace(v3)) < 0.6 * len(serialize_trace(v2))


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


@pytest.fixture(scope="module")
def real_traces(got_trace):
    result = explore_with_attributes(finish=False)
    return {
        "v3-explore": build_trace(synthetic_question(), {"strategy": "got"}, result).as_dict(),
        "v3-agent": got_trace.as_dict(),
        "v2-explore": json.loads((DATA / "got_explore_v2.trace").read_text(encoding="utf-8")),
    }


def _pop_tail_name(rows):
    del rows[0]["tail_name"]


# (trace, evidence field, change to the first state's nonempty rows, fragment)
ROW_MUTATIONS = {
    "triple-without-tail_name": (
        "v3-explore", "triples", _pop_tail_name, "every triple must be an object of the string"
    ),
    "triple-with-numeric-head_name": (
        "v3-explore", "triples", lambda rows: rows[0].update(head_name=7),
        "every triple must be an object of the string",
    ),
    "v2-triple-without-tail_name": (
        "v2-explore", "triples", _pop_tail_name, "every triple must be an object of the string"
    ),
    "v2-triple-with-numeric-head_name": (
        "v2-explore", "triples", lambda rows: rows[0].update(head_name=7),
        "every triple must be an object of the string",
    ),
    "attribute-of-other-fields": (
        "v3-explore", "attributes", lambda rows: rows.append({"x": 1}),
        "every attribute must be an object of the string",
    ),
    "observations-as-a-string": (
        "v3-agent", "scratchpad",
        lambda rows: rows[0].update(observations="The number of neighbors is 0."),
        "observations must be a list of strings",
    ),
    "scratchpad-from-index-0": (
        "v3-agent", "scratchpad",
        lambda rows: [row.update(index=row["index"] - 1) for row in rows],
        "must start at a positive integer",
    ),
    "seen-row-with-a-string-depth": (
        "v3-explore", "exploration",
        lambda exploration: exploration["seen_entities"][0].__setitem__(1, "0"),
        "every seen entity must be an [entity_id, depth_discovered, visited] row",
    ),
}


@pytest.mark.parametrize("name", ROW_MUTATIONS)
def test_validator_checks_row_shapes(real_traces, name):
    """Rows ``evidence_strings`` could not read back, or would read as
    something else, are violations."""
    source, key, mutate, fragment = ROW_MUTATIONS[name]
    data = copy.deepcopy(real_traces[source])
    assert validate_trace(data) == []
    mutate(next(s["evidence"][key] for s in data["states"] if s["evidence"][key]))
    expect(validate_trace(data), fragment)


# (trace, the rows of one kind in a state's evidence)
MERGED_ROWS = {
    "triple": ("v3-explore", lambda evidence: evidence["triples"]),
    "attribute": ("v3-explore", lambda evidence: evidence["attributes"]),
    "seen": ("v3-explore", lambda evidence: evidence["exploration"]["seen_entities"]),
    "step": ("v3-agent", lambda evidence: evidence["scratchpad"]),
}


@pytest.mark.parametrize("target", ["root", "merged"])
@pytest.mark.parametrize("name", MERGED_ROWS)
def test_validator_reports_rows_in_a_v3_merged_state(real_traces, name, target):
    """The root holds no evidence and a merged state's is exactly its
    parents' union, so a v3 root or merged state holding another state's row
    is one violation naming it."""
    source, rows = MERGED_ROWS[name]
    data = copy.deepcopy(real_traces[source])
    states = data["states"]
    merged = next(s for s in states if len(s["parents"]) == 2)
    state = merged
    if target == "root":
        # The root writes null where a merged state writes empty rows.
        state = states[0]
        state["evidence"] = copy.deepcopy(merged["evidence"])
    assert validate_trace(data) == [] and rows(state["evidence"]) == []
    donor = next(s for s in states[1:] if rows(s["evidence"]))
    rows(state["evidence"]).append(rows(donor["evidence"])[0])
    holds = ("the root holds no evidence, so it" if target == "root" else
             "a merged state holds exactly its parents' evidence, so it")
    assert validate_trace(data) == [
        f"state {state['id']}: {holds} writes no triple, attribute, step or seen row"
    ]


# (dotted path into the minimal trace, or into a file under DATA named before a
# colon, JSON value put there, expected fragment)
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
    ("eval.judge_correct", {}, "eval.judge_correct must be true, false or null"),
    ("eval.judge_correct", 1, "eval.judge_correct must be true, false or null"),
    ("frontier", None, "frontier must be a list, got null"),
    ("frontier", [[1]], "does not list state ids"),
    # A JSON boolean is not an integer.
    ("frontier", [True], "does not list state ids"),
    ("got_explore_v2.trace:states.0.id", False, "got False after -1"),
    ("got_explore_v2.trace:states.1.depth", True, "state 1: depth must be an integer, got True"),
    ("got_explore_v2.trace:states.4.parents", [True, 2], "are not all state ids"),
    ("got_explore_v2.trace:states.1.id", True, "got True after 0"),
    ("got_explore_v2.trace:counters.llm_calls_by_tag.merge", True,
     "counters.llm_calls_by_tag['merge'] must be a nonnegative integer"),
]


@pytest.mark.parametrize(
    "path, value, fragment",
    WRONG_TYPES,
    ids=[f"{path}={json.dumps(value)}" for path, value, _ in WRONG_TYPES],
)
def test_validator_reports_wrong_json_types(path, value, fragment):
    source, _, path = path.rpartition(":")
    if source:
        document = json.loads((DATA / source).read_text(encoding="utf-8"))
    else:
        document = minimal_trace_dict()
    *parents, last = [int(key) if key.isdigit() else key for key in path.split(".")]
    holder = document
    for key in parents:
        holder = holder[key]
    holder[last] = value
    expect(validate_trace(document), fragment)


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
