"""Experiment orchestration: pre-flight checks, the traces a run leaves on
disk, rescoring them, and runs whose calls at one site always fail."""

import copy
import gc
import json
import re
import shutil
from pathlib import Path

import pytest

from helpers import (
    TEMPLATE_MATCHERS,
    permissive_entries,
    synthetic_question,
    write_question_file,
    write_replay_script,
)
from graphreason import explore, kg, runner
from graphreason.evaluation import Question, QuestionLoadError
from graphreason.kg import GraphLoadError, SyntheticGraphSpec, generate_synthetic_graph, save_graph
from graphreason.llm import (
    MAX_TRANSPORT_RETRIES,
    ReplayBackend,
    ReplayEntry,
    ReplayMismatchError,
    TransportError,
)
from graphreason.runner import RunConfig, run_experiment, run_sweep, score_run
from graphreason.traces import load_trace, validate_trace

# Synthetic names are "<type> <index>" with types alternating alpha/beta, so
# odd indices are beta nodes.
TARGETS = (3, 5, 7, 9, 11, 13)


def agent_entries(targets=TARGETS) -> list[ReplayEntry]:
    """Per question: one step retrieving by a missed and an exact query, then
    Finish. The step-2 entries come first: their matcher is the step-1
    thought, which only a step-2 prompt contains."""
    finishes = [
        ReplayEntry(
            f"Thought 1: Locate beta {n} zeta.",
            f"Thought 2: Found it.\nAction 2: Finish[beta {n}]",
        )
        for n in targets
    ]
    lookups = [
        ReplayEntry(
            f"Question: Which entries are linked to beta {n}?",
            f"Thought 1: Locate beta {n} zeta.\n"
            f"Action 1: RetrieveNode[beta {n} zeta], RetrieveNode[ALPHA {n + 1}]",
        )
        for n in targets
    ]
    return finishes + lookups


def make_inputs(tmp_path, targets=TARGETS, scripted=TARGETS, node_count=40) -> dict:
    """Run inputs asking about ``targets``; the script answers ``scripted``."""
    graph_path = tmp_path / "graph.kg"
    spec = SyntheticGraphSpec(node_count=node_count, edges_per_node=2)
    save_graph(generate_synthetic_graph(5, spec), graph_path)
    questions = [
        Question(
            qid=f"q{n}",
            text=f"Which entries are linked to beta {n}?",
            gold_answer=f"beta {n}",
            difficulty="easy",
            domain="synthetic",
        )
        for n in targets
    ]
    script = agent_entries(scripted)
    return {
        "kg_path": str(graph_path),
        "questions_path": str(write_question_file(tmp_path / "questions.lines", questions)),
        "replay_path": str(write_replay_script(tmp_path / "script.replay", script)),
    }


@pytest.fixture()
def inputs(tmp_path):
    return make_inputs(tmp_path)


def test_steps_is_only_a_read_only_name_for_max_depth(inputs, tmp_path):
    config = RunConfig(out_dir=str(tmp_path), max_depth=7, **inputs)
    assert config.steps == 7
    with pytest.raises(AttributeError):
        config.steps = 2
    with pytest.raises(TypeError):
        RunConfig(out_dir=str(tmp_path), steps=7, **inputs)


def test_a_run_that_aborts_keeps_the_traces_it_finished(tmp_path):
    """The script answers the first question only, so the second aborts the
    run; the first question's trace is already on disk, whole, with the
    nodes its missed and its exact query retrieved."""
    first, second = TARGETS[:2]
    inputs = make_inputs(tmp_path, targets=(first, second), scripted=(first,))
    out = tmp_path / "out"
    with pytest.raises(ReplayMismatchError):
        run_experiment(RunConfig(out_dir=str(out), **inputs))
    traces_dir = out / "traces"
    assert sorted(p.name for p in traces_dir.iterdir()) == [f"q{first}.trace"]
    text = (traces_dir / f"q{first}.trace").read_text(encoding="utf-8")
    data = json.loads(text)
    assert validate_trace(data) == []
    assert data["answer"] == f"beta {first}"
    assert f"The ID of the node is n{first:04d}." in text
    assert f"The ID of the node is n{first + 1:04d}." in text
    assert not (out / "results.lines").exists()


def explore_run(tmp_path, questions) -> Path:
    """A got/explore run of ``questions`` on the permissive script; every
    question anchors on the same entity."""
    graph_path = tmp_path / "graph.kg"
    save_graph(generate_synthetic_graph(11), graph_path)
    out = tmp_path / "out"
    run_experiment(
        RunConfig(
            kg_path=str(graph_path),
            questions_path=str(write_question_file(tmp_path / "q.lines", questions)),
            out_dir=str(out),
            replay_path=str(write_replay_script(tmp_path / "s.replay", permissive_entries())),
            strategy="got",
            interaction="explore",
            evaluator="score",
            max_depth=2,
            search_depth=1,
        )
    )
    return out


def test_each_question_pays_for_its_own_prunes(tmp_path):
    """The prune memo belongs to one search: a second question that reaches
    the same entities asks about them again."""
    out = explore_run(tmp_path, [synthetic_question("q1"), synthetic_question("q2")])
    first, second = (load_trace(out / "traces" / f"{q}.trace").counters for q in ("q1", "q2"))
    assert first == second
    assert first["llm_calls_by_tag"]["prune_relations"] > 0
    assert first["memo_hits_by_tag"]["prune_relations"] > 0


def test_traces_without_memo_hits_still_validate_and_score(tmp_path):
    """Traces written before the prune memo have no
    ``counters.memo_hits_by_tag``. They validate and rescore to the same
    tables, since a hit is not a model call."""
    out = explore_run(tmp_path, [synthetic_question("q1")])
    old = tmp_path / "old"
    old.mkdir()
    data = json.loads((out / "traces" / "q1.trace").read_text(encoding="utf-8"))
    assert data["counters"].pop("memo_hits_by_tag")
    assert validate_trace(data) == []
    (old / "q1.trace").write_text(json.dumps(data), encoding="utf-8")
    score_run(old, str(tmp_path / "q.lines"), tmp_path / "rescore")
    expected = (out / "results.lines").read_bytes()
    assert (tmp_path / "rescore" / "results.lines").read_bytes() == expected


@pytest.mark.parametrize(
    "layout",
    [
        pytest.param(lambda data: json.dumps(data, sort_keys=True, indent=2), id="indented"),
        pytest.param(
            lambda data: json.dumps(
                {**data, "timestamps": {"finished": None, "started": None}}, sort_keys=True
            ),
            id="timestamps",
        ),
    ],
)
def test_traces_in_an_older_layout_still_load_and_score(inputs, tmp_path, layout):
    """Traces were once written with ``indent=2``, and with a ``timestamps``
    block (null under replay) that the loader now leaves unread. The same
    content in either layout loads, validates and rescores to the same
    tables."""
    out = tmp_path / "out"
    run_experiment(RunConfig(out_dir=str(out), **inputs))
    old = tmp_path / "old"
    old.mkdir()
    for path in sorted((out / "traces").glob("*.trace")):
        record = load_trace(path)
        text = layout(record.as_dict()) + "\n"
        (old / path.name).write_text(text, encoding="utf-8")
        reloaded = load_trace(old / path.name)
        assert reloaded.as_dict() == record.as_dict()
        assert validate_trace(json.loads(text)) == []
    score_run(old, inputs["questions_path"], tmp_path / "rescore")
    expected = (out / "results.lines").read_bytes()
    assert (tmp_path / "rescore" / "results.lines").read_bytes() == expected


def test_score_names_a_trace_whose_error_class_is_unknown(inputs, tmp_path):
    out = tmp_path / "out"
    run_experiment(RunConfig(out_dir=str(out), **inputs))
    path = out / "traces" / f"q{TARGETS[1]}.trace"
    data = json.loads(path.read_text(encoding="utf-8"))
    data["eval"]["error_class"] = "gave_up"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(runner.ConfigError, match="gave_up") as raised:
        score_run(out / "traces", inputs["questions_path"], tmp_path / "rescore")
    assert str(path) in str(raised.value)
    assert not (tmp_path / "rescore").exists()


NOT_AN_OBJECT = "its config is not an object"


def with_config(config):
    return lambda data, other: {**data, "config": config}


@pytest.mark.parametrize(
    "damage, message",
    [
        pytest.param(
            lambda data, other: other,
            f"it holds question 'q{TARGETS[1]}', not 'q{TARGETS[0]}'",
            id="swapped-qid",
        ),
        pytest.param(with_config(None), NOT_AN_OBJECT, id="config-null"),
        pytest.param(with_config(["a"]), NOT_AN_OBJECT, id="config-list"),
        pytest.param(with_config("x"), NOT_AN_OBJECT, id="config-string"),
    ],
)
def test_score_names_a_trace_that_is_not_its_questions_run(inputs, tmp_path, damage, message):
    """The first question's trace file is damaged: it holds the second
    question's run, as after the two files are swapped, or a config that is
    not an object. The first trace's config is the one the report echoes."""
    out = tmp_path / "out"
    run_experiment(RunConfig(out_dir=str(out), **inputs))
    path, other = (out / "traces" / f"q{n}.trace" for n in TARGETS[:2])
    data, other_data = (json.loads(p.read_text(encoding="utf-8")) for p in (path, other))
    path.write_text(json.dumps(damage(data, other_data)), encoding="utf-8")
    expected = re.escape(f"cannot score trace {path}: {message}")
    with pytest.raises(runner.ConfigError, match=expected):
        score_run(out / "traces", inputs["questions_path"], tmp_path / "rescore")
    assert not (tmp_path / "rescore").exists()


def test_score_names_a_trace_from_another_run(tmp_path):
    """q1's trace comes from a cot/agent run and q2's from a got/explore run
    of the same questions; one report cannot echo both configs."""
    explore_out = explore_run(tmp_path, [synthetic_question("q1"), synthetic_question("q2")])
    questions = tmp_path / "q.lines"
    agent_out = tmp_path / "agent"
    run_experiment(
        RunConfig(
            kg_path=str(tmp_path / "graph.kg"),
            questions_path=str(questions),
            out_dir=str(agent_out),
            replay_path=str(tmp_path / "s.replay"),
        )
    )
    mixed = tmp_path / "mixed"
    mixed.mkdir()
    shutil.copy(agent_out / "traces" / "q1.trace", mixed)
    shutil.copy(explore_out / "traces" / "q2.trace", mixed)
    expected = re.escape(
        f"cannot score trace {mixed / 'q2.trace'}: "
        f"its config differs from that of {mixed / 'q1.trace'}"
    )
    with pytest.raises(runner.ConfigError, match=expected):
        score_run(mixed, questions, tmp_path / "rescore")
    assert not (tmp_path / "rescore").exists()


@pytest.fixture(scope="module")
def judged_run(tmp_path_factory):
    """A cot/agent run of one question with the model judge on; its trace
    holds an answer, a true verdict and the class ``correct``."""
    root = tmp_path_factory.mktemp("judged")
    graph_path = root / "graph.kg"
    save_graph(generate_synthetic_graph(11), graph_path)
    questions = write_question_file(root / "q.lines", [synthetic_question("q1")])
    script = write_replay_script(root / "s.replay", permissive_entries(agent_finish=True))
    out = root / "out"
    run_experiment(
        RunConfig(
            kg_path=str(graph_path),
            questions_path=str(questions),
            out_dir=str(out),
            replay_path=str(script),
            judge="llm",
        )
    )
    data = json.loads((out / "traces" / "q1.trace").read_text(encoding="utf-8"))
    assert data["eval"]["judge_correct"] is True
    assert data["eval"]["error_class"] == "correct"
    return data, questions


@pytest.mark.parametrize(
    "error_class", [None, "wrong_step", "correct", "gave_up", 3, ["wrong_step"]], ids=json.dumps
)
@pytest.mark.parametrize("verdict", [True, False, None, 1, 0, "yes", {}, []], ids=json.dumps)
def test_validate_trace_and_score_agree_on_eval_blocks(judged_run, tmp_path, verdict, error_class):
    """A trace whose eval block validates clean scores, and one that does
    not fails to score only with a ``ConfigError`` naming its file."""
    data, questions = judged_run
    data = copy.deepcopy(data)
    data["eval"].update(judge_correct=verdict, error_class=error_class)
    traces = tmp_path / "traces"
    traces.mkdir()
    path = traces / "q1.trace"
    path.write_text(json.dumps(data), encoding="utf-8")
    try:
        score_run(traces, questions, tmp_path / "rescore")
    except runner.ConfigError as exc:
        assert validate_trace(data) != [], exc
        assert str(path) in str(exc)


# ------------------------------------------------- set-up shared and frozen


def tables_and_traces(out):
    return {
        path.relative_to(out).as_posix(): path.read_bytes()
        for path in sorted(out.rglob("*"))
        if path.name in ("results.lines", "report.table") or path.suffix == ".trace"
    }


def test_a_sweep_loads_the_graph_once_and_runs_each_value_as_a_run_would(
    inputs, tmp_path, monkeypatch
):
    loads = []
    load_graph = kg.load_graph

    def counted(*args, **kwargs):
        loads.append(args)
        return load_graph(*args, **kwargs)

    monkeypatch.setattr(kg, "load_graph", counted)
    base = RunConfig(out_dir=str(tmp_path / "sweep"), **inputs)
    values = ["1", "2", "3"]
    run_sweep(base, "max-depth", values)
    assert len(loads) == 1
    for value in values:
        alone = tmp_path / f"alone_{value}"
        run_experiment(RunConfig(out_dir=str(alone), max_depth=int(value), **inputs))
        swept = tables_and_traces(tmp_path / "sweep" / f"max-depth_{value}")
        assert len(swept) == len(TARGETS) + 2
        assert swept == tables_and_traces(alone)


def frozen_during_questions(monkeypatch):
    """Records the freeze count each question starts under."""
    seen = []
    search = runner.run_search

    def recording(*args, **kwargs):
        seen.append(gc.get_freeze_count())
        return search(*args, **kwargs)

    monkeypatch.setattr(runner, "run_search", recording)
    return seen


def entry_point(name, inputs, out):
    """A run, or a two-value sweep, over the given inputs."""
    if name == "run_experiment":
        return lambda: run_experiment(RunConfig(out_dir=str(out / "run"), **inputs))
    return lambda: run_sweep(RunConfig(out_dir=str(out / "sweep"), **inputs), "max-depth", ["2", "3"])


ENTRY_POINTS = ["run_experiment", "run_sweep"]


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_set_up_is_frozen_while_questions_run_and_thawed_after(
    inputs, tmp_path, monkeypatch, entry
):
    assert gc.get_freeze_count() == 0
    seen = frozen_during_questions(monkeypatch)
    entry_point(entry, inputs, tmp_path)()
    assert seen and all(count > 0 for count in seen)
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_question_that_raises_leaves_nothing_frozen(tmp_path, monkeypatch, entry):
    first, second = TARGETS[:2]
    inputs = make_inputs(tmp_path, targets=(first, second), scripted=(first,))
    assert gc.get_freeze_count() == 0
    seen = frozen_during_questions(monkeypatch)
    with pytest.raises(ReplayMismatchError):
        entry_point(entry, inputs, tmp_path)()
    assert len(seen) == 2 and all(count > 0 for count in seen)
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_objects_the_caller_froze_stay_frozen(inputs, tmp_path, monkeypatch, entry):
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert frozen > 0
        seen = frozen_during_questions(monkeypatch)
        entry_point(entry, inputs, tmp_path)()
        assert seen and all(count == frozen for count in seen)
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_set_up_runs_no_collection(tmp_path, monkeypatch, collector_state, entry):
    """Set-up allocates far more objects than a young-generation threshold,
    and it is frozen before the collector resumes, so no collection starts
    before the first question does."""
    inputs = make_inputs(tmp_path, node_count=2000)
    searched = []
    collections = []
    search = runner.run_search

    def searching(*args, **kwargs):
        searched.append(True)
        return search(*args, **kwargs)

    def count(phase, info):
        if phase == "start" and not searched:
            collections.append(info["generation"])

    monkeypatch.setattr(runner, "run_search", searching)
    run = entry_point(entry, inputs, tmp_path)
    gc.enable()
    gc.collect()  # so the run starts with empty young generations
    gc.callbacks.append(count)
    try:
        run()
    finally:
        gc.callbacks.remove(count)
    assert searched
    assert collections == []


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "bad, error", [("kg_path", GraphLoadError), ("questions_path", QuestionLoadError)]
)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_failed_set_up_leaves_the_collector_as_it_found_it(
    tmp_path, collector_state, entry, bad, error, enabled
):
    inputs = make_inputs(tmp_path)
    with open(inputs[bad], "a", encoding="utf-8") as handle:
        handle.write("not json\n")
    if enabled:
        gc.enable()
    else:
        gc.disable()
    with pytest.raises(error):
        entry_point(entry, inputs, tmp_path)()
    assert gc.isenabled() is enabled
    assert gc.get_freeze_count() == 0


# ------------------------------------------------ a call site that always fails


class FailingReplay(ReplayBackend):
    """Non-strict replay in which every attempt at a prompt rendered from
    one template raises TransportError."""

    def __init__(self, entries, template):
        super().__init__(entries)
        self.phrase = TEMPLATE_MATCHERS[template]
        self.failed = 0

    def raw_complete(self, request):
        if self.phrase in request.prompt:
            self.failed += 1
            raise TransportError("injected")
        return super().raw_complete(request)


# The nine call sites that parse a reply, by template, with the evaluator
# that reaches each; the judge runs on every answered question.
PARSING_SITES = {
    "entity_extraction": "score",
    "prune_relations": "score",
    "prune_entities": "score",
    "search_attributes": "score",
    "search_end": "score",
    "selection_vote": "select",
    "score_vote": "score",
    "judge_correctness": "score",
    "judge_error_class": "score",
}


@pytest.mark.parametrize("template", sorted(PARSING_SITES))
def test_a_call_site_whose_calls_all_fail_costs_no_question(template, tmp_path, monkeypatch):
    graph_path = tmp_path / "graph.kg"
    save_graph(generate_synthetic_graph(11), graph_path)
    questions = [synthetic_question("q1"), synthetic_question("q2")]
    backend = FailingReplay(
        [
            ReplayEntry(TEMPLATE_MATCHERS["search_attributes"], "{{name}}"),
            ReplayEntry(TEMPLATE_MATCHERS["judge_correctness"], "[No] Different."),
            ReplayEntry(TEMPLATE_MATCHERS["judge_error_class"], "[found_not_returned] Saw it."),
            *permissive_entries(explore_finish=True),
        ],
        template,
    )
    monkeypatch.setattr(runner, "build_backend", lambda config: backend)
    # No run option selects attributes; the constant turns the path on.
    monkeypatch.setattr(explore, "SELECT_ATTRIBUTES", True)
    out = tmp_path / "out"
    report = run_experiment(
        RunConfig(
            kg_path=str(graph_path),
            questions_path=str(write_question_file(tmp_path / "q.lines", questions)),
            out_dir=str(out),
            replay_path=str(write_replay_script(tmp_path / "empty.replay", [])),
            strategy="got",
            interaction="explore",
            evaluator=PARSING_SITES[template],
            retain=1,
            max_depth=2,
            search_depth=1,
            judge="llm",
        )
    )

    assert backend.failed > 0
    assert report.overall.count == len(questions)
    rows = [json.loads(line) for line in (out / "results.lines").read_text().splitlines()]
    retries = 0
    for row in rows:
        trace = json.loads((out / "traces" / f"{row['qid']}.trace").read_text(encoding="utf-8"))
        assert validate_trace(trace) == []
        retries += trace["counters"]["transport_retries"]
        if template == "judge_correctness" and row["answer"] is not None:
            assert (row["judge_correct"], row["error_class"]) == (None, "found_not_returned")
        if template == "judge_error_class" and row["answer"] is not None:
            assert (row["judge_correct"], row["error_class"]) == (False, "wrong_step")
    # Each failed call used up its retries and was not re-asked.
    assert retries * (1 + MAX_TRANSPORT_RETRIES) == backend.failed * MAX_TRANSPORT_RETRIES


# ------------------------------------------------------ text that is not UTF-8


class DownBackend:
    """A backend whose every attempt fails, as an endpoint nothing listens on."""

    def raw_complete(self, request):
        raise TransportError("connection refused")


@pytest.mark.parametrize(
    "where, shown",
    [("answer", "\talpha \\ud800 2\t"), ("model", " model=m\\udcff ")],
)
def test_a_lone_surrogate_is_escaped_in_the_report_and_rescores(
    where, shown, tmp_path, monkeypatch
):
    """A lone surrogate in an answer (a replay reply's JSON escape) or in the
    model name (a command-line byte that is not UTF-8) ends no run: the
    report shows its escape, and score rebuilds both tables byte for byte."""
    graph_path = tmp_path / "graph.kg"
    save_graph(generate_synthetic_graph(11), graph_path)
    entries = [ReplayEntry(TEMPLATE_MATCHERS["agent_step"], "Action 1: Finish[alpha \ud800 2]")]
    options = {"replay_path": str(write_replay_script(tmp_path / "s.replay", entries))}
    if where == "model":
        options = {"backend": "wire", "endpoint": "http://127.0.0.1:9/v1", "model": "m\udcff"}
        monkeypatch.setattr(runner, "build_backend", lambda config: DownBackend())
    questions = write_question_file(tmp_path / "q.lines", [synthetic_question()])
    out = tmp_path / "out"
    config = RunConfig(
        kg_path=str(graph_path), questions_path=str(questions), out_dir=str(out), **options
    )
    run_experiment(config)
    assert shown in (out / "report.table").read_text(encoding="utf-8")
    score_run(out / "traces", questions, tmp_path / "rescore")
    for name in ("results.lines", "report.table"):
        assert (tmp_path / "rescore" / name).read_bytes() == (out / name).read_bytes()
