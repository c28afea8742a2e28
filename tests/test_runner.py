"""Experiment orchestration: pre-flight checks, concurrent runs, and the
traces a run leaves on disk."""

import gc
import json

import pytest

from helpers import write_question_file, write_replay_script
from graphreason import kg, runner
from graphreason.evaluation import Question
from graphreason.kg import SyntheticGraphSpec, generate_synthetic_graph, save_graph
from graphreason.llm import ReplayEntry, ReplayMismatchError
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


def make_inputs(tmp_path, targets=TARGETS, scripted=TARGETS) -> dict:
    """Run inputs asking about ``targets``; the script answers ``scripted``."""
    graph_path = tmp_path / "graph.kg"
    spec = SyntheticGraphSpec(node_count=40, edges_per_node=2)
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


def test_concurrent_run_is_byte_identical_to_serial(inputs, tmp_path):
    """Worker threads share one graph, whose retrieval index is built lazily
    by whichever thread retrieves first."""
    outputs = {}
    for concurrency in (1, 2):
        out = tmp_path / f"c{concurrency}"
        run_experiment(RunConfig(out_dir=str(out), concurrency=concurrency, **inputs))
        outputs[concurrency] = {
            path.relative_to(out).as_posix(): path.read_bytes()
            for path in sorted(out.rglob("*"))
            if path.name == "results.lines" or path.suffix == ".trace"
        }
    assert len(outputs[1]) == len(TARGETS) + 1
    assert outputs[2] == outputs[1]
    for n in TARGETS:
        trace = outputs[1][f"traces/q{n}.trace"]
        assert f"The ID of the node is n{n:04d}.".encode() in trace
        assert f"The ID of the node is n{n + 1:04d}.".encode() in trace


def test_a_run_that_aborts_keeps_the_traces_it_finished(tmp_path):
    """The script answers the first question only, so the second aborts the
    run; the first question's trace is already on disk, whole."""
    first, second = TARGETS[:2]
    inputs = make_inputs(tmp_path, targets=(first, second), scripted=(first,))
    out = tmp_path / "out"
    with pytest.raises(ReplayMismatchError):
        run_experiment(RunConfig(out_dir=str(out), **inputs))
    traces_dir = out / "traces"
    assert sorted(p.name for p in traces_dir.iterdir()) == [f"q{first}.trace"]
    data = json.loads((traces_dir / f"q{first}.trace").read_text(encoding="utf-8"))
    assert validate_trace(data) == []
    assert data["answer"] == f"beta {first}"
    assert not (out / "results.lines").exists()


def test_traces_in_the_indented_layout_still_load_and_score(inputs, tmp_path):
    """Traces were once written with ``indent=2``; the same content in that
    layout loads, validates and rescores to the same tables."""
    out = tmp_path / "out"
    run_experiment(RunConfig(out_dir=str(out), **inputs))
    old = tmp_path / "old"
    old.mkdir()
    for path in sorted((out / "traces").glob("*.trace")):
        record = load_trace(path)
        indented = json.dumps(record.as_dict(), sort_keys=True, indent=2) + "\n"
        (old / path.name).write_text(indented, encoding="utf-8")
        reloaded = load_trace(old / path.name)
        assert reloaded.as_dict() == record.as_dict()
        assert validate_trace(json.loads(indented)) == []
    score_run(old, inputs["questions_path"], tmp_path / "rescore")
    expected = (out / "results.lines").read_bytes()
    assert (tmp_path / "rescore" / "results.lines").read_bytes() == expected


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
    run_sweep(base, "steps", values)
    assert len(loads) == 1
    for value in values:
        alone = tmp_path / f"alone_{value}"
        run_experiment(RunConfig(out_dir=str(alone), steps=int(value), **inputs))
        swept = tables_and_traces(tmp_path / "sweep" / f"steps_{value}")
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
    return lambda: run_sweep(RunConfig(out_dir=str(out / "sweep"), **inputs), "steps", ["2", "3"])


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
