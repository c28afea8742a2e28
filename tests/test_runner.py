"""Experiment orchestration: pre-flight checks and concurrent runs."""

import pytest

from helpers import write_question_file, write_replay_script
from graphreason.evaluation import Question
from graphreason.kg import SyntheticGraphSpec, generate_synthetic_graph, save_graph
from graphreason.llm import ReplayEntry
from graphreason.runner import ConfigError, RunConfig, preflight, run_experiment

# Synthetic names are "<type> <index>" with types alternating alpha/beta, so
# odd indices are beta nodes.
TARGETS = (3, 5, 7, 9, 11, 13)


def agent_entries() -> list[ReplayEntry]:
    """Per question: one step retrieving by a missed and an exact query, then
    Finish. The step-2 entries come first: their matcher is the step-1
    thought, which only a step-2 prompt contains."""
    finishes = [
        ReplayEntry(
            f"Thought 1: Locate beta {n} zeta.",
            f"Thought 2: Found it.\nAction 2: Finish[beta {n}]",
        )
        for n in TARGETS
    ]
    lookups = [
        ReplayEntry(
            f"Question: Which entries are linked to beta {n}?",
            f"Thought 1: Locate beta {n} zeta.\n"
            f"Action 1: RetrieveNode[beta {n} zeta], RetrieveNode[ALPHA {n + 1}]",
        )
        for n in TARGETS
    ]
    return finishes + lookups


@pytest.fixture()
def inputs(tmp_path):
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
        for n in TARGETS
    ]
    return {
        "kg_path": str(graph_path),
        "questions_path": str(write_question_file(tmp_path / "questions.lines", questions)),
        "replay_path": str(write_replay_script(tmp_path / "script.replay", agent_entries())),
    }


def test_preflight_rejects_strict_replay_with_concurrency(inputs, tmp_path):
    out = tmp_path / "out"
    config = RunConfig(out_dir=str(out), strict_replay=True, concurrency=2, **inputs)
    with pytest.raises(ConfigError, match="strict replay"):
        preflight(config)
    with pytest.raises(ConfigError, match="strict replay"):
        run_experiment(config)
    assert not out.exists()
    preflight(RunConfig(out_dir=str(out), strict_replay=True, **inputs))
    preflight(RunConfig(out_dir=str(out), concurrency=2, **inputs))


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
