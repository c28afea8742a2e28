"""A hostile model: seeded random replies built from fragments that break
parsers, and calls that fail. Whatever it says, every run ends, every trace
validates and is written as canonical JSON, ``score`` rebuilds both tables
byte for byte, the report holds one row per question, and the meters stay
inside their closed-form bounds."""

import itertools
import json
import random

import pytest

from helpers import synthetic_question, write_question_file
from graphreason import runner
from graphreason.costs import bound_for, check
from graphreason.kg import generate_synthetic_graph, save_graph
from graphreason.llm import TransportError
from graphreason.runner import RunConfig, run_experiment, score_run
from graphreason.traces import validate_trace

FRAGMENTS = (
    "Finish[",
    "]]]",
    "{{",
    "}}",
    "\0",
    "[",
    "]",
    ", ",
    "\n",
    "\t",
    "Thought: ",
    "Action 1: ",
    "Action 1: Finish[",
    "RetrieveNode[alpha 2]",
    "NodeFeature[n0002, name]",
    "NeighborCheck[n0000, linked-to]",
    "NodeDegree[n0001, linked-to",
    "alpha 2",
    "[Yes]",
    "[No]",
    "Score: 0.8",
    "{{1, 2}}",
    "{{" + "9" * 5000 + "}}",
    "\ud800",
)
FAILURE_RATE = 0.1
SEEDS = range(20)
COMBINATIONS = list(
    itertools.product(("cot", "tot", "got"), ("agent", "explore"), ("select", "score"))
)


class HostileBackend:
    """Replies of zero to eleven random fragments; one call in ten fails."""

    def __init__(self, seed: str) -> None:
        self.rng = random.Random(seed)

    def raw_complete(self, request):
        if self.rng.random() < FAILURE_RATE:
            raise TransportError("injected")
        return "".join(self.rng.choices(FRAGMENTS, k=self.rng.randrange(12)))


@pytest.fixture(scope="module")
def graph_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("graph") / "graph.kg"
    save_graph(generate_synthetic_graph(11), path)
    return path


@pytest.mark.parametrize("strategy, interaction, evaluator", COMBINATIONS)
def test_a_hostile_model_costs_no_run(
    strategy, interaction, evaluator, graph_path, tmp_path, monkeypatch
):
    questions = [synthetic_question("q1"), synthetic_question("q2")]
    questions_path = write_question_file(tmp_path / "q.lines", questions)
    meters = {}
    search = runner.run_search

    def metered(question, *args, **kwargs):
        result = search(question, *args, **kwargs)
        meters[question.qid] = result.counters
        return result

    monkeypatch.setattr(runner, "run_search", metered)
    traces_with_rows = 0
    for seed in SEEDS:
        name = f"{strategy}/{interaction}/{evaluator}/{seed}"
        monkeypatch.setattr(runner, "build_backend", lambda config: HostileBackend(name))
        out = tmp_path / f"run{seed}"
        config = RunConfig(
            kg_path=str(graph_path),
            questions_path=str(questions_path),
            out_dir=str(out),
            replay_path=str(questions_path),  # never read: the backend is the hostile one
            strategy=strategy,
            interaction=interaction,
            evaluator=evaluator,
            branching=3,
            retain=2,
            max_depth=2,
            search_depth=1,
            judge="llm",
        )
        run_experiment(config)

        search_config = config.search_config()
        bound = bound_for(search_config, n=search_config.d_max, d=search_config.search_depth)
        for question in questions:
            text = (out / "traces" / f"{question.qid}.trace").read_text(encoding="utf-8")
            data = json.loads(text)
            assert validate_trace(data) == [], name
            # The writer composes states that hold triple rows by hand; what
            # it writes is still the canonical encoding.
            assert text == json.dumps(data, sort_keys=True) + "\n", name
            traces_with_rows += any(state["evidence"]["triples"] for state in data["states"])
            verdict = check(meters[question.qid], bound)
            assert verdict.ok, (name, verdict.violations)
        rescore = tmp_path / f"rescore{seed}"
        score_run(out / "traces", questions_path, rescore)
        for table in ("results.lines", "report.table"):
            assert (rescore / table).read_bytes() == (out / table).read_bytes(), name
        # Below the two header lines and the column names: one 7-cell row
        # per question, in question order, then the footer.
        lines = (out / "report.table").read_bytes().decode("utf-8").split("\n")
        rows = [line.split("\t") for line in lines[3 : 3 + len(questions)]]
        assert [row[0] for row in rows] == [q.qid for q in questions], name
        assert [len(row) for row in rows] == [7] * len(questions), name
        assert lines[3 + len(questions)].startswith("# overall: "), name
    # Explore runs write triple rows even under hostile replies, so the
    # writer's composed path ran above.
    assert interaction == "agent" or traces_with_rows, "no fuzz trace holds a triple row"
