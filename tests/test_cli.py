"""End-to-end command-line behavior via click's test runner."""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from helpers import (
    permissive_entries,
    synthetic_question,
    write_question_file,
    write_replay_script,
)
from graphreason import runner as runner_module
from graphreason.cli import main
from graphreason.evaluation import Question
from graphreason.kg import load_graph
from graphreason.traces import validate_trace


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def workspace(tmp_path, runner):
    """A graph file, two questions, and a permissive replay script."""
    graph_path = tmp_path / "graph.kg"
    result = runner.invoke(
        main, ["gen-graph", "--seed", "11", "--out", str(graph_path)]
    )
    assert result.exit_code == 0, result.output

    questions = [
        synthetic_question("q1"),
        Question(
            qid="q2",
            text="Which entries derive from alpha 4?",
            gold_answer="alpha 2",
            difficulty="medium",
            domain="synthetic",
        ),
    ]
    questions_path = write_question_file(tmp_path / "questions.lines", questions)
    script_path = write_replay_script(
        tmp_path / "script.replay", permissive_entries(agent_finish=True)
    )
    return {
        "root": tmp_path,
        "graph": str(graph_path),
        "questions": str(questions_path),
        "script": str(script_path),
    }


def run_args(ws, out, *extra):
    return [
        "run",
        "--kg", ws["graph"],
        "--questions", ws["questions"],
        "--out", str(out),
        "--replay", ws["script"],
        *extra,
    ]


def sweep_args(ws, out, *extra):
    return ["sweep", *run_args(ws, out, *extra)[1:]]


def score_args(ws, traces, out):
    return ["score", "--traces", str(traces), "--questions", ws["questions"], "--out", str(out)]


def assert_one_line_error(result, *fragments):
    """Exit 1 with a single ``Error:`` line; an escaped exception leaves the
    output empty under click's test runner."""
    assert result.exit_code == 1
    assert result.output.startswith("Error: "), result.output
    assert result.output.count("\n") == 1, result.output
    for fragment in fragments:
        assert fragment in result.output


def tree_bytes(root):
    root = Path(root)
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


# -------------------------------------------------------------- gen-graph


def test_gen_graph_is_seeded_and_loadable(runner, tmp_path):
    first = tmp_path / "a.kg"
    second = tmp_path / "b.kg"
    other = tmp_path / "c.kg"
    for path, seed in ((first, "7"), (second, "7"), (other, "8")):
        result = runner.invoke(
            main, ["gen-graph", "--seed", seed, "--out", str(path)]
        )
        assert result.exit_code == 0
        assert "wrote 10 nodes" in result.output
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes() != other.read_bytes()
    graph = load_graph(first)
    assert graph.stats.node_count == 10


def test_gen_graph_rejects_a_bad_spec(runner, tmp_path):
    result = runner.invoke(
        main, ["gen-graph", "--nodes", "0", "--out", str(tmp_path / "x.kg")]
    )
    assert result.exit_code != 0
    assert not (tmp_path / "x.kg").exists()


# -------------------------------------------------------------------- run


def test_run_rejects_missing_inputs_before_writing(runner, workspace, tmp_path):
    out = tmp_path / "never"
    args = run_args(workspace, out)
    args[2] = str(tmp_path / "ghost.kg")  # value of --kg
    result = runner.invoke(main, args)
    assert result.exit_code != 0
    assert "not found" in result.output
    assert not out.exists()


def test_run_requires_a_replay_script(runner, workspace, tmp_path):
    out = tmp_path / "never"
    result = runner.invoke(
        main,
        [
            "run",
            "--kg", workspace["graph"],
            "--questions", workspace["questions"],
            "--out", str(out),
        ],
    )
    assert result.exit_code != 0
    assert "replay backend requires" in result.output
    assert not out.exists()


def test_run_rejects_an_explore_depth_that_explore_rejects(runner, workspace, tmp_path):
    out = tmp_path / "never"
    result = runner.invoke(
        main, run_args(workspace, out, "--interaction", "explore", "--search-depth", "0")
    )
    assert_one_line_error(result, "search_depth must be >= 1")
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize(
    "endpoint",
    ["localhost:8000/v1/chat/completions", "/v1/chat/completions", "ftp://host/v1", "http:///v1"],
)
def test_a_wire_endpoint_that_is_not_an_http_url_is_a_one_line_error(
    runner, workspace, tmp_path, command, endpoint
):
    out = tmp_path / "never"
    wire = ("--backend", "wire", "--endpoint", endpoint, "--model", "m")
    args = {
        "run": run_args(workspace, out, *wire),
        "sweep": sweep_args(workspace, out, *wire, "--axis", "max-depth", "--values", "2"),
    }[command]
    result = runner.invoke(main, args)
    assert_one_line_error(result, repr(endpoint), "is not an absolute http:// or https:// URL")
    assert not out.exists()


def write_bad_questions(ws):
    """The question file, with one line naming its text ``text``."""
    path = Path(ws["questions"])
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    record["text"] = record.pop("question")
    lines[1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("command", ["run", "sweep", "score"])
def test_a_malformed_question_file_is_a_one_line_error(runner, workspace, command):
    root = workspace["root"]
    if command == "score":
        assert runner.invoke(main, run_args(workspace, root / "out")).exit_code == 0
    write_bad_questions(workspace)
    args = {
        "run": run_args(workspace, root / "bad"),
        "sweep": sweep_args(workspace, root / "bad", "--axis", "max-depth", "--values", "2"),
        "score": score_args(workspace, root / "out" / "traces", root / "bad"),
    }[command]
    result = runner.invoke(main, args)
    assert_one_line_error(result, workspace["questions"], "unknown fields ['text']")
    assert not (root / "bad").exists()


def test_a_domain_outside_the_examples_is_a_one_line_error(runner, workspace):
    path = Path(workspace["questions"])
    path.write_text(
        path.read_text(encoding="utf-8").replace('"synthetic"', '"../../x"'), encoding="utf-8"
    )
    out = workspace["root"] / "bad"
    result = runner.invoke(main, run_args(workspace, out))
    assert_one_line_error(result, workspace["questions"], "domain '../../x' cannot be")
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_a_malformed_graph_file_is_a_one_line_error(runner, workspace, command):
    graph = Path(workspace["graph"])
    graph.write_text(graph.read_text(encoding="utf-8") + "{not json\n", encoding="utf-8")
    out = workspace["root"] / "bad"
    args = {
        "run": run_args(workspace, out),
        "sweep": sweep_args(workspace, out, "--axis", "max-depth", "--values", "2"),
    }[command]
    result = runner.invoke(main, args)
    assert_one_line_error(result, workspace["graph"], "not valid JSON")
    assert not out.exists()


NOT_UTF8_FRAGMENTS = {"graph": "line 2: not UTF-8", "questions": ":2: not UTF-8"}


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("name", sorted(NOT_UTF8_FRAGMENTS))
def test_a_file_that_is_not_utf8_is_a_one_line_error(runner, workspace, name, command):
    path = Path(workspace[name])
    lines = path.read_bytes().splitlines(keepends=True)
    lines[1] = lines[1].replace(b"e", b"\xff", 1)
    path.write_bytes(b"".join(lines))
    out = workspace["root"] / "bad"
    args = {
        "run": run_args(workspace, out),
        "sweep": sweep_args(workspace, out, "--axis", "max-depth", "--values", "1,2"),
    }[command]
    result = runner.invoke(main, args)
    assert_one_line_error(result, workspace[name], NOT_UTF8_FRAGMENTS[name])
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize(
    "script, fragment",
    [
        pytest.param(b"not json\n", ":1: bad replay record", id="not-json"),
        pytest.param(b"\xff\xfe{}\n", "is not UTF-8", id="not-utf8"),
        pytest.param(b'{"match": 1, "response": "x"}\n', ":1: bad replay record", id="match-int"),
        pytest.param(
            b'{"match": "Generate", "response": 5}\n', ":1: bad replay record", id="response-int"
        ),
        pytest.param(b"[1, 2]\n", ":1: bad replay record", id="not-an-object"),
    ],
)
def test_a_malformed_replay_script_is_a_one_line_error(
    runner, workspace, command, script, fragment
):
    Path(workspace["script"]).write_bytes(script)
    out = workspace["root"] / "bad"
    args = {
        "run": run_args(workspace, out),
        "sweep": sweep_args(workspace, out, "--axis", "max-depth", "--values", "1,2"),
    }[command]
    result = runner.invoke(main, args)
    assert_one_line_error(result, workspace["script"], fragment)
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_a_replay_script_with_no_entry_for_a_prompt_is_a_one_line_error(
    runner, workspace, command
):
    Path(workspace["script"]).write_text("", encoding="utf-8")
    out = workspace["root"] / "unmatched"
    args = {
        "run": run_args(workspace, out),
        "sweep": sweep_args(workspace, out, "--axis", "max-depth", "--values", "1,2"),
    }[command]
    result = runner.invoke(main, args)
    assert_one_line_error(result, f"{workspace['script']}: no replay entry matches")


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under-file"])
@pytest.mark.parametrize("command", ["run", "sweep", "score"])
def test_an_output_path_at_or_under_a_file_is_a_one_line_error(
    runner, workspace, command, below
):
    root = workspace["root"]
    assert runner.invoke(main, run_args(workspace, root / "done")).exit_code == 0
    blocker = root / "blocker"
    blocker.write_text("a file\n", encoding="utf-8")
    out = blocker / below if below else blocker
    args = {
        "run": run_args(workspace, out),
        "sweep": sweep_args(workspace, out, "--axis", "max-depth", "--values", "1,2"),
        "score": score_args(workspace, root / "done" / "traces", out),
    }[command]
    result = runner.invoke(main, args)
    assert_one_line_error(result, f"{blocker} is not a directory")
    assert blocker.read_text(encoding="utf-8") == "a file\n"


def test_a_run_echoes_the_configuration_it_ran(runner, workspace):
    # cot pins k = t = 1 and the evaluator; agent runs hold the default
    # explore caps. The echo records those, not the options given.
    out = workspace["root"] / "echo"
    result = runner.invoke(
        main,
        run_args(workspace, out, "--branching", "4", "--evaluator", "score", "--search-depth", "5"),
    )
    assert result.exit_code == 0, result.output
    report = (out / "report.table").read_text(encoding="utf-8").splitlines()
    assert report[1] == (
        "# config: backend=replay d_max=3 evaluator=select interaction=agent judge=none "
        "k=1 model=None search_depth=3 strategy=cot t=1"
    )
    trace = json.loads((out / "traces" / "q1.trace").read_text(encoding="utf-8"))
    assert (trace["config"]["k"], trace["config"]["t"], trace["config"]["d_max"]) == (1, 1, 3)
    assert "n" not in trace["config"]


def test_run_writes_the_artifact_tree(runner, workspace):
    out = workspace["root"] / "out"
    result = runner.invoke(main, run_args(workspace, out))
    assert result.exit_code == 0, result.output
    assert "ran 2 questions" in result.output

    for qid in ("q1", "q2"):
        trace_path = out / "traces" / f"{qid}.trace"
        data = json.loads(trace_path.read_text())
        assert validate_trace(data) == []
        assert data["qid"] == qid
        assert data["answer"] == "alpha 2"

    rows = [
        json.loads(line)
        for line in (out / "results.lines").read_text().splitlines()
    ]
    assert [row["qid"] for row in rows] == ["q1", "q2"]
    assert all(row["schema"] == "results/v1" for row in rows)
    assert all(row["rouge_l"] == 1.0 for row in rows)

    report = (out / "report.table").read_text()
    assert report.startswith("# schema: report/v1\n# config: ")
    assert "strategy=cot" in report
    assert "# overall: count=2" in report
    assert "# difficulty medium: count=1" in report


def test_run_twice_is_byte_identical(runner, workspace):
    first = workspace["root"] / "first"
    second = workspace["root"] / "second"
    for out in (first, second):
        result = runner.invoke(main, run_args(workspace, out))
        assert result.exit_code == 0
    assert tree_bytes(first) == tree_bytes(second)


def test_run_with_judge_classifies_correct(runner, workspace):
    out = workspace["root"] / "judged"
    result = runner.invoke(main, run_args(workspace, out, "--judge", "llm"))
    assert result.exit_code == 0, result.output
    rows = [
        json.loads(line)
        for line in (out / "results.lines").read_text().splitlines()
    ]
    assert all(row["judge_correct"] is True for row in rows)
    assert all(row["error_class"] == "correct" for row in rows)
    assert "judge_rate=100.0" in (out / "report.table").read_text()


def test_run_supports_tree_strategies(runner, workspace):
    out = workspace["root"] / "tree"
    result = runner.invoke(
        main,
        run_args(
            workspace, out,
            "--strategy", "got",
            "--interaction", "explore",
            "--branching", "2",
            "--retain", "2",
            "--max-depth", "2",
        ),
    )
    assert result.exit_code == 0, result.output
    data = json.loads((out / "traces" / "q1.trace").read_text())
    assert validate_trace(data) == []
    assert data["config"]["strategy"] == "got"
    assert data["counters"]["explore_searches"] >= 1


# --------------------------------------------------------- validate-trace


def test_validate_trace_command(runner, workspace):
    out = workspace["root"] / "out_v"
    assert runner.invoke(main, run_args(workspace, out)).exit_code == 0
    trace_path = out / "traces" / "q1.trace"

    ok = runner.invoke(main, ["validate-trace", str(trace_path)])
    assert ok.exit_code == 0
    assert "ok" in ok.output

    data = json.loads(trace_path.read_text())
    data["answer"] = None
    broken_path = workspace["root"] / "broken.trace"
    broken_path.write_text(json.dumps(data))
    broken = runner.invoke(main, ["validate-trace", str(broken_path)])
    assert broken.exit_code == 1
    assert "exactly when termination" in broken.output

    unreadable = runner.invoke(
        main, ["validate-trace", str(workspace["root"] / "ghost.trace")]
    )
    assert unreadable.exit_code == 1
    assert "unreadable" in unreadable.output


def test_validate_trace_reports_a_bad_file_and_checks_the_next(runner, workspace):
    out = workspace["root"] / "out_vt"
    assert runner.invoke(main, run_args(workspace, out)).exit_code == 0
    good_path = out / "traces" / "q1.trace"
    data = json.loads(good_path.read_text())
    data["states"][1]["evidence"] = None
    data["frontier"] = None
    bad_path = workspace["root"] / "bad.trace"
    bad_path.write_text(json.dumps(data))

    result = runner.invoke(main, ["validate-trace", str(bad_path), str(good_path)])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert f"{bad_path}: state 1: evidence must be an object, got null" in result.output
    assert f"{bad_path}: frontier must be a list, got null" in result.output
    assert f"{good_path}: ok" in result.output


def test_validate_trace_reports_a_file_that_is_not_utf8(runner, workspace):
    out = workspace["root"] / "out_vu"
    assert runner.invoke(main, run_args(workspace, out)).exit_code == 0
    good_path = out / "traces" / "q1.trace"
    bad_path = workspace["root"] / "utf16.trace"
    bad_path.write_bytes(b"\xff\xfe")

    result = runner.invoke(main, ["validate-trace", str(bad_path), str(good_path)])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert f"{bad_path}: unreadable (" in result.output
    assert f"{good_path}: ok" in result.output


# ------------------------------------------------------------------ score


def test_score_rebuilds_the_tables_exactly(runner, workspace):
    out = workspace["root"] / "out_s"
    assert runner.invoke(main, run_args(workspace, out)).exit_code == 0

    rescored = workspace["root"] / "rescored"
    result = runner.invoke(
        main,
        [
            "score",
            "--traces", str(out / "traces"),
            "--questions", workspace["questions"],
            "--out", str(rescored),
        ],
    )
    assert result.exit_code == 0, result.output
    assert "scored 2 questions" in result.output
    for name in ("results.lines", "report.table"):
        assert (rescored / name).read_bytes() == (out / name).read_bytes()


def test_score_names_the_missing_trace(runner, workspace, tmp_path):
    result = runner.invoke(
        main,
        [
            "score",
            "--traces", str(tmp_path),
            "--questions", workspace["questions"],
            "--out", str(tmp_path / "out"),
        ],
    )
    assert result.exit_code != 0
    assert "no trace for question 'q1'" in result.output


@pytest.mark.parametrize(
    "damage",
    [
        pytest.param(lambda text: text[: len(text) // 2], id="truncated"),
        pytest.param(
            lambda text: text.replace('"error_class": null', '"error_class": "gave_up"'),
            id="unknown-error-class",
        ),
        pytest.param(
            lambda text: text.replace('"eval": {', '"eval": [], "was": {'), id="eval-not-an-object"
        ),
        pytest.param(
            lambda text: text.replace('"qid": "q2"', '"qid": "q1"'), id="another-questions-run"
        ),
    ],
)
def test_score_names_a_trace_it_cannot_score(runner, workspace, damage):
    root = workspace["root"]
    assert runner.invoke(main, run_args(workspace, root / "out")).exit_code == 0
    trace = root / "out" / "traces" / "q2.trace"
    text = trace.read_text(encoding="utf-8")
    trace.write_text(damage(text), encoding="utf-8")
    assert trace.read_text(encoding="utf-8") != text
    result = runner.invoke(main, score_args(workspace, root / "out" / "traces", root / "bad"))
    assert_one_line_error(result, str(trace))
    assert not (root / "bad").exists()


# ------------------------------------------------------------------ sweep


def test_sweep_writes_per_value_runs_and_a_summary(runner, workspace):
    out = workspace["root"] / "sweep"
    result = runner.invoke(
        main,
        [
            "sweep",
            "--kg", workspace["graph"],
            "--questions", workspace["questions"],
            "--out", str(out),
            "--replay", workspace["script"],
            "--axis", "max-depth",
            "--values", "1, 2",
        ],
    )
    assert result.exit_code == 0, result.output
    for value in ("1", "2"):
        sub = out / f"max-depth_{value}"
        assert (sub / "results.lines").is_file()
        assert (sub / "report.table").is_file()
        assert len(list((sub / "traces").glob("*.trace"))) == 2

    lines = (out / "sweep.table").read_text().splitlines()
    assert lines[0] == "# schema: sweep/v1"
    assert lines[1] == "axis\tvalue\tmetric\tresult"
    body = [line.split("\t") for line in lines[2:]]
    assert len(body) == 8  # 2 values x 4 metrics
    assert {row[0] for row in body} == {"max-depth"}
    assert {row[1] for row in body} == {"1", "2"}
    assert {row[2] for row in body} == {
        "rouge_mean",
        "judge_rate",
        "mean_llm_calls",
        "mean_kg_ops",
    }


def test_sweep_rejects_unknown_axis_and_empty_values(runner, workspace):
    out = workspace["root"] / "sweep_bad"
    base = [
        "sweep",
        "--kg", workspace["graph"],
        "--questions", workspace["questions"],
        "--out", str(out),
        "--replay", workspace["script"],
    ]
    unknown = runner.invoke(main, base + ["--axis", "verbosity", "--values", "1"])
    assert unknown.exit_code == 2  # rejected by the option parser

    empty = runner.invoke(main, base + ["--axis", "max-depth", "--values", " , "])
    assert empty.exit_code != 0
    assert "at least one value" in empty.output
    assert not out.exists()


def test_sweep_rejects_a_bad_depth_before_running_any_value(runner, workspace):
    out = workspace["root"] / "sweep_depth"
    result = runner.invoke(
        main,
        sweep_args(
            workspace, out, "--interaction", "explore", "--axis", "search-depth", "--values", "2,0"
        ),
    )
    assert_one_line_error(result, "search_depth must be >= 1")
    assert not (out / "search-depth_2").exists()
    assert not out.exists()


# Each axis with a base run that reads it, and two values that must differ.
SWEEPS = {
    "max-depth": ([], "1,2"),
    "search-depth": (["--interaction", "explore"], "1,2"),
    "width": (["--strategy", "tot"], "1,2"),
    "evaluator": (["--strategy", "tot"], "select,score"),
}


def test_the_sweep_axes_are_the_ones_tested():
    assert set(SWEEPS) == set(runner_module.SWEEP_AXES)


@pytest.mark.parametrize("axis", sorted(SWEEPS))
def test_each_sweep_axis_changes_the_run(runner, workspace, monkeypatch, axis):
    # A script that never finishes, so every run goes to its depth limit.
    write_replay_script(Path(workspace["script"]), permissive_entries())
    searched = set()
    run_search = runner_module.run_search

    def recording(question, config, *args, **kwargs):
        searched.add(config)
        return run_search(question, config, *args, **kwargs)

    monkeypatch.setattr(runner_module, "run_search", recording)
    extra, values = SWEEPS[axis]
    out = workspace["root"] / "sweep"
    result = runner.invoke(
        main, sweep_args(workspace, out, *extra, "--axis", axis, "--values", values)
    )
    assert result.exit_code == 0, result.output
    assert len(searched) == 2
    results = {(out / f"{axis}_{value}" / "results.lines").read_bytes() for value in values.split(",")}
    assert len(results) == 2


# A sweep whose values would all run the same search.
NO_OP_SWEEPS = {
    "search-depth-on-agent": ([], "search-depth", "1,2"),
    "width-on-cot": ([], "width", "1,2"),
    "evaluator-on-cot": ([], "evaluator", "select,score"),
    "repeated-value": (["--strategy", "tot"], "max-depth", "2,3,2"),
}


@pytest.mark.parametrize("case", sorted(NO_OP_SWEEPS))
def test_a_sweep_that_changes_nothing_is_a_one_line_error(runner, workspace, case):
    extra, axis, values = NO_OP_SWEEPS[case]
    out = workspace["root"] / "noop"
    result = runner.invoke(
        main, sweep_args(workspace, out, *extra, "--axis", axis, "--values", values)
    )
    assert_one_line_error(result, f"for axis {axis} run the same search")
    assert not out.exists()
