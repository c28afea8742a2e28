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
from graphreason.llm import ReplayEntry
from graphreason.textops import clip
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


@pytest.mark.parametrize(
    "name, reason", [("missing/g.kg", "no directory"), ("taken", "it is a directory")]
)
def test_gen_graph_to_a_path_it_cannot_write_is_a_one_line_error(
    runner, tmp_path, monkeypatch, name, reason
):
    """The path is checked before the graph is generated, which takes
    seconds at scale, and nothing is left behind."""
    generated = []
    monkeypatch.setattr(
        "graphreason.kg.generate_synthetic_graph", lambda *args: generated.append(args)
    )
    (tmp_path / "taken").mkdir()
    out = tmp_path / name
    result = runner.invoke(main, ["gen-graph", "--out", str(out)])
    assert_one_line_error(result, f"cannot write {out}: {reason}")
    assert generated == []
    assert [path.name for path in tmp_path.rglob("*")] == ["taken"]


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


# cot pins k = t = 1 and agent pins search_depth, each after the check, so a
# value below 1 is an error even where the run would not read it.
@pytest.mark.parametrize(
    "command, extra, message",
    [
        pytest.param("run", ["--branching", "0"], "k must be >= 1", id="cot-branching"),
        pytest.param("run", ["--retain", "0"], "t must be >= 1", id="cot-retain"),
        pytest.param(
            "sweep", ["--axis", "width", "--values", "0"], "k must be >= 1", id="cot-width"
        ),
        pytest.param(
            "run", ["--search-depth", "0"], "search_depth must be >= 1", id="agent-search-depth"
        ),
    ],
)
def test_a_value_below_one_is_a_one_line_error_even_where_pinned(
    runner, workspace, tmp_path, command, extra, message
):
    out = tmp_path / "never"
    result = runner.invoke(main, [command, *run_args(workspace, out, *extra)[1:]])
    assert_one_line_error(result, message)
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


def test_a_qid_that_is_not_utf8_is_a_one_line_error(runner, workspace):
    # A lone surrogate, escaped in the file, cannot name a trace file.
    path = Path(workspace["questions"])
    path.write_text(
        path.read_text(encoding="utf-8").replace('"q2"', '"q\\ud800"'), encoding="utf-8"
    )
    out = workspace["root"] / "bad"
    result = runner.invoke(main, run_args(workspace, out))
    assert_one_line_error(result, workspace["questions"], "qid 'q\\ud800' cannot be a file name")
    assert not out.exists()


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
        pytest.param(b"\xff\xfe{}\n", ":1: not UTF-8 (invalid start byte)", id="not-utf8"),
        pytest.param(
            b'{"match": "a", "response": "b"}\n\xff\n',
            ":2: not UTF-8 (invalid start byte)",
            id="not-utf8-on-line-2",
        ),
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


# Nested far deeper than Python's recursion limit, and an integer past its
# 4,300-digit limit for int(): each decodes as malformed JSON.
DEEP = "[" * 100000 + "]" * 100000
LONG_INT = "9" * 5000


@pytest.mark.parametrize(
    "name, line, fragment",
    [
        pytest.param("graph", DEEP, "line 2: not valid JSON (nested too deeply)", id="graph-deep"),
        pytest.param("questions", DEEP, ":2: invalid JSON: nested too deeply", id="questions-deep"),
        pytest.param("script", DEEP, ":2: bad replay record: nested too deeply", id="script-deep"),
        pytest.param(
            "graph",
            f'{{"id": "c", "type": "", "features": {{}}, "neighbors": {{}}, "n": {LONG_INT}}}',
            "line 2: not valid JSON (number too long)",
            id="graph-long",
        ),
        pytest.param(
            "questions",
            f'{{"qid": {LONG_INT}, "question": "q", "answer": "a", "difficulty": "easy"}}',
            ":2: invalid JSON: number too long",
            id="questions-long",
        ),
        pytest.param(
            "script",
            f'{{"match": "x", "response": {LONG_INT}}}',
            ":2: bad replay record: number too long",
            id="script-long",
        ),
    ],
)
def test_a_line_that_cannot_be_decoded_is_a_one_line_error(
    runner, workspace, name, line, fragment
):
    path = Path(workspace[name])
    lines = path.read_text(encoding="utf-8").splitlines()
    lines.insert(1, line)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = workspace["root"] / "bad"
    result = runner.invoke(main, run_args(workspace, out))
    assert_one_line_error(result, workspace[name], fragment)
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


UNDECODABLE_TRACES = [
    pytest.param(DEEP, "nested too deeply", id="deep"),
    pytest.param(f'{{"schema": {LONG_INT}}}', "number too long", id="long"),
]


@pytest.mark.parametrize("text, reason", UNDECODABLE_TRACES)
def test_validate_trace_reports_a_trace_that_cannot_be_decoded(runner, workspace, text, reason):
    out = workspace["root"] / "out_vd"
    assert runner.invoke(main, run_args(workspace, out)).exit_code == 0
    good_path = out / "traces" / "q1.trace"
    bad_path = workspace["root"] / "bad.trace"
    bad_path.write_text(text, encoding="utf-8")

    result = runner.invoke(main, ["validate-trace", str(bad_path), str(good_path)])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.output.splitlines() == [
        f"{bad_path}: unreadable ({reason}: line 1 column 1 (char 0))",
        f"{good_path}: ok",
    ]


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
        pytest.param(
            lambda text: text.replace('"judge_correct": null', '"judge_correct": {"x": 1}'),
            id="judge-verdict-not-a-boolean",
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


@pytest.mark.parametrize("text, reason", UNDECODABLE_TRACES)
def test_score_names_a_trace_that_cannot_be_decoded(runner, workspace, text, reason):
    root = workspace["root"]
    assert runner.invoke(main, run_args(workspace, root / "out")).exit_code == 0
    trace = root / "out" / "traces" / "q2.trace"
    trace.write_text(text, encoding="utf-8")
    result = runner.invoke(main, score_args(workspace, root / "out" / "traces", root / "bad"))
    assert_one_line_error(result, f"cannot score trace {trace}: {reason}")
    assert not (root / "bad").exists()


@pytest.mark.parametrize("missing", ["file", "directory"])
def test_score_names_a_question_file_that_is_not_a_file(runner, workspace, missing):
    root = workspace["root"]
    assert runner.invoke(main, run_args(workspace, root / "out")).exit_code == 0
    questions = root / "missing.lines"
    if missing == "directory":
        questions.mkdir()
    ws = {**workspace, "questions": str(questions)}
    result = runner.invoke(main, score_args(ws, root / "out" / "traces", root / "rescore"))
    assert_one_line_error(result, f"Error: question file not found: {questions}\n")
    assert not (root / "rescore").exists()


def test_validate_trace_and_score_report_an_unreadable_trace(runner, workspace, monkeypatch):
    root = workspace["root"]
    assert runner.invoke(main, run_args(workspace, root / "out")).exit_code == 0
    trace = root / "out" / "traces" / "q1.trace"
    read_text = Path.read_text

    def refuse_traces(path, *args, **kwargs):
        if path.suffix == ".trace":
            raise PermissionError(13, "Permission denied", str(path))
        return read_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", refuse_traces)
    reason = f"[Errno 13] Permission denied: {str(trace)!r}"
    checked = runner.invoke(main, ["validate-trace", str(trace)])
    assert checked.exit_code == 1
    assert checked.output == f"{trace}: unreadable ({reason})\n"
    scored = runner.invoke(main, score_args(workspace, trace.parent, root / "bad"))
    assert_one_line_error(scored, f"Error: cannot score trace {trace}: {reason}\n")
    assert not (root / "bad").exists()


@pytest.mark.parametrize("document", [None, [], "trace"])
def test_validate_trace_and_score_refuse_a_trace_that_is_not_an_object(
    runner, workspace, document
):
    root = workspace["root"]
    assert runner.invoke(main, run_args(workspace, root / "out")).exit_code == 0
    trace = root / "out" / "traces" / "q2.trace"
    trace.write_text(json.dumps(document), encoding="utf-8")
    violation = validate_trace(document)[0]
    assert violation.startswith("a trace must be an object, got ")

    checked = runner.invoke(main, ["validate-trace", str(trace)])
    assert checked.exit_code == 1
    assert checked.output == f"{trace}: {violation}\n"
    scored = runner.invoke(main, score_args(workspace, trace.parent, root / "bad"))
    assert_one_line_error(scored, f"Error: cannot score trace {trace}: {violation}\n")
    assert not (root / "bad").exists()


def first_count_key(data, group):
    return next(iter(data["counters"][group]))


# Each edit breaks one record rule of a finished trace, and the rule's text.
TAMPERINGS = {
    "qid-deleted": (lambda data: data.pop("qid"), lambda data: "qid is missing"),
    "config-deleted": (lambda data: data.pop("config"), lambda data: "config is missing"),
    "counters-deleted": (lambda data: data.pop("counters"), lambda data: "counters is missing"),
    "numeric-qid": (
        lambda data: data.update(qid=2), lambda data: "qid must be a string, got a number"
    ),
    "question-as-a-string": (
        lambda data: data.update(question="q2"),
        lambda data: "question must be an object, got a string",
    ),
    "bogus-termination": (
        lambda data: data.update(termination="bogus"),
        lambda data: "unknown termination 'bogus'",
    ),
    "step-limit-with-an-answer": (
        lambda data: data.update(termination="step_limit"),
        lambda data: "answer must be present exactly when termination is 'finished'",
    ),
    "fractional-call-count": (
        lambda data: data["counters"]["llm_calls_by_tag"].update(
            {first_count_key(data, "llm_calls_by_tag"): 1.5}
        ),
        lambda data: f"counters.llm_calls_by_tag[{first_count_key(data, 'llm_calls_by_tag')!r}] "
        "must be a nonnegative integer",
    ),
    "boolean-call-count": (
        lambda data: data["counters"]["llm_calls_by_tag"].update(
            {first_count_key(data, "llm_calls_by_tag"): True}
        ),
        lambda data: f"counters.llm_calls_by_tag[{first_count_key(data, 'llm_calls_by_tag')!r}] "
        "must be a nonnegative integer",
    ),
    "negative-kg-op-count": (
        lambda data: data["counters"]["kg_ops_by_kind"].update({"retrieve_node": -4}),
        lambda data: "counters.kg_ops_by_kind['retrieve_node'] must be a nonnegative integer",
    ),
    "numeric-answer": (
        lambda data: data.update(answer=7),
        lambda data: "answer must be a string or null, got a number",
    ),
    "termination-900-lists-deep": (
        lambda data: data.update(termination=json.loads("[" * 900 + "]" * 900)),
        lambda data: f"unknown termination {clip(repr(data['termination']))}",
    ),
}


@pytest.mark.parametrize("case", sorted(TAMPERINGS))
def test_validate_trace_and_score_refuse_a_tampered_trace_alike(runner, workspace, case):
    """``score`` applies ``validate-trace``'s record rules, and names the
    first rule broken as ``validate-trace`` does."""
    tamper, rule = TAMPERINGS[case]
    root = workspace["root"]
    assert runner.invoke(main, run_args(workspace, root / "out")).exit_code == 0
    trace = root / "out" / "traces" / "q2.trace"
    data = json.loads(trace.read_text(encoding="utf-8"))
    assert data["termination"] == "finished" and data["counters"]["llm_calls_by_tag"]
    tamper(data)
    trace.write_text(json.dumps(data), encoding="utf-8")
    violation = rule(data)

    checked = runner.invoke(main, ["validate-trace", str(trace)])
    assert checked.exit_code == 1
    assert checked.output.startswith(f"{trace}: {violation}\n"), checked.output
    scored = runner.invoke(main, score_args(workspace, root / "out" / "traces", root / "bad"))
    assert_one_line_error(scored, f"cannot score trace {trace}: {violation}\n")
    assert not (root / "bad").exists()


def test_a_hostile_value_is_echoed_clipped_by_validate_trace_and_score(
    runner, workspace, monkeypatch
):
    """A 900-deep termination renders as 1,800 characters; both commands
    echo it clipped, so each of their lines stays short."""
    root = workspace["root"]
    assert runner.invoke(main, run_args(workspace, root / "out")).exit_code == 0
    monkeypatch.chdir(root)
    trace = Path("out", "traces", "q2.trace")
    data = json.loads(trace.read_text(encoding="utf-8"))
    data["termination"] = json.loads("[" * 900 + "]" * 900)
    trace.write_text(json.dumps(data), encoding="utf-8")

    checked = runner.invoke(main, ["validate-trace", str(trace)])
    assert checked.exit_code == 1
    assert "unknown termination [[[" in checked.output
    assert "... (1,800 characters)" in checked.output
    scored = runner.invoke(main, score_args(workspace, trace.parent, "bad"))
    assert_one_line_error(scored, "unknown termination [[[", "... (1,800 characters)")
    lines = checked.output.splitlines() + scored.output.splitlines()
    assert max(map(len, lines)) <= 200, lines


def test_a_tab_or_newline_in_an_answer_stays_in_its_cell(runner, workspace):
    """A reply's tab and newline cannot forge a cell or a row of the report,
    nor can a domain's forge a footer line."""
    reply = "Thought 1: Done.\nAction 1: Finish[alpha\t2\nq9\tbeta]"
    write_replay_script(
        Path(workspace["script"]), [ReplayEntry(match="Generate the next step", response=reply)]
    )
    # q2's domain, a tab and a newline in JSON escapes.
    path = Path(workspace["questions"])
    q2 = '"medium", "domain": '
    text = path.read_text(encoding="utf-8").replace(q2 + '"synthetic"', q2 + '"a\\tb\\nc"')
    path.write_text(text, encoding="utf-8")
    root = workspace["root"]
    assert runner.invoke(main, run_args(workspace, root / "out")).exit_code == 0
    lines = (root / "out" / "report.table").read_bytes().decode("utf-8").split("\n")
    assert lines[2].split("\t")[0] == "qid"
    rows = [line.split("\t") for line in lines[3:5]]
    assert [row[:2] for row in rows] == [
        ["q1", "alpha\\t2\\nq9\\tbeta"],
        ["q2", "alpha\\t2\\nq9\\tbeta"],
    ]
    assert [len(row) for row in rows] == [7, 7]
    assert lines[5].startswith("# overall: count=2 ")
    assert lines[6].startswith("# domain a\\tb\\nc: count=1 ")
    assert lines[7].startswith("# domain synthetic: count=1 ")
    result = runner.invoke(main, score_args(workspace, root / "out" / "traces", root / "rescored"))
    assert result.exit_code == 0, result.output
    for name in ("results.lines", "report.table"):
        assert (root / "rescored" / name).read_bytes() == (root / "out" / name).read_bytes()


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
