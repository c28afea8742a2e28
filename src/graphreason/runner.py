"""Experiment orchestration: full runs, sweeps, re-scoring, artifact layout.

A run takes a graph, a question file, and a backend, executes the search
per question, evaluates answers, and writes a fixed artifact layout under
the output directory:

    out/traces/<qid>.trace   one JSON trace per question, written as it finishes
    out/results.lines        one JSON result row per question, run order
    out/report.table         human-readable table plus aggregates

Under the replay backend the whole pipeline is deterministic: running the
same configuration twice produces byte-identical artifacts, and ``score``
rebuilds the two tables exactly from the traces alone. No artifact holds a
wall clock, so a wire run that gets the same replies writes the same bytes.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import logging
import urllib.parse
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

from . import kg
from .costs import MAX_ACTIONS_PER_STEP
from .evaluation import (
    AggregateReport,
    EvalResult,
    Question,
    aggregate,
    classify_error,
    judge_correct,
    load_questions,
    rouge_l,
)
from .llm import Backend, ReplayBackend, WireBackend
from .strategies import SearchConfig, run_search
from .textops import clip
from .traces import (
    REPORT_SCHEMA,
    RESULTS_SCHEMA,
    SWEEP_SCHEMA,
    TraceRecord,
    build_trace,
    load_trace,
    question_block,
    write_trace,
)

logger = logging.getLogger(__name__)

VALID_BACKENDS = frozenset({"replay", "wire"})
VALID_JUDGES = frozenset({"none", "llm"})
#: Each sweep axis, with the run options a value of it sets.
SWEEP_AXES = {
    "max-depth": lambda value: {"max_depth": int(value)},
    "search-depth": lambda value: {"search_depth": int(value)},
    "width": lambda value: {"branching": int(value), "retain": int(value)},
    "evaluator": lambda value: {"evaluator": value},
}


class ConfigError(ValueError):
    """The run configuration cannot work; nothing has been written."""


@dataclass(frozen=True)
class RunConfig:
    kg_path: str
    questions_path: str
    out_dir: str
    strategy: str = "cot"
    interaction: str = SearchConfig.interaction
    evaluator: str = SearchConfig.evaluator
    branching: int = SearchConfig.k
    retain: int = SearchConfig.t
    max_depth: int = SearchConfig.d_max
    search_depth: int = SearchConfig.search_depth
    backend: str = "replay"
    endpoint: str | None = None
    model: str | None = None
    replay_path: str | None = None
    judge: str = "none"

    # steps and max_actions_per_step are read only by bench/run.py, which
    # passes them to costs.bound_for; remove with the next benchmark change.
    @property
    def steps(self) -> int:
        return self.max_depth

    @property
    def max_actions_per_step(self) -> int:
        return MAX_ACTIONS_PER_STEP

    def search_config(self) -> SearchConfig:
        return SearchConfig(
            strategy=self.strategy,
            interaction=self.interaction,
            evaluator=self.evaluator,
            k=self.branching,
            t=self.retain,
            d_max=self.max_depth,
            search_depth=self.search_depth,
        )

    def echo(self) -> dict:
        """The configuration block echoed into every artifact: what the run used.

        It opens with the search's fields, read with ``vars``: ``asdict``
        would deep-copy each one, and this runs once per question.
        """
        return {
            **vars(self.search_config()),
            "backend": self.backend,
            "model": self.model if self.backend == "wire" else None,
            "judge": self.judge,
        }


def preflight(config: RunConfig) -> None:
    """Validate a configuration without touching the output directory."""
    if not Path(config.kg_path).is_file():
        raise ConfigError(f"knowledge graph file not found: {config.kg_path}")
    if not Path(config.questions_path).is_file():
        raise ConfigError(f"question file not found: {config.questions_path}")
    if config.backend not in VALID_BACKENDS:
        raise ConfigError(f"backend {config.backend!r} not in {sorted(VALID_BACKENDS)}")
    if config.judge not in VALID_JUDGES:
        raise ConfigError(f"judge {config.judge!r} not in {sorted(VALID_JUDGES)}")
    if config.backend == "replay":
        if not config.replay_path:
            raise ConfigError("replay backend requires a replay script path")
        if not Path(config.replay_path).is_file():
            raise ConfigError(f"replay script not found: {config.replay_path}")
    else:
        if not config.endpoint or not config.model:
            raise ConfigError("wire backend requires both an endpoint and a model")
        if not _is_absolute_http_url(config.endpoint):
            raise ConfigError(
                f"wire endpoint {config.endpoint!r} is not an absolute http:// or "
                "https:// URL with a host"
            )
    try:
        config.search_config()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _check_out_dir(config.out_dir)


def _check_out_dir(out_dir: str | Path) -> None:
    """Raise ``ConfigError`` when the nearest existing path at or above
    ``out_dir`` is not a directory, so the directory could not be made."""
    out = Path(out_dir)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"cannot make output directory {out}: {existing} is not a directory")


def _is_absolute_http_url(url: str) -> bool:
    try:
        parts = urllib.parse.urlsplit(url)
        parts.port  # raises ValueError for a port that is not a number in range
    except ValueError:
        return False
    return parts.scheme in ("http", "https") and bool(parts.hostname)


def build_backend(config: RunConfig) -> Backend:
    if config.backend == "replay":
        assert config.replay_path is not None
        try:
            return ReplayBackend.from_file(config.replay_path)
        except ValueError as exc:  # the message names the file and line
            raise ConfigError(str(exc)) from exc
    assert config.endpoint is not None and config.model is not None
    return WireBackend(endpoint=config.endpoint, model=config.model)


def _outcome(question: Question, trace: TraceRecord) -> EvalResult:
    """The question's result row, a projection of its trace alone.

    ROUGE-L is worked out afresh against the gold answer; the judge verdict
    and error class are read from the trace's eval block.
    """
    return EvalResult(
        qid=question.qid,
        answer=trace.answer,
        termination=trace.termination,
        rouge_l=rouge_l(trace.answer, question.gold_answer) if trace.answer is not None else None,
        judge_correct=trace.eval.get("judge_correct"),
        error_class=trace.eval.get("error_class"),
        llm_calls=sum(trace.counters.get("llm_calls_by_tag", {}).values()),
        kg_ops=sum(trace.counters.get("kg_ops_by_kind", {}).values()),
    )


def _run_single(
    question: Question,
    config: RunConfig,
    graph: kg.KnowledgeGraph,
    backend: Backend,
    traces_dir: Path,
) -> EvalResult:
    """Run, evaluate and write one question's trace; the states stay on disk."""
    result = run_search(question, config.search_config(), graph, backend)
    counters = result.counters

    judged: bool | None = None
    if config.judge == "llm" and result.answer is not None:
        judged = judge_correct(question, result.answer, backend, counters)
    trace = build_trace(question, config.echo(), result, {"judge_correct": judged})
    trace.eval["error_class"] = classify_error(
        trace, question, backend if config.judge == "llm" else None, counters
    )
    trace.counters = counters.as_dict()  # judge calls landed after the first snapshot
    # The row's ROUGE-L goes into the trace, so it is worked out once per run.
    outcome = _outcome(question, trace)
    trace.eval["rouge_l"] = outcome.rouge_l
    write_trace(trace, traces_dir / f"{question.qid}.trace")
    return outcome


# A tab, newline or carriage return in a report value is written as its
# escape, so the value stays on its one line, in its one cell.
_ONE_LINE = str.maketrans({"\t": "\\t", "\n": "\\n", "\r": "\\r"})


def _fmt(value, pattern: str = "{:.4f}") -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return pattern.format(value)
    return str(value).translate(_ONE_LINE)


def _format_report(
    results: list[EvalResult], config_echo: dict, report: AggregateReport
) -> str:
    lines = [f"# schema: {REPORT_SCHEMA}"]
    echo = " ".join(f"{key}={config_echo[key]}" for key in sorted(config_echo))
    lines.append(f"# config: {echo.translate(_ONE_LINE)}")
    lines.append("qid\tanswer\trouge_l\tjudge\terror_class\tllm_calls\tkg_ops")
    for result in results:
        cells = (
            result.qid, result.answer, result.rouge_l, result.judge_correct,
            result.error_class, result.llm_calls, result.kg_ops,
        )
        lines.append("\t".join(map(_fmt, cells)))

    def stats_line(label: str, stats) -> str:
        return (
            f"# {label.translate(_ONE_LINE)}: count={stats.count} "
            f"rouge_mean={_fmt(stats.rouge_mean)} "
            f"judge_rate={_fmt(stats.judge_rate, '{:.1f}')} "
            f"judge_evaluated={stats.judge_evaluated} judge_absent={stats.judge_absent}"
        )

    lines.append(stats_line("overall", report.overall))
    for domain in sorted(report.by_domain):
        lines.append(stats_line(f"domain {domain}", report.by_domain[domain]))
    for difficulty in sorted(report.by_difficulty):
        lines.append(stats_line(f"difficulty {difficulty}", report.by_difficulty[difficulty]))
    if report.error_counts:
        shares = " ".join(
            f"{cls}={report.error_counts[cls]}({report.error_shares[cls]:.1f}%)"
            for cls in sorted(report.error_counts)
        )
        lines.append(f"# errors: {shares}")
    lines.append(
        f"# costs: mean_llm_calls={report.mean_llm_calls:.2f} "
        f"mean_kg_ops={report.mean_kg_ops:.2f}"
    )
    return "\n".join(lines) + "\n"


def _write_tables(
    out_dir: Path, questions: list[Question], results: list[EvalResult], config_echo: dict
) -> AggregateReport:
    report = aggregate(questions, results)
    results_text = "".join(
        json.dumps({"schema": RESULTS_SCHEMA, **asdict(result)}, sort_keys=True) + "\n"
        for result in results
    )
    (out_dir / "results.lines").write_text(results_text, encoding="utf-8")
    # Text that is not UTF-8 (a lone surrogate) is written as its \u escape.
    (out_dir / "report.table").write_text(
        _format_report(results, config_echo, report), encoding="utf-8", errors="backslashreplace"
    )
    return report


@contextmanager
def _frozen_set_up(kg_path: str, questions_path: str):
    """Yield ``(graph, questions)``, loaded and kept out of the cyclic collector.

    This block owns a run's collector pause and freeze. A run's set-up is
    immutable, acyclic and lives as long as the run, so collecting it is
    pure waste. It is loaded with the collector paused and frozen with
    ``gc.freeze()`` before the collector resumes: the collector counts
    allocations while paused, so resuming first would start a collection
    that walks the whole graph (about 8 ms at 10k nodes). The freeze resets
    that count, and keeps later full collections off the set-up.

    Objects a caller already froze stay frozen: the block then neither
    freezes nor thaws. Nothing is left frozen when the block ends, and the
    collector is left on or off as it was found, whether set-up or the block
    raises.
    """
    collecting = gc.isenabled()
    freezing = not gc.get_freeze_count()
    gc.disable()
    try:
        graph = kg.load_graph(kg_path)
        questions = load_questions(questions_path)
        if freezing:
            gc.freeze()
    finally:
        if collecting:
            gc.enable()
    try:
        yield graph, questions
    finally:
        if freezing:
            gc.unfreeze()


def _run_loaded(
    config: RunConfig, graph: kg.KnowledgeGraph, questions: list[Question]
) -> AggregateReport:
    backend = build_backend(config)

    out_dir = Path(config.out_dir)
    traces_dir = out_dir / "traces"
    traces_dir.mkdir(parents=True, exist_ok=True)

    try:
        results = [_run_single(q, config, graph, backend, traces_dir) for q in questions]
    finally:
        if isinstance(backend, WireBackend):
            backend.close()
    report = _write_tables(out_dir, questions, results, config.echo())
    logger.info("wrote %d traces to %s", len(results), out_dir)
    return report


def run_experiment(config: RunConfig) -> AggregateReport:
    """Run every question and write the artifact tree; returns the aggregate."""
    preflight(config)
    with _frozen_set_up(config.kg_path, config.questions_path) as (graph, questions):
        return _run_loaded(config, graph, questions)


def score_run(traces_dir: str | Path, questions_path: str | Path, out_dir: str | Path) -> AggregateReport:
    """Rebuild results.lines and report.table from stored traces alone.

    Deterministic scores are recomputed; judge verdicts and error classes
    are echoed from the traces (re-judging would need a backend). A trace
    ``load_trace`` refuses, whose qid or question block (text, gold answer,
    difficulty, domain) is not its question's, or whose config is not the
    first trace's, raises ``ConfigError`` naming its file, as do a missing
    question file and an unusable output path; nothing is written.
    """
    _check_out_dir(out_dir)
    if not Path(questions_path).is_file():
        raise ConfigError(f"question file not found: {questions_path}")
    questions = load_questions(questions_path)
    traces_dir = Path(traces_dir)
    results: list[EvalResult] = []
    config_echo: dict = {}
    for question in questions:
        path = traces_dir / f"{question.qid}.trace"
        if not path.is_file():
            raise ConfigError(f"no trace for question {question.qid!r} at {path}")
        try:
            trace = load_trace(path)
            if trace.qid != question.qid:
                raise ValueError(
                    f"it holds question {clip(repr(trace.qid))}, not {question.qid!r}"
                )
            for key, asked in question_block(question).items():
                if trace.question.get(key) != asked:
                    raise ValueError(
                        f"its question {key} is {clip(repr(trace.question.get(key)))}, "
                        f"not the question file's {clip(repr(asked))}"
                    )
            if results and trace.config != config_echo:
                first = traces_dir / f"{questions[0].qid}.trace"
                raise ValueError(f"its config differs from that of {first}")
        except ValueError as exc:
            raise ConfigError(f"cannot score trace {path}: {exc}") from exc
        if not results:
            config_echo = trace.config
        results.append(_outcome(question, trace))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return _write_tables(out, questions, results, config_echo)


def run_sweep(base: RunConfig, axis: str, values: list[str]) -> None:
    """Run one experiment per axis value under out_dir/<axis>_<value>.

    Writes a long-format summary table at out_dir/sweep.table. Values that
    give the same search (a repeat, or an axis the base run does not read)
    are rejected before anything is written.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis {axis!r} not in {sorted(SWEEP_AXES)}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    configs = []
    searches: dict[SearchConfig, str] = {}
    for value in values:
        try:
            options = SWEEP_AXES[axis](value)
        except ValueError as exc:
            raise ConfigError(f"bad sweep value {value!r} for axis {axis}: {exc}") from exc
        sub = dataclasses.replace(
            base, out_dir=str(Path(base.out_dir) / f"{axis}_{value}"), **options
        )
        preflight(sub)
        search = sub.search_config()
        if search in searches:
            raise ConfigError(
                f"sweep values {searches[search]!r} and {value!r} for axis {axis} "
                f"run the same search ({base.strategy}/{base.interaction})"
            )
        searches[search] = value
        configs.append((value, sub))

    # No sweep axis changes the graph or the questions, so they are loaded
    # once; each value still gets its own backend, closed when its run ends.
    with _frozen_set_up(base.kg_path, base.questions_path) as (graph, questions):
        reports = [(value, _run_loaded(sub, graph, questions)) for value, sub in configs]
    rows: list[tuple[str, str, str, str]] = []
    for value, report in reports:
        rows.extend(
            [
                (axis, value, "rouge_mean", _fmt(report.overall.rouge_mean)),
                (axis, value, "judge_rate", _fmt(report.overall.judge_rate, "{:.1f}")),
                (axis, value, "mean_llm_calls", f"{report.mean_llm_calls:.2f}"),
                (axis, value, "mean_kg_ops", f"{report.mean_kg_ops:.2f}"),
            ]
        )
    lines = [f"# schema: {SWEEP_SCHEMA}", "axis\tvalue\tmetric\tresult"]
    lines.extend("\t".join(row) for row in rows)
    out_dir = Path(base.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "sweep.table").write_text("\n".join(lines) + "\n", encoding="utf-8")
