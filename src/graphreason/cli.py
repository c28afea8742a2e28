"""Command-line interface.

Five commands: ``run`` one experiment, ``sweep`` an axis of experiments,
``score`` to rebuild result tables from stored traces, ``validate-trace``
to check trace files, and ``gen-graph`` to produce a synthetic graph.
Configuration problems and malformed input files surface as a one-line
error, before anything is written, and exit nonzero.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from pathlib import Path

import click

from . import kg
from .evaluation import QuestionLoadError
from .llm import ReplayMismatchError
from .runner import (
    SWEEP_AXES,
    VALID_BACKENDS,
    VALID_JUDGES,
    ConfigError,
    RunConfig,
    run_experiment,
    run_sweep,
    score_run,
)
from .strategies import VALID_EVALUATORS, VALID_INTERACTIONS, VALID_STRATEGIES
from .textops import decode_json
from .traces import validate_trace


@click.group()
def main() -> None:
    """Knowledge-graph grounded stepwise reasoning runner."""


def _defaulted(name: str, kind, help: str | None = None):
    """An option showing its default: ``RunConfig``'s field of the same name."""
    default = getattr(RunConfig, name[2:].replace("-", "_"))
    return click.option(name, type=kind, default=default, show_default=True, help=help)


def _choice(name: str, values):
    return _defaulted(name, click.Choice(sorted(values)))


def _run_options(command):
    options = [
        click.option("--kg", "kg_path", required=True, help="Knowledge graph file."),
        click.option("--questions", "questions_path", required=True, help="Question file."),
        click.option("--out", "out_dir", required=True, help="Output directory."),
        _choice("--strategy", VALID_STRATEGIES),
        _choice("--interaction", VALID_INTERACTIONS),
        _choice("--evaluator", VALID_EVALUATORS),
        _defaulted("--branching", int, "Children per state."),
        _defaulted("--retain", int, "Beam width."),
        _defaulted("--max-depth", int, "Depth limit."),
        _defaulted("--search-depth", int, "Graph search depth."),
        _choice("--backend", VALID_BACKENDS),
        click.option("--endpoint", help="Wire backend URL."),
        click.option("--model", help="Wire backend model name."),
        click.option("--replay", "replay_path", help="Replay script file."),
        _choice("--judge", VALID_JUDGES),
    ]
    for option in reversed(options):
        command = option(command)
    return command


@contextmanager
def _one_line_errors(kg_path: str | None = None, replay_path: str | None = None):
    """Report bad input or a replay script that misses a prompt as one line."""
    try:
        yield
    except kg.GraphLoadError as exc:
        raise click.ClickException(f"{kg_path}: {exc}") from exc
    except ReplayMismatchError as exc:
        raise click.ClickException(f"{replay_path}: {exc}") from exc
    except (ConfigError, QuestionLoadError) as exc:
        raise click.ClickException(str(exc)) from exc


@main.command("run")
@_run_options
def run_command(**kwargs) -> None:
    """Run one experiment and write traces, results, and a report."""
    config = RunConfig(**kwargs)
    with _one_line_errors(config.kg_path, config.replay_path):
        report = run_experiment(config)
    click.echo(f"ran {report.overall.count} questions; artifacts in {config.out_dir}")


@main.command("sweep")
@_run_options
@click.option("--axis", type=click.Choice(sorted(SWEEP_AXES)), required=True)
@click.option("--values", required=True, help="Comma-separated axis values.")
def sweep_command(axis: str, values: str, **kwargs) -> None:
    """Run one experiment per axis value and write a sweep summary table."""
    config = RunConfig(**kwargs)
    value_list = [v.strip() for v in values.split(",") if v.strip()]
    with _one_line_errors(config.kg_path, config.replay_path):
        run_sweep(config, axis, value_list)
    click.echo(f"swept {axis} over {value_list}; artifacts in {config.out_dir}")


@main.command("validate-trace")
@click.argument("paths", nargs=-1, required=True)
def validate_command(paths: tuple[str, ...]) -> None:
    """Check trace files against the structural invariants."""
    failed = False
    for path in paths:
        try:
            data = decode_json(Path(path).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            click.echo(f"{path}: unreadable ({exc})")
            failed = True
            continue
        violations = validate_trace(data)
        if violations:
            failed = True
            for violation in violations:
                click.echo(f"{path}: {violation}")
        else:
            click.echo(f"{path}: ok")
    if failed:
        sys.exit(1)


@main.command("score")
@click.option("--traces", "traces_dir", required=True, help="Directory of .trace files.")
@click.option("--questions", "questions_path", required=True, help="Question file.")
@click.option("--out", "out_dir", required=True, help="Output directory.")
def score_command(traces_dir: str, questions_path: str, out_dir: str) -> None:
    """Recompute results.lines and report.table from stored traces."""
    with _one_line_errors():
        report = score_run(traces_dir, questions_path, out_dir)
    click.echo(f"scored {report.overall.count} questions; tables in {out_dir}")


_SPEC = kg.SyntheticGraphSpec  # its fields' defaults are gen-graph's


@main.command("gen-graph")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--nodes", type=int, default=_SPEC.node_count, show_default=True)
@click.option("--edges-per-node", type=int, default=_SPEC.edges_per_node, show_default=True)
@click.option(
    "--node-types", default=",".join(_SPEC.node_types), show_default=True, help="Comma-separated."
)
@click.option("--relations", default=",".join(_SPEC.relations), show_default=True)
@click.option("--out", "out_path", required=True, help="Graph file to write.")
def gen_graph_command(
    seed: int,
    nodes: int,
    edges_per_node: int,
    node_types: str,
    relations: str,
    out_path: str,
) -> None:
    """Generate a seeded synthetic graph file."""
    try:
        spec = kg.SyntheticGraphSpec(
            node_types=tuple(t.strip() for t in node_types.split(",") if t.strip()),
            relations=tuple(r.strip() for r in relations.split(",") if r.strip()),
            node_count=nodes,
            edges_per_node=edges_per_node,
        )
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    # Checked before generating, which takes seconds on a large graph.
    out = Path(out_path)
    if out.is_dir():
        raise click.ClickException(f"cannot write {out_path}: it is a directory")
    if not out.parent.is_dir():
        raise click.ClickException(f"cannot write {out_path}: no directory {str(out.parent)!r}")
    graph = kg.generate_synthetic_graph(seed, spec)
    try:
        kg.save_graph(graph, out)
    except OSError as exc:
        raise click.ClickException(f"cannot write {out_path}: {exc.strerror or exc}") from exc
    click.echo(f"wrote {graph.stats.node_count} nodes to {out_path}")


if __name__ == "__main__":
    main()
