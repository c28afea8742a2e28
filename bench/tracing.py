"""Span tracing from outside the program, and the per-layer metrics.

The tracer rebinds public functions of ``graphreason`` to wrappers that
record one span per call: name, start, end and the span that was open when
it began (its parent). Functions that modules import by name are rebound in
every module that holds them; ``kg`` functions, called through the module,
are rebound once there. Spans live in flat arrays while the benchmark runs
and are written out when it ends.

    python3 bench/tracing.py bench/out/<workload>.spans

prints a written span file as a table of calls, total and self time per span
name.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from array import array
from pathlib import Path

SPAN_FIELDS = ("name", "parent", "question", "start", "end")

# (module, attribute) of every function wrapped; "Class.method" for methods.
TRACED = (
    ("runner", "run_experiment"),
    ("runner", "score_run"),
    ("kg", "load_graph"),
    ("kg", "retrieve_node"),
    ("kg", "graph_definition"),
    ("kg", "node_feature"),
    ("kg", "neighbor_check"),
    ("kg", "node_degree"),
    ("kg", "node_name"),
    ("prompts", "load_examples"),
    ("prompts", "render"),
    ("llm", "request_for"),
    ("llm", "complete"),
    ("llm", "complete_with_reask"),
    ("llm", "ReplayBackend.raw_complete"),
    ("llm", "WireBackend.raw_complete"),
    ("agent", "run_agent_step"),
    ("agent", "execute_action"),
    ("agent", "Scratchpad.clone"),
    ("explore", "explore"),
    ("explore", "extract_entities"),
    ("explore", "resolve_anchors"),
    ("explore", "prune_relations"),
    ("explore", "prune_entities"),
    ("explore", "end_check"),
    ("explore", "search_attributes"),
    ("explore", "ExplorationState.clone"),
    ("explore", "ExplorationState.merge"),
    ("strategies", "run_search"),
    ("strategies", "expand_child"),
    ("strategies", "select_frontier"),
    ("strategies", "merge_pair"),
    ("strategies", "evaluate_select"),
    ("strategies", "evaluate_score"),
    ("costs", "check"),
    ("traces", "build_trace"),
    ("traces", "write_trace"),
    ("traces", "load_trace"),
    ("traces", "validate_trace"),
    ("evaluation", "load_questions"),
    ("evaluation", "judge_correct"),
    ("evaluation", "classify_error"),
    ("evaluation", "rouge_l"),
)

KG_LOOKUPS = ("kg.node_feature", "kg.neighbor_check", "kg.node_degree", "kg.node_name")
BACKENDS = ("llm.ReplayBackend.raw_complete", "llm.WireBackend.raw_complete")


class Tracer:
    """Records spans, plus the counts that ratios need, at the wrapped calls."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.spans = {field: array("i") for field in SPAN_FIELDS[:3]}
        self.spans.update({field: array("d") for field in SPAN_FIELDS[3:]})
        self.current = -1
        self.question = -1
        self.counts: dict[str, float] = {}
        self._restore: list[tuple[object, str, object]] = []

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, name: str, fn, before=None, after=None):
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        names, parents, questions = self.spans["name"], self.spans["parent"], self.spans["question"]
        starts, ends = self.spans["start"], self.spans["end"]
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            index = len(names)
            names.append(name_id)
            parents.append(tracer.current)
            questions.append(tracer.question)
            starts.append(0.0)
            ends.append(0.0)
            tracer.current = index
            started = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.count(name + ".raised")
                raise
            finally:
                ends[index] = clock()
                starts[index] = started
                tracer.current = parents[index]
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Rebind every traced function in every loaded module of ``package``."""
        prefix = package.__name__ + "."
        modules = [
            module for key, module in list(sys.modules.items())
            if key == package.__name__ or key.startswith(prefix)
        ]
        before, after = self._hooks()
        for short, attr in TRACED:
            module = importlib.import_module(f"{package.__name__}.{short}")
            name = f"{short}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                self._restore.append((cls, method, raw))
                setattr(cls, method, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, before.get(name), after.get(name))
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, value))
                        setattr(holder, key, wrapped)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._restore):
            setattr(holder, key, value)
        self._restore.clear()

    def _hooks(self) -> tuple[dict, dict]:
        """Counts taken at the wrapped calls, before and after each runs."""

        def begin_question(args, kwargs):
            self.question += 1

        def reask(args, kwargs):
            self.count("llm.reask.calls", args[1].tag.endswith(":reask"))

        def triples_before(args, kwargs):
            self.count("explore.triples_before", len(args[2].found_triples))

        def render(args, kwargs, result):
            self.count("prompts.render.chars", len(result))

        def complete(args, kwargs, result):
            self.count("llm.response.chars", len(result))

        def explore(args, kwargs, result):
            self.count("explore.triples_after", len(result.found_triples))

        def merge_pair(args, kwargs, result):
            self.count("strategies.merge_pair.merged", result is not None)

        def select_frontier(args, kwargs, result):
            self.count("strategies.select_frontier.candidates", len(args[0]))
            self.count("strategies.select_frontier.retained", len(result))

        def expand_child(args, kwargs, result):
            self.count("strategies.born_pruned", result.status == "pruned")

        def write_trace(args, kwargs, result):
            self.count("traces.bytes", Path(args[1]).stat().st_size)

        def check(args, kwargs, result):
            self.count("costs.check.violations", len(result.violations))

        before = {
            "strategies.run_search": begin_question,
            "llm.complete": reask,
            "explore.explore": triples_before,
        }
        return before, {
            "prompts.render": render,
            "llm.complete": complete,
            "explore.explore": explore,
            "strategies.merge_pair": merge_pair,
            "strategies.select_frontier": select_frontier,
            "strategies.expand_child": expand_child,
            "traces.write_trace": write_trace,
            "costs.check": check,
        }

    def write(self, path: Path) -> None:
        """Write the spans: one JSON header line, then the raw arrays."""
        with open(path, "wb") as handle:
            header = {"names": self.names, "fields": list(SPAN_FIELDS), "count": len(self.spans["name"])}
            handle.write((json.dumps(header) + "\n").encode("utf-8"))
            for field in SPAN_FIELDS:
                self.spans[field].tofile(handle)


def read_spans(path: Path) -> tuple[list[str], dict[str, array]]:
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        spans = {}
        for field in header["fields"]:
            values = array("i" if field in SPAN_FIELDS[:3] else "d")
            values.fromfile(handle, header["count"])
            spans[field] = values
    return header["names"], spans


def span_totals(names: list[str], spans: dict[str, array]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds, and self seconds (total minus
    the time covered by direct children; spans nest on one thread)."""
    count = len(spans["name"])
    durations = [spans["end"][i] - spans["start"][i] for i in range(count)]
    child_time = [0.0] * count
    parents = spans["parent"]
    for i in range(count):
        if parents[i] >= 0:
            child_time[parents[i]] += durations[i]
    totals = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in names}
    for i in range(count):
        row = totals[names[spans["name"][i]]]
        row["calls"] += 1
        row["s"] += durations[i]
        row["self_s"] += durations[i] - child_time[i]
    return totals


def serial_depth(starts: list[float], ends: list[float]) -> int:
    """Longest chain of pairwise non-overlapping calls (greedy by end time)."""
    depth = 0
    last_end = float("-inf")
    for start, end in sorted(zip(starts, ends), key=lambda pair: pair[1]):
        if start >= last_end:
            depth += 1
            last_end = end
    return depth


def layer_metrics(tracer: Tracer, questions: int, stub_delay_s: float) -> dict[str, float]:
    """The per-layer metrics: counts and seconds per question unless noted.

    ``llm.serial_depth`` is the mean over questions of the longest chain of
    non-overlapping model calls, so with every call serial it equals the
    mean model calls per question.
    """
    names, spans = tracer.names, tracer.spans
    totals = span_totals(names, spans)
    counts = tracer.counts

    def total(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0.0)

    def per_q(value: float) -> float:
        return value / questions

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    name_ids = tracer.name_ids
    span_name = spans["name"]
    durations = {}
    for key in ("kg.load_graph", "llm.complete") + BACKENDS:
        wanted = name_ids.get(key)
        durations[key] = [
            (spans["start"][i], spans["end"][i], spans["question"][i])
            for i in range(len(span_name))
            if span_name[i] == wanted
        ]
    backend_calls = durations[BACKENDS[0]] + durations[BACKENDS[1]]
    by_question: dict[int, tuple[list[float], list[float]]] = {}
    for start, end, question in durations["llm.complete"]:
        starts, ends = by_question.setdefault(question, ([], []))
        starts.append(start)
        ends.append(end)
    depths = [serial_depth(s, e) for s, e in by_question.values()]
    kg_names = [name for name in names if name.startswith("kg.")]
    loads = [end - start for start, end, _ in durations["kg.load_graph"]]

    metrics = {
        "kg.load_graph.s": statistics.median(loads) if loads else 0.0,
        "kg.retrieve_node.calls": per_q(total("kg.retrieve_node", "calls")),
        "kg.retrieve_node.s": per_q(total("kg.retrieve_node", "s")),
        "kg.graph_definition.calls": per_q(total("kg.graph_definition", "calls")),
        "kg.graph_definition.s": per_q(total("kg.graph_definition", "s")),
        "kg.lookup.calls": per_q(sum(total(name, "calls") for name in KG_LOOKUPS)),
        "kg.self_s": per_q(sum(total(name, "self_s") for name in kg_names)),
        "prompts.load_examples.calls": per_q(total("prompts.load_examples", "calls")),
        "prompts.load_examples.s": per_q(total("prompts.load_examples", "s")),
        "prompts.render.calls": per_q(total("prompts.render", "calls")),
        "prompts.render.s": per_q(total("prompts.render", "s")),
        "prompts.render.chars": per_q(counts.get("prompts.render.chars", 0)),
        "llm.complete.calls": per_q(total("llm.complete", "calls")),
        "llm.complete.s": per_q(total("llm.complete", "s")),
        "llm.backend.s": per_q(sum(total(name, "s") for name in BACKENDS)),
        "llm.wire.overhead_ms": 1000.0 * (
            statistics.median(end - start for start, end, _ in backend_calls) - stub_delay_s
        ) if backend_calls else 0.0,
        "llm.serial_depth": statistics.fmean(depths) if depths else 0.0,
        "llm.retries": per_q(len(backend_calls) - total("llm.complete", "calls")),
        "llm.failed": per_q(counts.get("llm.complete.raised", 0)),
        "llm.reask.calls": per_q(counts.get("llm.reask.calls", 0)),
        "llm.response.chars": per_q(counts.get("llm.response.chars", 0)),
        "agent.run_agent_step.calls": per_q(total("agent.run_agent_step", "calls")),
        "agent.run_agent_step.self_s": per_q(total("agent.run_agent_step", "self_s")),
        "agent.execute_action.calls": per_q(total("agent.execute_action", "calls")),
        "agent.execute_action.s": per_q(total("agent.execute_action", "s")),
        "agent.Scratchpad.clone.s": per_q(total("agent.Scratchpad.clone", "s")),
        "explore.explore.calls": per_q(total("explore.explore", "calls")),
        "explore.explore.self_s": per_q(total("explore.explore", "self_s")),
        "explore.extract_entities.calls": per_q(total("explore.extract_entities", "calls")),
        "explore.prune_relations.calls": per_q(total("explore.prune_relations", "calls")),
        "explore.prune_entities.calls": per_q(total("explore.prune_entities", "calls")),
        "explore.end_check.calls": per_q(total("explore.end_check", "calls")),
        "explore.resolve_anchors.s": per_q(total("explore.resolve_anchors", "s")),
        "explore.ExplorationState.clone.s": per_q(total("explore.ExplorationState.clone", "s")),
        "explore.ExplorationState.merge.s": per_q(total("explore.ExplorationState.merge", "s")),
        "explore.new_triples_per_prune": ratio(
            counts.get("explore.triples_after", 0) - counts.get("explore.triples_before", 0),
            total("explore.prune_entities", "calls"),
        ),
        "strategies.run_search.self_s": per_q(total("strategies.run_search", "self_s")),
        "strategies.expand_child.calls": per_q(total("strategies.expand_child", "calls")),
        "strategies.select_frontier.s": per_q(total("strategies.select_frontier", "s")),
        "strategies.merge_pair.calls": per_q(total("strategies.merge_pair", "calls")),
        "strategies.merge_pair.merged_ratio": ratio(
            counts.get("strategies.merge_pair.merged", 0), total("strategies.merge_pair", "calls")
        ),
        "strategies.retained_ratio": ratio(
            counts.get("strategies.select_frontier.retained", 0),
            counts.get("strategies.select_frontier.candidates", 0),
        ),
        "strategies.born_pruned": per_q(counts.get("strategies.born_pruned", 0)),
        "costs.check.violations": per_q(counts.get("costs.check.violations", 0)),
        "traces.build_trace.s": per_q(total("traces.build_trace", "s")),
        "traces.write_trace.s": per_q(total("traces.write_trace", "s")),
        "traces.bytes": per_q(counts.get("traces.bytes", 0)),
        "traces.load_trace.s": per_q(total("traces.load_trace", "s")),
        "traces.validate_trace.s": per_q(total("traces.validate_trace", "s")),
        "evaluation.judge_correct.calls": per_q(total("evaluation.judge_correct", "calls")),
        "evaluation.classify_error.s": per_q(total("evaluation.classify_error", "s")),
        "evaluation.rouge_l.s": per_q(total("evaluation.rouge_l", "s")),
        "runner.run_experiment.self_s": per_q(total("runner.run_experiment", "self_s")),
        "runner.score_run.s": per_q(total("runner.score_run", "s")),
    }
    return metrics


def main() -> None:
    names, spans = read_spans(Path(sys.argv[1]))
    totals = span_totals(names, spans)
    print(f"{'span':40} {'calls':>10} {'total_s':>10} {'self_s':>10}")
    for name, row in sorted(totals.items(), key=lambda item: -item[1]["self_s"]):
        print(f"{name:40} {row['calls']:>10} {row['s']:>10.4f} {row['self_s']:>10.4f}")


if __name__ == "__main__":
    main()
