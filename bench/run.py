"""End-to-end and per-layer benchmark for graphreason.

    python3 bench/run.py --workload agent-retrieval --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``. Each
run generates its inputs from the seed (``workloads.py``), runs one warm-up
batch, then runs batches of questions through ``runner.run_experiment`` one
question at a time (closed loop, one client, ``concurrency=1``) until the
measured time reaches ``--seconds``. Every batch is read back with
``runner.score_run`` and ``traces.validate_trace`` and checked:

- every trace validates and its counters pass ``costs.check(bound_for(...))``;
- every answer and termination is the one the script planted, every agent
  observation is what the graph holds, every explored triple is a graph edge;
- ``score_run`` reproduces ``results.lines`` byte for byte, and a rerun of the
  first measured batch writes a byte-identical ``results.lines``;
- on the wire workload, the stub served exactly the model calls plus
  retries that the traces count.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
the functions of every layer are wrapped with spans (``tracing.py``) and the
run reports the per-layer metrics and writes the spans to
``bench/out/<workload>.spans``. Human-readable lines come first; the last
line of standard output is one JSON object. A failed check makes the exit
code nonzero.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

WARMUP_BATCH = 999
READBACK_REPEATS = 3

# On a shared host the speed of one core swings by up to 2x for seconds to
# minutes at a time (a fixed pure-Python loop was measured anywhere from 25
# to 53 ms), which swamps any change to the program. End-to-end times of
# CPU work are therefore normalised to a fixed reference loop, timed just
# before each question (outside its latency) and before and after each batch:
#     reported = measured * REFERENCE_NOMINAL_S / reference
# so they read as seconds on a core that runs the loop in 3.5 ms. The wire
# workload's question time is mostly the stub's fixed delay, which does not
# scale with core speed, so its question latency and throughput stay in
# wall-clock seconds; its set-up and readback are CPU work and are scaled.
# Raw wall-clock values are printed on every run as well.
REFERENCE_NOMINAL_S = 0.0035
_REFERENCE_TOKENS = re.compile(r"[0-9a-z]+")

E2E_UNITS = {
    "setup_s": "s",
    "questions_per_s": "1/s",
    "question_p50_s": "s",
    "question_tail_s": "s",
    "ok_share": "ratio",
    "llm_calls_per_question": "count",
    "kg_ops_per_question": "count",
    "trace_bytes_per_question": "bytes",
    "readback_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "kg.load_graph.s": "s",
    "llm.wire.overhead_ms": "ms",
    "llm.serial_depth": "count",
    "explore.new_triples_per_prune": "ratio",
    "strategies.merge_pair.merged_ratio": "ratio",
    "strategies.retained_ratio": "ratio",
    "bench.questions_per_s": "1/s",
    "bench.question_s": "s",
    "bench.reference_ms": "ms",
}


def layer_unit(name: str) -> str:
    """Per-layer metrics are per question unless listed in LAYER_UNITS."""
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    if name.rsplit(".", 1)[-1] in ("s", "self_s"):
        return "s/question"
    if name.endswith(".chars"):
        return "chars/question"
    if name.endswith(".bytes"):
        return "bytes/question"
    return "count/question"


def import_program():
    """Import graphreason from the checkout's src/, or stop with an error."""
    src = ROOT / "src"
    if not (src / "graphreason" / "__init__.py").is_file():
        sys.exit(f"bench: no program to measure at {src / 'graphreason'}")
    sys.path.insert(0, str(src))
    import graphreason
    from graphreason import costs, runner, traces

    return graphreason, costs, runner, traces


def reference_s() -> float:
    """Best of three timings of a fixed loop of the program's kinds of work:
    regex tokenizing, set overlap, dict building, string joins, JSON."""
    best = float("inf")
    for _ in range(3):
        began = time.perf_counter()
        rows = {}
        query = set(_REFERENCE_TOKENS.findall("alpha beta 17 gamma"))
        for i in range(1000):
            name = f"Node Alpha {i} beta-{i % 7}"
            tokens = set(_REFERENCE_TOKENS.findall(name.lower()))
            rows[name] = {"overlap": len(tokens & query), "text": " --> ".join(sorted(tokens))}
        json.dumps(rows, sort_keys=True)
        best = min(best, time.perf_counter() - began)
    return best


class QuestionClock:
    """Per-question latency, attributed by qid, from thin wrappers on the
    names ``runner`` calls: a question runs from the start of its
    ``run_search`` to the end of its ``classify_error``, plus its own
    ``write_trace``. The first ``run_search`` also ends set-up.

    With ``calibrate`` on, the reference loop is timed just before each
    question starts (outside its latency); ``calibration_s`` sums the time
    that took inside ``run_experiment``.
    """

    def __init__(self, runner) -> None:
        self.runner = runner
        self.calibrate = True
        self.reset()

    def reset(self) -> None:
        self.first_search: float | None = None
        self.started: dict[str, float] = {}
        self.evaluated: dict[str, float] = {}
        self.written: dict[str, float] = {}
        self.reference: dict[str, float] = {}
        self.calibration_s = 0.0

    def install(self) -> None:
        self.saved = (self.runner.run_search, self.runner.classify_error, self.runner.write_trace)
        run_search, classify_error, write_trace = self.saved
        clock = time.perf_counter

        def timed_search(question, *args, **kwargs):
            now = clock()
            if self.first_search is None:
                self.first_search = now
            if self.calibrate:
                self.reference[question.qid] = reference_s()
                self.calibration_s += clock() - now
                now = clock()
            self.started[question.qid] = now
            return run_search(question, *args, **kwargs)

        def timed_classify(trace, question, *args, **kwargs):
            try:
                return classify_error(trace, question, *args, **kwargs)
            finally:
                self.evaluated[question.qid] = clock()

        def timed_write(trace, path):
            began = clock()
            try:
                return write_trace(trace, path)
            finally:
                self.written[trace.qid] = self.written.get(trace.qid, 0.0) + clock() - began

        self.runner.run_search = timed_search
        self.runner.classify_error = timed_classify
        self.runner.write_trace = timed_write

    def uninstall(self) -> None:
        self.runner.run_search, self.runner.classify_error, self.runner.write_trace = self.saved

    def latencies(self) -> list[tuple[float, float | None]]:
        """(latency, reference time taken just before it or None) per question."""
        return [
            (self.evaluated[qid] - started + self.written.get(qid, 0.0), self.reference.get(qid))
            for qid, started in self.started.items()
            if qid in self.evaluated
        ]


class Stub:
    """The stub model server, in its own process, for the wire workload."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [
                sys.executable,
                str(BENCH_DIR / "stub_server.py"),
                "--delay-ms", str(workloads.STUB_DELAY_S * 1000),
                "--fail-every", str(workloads.STUB_FAIL_EVERY),
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "port":
            self.close()
            raise RuntimeError("stub server did not start")
        self.url = f"http://127.0.0.1:{line[1]}"
        self.opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    def _call(self, path: str, body: bytes | None = None) -> dict:
        with self.opener.open(self.url + path, data=body, timeout=30) as response:
            return json.loads(response.read())

    def load(self, table: Path) -> None:
        self._call("/load", str(table).encode("utf-8"))

    def stats(self) -> dict:
        return self._call("/stats")

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


@dataclass
class BatchResult:
    qids: list[str]
    wall_s: float
    setup_s: float
    readback_s: list[float]
    latencies: list[tuple[float, float | None]]
    llm_calls: list[int]
    kg_ops: list[int]
    requests: int
    trace_bytes: int
    results_lines: bytes
    failed: set[str] = field(default_factory=set)
    reference_s: float = REFERENCE_NOMINAL_S

    @property
    def scale(self) -> float:
        """Factor from measured seconds to reference-core seconds."""
        return REFERENCE_NOMINAL_S / self.reference_s


class Bench:
    def __init__(self, program, workload: workloads.Workload, seed: int, root: Path) -> None:
        self.graphreason, self.costs, self.runner, self.traces = program
        self.workload = workload
        self.seed = seed
        self.root = root
        self.graph_path = root / "graph.kg"
        self.graph = workloads.make_graph(workload, seed, self.graph_path)
        self.clock = QuestionClock(self.runner)
        self.stub: Stub | None = None
        self.readback_repeats = READBACK_REPEATS
        self.problems: list[str] = []

    def config(self, batch_dir: Path, questions: Path, script: Path):
        # A fresh copy per batch, so set-up pays for the graph file every
        # time, as a separate run of the program would.
        graph_path = batch_dir / "graph.kg"
        shutil.copyfile(self.graph_path, graph_path)
        run = dict(self.workload.run)
        if run["backend"] == "wire":
            self.stub.load(script)
            run.update(endpoint=self.stub.url + "/v1/chat/completions", model="stub")
        else:
            run.update(replay_path=str(script))
        return self.runner.RunConfig(
            kg_path=str(graph_path),
            questions_path=str(questions),
            out_dir=str(batch_dir / "run"),
            **run,
        )

    def run_batch(self, index: int, check: bool = True) -> BatchResult | None:
        batch = workloads.make_batch(self.workload, self.graph, self.seed, index)
        batch_dir = self.root / f"batch{index:03d}"
        shutil.rmtree(batch_dir, ignore_errors=True)
        questions, script = batch.write(batch_dir)
        config = self.config(batch_dir, questions, script)
        self.clock.reset()
        reference_before = reference_s()
        began = time.perf_counter()
        try:
            self.runner.run_experiment(config)
        except Exception as exc:  # the run must go on to report the failure
            self.problems.append(f"batch {index}: run_experiment raised {exc!r}")
            qids = list(batch.expected)
            return BatchResult(qids, time.perf_counter() - began, 0.0, [], [], [], [], 0, 0, b"",
                               failed=set(qids))
        wall = time.perf_counter() - began - self.clock.calibration_s
        setup = self.clock.first_search - began
        latencies = self.clock.latencies()
        if not check:
            return None

        run_dir = Path(config.out_dir)
        traces_dir = run_dir / "traces"
        readback = []
        for _ in range(self.readback_repeats):
            began = time.perf_counter()
            self.runner.score_run(traces_dir, questions, batch_dir / "rescore")
            loaded: dict[str, dict] = {}
            invalid: dict[str, list[str]] = {}
            for path in sorted(traces_dir.glob("*.trace")):
                data = json.loads(path.read_text(encoding="utf-8"))
                loaded[data["qid"]] = data
                invalid[data["qid"]] = self.traces.validate_trace(data)
            readback.append(time.perf_counter() - began)

        results_lines = (run_dir / "results.lines").read_bytes()
        failed = set()
        if (batch_dir / "rescore" / "results.lines").read_bytes() != results_lines:
            self.problems.append(f"batch {index}: score_run did not reproduce results.lines")
            failed.update(batch.expected)
        bound = self.costs.bound_for(
            config.search_config(), config.steps, config.search_depth,
            max_actions_per_step=config.max_actions_per_step,
        )
        llm_calls, kg_ops, requests = [], [], 0
        for qid, expected in batch.expected.items():
            data = loaded.get(qid)
            if data is None:
                self.problems.append(f"{qid}: no trace written")
                failed.add(qid)
                continue
            problems = [f"invalid trace: {v}" for v in invalid[qid]]
            problems += self.check_costs(data["counters"], bound)
            problems += self.check_outcome(data, expected)
            if problems:
                self.problems.extend(f"{qid}: {p}" for p in problems)
                failed.add(qid)
            counters = data["counters"]
            llm_calls.append(counters["llm_total"])
            kg_ops.append(counters["kg_total"])
            requests += counters["llm_total"] + counters["transport_retries"]
        trace_bytes = sum(path.stat().st_size for path in traces_dir.glob("*.trace"))
        shutil.rmtree(batch_dir)
        reference = statistics.fmean(
            [reference_before, *self.clock.reference.values(), reference_s()]
        )
        return BatchResult(
            qids=list(batch.expected), wall_s=wall, setup_s=setup, readback_s=readback,
            latencies=latencies, llm_calls=llm_calls, kg_ops=kg_ops, requests=requests,
            trace_bytes=trace_bytes, results_lines=results_lines, failed=failed,
            reference_s=reference,
        )

    def check_costs(self, counters: dict, bound) -> list[str]:
        """Counters must pass the closed-form bounds. For explore runs the kg
        ceiling is scaled by a per-search cost observed in the run itself, so
        that part of the check cannot fail; it is run anyway."""
        meters = self.costs.CostCounters()
        meters.llm_calls_by_tag = dict(counters["llm_calls_by_tag"])
        meters.kg_ops_by_kind = dict(counters["kg_ops_by_kind"])
        meters.transport_retries = counters["transport_retries"]
        meters.explore_searches = counters["explore_searches"]
        meters.explore_search_cost_max = counters["explore_search_cost_max"]
        result = self.costs.check(meters, bound)
        return [f"cost bound: {v}" for v in result.violations]

    def check_outcome(self, data: dict, expected: workloads.Expected) -> list[str]:
        problems = []
        if data["answer"] != expected.answer or data["termination"] != expected.termination:
            problems.append(
                f"outcome {data['answer']!r}/{data['termination']} != planted "
                f"{expected.answer!r}/{expected.termination}"
            )
        for state in data["states"][1:]:
            if state["thought"] not in expected.thoughts:
                problems.append(f"state {state['id']}: thought {state['thought']!r} was not planted")
            evidence = state["evidence"]
            for step in evidence["scratchpad"] or ():
                want = expected.observations.get(step["index"])
                if step["observations"] != want:
                    problems.append(f"state {state['id']} step {step['index']}: "
                                    f"observations {step['observations']} != {want}")
            for triple in evidence["triples"]:
                if not self.graph.has_edge(triple["head_id"], triple["relation"], triple["tail_id"]) \
                        or triple["tail_name"] != self.graph.name_of(triple["tail_id"]) \
                        or triple["head_name"] != self.graph.name_of(triple["head_id"]):
                    problems.append(f"state {state['id']}: triple {triple} is not in the graph")
            if problems:
                break
        return problems


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The latency with ten samples beyond it, its percentile, and n."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def measure(bench: Bench, seconds: float, tracer: tracing.Tracer | None) -> tuple[list[BatchResult], float]:
    """Run measured batches until their measured time reaches ``seconds``
    or a batch fails to run."""
    bench.run_batch(WARMUP_BATCH, check=False)
    if tracer is not None:
        bench.clock.uninstall()
        tracer.install(bench.graphreason)
        bench.clock.install()
    stats_before = bench.stub.stats() if bench.stub else None
    results: list[BatchResult] = []
    measured = 0.0
    index = 0
    while measured < seconds:
        result = bench.run_batch(index)
        results.append(result)
        measured += result.wall_s + sum(result.readback_s[:1])
        index += 1
        if not result.readback_s:
            break
    if bench.stub:
        after = bench.stub.stats()
        served = after["served"] - stats_before["served"]
        counted = sum(r.requests for r in results)
        if served != counted:
            bench.problems.append(
                f"stub served {served} requests but traces count {counted} calls + retries"
            )
            for result in results:
                result.failed.update(result.qids)
    if tracer is not None:
        bench.clock.uninstall()
        tracer.uninstall()
        bench.clock.install()
    rerun = bench.run_batch(0)
    if rerun.results_lines != results[0].results_lines:
        bench.problems.append("rerun of batch 0 wrote a different results.lines")
        results[0].failed.update(results[0].qids)
    return results, measured


def timings(results: list[BatchResult], scaled: bool, cpu_bound: bool):
    """The timed end-to-end metrics, in reference-core seconds or raw.

    Set-up and readback are always CPU work; question latency and throughput
    only when ``cpu_bound``.
    """
    def scale(r: BatchResult) -> float:
        return r.scale if scaled else 1.0

    def question_scale(r: BatchResult, reference: float | None = None) -> float:
        if not (scaled and cpu_bound):
            return 1.0
        return REFERENCE_NOMINAL_S / reference if reference else r.scale

    latencies = [x * question_scale(r, ref) for r in results for x, ref in r.latencies]
    tail_s, percentile, n = tail(latencies)
    return {
        "setup_s": statistics.median(r.setup_s * scale(r) for r in results),
        "questions_per_s": statistics.median(
            len(r.qids) / (r.wall_s * question_scale(r)) for r in results if r.wall_s
        ),
        "question_p50_s": statistics.median(latencies),
        "question_tail_s": tail_s,
        "readback_s": statistics.median(x * scale(r) for r in results for x in r.readback_s),
    }, percentile, n


def e2e_metrics(results: list[BatchResult], questions: int, failed: int, cpu_bound: bool):
    """End-to-end metrics over the completed batches; ``questions`` and
    ``failed`` count every attempted batch."""
    metrics, percentile, n = timings(results, True, cpu_bound)
    raw, _, _ = timings(results, False, cpu_bound)
    reference = statistics.median(r.reference_s for r in results)
    print(f"# question_tail_s is p{percentile:.1f} of n={n} question latencies", flush=True)
    print(f"# failed_share {failed / questions:.4f} ratio ({failed} of {questions})", flush=True)
    print(f"# reference loop {reference * 1000:.3f} ms (nominal {REFERENCE_NOMINAL_S * 1000} ms); "
          "wall-clock: " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()), flush=True)
    return {
        "setup_s": metrics["setup_s"],
        "questions_per_s": metrics["questions_per_s"],
        "question_p50_s": metrics["question_p50_s"],
        "question_tail_s": metrics["question_tail_s"],
        "ok_share": 1.0 - failed / questions,
        "llm_calls_per_question": statistics.fmean(x for r in results for x in r.llm_calls),
        "kg_ops_per_question": statistics.fmean(x for r in results for x in r.kg_ops),
        "trace_bytes_per_question": sum(r.trace_bytes for r in results)
        / sum(len(r.qids) for r in results),
        "readback_s": metrics["readback_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="graphreason benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    program = import_program()
    workload = workloads.WORKLOADS[args.workload]
    root = OUT_DIR / workload.name
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    bench = Bench(program, workload, args.seed, root)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        bench.readback_repeats = 1  # per-layer read-side metrics count one readback
        bench.clock.calibrate = False  # no untraced work inside traced spans
    bench.clock.install()
    try:
        if workload.run["backend"] == "wire":
            bench.stub = Stub()
        results, measured = measure(bench, args.seconds, tracer)
    finally:
        bench.clock.uninstall()
        if bench.stub:
            bench.stub.close()

    questions = sum(len(r.qids) for r in results)
    failed = sum(len(r.failed) for r in results)
    completed = [r for r in results if r.readback_s]
    metrics = {}
    if not completed:
        bench.problems.append("no batch completed; nothing to report")
    elif tracer is None:
        cpu_bound = workload.run["backend"] == "replay"
        metrics = {
            name: (value, E2E_UNITS[name])
            for name, value in e2e_metrics(completed, questions, failed, cpu_bound).items()
        }
    else:
        delay = workloads.STUB_DELAY_S if workload.run["backend"] == "wire" else 0.0
        layer = tracing.layer_metrics(tracer, questions, delay)
        raw, _, _ = timings(completed, scaled=False, cpu_bound=False)
        layer["bench.questions_per_s"] = raw["questions_per_s"]
        layer["bench.question_s"] = statistics.fmean(x for r in completed for x, _ in r.latencies)
        layer["bench.reference_ms"] = 1000 * statistics.median(r.reference_s for r in completed)
        metrics = {name: (value, layer_unit(name)) for name, value in layer.items()}
        tracer.write(OUT_DIR / f"{workload.name}.spans")
    shutil.rmtree(root, ignore_errors=True)

    for problem in bench.problems[:50]:
        print(f"bench: FAILED CHECK: {problem}", file=sys.stderr)
    print(f"# {workload.name} seed={args.seed} trace={args.trace} batches={len(results)} "
          f"questions={questions} measured={measured:.2f}s", flush=True)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    correct = not bench.problems
    print(json.dumps({
        "correct": correct,
        "attempted": questions,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
