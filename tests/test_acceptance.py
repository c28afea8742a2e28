"""Acceptance gate: nine pass/fail criteria over the whole engine.

Each test prints one ``ACCEPTANCE <n> <name>: PASS`` line when its criterion
holds; any assertion failure fails the gate. Tolerances and budgets are
pinned as constants below.
"""

import json
import os
import random
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from helpers import (
    TEMPLATE_MATCHERS,
    assert_rebuilds,
    closure_oracle,
    golden_agent_entries,
    golden_explore_entries,
    krt39_graph,
    krt39_question,
    lcs_f1_oracle,
    permissive_backend,
    permissive_entries,
    synthetic_question,
    under_caps,
    write_question_file,
    write_replay_script,
)
from graphreason.cli import main as cli_main
from graphreason.costs import CostCounters, bound_for, check
from graphreason.evaluation import Question, classify_error, rouge_l
from graphreason.explore import ExplorationState, explore
from graphreason.kg import SyntheticGraphSpec, generate_synthetic_graph
from graphreason.llm import ReplayBackend, ReplayEntry
from graphreason.strategies import (
    SearchConfig,
    ThoughtState,
    evaluate_score,
    evaluate_select,
    run_search,
)
from graphreason.textops import tokenize
from graphreason.traces import TraceRecord, build_trace, validate_trace

ROUGE_TOL = 1e-12
GOLDEN_TIME_BUDGET_S = 1.0
GRID_TIME_BUDGET_S = 30.0
ORACLE_PAIRS = 1000
ORACLE_GRAPHS = 20
STRUCTURE_RUNS = 520
SCORE_SHUFFLES = 100

LIVE_ENDPOINT = os.environ.get("GRAPHREASON_SMOKE_ENDPOINT")
LIVE_MODEL = os.environ.get("GRAPHREASON_SMOKE_MODEL")


def announce(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} {name}: PASS")


def run_permissive(config: SearchConfig, *, finish: bool = False, seed: int = 11):
    question = synthetic_question()
    backend = permissive_backend(agent_finish=finish, explore_finish=finish)
    result = run_search(question, config, generate_synthetic_graph(seed), backend)
    eval_block = (
        {"rouge_l": rouge_l(result.answer, question.gold_answer)}
        if result.answer is not None
        else {}
    )
    return build_trace(question, {"strategy": config.strategy}, result, eval_block)


# --------------------------------------------------------------------------
# 1. Golden-trace fidelity
# --------------------------------------------------------------------------


def test_acceptance_1_golden_traces():
    started = time.perf_counter()
    question = krt39_question()
    graph = krt39_graph()

    # Agent-driven chain: four steps, each an exact transcript line.
    backend = ReplayBackend(golden_agent_entries(), strict=True)
    result = run_search(
        question, SearchConfig(strategy="cot", interaction="agent", d_max=10), graph, backend
    )
    counters = result.counters
    assert result.answer == "head, skin of body"
    assert result.termination == "finished"
    assert backend.remaining() == 0

    final = result.states[max(result.states)]
    pad = final.evidence.scratchpad
    # Each state of the chain writes only the step it added, numbered by
    # its position in the whole scratchpad.
    trace = build_trace(question, {}, result)
    assert_rebuilds(trace.as_dict(), result)
    rows = trace.states
    lineage = [final.id]
    while result.states[lineage[-1]].parents != (0,):
        lineage.append(result.states[lineage[-1]].parents[0])
    indices = [[row["index"] for row in rows[sid]["evidence"]["scratchpad"]] for sid in lineage]
    assert indices[::-1] == [[1], [2], [3], [4]]
    assert [s.thought for s in pad.steps] == [
        "The question is related to a gene node (KRT39). "
        "We need to find this node in the graph.",
        "We need to check the 'Anatomy-expresses-Gene' neighbors of this gene node.",
        "Retrieve names of the anatomy nodes.",
        "These are the anatomy terms expressed by the gene.",
    ]
    assert [s.raw_action for s in pad.steps] == [
        "RetrieveNode[KRT39]",
        "NeighbourCheck[390792, Anatomy-expresses-Gene]",
        "NodeFeature[UBERON:0000033, name], NodeFeature[UBERON:0002097, name]",
        "Finish[head, skin of body]",
    ]
    assert [s.observations for s in pad.steps] == [
        ("The ID of the node is 390792.",),
        ("The neighbors are ['UBERON:0000033', 'UBERON:0002097'].",),
        ("UBERON:0000033 -> head", "UBERON:0002097 -> skin of body"),
        (),
    ]
    assert counters.llm_calls_by_tag == {"thought": 4}
    assert counters.kg_ops_by_kind == {
        "retrieve_node": 1,
        "neighbor_check": 1,
        "node_feature": 2,
    }
    assert rouge_l(result.answer, question.gold_answer) == pytest.approx(1.0)

    # Exploration-driven chain: one search harvesting both triples.
    backend = ReplayBackend(golden_explore_entries(), strict=True)
    result = run_search(
        question, SearchConfig(strategy="cot", interaction="explore", d_max=10), graph, backend
    )
    counters = result.counters
    assert result.answer == "head, skin of body"
    assert backend.remaining() == 0
    # The trace's anchors and rounds rebuild each seen map, in order.
    assert_rebuilds(build_trace(question, {}, result).as_dict(), result)

    final = result.states[max(result.states)]
    triples = final.evidence.exploration.found_triples.values()
    found = {(t.head_name, t.relation, t.tail_name) for t in triples}
    assert found == {
        ("KRT39", "Anatomy-expresses-Gene", "head"),
        ("KRT39", "Anatomy-expresses-Gene", "skin of body"),
    }
    assert counters.llm_calls_by_tag == {
        "thought": 1,
        "extract": 1,
        "prune_relations": 1,
        "prune_entities": 1,
        "end_check": 1,
        "answer": 1,
    }
    assert counters.kg_ops_by_kind == {
        "retrieve_node": 1,
        "node_fetch": 1,
        "neighbor_check": 1,
    }
    assert counters.explore_searches == 1
    assert counters.explore_search_cost_max == counters.kg_total()

    elapsed = time.perf_counter() - started
    assert elapsed < GOLDEN_TIME_BUDGET_S
    announce(1, "golden-trace fidelity")


# --------------------------------------------------------------------------
# 2. Overlap-metric oracle equivalence
# --------------------------------------------------------------------------


def test_acceptance_2_rouge_oracle():
    assert rouge_l("head", "head, skin of body") == pytest.approx(0.4, abs=0)

    rng = random.Random(8126)
    vocab = ["alpha", "beta", "gamma", "delta", "head", "skin", "body", "of", "x9"]
    for _ in range(ORACLE_PAIRS):
        candidate = " ".join(rng.choices(vocab, k=rng.randrange(0, 31)))
        reference = " ".join(rng.choices(vocab, k=rng.randrange(0, 31)))
        expected = lcs_f1_oracle(tokenize(candidate), tokenize(reference))
        assert abs(rouge_l(candidate, reference) - expected) <= ROUGE_TOL
    announce(2, "rouge-l oracle equivalence")


# --------------------------------------------------------------------------
# 3. Cost-bound conformance over the parameter grid
# --------------------------------------------------------------------------


def expected_meters(strategy: str, k: int, t: int, d_max: int) -> tuple[int, int]:
    """Round-by-round expansion count: the beam caps what the bound inflates."""
    if strategy == "cot":
        return d_max, 0
    generation = merges = 0
    retained = 1
    for _ in range(d_max):
        children = k * retained
        generation += children
        paired = children // 2 if strategy == "got" else 0
        merges += paired
        retained = min(t, children - paired)
    return generation, merges


def test_acceptance_3_cost_grid():
    started = time.perf_counter()
    question = synthetic_question()
    graph = generate_synthetic_graph(11)
    meters: dict[tuple, tuple[int, int]] = {}

    for strategy in ("cot", "tot", "got"):
        for interaction in ("agent", "explore"):
            for k in (1, 2, 3):
                for t in (1, 2, 3):
                    for d_max in (1, 2, 3, 5, 10):
                        config = SearchConfig(
                            strategy=strategy, interaction=interaction, k=k, t=t, d_max=d_max
                        )
                        key = (strategy, interaction, config.k, config.t, config.d_max)
                        if key in meters:
                            continue  # cot pins k=t=1; identical cells rerun nothing
                        if strategy != "cot" and d_max > 3:
                            continue  # the chain alone is cheap enough to run deep
                        result = run_search(question, config, graph, permissive_backend())
                        counters = result.counters
                        assert result.termination == "step_limit"
                        assert_rebuilds(build_trace(question, {}, result).as_dict(), result)

                        bound = bound_for(config, n=d_max, d=config.search_depth)
                        verdict = check(counters, bound)
                        assert verdict.ok, verdict.violations

                        generation, merges = expected_meters(
                            strategy, config.k, config.t, config.d_max
                        )
                        assert counters.generation_calls() == generation
                        assert counters.merge_attempts() == merges
                        if strategy == "cot":
                            assert generation == d_max == bound.generation_call_bound
                        elif strategy == "tot":
                            tight = t == 1 or d_max == 1 or (d_max == 2 and k >= t)
                            if tight:
                                assert generation == bound.generation_call_bound
                            else:
                                assert generation < bound.generation_call_bound
                        else:
                            assert generation <= bound.generation_call_bound
                            assert merges <= bound.merge_attempt_bound
                        meters[key] = (generation, merges)

    # Frozen reference cells.
    assert meters[("tot", "agent", 3, 3, 2)] == (12, 0)
    assert meters[("got", "agent", 3, 3, 2)] == (9, 4)
    assert meters[("cot", "agent", 1, 1, 10)] == (10, 0)
    frozen = bound_for(
        SearchConfig(strategy="got", k=3, t=3, d_max=2), n=2, d=3
    )
    assert frozen.generation_call_bound == 12
    assert frozen.merge_attempt_bound == 17

    elapsed = time.perf_counter() - started
    assert elapsed < GRID_TIME_BUDGET_S
    announce(3, "cost-bound conformance")


# --------------------------------------------------------------------------
# 4. Exploration closure-oracle equivalence
# --------------------------------------------------------------------------


def test_acceptance_4_exploration_oracle():
    rng = random.Random(31559)
    keep_all_backend = ReplayBackend(
        [
            ReplayEntry(TEMPLATE_MATCHERS["prune_relations"], "keep everything please"),
            ReplayEntry(TEMPLATE_MATCHERS["prune_entities"], "keep everything please"),
            ReplayEntry(TEMPLATE_MATCHERS["search_end"], "[No] Keep exploring."),
        ]
    )
    for instance in range(ORACLE_GRAPHS):
        spec = SyntheticGraphSpec(
            node_types=("alpha", "beta"),
            relations=("linked-to", "derived-from"),
            node_count=rng.randrange(5, 51),
            edges_per_node=rng.randrange(1, 4),
        )
        graph = generate_synthetic_graph(rng.randrange(10**6), spec)
        # Under the caps a prune that keeps everything keeps every edge, so
        # the oracle is the plain closure.
        assert under_caps(graph), instance
        anchors = rng.sample(sorted(graph.nodes), k=min(2, len(graph.nodes)))
        for depth in (1, 2, 3):
            state = ExplorationState()
            explore(
                synthetic_question(),
                anchors,
                state,
                depth,
                graph,
                keep_all_backend,
                CostCounters(),
            )
            oracle_triples, oracle_entities = closure_oracle(graph, anchors, depth)
            found = {(t.head_id, t.relation, t.tail_id) for t in state.found_triples.values()}
            assert found == oracle_triples, (instance, depth)
            assert set(state.seen_entities) == oracle_entities, (instance, depth)
    announce(4, "exploration oracle equivalence")


# --------------------------------------------------------------------------
# 5. Search-structure invariants under randomized configurations
# --------------------------------------------------------------------------


def assert_structure(data: dict, config: SearchConfig) -> None:
    states = data["states"]
    assert [s["id"] for s in states] == list(range(len(states)))
    by_id = {s["id"]: s for s in states}
    children: dict[int, list[int]] = {}
    for state in states:
        for parent in state["parents"]:
            children.setdefault(parent, []).append(state["id"])

    for state in states:
        if state["status"] == "pruned":
            assert state["id"] not in children  # pruned states never re-enter
        parents = state["parents"]
        if len(parents) == 1:
            assert by_id[parents[0]]["status"] == "active"
        elif len(parents) == 2:
            assert config.strategy == "got"
            for parent in parents:
                assert by_id[parent]["status"] == "merged_away"
                assert by_id[parent]["depth"] == state["depth"]
                assert children[parent] == [state["id"]]

    for parent, kids in children.items():
        single = [k for k in kids if len(by_id[k]["parents"]) == 1]
        assert len(single) <= config.k

    assert len(data["frontier"]) <= config.t
    assert (data["answer"] is not None) == (data["termination"] == "finished")
    if data["answer"] is not None:
        finished = [
            s for s in states if s["id"] in data["frontier"] and s["status"] == "finished"
        ]
        assert any(s["evidence"]["answer"] == data["answer"] for s in finished)


def test_acceptance_5_structure_invariants():
    rng = random.Random(20260819)
    ran = 0
    for _ in range(STRUCTURE_RUNS):
        config = SearchConfig(
            strategy=rng.choice(("cot", "tot", "got")),
            interaction=rng.choice(("agent", "explore")),
            evaluator=rng.choice(("select", "score")),
            k=rng.randrange(1, 4),
            t=rng.randrange(1, 4),
            d_max=rng.randrange(1, 4),
        )
        trace = run_permissive(config, finish=rng.random() < 0.5)
        data = trace.as_dict()
        assert validate_trace(data) == [], (config, validate_trace(data))
        assert_structure(data, config)
        ran += 1
    assert ran >= 500

    # A single chain and a degenerate tree walk the same path.
    for interaction in ("agent", "explore"):
        for finish in (False, True):
            for limit in (1, 2, 3):
                chain = run_permissive(
                    SearchConfig(strategy="cot", interaction=interaction, d_max=limit),
                    finish=finish,
                )
                degenerate = run_permissive(
                    SearchConfig(
                        strategy="tot", interaction=interaction, k=1, t=1, d_max=limit
                    ),
                    finish=finish,
                )
                chain_dict = chain.as_dict()
                degenerate_dict = degenerate.as_dict()
                chain_dict["config"] = degenerate_dict["config"] = {}
                assert chain_dict == degenerate_dict
    announce(5, "search-structure invariants")


# --------------------------------------------------------------------------
# 6. Evaluator contracts
# --------------------------------------------------------------------------


def candidate(cid: int, phrase: str) -> ThoughtState:
    from graphreason.strategies import Evidence

    return ThoughtState(
        id=cid,
        depth=1,
        thought=phrase,
        evidence=Evidence(thought_log=[phrase]),
        parents=(0,),
    )


def test_acceptance_6_evaluator_contracts():
    question = synthetic_question()

    # Scored retention is invariant to presentation order.
    phrases = {
        1: ("whisper kite", "0.2"),
        2: ("ember lattice", "0.9"),
        3: ("quartz meadow", "0.4"),
        4: ("velvet anchor", "0.7"),
        5: ("copper stream", "0.7"),
        6: ("shadow orchard", "0.1"),
    }
    backend = ReplayBackend(
        [ReplayEntry(phrase, f"Score: {value}") for phrase, value in phrases.values()]
    )
    rng = random.Random(77)
    baseline = None
    for _ in range(SCORE_SHUFFLES):
        pool = [candidate(cid, phrase) for cid, (phrase, _) in phrases.items()]
        rng.shuffle(pool)
        retained = evaluate_score(pool, 3, question, backend, CostCounters())
        ids = sorted(state.id for state in retained)
        if baseline is None:
            baseline = ids
        assert ids == baseline
    assert baseline == [2, 4, 5]  # 0.9, then the 0.7 tie broken toward id 4

    # Tied scores always break toward creation order.
    flat = ReplayBackend([ReplayEntry("Generate a score", "Score: 0.5")])
    pool = [candidate(cid, f"flat thought {cid}") for cid in (5, 3, 8, 1)]
    retained = evaluate_score(pool, 2, question, flat, CostCounters())
    assert sorted(state.id for state in retained) == [1, 3]

    # A selection vote that never parses still fills exactly t distinct slots.
    garbage = ReplayBackend([ReplayEntry("The best choice is", "no idea, sorry")])
    for t in (1, 2, 3):
        pool = [candidate(cid, f"slot thought {cid}") for cid in (4, 9, 2, 7)]
        counters = CostCounters()
        retained = evaluate_select(pool, t, question, garbage, counters)
        assert [state.id for state in retained] == [4, 9, 2, 7][:t]
        assert len({state.id for state in retained}) == t
        assert counters.llm_calls_by_tag == {"select": 1, "select:reask": 1}
    announce(6, "evaluator contracts")


# --------------------------------------------------------------------------
# 7. Determinism and replayability of the full pipeline
# --------------------------------------------------------------------------


def test_acceptance_7_determinism(tmp_path):
    runner = CliRunner()
    graph_path = tmp_path / "graph.kg"
    assert (
        runner.invoke(
            cli_main, ["gen-graph", "--seed", "11", "--out", str(graph_path)]
        ).exit_code
        == 0
    )
    questions_path = write_question_file(
        tmp_path / "questions.lines",
        [synthetic_question("q1"), synthetic_question("q2")],
    )
    script_path = write_replay_script(
        tmp_path / "script.replay", permissive_entries(agent_finish=True)
    )

    def invoke_run(out: Path, *extra: str) -> None:
        result = runner.invoke(
            cli_main,
            [
                "run",
                "--kg", str(graph_path),
                "--questions", str(questions_path),
                "--out", str(out),
                "--replay", str(script_path),
                *extra,
            ],
        )
        assert result.exit_code == 0, result.output

    def tree(root: Path) -> dict[str, bytes]:
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    for extra in ((), ("--strategy", "got", "--interaction", "explore", "--judge", "llm")):
        first, second = tmp_path / f"a{len(extra)}", tmp_path / f"b{len(extra)}"
        invoke_run(first, *extra)
        invoke_run(second, *extra)
        artifacts = tree(first)
        assert artifacts == tree(second)
        assert {"results.lines", "report.table", "traces/q1.trace", "traces/q2.trace"} <= set(
            artifacts
        )

        rescored = tmp_path / f"rescored{len(extra)}"
        result = runner.invoke(
            cli_main,
            [
                "score",
                "--traces", str(first / "traces"),
                "--questions", str(questions_path),
                "--out", str(rescored),
            ],
        )
        assert result.exit_code == 0, result.output
        assert (rescored / "results.lines").read_bytes() == artifacts["results.lines"]
    announce(7, "determinism and replayability")


# --------------------------------------------------------------------------
# 8. Error-taxonomy mechanics
# --------------------------------------------------------------------------


class PoisonBackend:
    def raw_complete(self, request):  # pragma: no cover - defensive
        raise AssertionError(f"unexpected model call: {request.tag}")


def taxonomy_trace(*, termination, answer, judge, observation):
    states = [
        {
            "id": 0,
            "depth": 0,
            "thought": "root",
            "parents": [],
            "status": "active",
            "score": None,
            "evidence": {
                "triples": [],
                "attributes": [],
                "thought_log": [],
                "answer": None,
                "scratchpad": [
                    {"index": 1, "observations": [observation]}
                ] if observation else None,
                "exploration": None,
            },
        }
    ]
    return TraceRecord(
        qid="t1",
        question={
            "text": "What anatomy can be expressed by gene KRT39?",
            "gold_answer": "head, skin of body",
            "difficulty": "easy",
            "domain": "biomedical",
        },
        config={"strategy": "cot"},
        states=states,
        frontier=[0],
        answer=answer,
        termination=termination,
        counters={},
        eval={"judge_correct": judge},
    )


def test_acceptance_8_error_taxonomy():
    question = krt39_question()

    # Mechanical classes cost zero judge calls.
    limit_hit = taxonomy_trace(
        termination="step_limit", answer=None, judge=None, observation=None
    )
    counters = CostCounters()
    assert classify_error(limit_hit, question, PoisonBackend(), counters) == "reached_limit"
    assert counters.llm_total() == 0

    judged_right = taxonomy_trace(
        termination="finished", answer="head, skin of body", judge=True, observation=None
    )
    counters = CostCounters()
    assert classify_error(judged_right, question, PoisonBackend(), counters) == "correct"
    assert counters.llm_total() == 0

    # The evidence judge separates the two genuine failure modes.
    judge_script = ReplayBackend(
        [
            ReplayEntry(
                "The neighbors are ['head', 'skin of body']",
                "[found_not_returned] The evidence names the gold terms.",
            ),
            ReplayEntry(
                "No node matches the query",
                "[wrong_step] The search never reached the gene.",
            ),
        ]
    )

    saw_gold = taxonomy_trace(
        termination="finished",
        answer="the liver",
        judge=False,
        observation="The neighbors are ['head', 'skin of body'].",
    )
    counters = CostCounters()
    assert classify_error(saw_gold, question, judge_script, counters) == "found_not_returned"
    assert counters.llm_calls_by_tag == {"judge": 1}

    lost = taxonomy_trace(
        termination="finished",
        answer="the liver",
        judge=False,
        observation="No node matches the query 'krt40'.",
    )
    counters = CostCounters()
    assert classify_error(lost, question, judge_script, counters) == "wrong_step"
    assert counters.llm_calls_by_tag == {"judge": 1}
    announce(8, "error-taxonomy mechanics")


# --------------------------------------------------------------------------
# 9. Live-wire smoke (environment-gated; excluded by default)
# --------------------------------------------------------------------------


@pytest.mark.skipif(
    not (LIVE_ENDPOINT and LIVE_MODEL),
    reason="live smoke needs GRAPHREASON_SMOKE_ENDPOINT and GRAPHREASON_SMOKE_MODEL",
)
def test_acceptance_9_live_wire_smoke(tmp_path):
    from graphreason.runner import RunConfig, run_experiment
    from graphreason.kg import save_graph

    graph_path = tmp_path / "graph.kg"
    save_graph(generate_synthetic_graph(11), graph_path)
    questions = [synthetic_question(f"q{i}") for i in range(1, 6)]
    questions_path = write_question_file(tmp_path / "questions.lines", questions)

    config = RunConfig(
        kg_path=str(graph_path),
        questions_path=str(questions_path),
        out_dir=str(tmp_path / "out"),
        strategy="cot",
        interaction="agent",
        max_depth=4,
        backend="wire",
        endpoint=LIVE_ENDPOINT,
        model=LIVE_MODEL,
    )
    report = run_experiment(config)
    assert report.overall.count == 5

    search = config.search_config()
    bound = bound_for(search, n=search.d_max, d=search.search_depth)
    for question in questions:
        data = json.loads(
            (tmp_path / "out" / "traces" / f"{question.qid}.trace").read_text()
        )
        assert validate_trace(data) == []
        assert data["answer"]
        counters = CostCounters()
        for tag, calls in data["counters"]["llm_calls_by_tag"].items():
            for _ in range(calls):
                counters.record_llm_call(tag)
        for kind, ops in data["counters"]["kg_ops_by_kind"].items():
            for _ in range(ops):
                counters.record_kg_op(kind)
        counters.explore_searches = data["counters"]["explore_searches"]
        counters.explore_search_cost_max = data["counters"]["explore_search_cost_max"]
        verdict = check(counters, bound)
        assert verdict.ok, verdict.violations
    announce(9, "live-wire smoke")
