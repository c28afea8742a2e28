"""Action parsing, execution, and the step loop of the graph agent."""

from dataclasses import FrozenInstanceError

import pytest

from graphreason.agent import (
    ACTION_REMINDER,
    AgentAction,
    AgentStep,
    MalformedActionError,
    Scratchpad,
    execute_action,
    parse_actions,
    run_agent_step,
)
from graphreason.costs import MAX_ACTIONS_PER_STEP, CostCounters
from graphreason.llm import ReplayBackend, ReplayEntry
from graphreason.strategies import SearchConfig, run_search

from helpers import krt39_graph, krt39_question


def test_parse_single_action():
    actions = parse_actions("Thought 1: look it up.\nAction 1: RetrieveNode[KRT39]")
    assert actions == [AgentAction("RetrieveNode", ("KRT39",))]


def test_parse_accepts_bare_action_marker():
    actions = parse_actions("Action: NodeDegree[n1, rel]")
    assert actions == [AgentAction("NodeDegree", ("n1", "rel"))]


def test_parse_multiple_actions_on_one_line():
    actions = parse_actions(
        "Action 3: NodeFeature[UBERON:0000033, name], NodeFeature[UBERON:0002097, name]"
    )
    assert [a.args[0] for a in actions] == ["UBERON:0000033", "UBERON:0002097"]


def test_parse_normalizes_alternate_spelling():
    actions = parse_actions("Action 2: NeighbourCheck[390792, Anatomy-expresses-Gene]")
    assert actions[0].kind == "NeighborCheck"


def test_parse_finish_keeps_payload_whole():
    actions = parse_actions("Action 4: Finish[head, skin of body]")
    assert actions == [AgentAction("Finish", ("head, skin of body",))]


def test_parse_finish_swallows_trailing_actions():
    actions = parse_actions("Action 1: Finish[x], RetrieveNode[y]")
    assert len(actions) == 1
    assert actions[0].kind == "Finish"


def test_parse_empty_finish_payload():
    actions = parse_actions("Action 1: Finish[]")
    assert actions == [AgentAction("Finish", ())]


def test_parse_ignores_lowercase_prose_brackets():
    actions = parse_actions("Action 1: RetrieveNode[x] since list[int] is prose")
    assert len(actions) == 1


@pytest.mark.parametrize(
    "reply",
    [
        "just musing, no marker",
        "Action 1: nothing useful",
        "Action 1: Summon[x]",
        "Action 1: RetrieveNode[a, b]",
        "Action 1: NodeFeature[only-one-arg]",
        "Action 1: RetrieveNode[unbalanced",
    ],
)
def test_parse_rejects_malformed_replies(reply):
    with pytest.raises(MalformedActionError):
        parse_actions(reply)


# --- execution and frozen observation formats --------------------------------


@pytest.fixture()
def graph():
    return krt39_graph()


@pytest.mark.parametrize(
    "action, expected, op",
    [
        (AgentAction("RetrieveNode", ("KRT39",)), "The ID of the node is 390792.", "retrieve_node"),
        (
            AgentAction("RetrieveNode", ("zzz qqq",)),
            "No node matches the query 'zzz qqq'.",
            "retrieve_node",
        ),
        (AgentAction("NodeFeature", ("UBERON:0000033", "name")), "UBERON:0000033 -> head", "node_feature"),
        (
            AgentAction("NodeFeature", ("390792", "blurb")),
            "Node 390792 has no feature 'blurb'.",
            "node_feature",
        ),
        (AgentAction("NodeFeature", ("ghost", "name")), "No such node: ghost.", "node_feature"),
        (
            AgentAction("NeighborCheck", ("390792", "Anatomy-expresses-Gene")),
            "The neighbors are ['UBERON:0000033', 'UBERON:0002097'].",
            "neighbor_check",
        ),
        (
            AgentAction("NeighborCheck", ("390792", "no-such-rel")),
            "The neighbors are [].",
            "neighbor_check",
        ),
        (
            AgentAction("NodeDegree", ("390792", "Anatomy-expresses-Gene")),
            "The number of 'Anatomy-expresses-Gene' neighbors is 2.",
            "node_degree",
        ),
    ],
)
def test_execute_action_observations(graph, action, expected, op):
    counters = CostCounters()
    assert execute_action(graph, action, counters) == expected
    assert counters.kg_ops_by_kind == {op: 1}


def test_execute_finish_is_not_executable(graph):
    with pytest.raises(ValueError):
        execute_action(graph, AgentAction("Finish", ("x",)), CostCounters())


# --- the step loop ------------------------------------------------------------


def step_backend(*replies):
    """Each reply served in order; the prompt is ignored on purpose."""
    return ReplayBackend([ReplayEntry("", r) for r in replies], strict=True)


def test_step_records_thought_action_observation(graph):
    counters = CostCounters()
    pad = Scratchpad()
    result = run_agent_step(
        pad,
        krt39_question(),
        graph,
        step_backend("Thought 1: find the gene.\nAction 1: RetrieveNode[KRT39]"),
        counters,
    )
    assert result is None
    step = pad.steps[0]
    assert step.thought == "find the gene."
    assert step.raw_action == "RetrieveNode[KRT39]"
    assert step.observations == ("The ID of the node is 390792.",)
    assert counters.llm_calls_by_tag == {"thought": 1}


def test_step_finish_returns_outcome(graph):
    outcome = run_agent_step(
        Scratchpad(),
        krt39_question(),
        graph,
        step_backend("Thought 1: done.\nAction 1: Finish[head, skin of body]"),
        CostCounters(),
    )
    assert outcome == "head, skin of body"


def test_step_reasks_once_with_action_reminder(graph):
    class Recorder:
        def __init__(self):
            self.prompts = []
            self.replies = ["rambling with no action", "Thought: ok.\nAction 1: Finish[x]"]

        def raw_complete(self, request):
            self.prompts.append(request.prompt)
            return self.replies.pop(0)

    backend = Recorder()
    counters = CostCounters()
    outcome = run_agent_step(Scratchpad(), krt39_question(), graph, backend, counters)
    assert outcome == "x"
    assert backend.prompts[1].endswith(ACTION_REMINDER)
    assert counters.llm_calls_by_tag == {"thought": 1, "thought:reask": 1}


def test_step_malformed_twice_becomes_noop(graph):
    counters = CostCounters()
    pad = Scratchpad()
    result = run_agent_step(
        pad,
        krt39_question(),
        graph,
        step_backend("no action at all", "still no action"),
        counters,
    )
    assert result is None
    assert pad.steps[0].malformed
    assert pad.steps[0].observations == ()
    assert pad.steps[0].thought == "still no action"
    assert counters.kg_total() == 0
    assert "(malformed output; no operation executed)" in pad.render()


def test_step_caps_actions_per_step(graph):
    pad = Scratchpad()
    counters = CostCounters()
    assert MAX_ACTIONS_PER_STEP == 4
    reply = "Thought: scan.\nAction 1: " + ", ".join(
        ["NodeDegree[390792, Anatomy-expresses-Gene]"] * 5
    )
    run_agent_step(pad, krt39_question(), graph, step_backend(reply), counters)
    observations = pad.steps[0].observations
    assert observations[4] == "Action limit reached; NodeDegree was not executed."
    assert "limit" not in observations[3]
    assert counters.kg_total() == 4


def test_scratchpad_render_includes_step_numbers_and_cue(graph):
    pad = Scratchpad()
    run_agent_step(
        pad,
        krt39_question(),
        graph,
        step_backend("Thought 1: find it.\nAction 1: RetrieveNode[KRT39]"),
        CostCounters(),
    )
    rendered = pad.render(next_index=2)
    assert rendered.splitlines() == [
        "Thought 1: find it.",
        "Action 1: RetrieveNode[KRT39]",
        "Observation 1: The ID of the node is 390792.",
        "Thought 2:",
    ]


def test_steps_are_frozen():
    step = AgentStep("find it.", "RetrieveNode[KRT39]", (), ())
    with pytest.raises(FrozenInstanceError):
        step.observations = ("tampered",)


def test_scratchpad_clone_is_independent(graph):
    pad = Scratchpad()
    run_agent_step(
        pad,
        krt39_question(),
        graph,
        step_backend("Thought 1: find it.\nAction 1: RetrieveNode[KRT39]"),
        CostCounters(),
    )
    before = pad.render()
    copy = pad.clone()
    run_agent_step(
        copy,
        krt39_question(),
        graph,
        step_backend("Thought 2: count.\nAction 2: NodeDegree[390792, Anatomy-expresses-Gene]"),
        CostCounters(),
    )
    assert [s.thought for s in copy.steps] == ["find it.", "count."]
    assert copy.render().splitlines()[3] == "Thought 2: count."
    assert copy.steps[0] is pad.steps[0]  # shared, not copied
    assert len(pad.steps) == 1
    assert pad.render() == before


def test_scratchpad_merge_keeps_each_step_once_and_renumbers():
    look = AgentStep("find it.", "RetrieveNode[KRT39]", (), ("The ID of the node is 390792.",))
    count = AgentStep("count.", "NodeDegree[390792, r]", (), ("3",))
    again = AgentStep("find it.", "RetrieveNode[KRT39]", (), ())
    other = AgentStep("other.", "NodeFeature[390792, name]", (), ("KRT39",))
    a = Scratchpad(steps=[look, count, again])  # a repeat within one input
    b = Scratchpad(steps=[other, look])  # and one across the two
    before = (list(a.steps), list(b.steps))
    merged = Scratchpad.merge(a, b)
    assert [s.thought for s in merged.steps] == ["find it.", "count.", "other."]
    # The merged steps are the inputs' own frozen steps, numbered by position.
    assert all(m is s for m, s in zip(merged.steps, [look, count, other]))
    assert merged.render().splitlines()[-2:] == [
        "Action 3: NodeFeature[390792, name]",
        "Observation 3: KRT39",
    ]
    assert (a.steps, b.steps) == before
    assert Scratchpad.merge(Scratchpad(), b).steps == [other, look]


def test_cot_agent_search_stops_at_step_limit(graph):
    backend = ReplayBackend(
        [ReplayEntry("", "Thought: again.\nAction 1: NodeDegree[390792, Anatomy-expresses-Gene]")]
    )
    counters = CostCounters()
    result = run_search(
        krt39_question(), SearchConfig(strategy="cot", d_max=3), graph, backend, counters
    )
    assert result.answer is None
    assert result.termination == "step_limit"
    final = result.states[result.frontier[0]]
    assert len(final.evidence.scratchpad.steps) == 3
    assert counters.llm_calls_by_tag == {"thought": 3}
