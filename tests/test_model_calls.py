"""The model-call protocol: few-shot blocks, and each call site's fallback
for a reply that never parses and for a transport failure."""

import pytest

from helpers import fan_graph, krt39_graph, krt39_question
from graphreason.agent import Scratchpad, run_agent_step
from graphreason.costs import CostCounters
from graphreason.evaluation import ERROR_WRONG_STEP, classify_error, judge_correct
from graphreason.explore import (
    ExplorationState,
    end_check,
    extract_entities,
    prune_entities,
    prune_relations,
    search_attributes,
)
from graphreason.llm import (
    MAX_TRANSPORT_RETRIES,
    ReplayMismatchError,
    TransportError,
    request_for,
)
from graphreason.prompts import PROMPT_TEMPLATES, load_examples, render
from graphreason.strategies import (
    STATUS_ACTIVE,
    Evidence,
    SearchConfig,
    ThoughtState,
    evaluate_score,
    evaluate_select,
    expand_child,
    merge_pair,
)
from graphreason.traces import TraceRecord

# --- few-shot blocks ---------------------------------------------------------


@pytest.mark.parametrize("template", sorted(PROMPT_TEMPLATES))
def test_request_for_fills_the_few_shot_block(template):
    spec = PROMPT_TEMPLATES[template]
    variables = {name: f"<{name}>" for name in spec.required_placeholders - {"examples"}}
    prompt = request_for(template, variables, tag="probe", domain="synthetic").prompt
    if "examples" in spec.required_placeholders:
        block = load_examples(template, "synthetic")
        assert block.strip()
        assert block in prompt
    else:
        assert prompt == render(spec, variables)


def test_only_the_judge_templates_take_no_few_shot_block():
    zero_shot = {
        name for name, spec in PROMPT_TEMPLATES.items()
        if "examples" not in spec.required_placeholders
    }
    assert zero_shot == {"judge_correctness", "judge_error_class"}


# --- fallbacks ---------------------------------------------------------------

# Blank is the one reply that no parser accepts: it has no bracketed span, no
# number, no action marker, no Finish span, and no merge thought.
UNPARSEABLE = " \n"

GRAPH = krt39_graph()
QUESTION = krt39_question()
HEAD = "390792"
RELATION = "Anatomy-expresses-Gene"
# One more relation and tail than an expansion keeps, so each fallback is capped.
RELATIONS = [RELATION, "r-two", "r-three", "r-four"]
FAN = fan_graph(6)
TAILS = FAN.nodes[HEAD].out_edges[RELATION]


class Unparseable:
    """Answers every call with a blank reply, except tags given a reply;
    every attempt at a call tagged ``fail`` raises ``error``."""

    def __init__(self, fail=None, error=TransportError, **replies):
        self.fail = fail
        self.error = error
        self.replies = replies

    def raw_complete(self, request):
        if request.tag == self.fail:
            raise self.error("injected")
        return self.replies.get(request.tag, UNPARSEABLE)


def states(count):
    return [
        ThoughtState(
            id=sid,
            depth=1,
            thought=f"thought {sid}",
            evidence=Evidence(thought_log=[f"thought {sid}"]),
            parents=(0,),
        )
        for sid in range(1, count + 1)
    ]


def agent_step(backend, counters):
    pad = Scratchpad()
    answer = run_agent_step(pad, QUESTION, GRAPH, backend, counters)
    return answer, [step.malformed for step in pad.steps]


def score(backend, counters):
    candidates = states(2)
    kept = evaluate_score(candidates, 1, QUESTION, backend, counters)
    return [c.id for c in kept], [c.score for c in candidates]


def merge(backend, counters):
    a, b = states(2)
    thought = merge_pair(a, b, QUESTION, backend, counters)
    return thought, a.status, b.status


def classify(backend, counters):
    trace = TraceRecord(
        qid=QUESTION.qid,
        question={},
        config={},
        states=[],
        frontier=[],
        answer="head",
        termination="finished",
        counters={},
    )
    return classify_error(trace, QUESTION, backend, counters)


def answer_extraction(backend, counters):
    """An explore child whose inherited evidence is already sufficient goes
    straight to answer extraction after its (empty) extraction round."""
    parent = ThoughtState(
        id=0,
        depth=0,
        thought=QUESTION.text,
        evidence=Evidence(exploration=ExplorationState(sufficient=True)),
        parents=(),
    )
    config = SearchConfig(strategy="tot", interaction="explore")
    backend.replies["thought"] = "Look at the skin."
    child = expand_child(parent, QUESTION, GRAPH, backend, counters, config, child_id=1)
    return child.status, child.evidence.answer


def reasked(tag, calls=1):
    return {tag: calls, tag + ":reask": calls}


FALLBACKS = [
    pytest.param(agent_step, (None, [True]), reasked("thought"), id="agent-step"),
    pytest.param(
        lambda b, c: extract_entities("KRT39 in skin", b, c, QUESTION.domain),
        [],
        reasked("extract"),
        id="extract-entities",
    ),
    pytest.param(
        lambda b, c: prune_relations(QUESTION, HEAD, RELATIONS, GRAPH, b, c),
        RELATIONS[:3],
        reasked("prune_relations"),
        id="prune-relations",
    ),
    pytest.param(
        lambda b, c: [
            t.tail_id for t in prune_entities(QUESTION, HEAD, RELATION, TAILS, FAN, b, c)
        ],
        TAILS[:5],
        reasked("prune_entities"),
        id="prune-entities",
    ),
    pytest.param(
        lambda b, c: search_attributes(QUESTION, HEAD, b, c, GRAPH),
        [],
        reasked("attributes"),
        id="search-attributes",
    ),
    pytest.param(
        lambda b, c: end_check(QUESTION, ExplorationState(), b, c),
        False,
        reasked("end_check"),
        id="end-check",
    ),
    pytest.param(
        lambda b, c: [s.id for s in evaluate_select(states(3), 2, QUESTION, b, c)],
        [1, 2],
        reasked("select"),
        id="evaluate-select",
    ),
    pytest.param(score, ([1], [0.0, 0.0]), reasked("score", 2), id="score-votes"),
    pytest.param(merge, (None, STATUS_ACTIVE, STATUS_ACTIVE), reasked("merge"), id="merge-pair"),
    pytest.param(
        answer_extraction,
        (STATUS_ACTIVE, None),
        {"thought": 1, **reasked("extract"), **reasked("answer")},
        id="answer-extraction",
    ),
    pytest.param(
        lambda b, c: judge_correct(QUESTION, "head", b, c), None, reasked("judge"), id="judge"
    ),
    pytest.param(classify, ERROR_WRONG_STEP, reasked("judge"), id="classify-error"),
]


@pytest.mark.parametrize("call, fallback, calls", FALLBACKS)
def test_a_reply_that_never_parses_gets_the_documented_fallback(call, fallback, calls):
    counters = CostCounters()
    assert call(Unparseable(), counters) == fallback
    assert counters.llm_calls_by_tag == calls


# The tag each call site that parses its reply meters its calls under. Agent
# steps are generation: a transport failure there prunes the child instead.
SITE_TAGS = {
    "extract-entities": "extract",
    "prune-relations": "prune_relations",
    "prune-entities": "prune_entities",
    "search-attributes": "attributes",
    "end-check": "end_check",
    "evaluate-select": "select",
    "score-votes": "score",
    "merge-pair": "merge",
    "answer-extraction": "answer",
    "judge": "judge",
    "classify-error": "judge",
}
PARSING_SITES = [
    pytest.param(*param.values, SITE_TAGS[param.id], id=param.id)
    for param in FALLBACKS
    if param.id in SITE_TAGS
]


@pytest.mark.parametrize("call, fallback, calls, tag", PARSING_SITES)
def test_a_transport_failure_after_the_retries_gets_the_same_fallback(
    call, fallback, calls, tag
):
    counters = CostCounters()
    assert call(Unparseable(fail=tag), counters) == fallback
    # The failed call is not re-asked; every other call is metered as before.
    assert counters.llm_calls_by_tag == {t: n for t, n in calls.items() if t != tag + ":reask"}
    assert counters.transport_retries == MAX_TRANSPORT_RETRIES * calls[tag]


@pytest.mark.parametrize("call, fallback, calls, tag", PARSING_SITES)
def test_a_replay_mismatch_still_propagates_from_every_site(call, fallback, calls, tag):
    with pytest.raises(ReplayMismatchError):
        call(Unparseable(fail=tag, error=ReplayMismatchError), CostCounters())
