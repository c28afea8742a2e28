"""Question bank, overlap scoring, judging, and aggregation."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import TEMPLATE_MATCHERS, lcs_f1_oracle
from graphreason.costs import CostCounters
from graphreason.evaluation import (
    ERROR_CLASSES,
    AggregateReport,
    EvalResult,
    Question,
    QuestionLoadError,
    aggregate,
    classify_error,
    judge_correct,
    load_questions,
    rouge_l,
)
from graphreason.llm import ReplayBackend, ReplayEntry
from graphreason.textops import tokenize
from graphreason.traces import TraceRecord


def make_trace(**overrides):
    fields = {
        "qid": "q1",
        "question": {
            "text": "Which entries are linked to beta 1?",
            "gold_answer": "alpha 2",
            "difficulty": "easy",
            "domain": "synthetic",
        },
        "config": {},
        "states": [],
        "frontier": [0],
        "answer": "alpha 2",
        "termination": "finished",
        "counters": {},
    }
    fields.update(overrides)
    return TraceRecord(**fields)


def judge_backend(reply, *more):
    entries = [ReplayEntry(match=TEMPLATE_MATCHERS["judge_correctness"], response=reply)]
    entries += [
        ReplayEntry(match=TEMPLATE_MATCHERS["judge_error_class"], response=r) for r in more
    ]
    return ReplayBackend(entries)


class PoisonBackend:
    """Fails the test if anything reaches it."""

    def raw_complete(self, request):  # pragma: no cover - defensive
        raise AssertionError(f"unexpected model call: {request.tag}")


class RecordingBackend:
    def __init__(self, responses):
        self.responses = list(responses)
        self.prompts = []

    def raw_complete(self, request):
        self.prompts.append(request.prompt)
        return self.responses.pop(0)


# ------------------------------------------------------------------ rouge


def test_rouge_hand_case():
    # One shared token out of 1 and 4: P=1, R=1/4, F1=0.4.
    assert rouge_l("head", "head, skin of body") == pytest.approx(0.4)


def test_rouge_identity_is_one():
    assert rouge_l("skin of body", "skin of body") == pytest.approx(1.0)


@pytest.mark.parametrize(
    "candidate,reference",
    [("", "head"), ("head", ""), ("", ""), ("...", "head"), ("liver", "head")],
)
def test_rouge_degenerate_pairs_are_zero(candidate, reference):
    assert rouge_l(candidate, reference) == 0.0


def test_rouge_folds_case_and_punctuation():
    assert rouge_l("HEAD!!!", "head") == pytest.approx(1.0)
    assert rouge_l("Skin, of; Body", "skin of body") == pytest.approx(1.0)


def test_rouge_respects_token_order():
    # Reversed tokens share a subsequence of length 1, not 2.
    assert rouge_l("body skin", "skin body") == pytest.approx(0.5)


def test_rouge_matches_the_oracle_on_random_pairs():
    rng = random.Random(417)
    vocab = ["alpha", "beta", "gamma", "delta", "head", "skin", "body", "of"]
    for _ in range(250):
        cand = " ".join(rng.choices(vocab, k=rng.randrange(0, 12)))
        ref = " ".join(rng.choices(vocab, k=rng.randrange(0, 12)))
        expected = lcs_f1_oracle(tokenize(cand), tokenize(ref))
        assert rouge_l(cand, ref) == pytest.approx(expected, abs=1e-12)


@given(st.text(max_size=40), st.text(max_size=40))
def test_rouge_is_bounded_and_total(candidate, reference):
    score = rouge_l(candidate, reference)
    assert 0.0 <= score <= 1.0


# -------------------------------------------------------------- questions


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_load_questions_round_trip(tmp_path):
    path = write_lines(
        tmp_path / "questions.lines",
        [
            '{"qid": "a", "question": "Who?", "answer": "him", "difficulty": "easy"}',
            "",
            '{"qid": "b", "question": "Where?", "answer": "there",'
            ' "difficulty": "hard", "domain": "biomedical"}',
        ],
    )
    questions = load_questions(path)
    assert [q.qid for q in questions] == ["a", "b"]
    assert questions[0].domain == "synthetic"
    assert questions[1].domain == "biomedical"
    assert questions[1].gold_answer == "there"


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("not json", ":1: invalid JSON"),
        ('["qid"]', "expected an object"),
        ('{"qid": "a", "question": "x", "answer": "y", "difficulty": "easy", "extra": 1}', "unknown fields ['extra']"),
        ('{"qid": "a", "question": "x"}', "missing fields ['answer', 'difficulty']"),
        ('{"qid": "a", "question": "x", "answer": "y", "difficulty": "brutal"}', "difficulty 'brutal'"),
        ('{"qid": "", "question": "x", "answer": "y", "difficulty": "easy"}', "qid must be nonempty"),
        ('{"qid": "a", "question": "", "answer": "y", "difficulty": "easy"}', "text must be nonempty"),
        ('{"qid": "../escaped", "question": "x", "answer": "y", "difficulty": "easy"}', "qid '../escaped' cannot be a file name"),
        ('{"qid": "a\\\\b", "question": "x", "answer": "y", "difficulty": "easy"}', "cannot be a file name"),
        ('{"qid": "a\\u0000b", "question": "x", "answer": "y", "difficulty": "easy"}', "cannot be a file name"),
        ('{"qid": ".", "question": "x", "answer": "y", "difficulty": "easy"}', "qid '.' cannot be a file name"),
        ('{"qid": "..", "question": "x", "answer": "y", "difficulty": "easy"}', "qid '..' cannot be a file name"),
        ('{"qid": null, "question": "x", "answer": "y", "difficulty": "easy"}', "qid must be a string, got null"),
        ('{"qid": 7, "question": "x", "answer": "y", "difficulty": "easy"}', "qid must be a string, got 7"),
        ('{"qid": "a", "question": "x", "answer": null, "difficulty": "easy"}', "answer must be a string, got null"),
        ('{"qid": "a", "question": ["x"], "answer": "y", "difficulty": "easy"}', 'question must be a string, got ["x"]'),
        ('{"qid": "a", "question": "x", "answer": "y", "difficulty": "easy", "domain": 1}', "domain must be a string, got 1"),
    ],
)
def test_load_questions_rejects_bad_lines(tmp_path, line, fragment):
    path = write_lines(tmp_path / "bad.lines", [line])
    with pytest.raises(QuestionLoadError, match="1: ") as err:
        load_questions(path)
    assert fragment in str(err.value)


def test_load_questions_names_the_duplicate(tmp_path):
    row = '{"qid": "dup", "question": "x", "answer": "y", "difficulty": "easy"}'
    path = write_lines(tmp_path / "dup.lines", [row, row])
    with pytest.raises(QuestionLoadError, match=r":2: duplicate qid 'dup'"):
        load_questions(path)


def test_a_line_that_is_not_utf8_is_reported_by_number(tmp_path):
    rows = [
        f'{{"qid": "{qid}", "question": "x", "answer": "y", "difficulty": "easy"}}'
        for qid in ("a", "b", "c")
    ]
    path = tmp_path / "bad.lines"
    path.write_bytes(("\n".join(rows[:2]) + "\n").encode("utf-8") + rows[2].encode("utf-8").replace(b"x", b"\xff"))
    with pytest.raises(QuestionLoadError) as err:
        load_questions(path)
    assert str(err.value) == f"{path}:3: not UTF-8 (invalid start byte)"
    path.write_bytes(b"\xff\xfe" + rows[0].encode("utf-16-le"))
    with pytest.raises(QuestionLoadError, match=r":1: not UTF-8"):
        load_questions(path)


def test_error_line_numbers_skip_blanks(tmp_path):
    path = write_lines(tmp_path / "gap.lines", ["", "", "broken"])
    with pytest.raises(QuestionLoadError, match=":3:"):
        load_questions(path)


# ------------------------------------------------------------- EvalResult


def test_eval_result_requires_rouge_iff_answer():
    with pytest.raises(ValueError, match="iff"):
        EvalResult(
            qid="q", answer="x", termination="finished", rouge_l=None,
            judge_correct=None, error_class=None, llm_calls=0, kg_ops=0,
        )
    with pytest.raises(ValueError, match="iff"):
        EvalResult(
            qid="q", answer=None, termination="step_limit", rouge_l=0.5,
            judge_correct=None, error_class=None, llm_calls=0, kg_ops=0,
        )


def test_eval_result_rejects_unknown_error_class():
    with pytest.raises(ValueError, match="gave_up"):
        EvalResult(
            qid="q", answer=None, termination="step_limit", rouge_l=None,
            judge_correct=None, error_class="gave_up", llm_calls=0, kg_ops=0,
        )


def test_eval_result_correct_needs_a_true_judge():
    with pytest.raises(ValueError, match="requires"):
        EvalResult(
            qid="q", answer="x", termination="finished", rouge_l=1.0,
            judge_correct=None, error_class="correct", llm_calls=0, kg_ops=0,
        )
    EvalResult(
        qid="q", answer="x", termination="finished", rouge_l=1.0,
        judge_correct=True, error_class="correct", llm_calls=0, kg_ops=0,
    )


def test_every_error_class_is_constructible():
    for cls in sorted(ERROR_CLASSES - {"correct"}):
        EvalResult(
            qid="q", answer=None, termination="step_limit", rouge_l=None,
            judge_correct=False, error_class=cls, llm_calls=0, kg_ops=0,
        )


# ------------------------------------------------------------------ judge


def question():
    return Question(
        qid="g1",
        text="Which anatomical structures express KRT39?",
        gold_answer="head, skin of body",
        difficulty="easy",
        domain="biomedical",
    )


def test_judge_parses_yes():
    counters = CostCounters()
    verdict = judge_correct(question(), "skin of body", judge_backend("[Yes] Same set."), counters)
    assert verdict is True
    assert counters.llm_calls_by_tag == {"judge": 1}


def test_judge_parses_no():
    counters = CostCounters()
    verdict = judge_correct(question(), "the liver", judge_backend("[No] Different."), counters)
    assert verdict is False


def test_judge_gives_up_after_one_reask():
    backend = RecordingBackend(["hmm", "still hmm"])
    counters = CostCounters()
    assert judge_correct(question(), "the liver", backend, counters) is None
    assert counters.llm_calls_by_tag == {"judge": 1, "judge:reask": 1}


def test_judge_prompt_carries_both_answers():
    backend = RecordingBackend(["[Yes] fine"])
    judge_correct(question(), "integument of the head", backend, CostCounters())
    prompt = backend.prompts[0]
    assert "head, skin of body" in prompt
    assert "integument of the head" in prompt
    assert question().text in prompt


# --------------------------------------------------------------- taxonomy


def test_classify_correct_without_any_model_call():
    trace = make_trace(eval={"judge_correct": True})
    counters = CostCounters()
    assert classify_error(trace, question(), PoisonBackend(), counters) == "correct"
    assert counters.llm_total() == 0


def test_classify_step_limit_without_any_model_call():
    trace = make_trace(answer=None, termination="step_limit")
    counters = CostCounters()
    assert classify_error(trace, question(), PoisonBackend(), counters) == "reached_limit"
    assert counters.llm_total() == 0


def test_classify_without_backend_stays_absent():
    trace = make_trace(eval={"judge_correct": False})
    assert classify_error(trace, question(), None, CostCounters()) is None


@pytest.mark.parametrize(
    "reply,expected",
    [
        ("[found_not_returned] It saw the answer.", "found_not_returned"),
        ("[wrong_step] It wandered off.", "wrong_step"),
        ("[FOUND_NOT_RETURNED] shouting", "found_not_returned"),
    ],
)
def test_classify_parses_the_bracketed_token(reply, expected):
    trace = make_trace(eval={"judge_correct": False})
    counters = CostCounters()
    backend = ReplayBackend(
        [ReplayEntry(match=TEMPLATE_MATCHERS["judge_error_class"], response=reply)]
    )
    assert classify_error(trace, question(), backend, counters) == expected
    assert counters.llm_calls_by_tag == {"judge": 1}


def test_classify_malformed_falls_back_to_wrong_step():
    trace = make_trace(eval={"judge_correct": False})
    counters = CostCounters()
    backend = RecordingBackend(["[shrug] dunno", "[still_shrug]"])
    assert classify_error(trace, question(), backend, counters) == "wrong_step"
    assert counters.llm_calls_by_tag == {"judge": 1, "judge:reask": 1}


def test_classifier_prompt_includes_evidence_or_placeholder():
    bare = make_trace(eval={"judge_correct": False})
    backend = RecordingBackend(["[wrong_step] x"])
    classify_error(bare, question(), backend, CostCounters())
    assert "(no evidence collected)" in backend.prompts[0]

    rich = make_trace(
        eval={"judge_correct": False},
        answer=None,
        states=[
            {
                "evidence": {
                    "scratchpad": [{"observations": ["The ID of the node is 390792."]}],
                    "triples": [],
                    "attributes": [],
                }
            }
        ],
    )
    backend = RecordingBackend(["[wrong_step] x"])
    classify_error(rich, question(), backend, CostCounters())
    assert "The ID of the node is 390792." in backend.prompts[0]
    assert "(none)" in backend.prompts[0]  # missing answer placeholder


# -------------------------------------------------------------- aggregate


def corpus():
    questions = [
        Question(qid="a", text="q", gold_answer="x", difficulty="easy", domain="synthetic"),
        Question(qid="b", text="q", gold_answer="x", difficulty="easy", domain="biomedical"),
        Question(qid="c", text="q", gold_answer="x", difficulty="hard", domain="synthetic"),
        Question(qid="d", text="q", gold_answer="x", difficulty="hard", domain="synthetic"),
    ]
    results = [
        EvalResult(qid="a", answer="x", termination="finished", rouge_l=1.0,
                   judge_correct=True, error_class="correct", llm_calls=2, kg_ops=4),
        EvalResult(qid="b", answer="y", termination="finished", rouge_l=0.5,
                   judge_correct=False, error_class="wrong_step", llm_calls=5, kg_ops=0),
        EvalResult(qid="c", answer=None, termination="step_limit", rouge_l=None,
                   judge_correct=None, error_class="reached_limit", llm_calls=0, kg_ops=2),
        EvalResult(qid="d", answer="z", termination="finished", rouge_l=0.25,
                   judge_correct=False, error_class="wrong_step", llm_calls=3, kg_ops=2),
    ]
    return questions, results


def test_aggregate_overall_and_groups():
    report = aggregate(*corpus())
    assert report.overall.count == 4
    assert report.overall.rouge_mean == pytest.approx((1.0 + 0.5 + 0.25) / 3)
    assert report.overall.judge_evaluated == 3
    assert report.overall.judge_absent == 1
    assert report.overall.judge_rate == pytest.approx(100.0 / 3)

    assert set(report.by_domain) == {"synthetic", "biomedical"}
    assert report.by_domain["biomedical"].count == 1
    assert report.by_domain["biomedical"].rouge_mean == pytest.approx(0.5)
    assert report.by_difficulty["hard"].count == 2
    # The unanswered hard question contributes no rouge term.
    assert report.by_difficulty["hard"].rouge_mean == pytest.approx(0.25)
    assert report.by_difficulty["hard"].judge_rate == pytest.approx(0.0)


def test_aggregate_error_shares_sum_to_hundred():
    report = aggregate(*corpus())
    assert report.error_counts == {"correct": 1, "wrong_step": 2, "reached_limit": 1}
    assert sum(report.error_shares.values()) == pytest.approx(100.0)
    assert report.error_shares["wrong_step"] == pytest.approx(50.0)


def test_aggregate_mean_costs():
    report = aggregate(*corpus())
    assert report.mean_llm_calls == pytest.approx(10 / 4)
    assert report.mean_kg_ops == pytest.approx(8 / 4)


def test_aggregate_is_permutation_invariant():
    questions, results = corpus()
    baseline = aggregate(questions, results)
    rng = random.Random(9)
    for _ in range(10):
        order = list(range(len(questions)))
        rng.shuffle(order)
        shuffled = aggregate(
            [questions[i] for i in order],
            [results[i] for i in order],
        )
        assert shuffled == baseline


def test_aggregate_rejects_misaligned_inputs():
    questions, results = corpus()
    with pytest.raises(ValueError, match="align"):
        aggregate(questions, results[:-1])


def test_aggregate_of_nothing():
    report = aggregate([], [])
    assert report.overall.count == 0
    assert report.overall.rouge_mean is None
    assert report.mean_llm_calls == 0.0
    assert report.error_shares == {}
    assert isinstance(report, AggregateReport)
