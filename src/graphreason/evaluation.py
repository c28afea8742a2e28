"""Question bank, answer scoring, judging, and result aggregation.

Scoring is two-track: a deterministic longest-common-subsequence F1 over
case-folded alphanumeric tokens, and an optional model judge for semantic
correctness. Failed runs are sorted into a small error taxonomy; the two
mechanical classes (ran out of steps, judged correct) never cost a model
call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .costs import CostCounters
from .llm import (
    Backend,
    MalformedOutputError,
    complete_with_reask,
    parse_bracketed_answer,
    parse_yes_no,
    request_for,
)
from .textops import clip, decode_json, first_undecodable_line, is_path_component, tokenize

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .traces import TraceRecord

VALID_DIFFICULTIES = frozenset({"easy", "medium", "hard"})

TERMINATION_FINISHED = "finished"
TERMINATION_STEP_LIMIT = "step_limit"

ERROR_REACHED_LIMIT = "reached_limit"
ERROR_FOUND_NOT_RETURNED = "found_not_returned"
ERROR_WRONG_STEP = "wrong_step"
ERROR_CORRECT = "correct"

ERROR_CLASSES = frozenset(
    {ERROR_REACHED_LIMIT, ERROR_FOUND_NOT_RETURNED, ERROR_WRONG_STEP, ERROR_CORRECT}
)

_QUESTION_FIELDS = frozenset({"qid", "question", "answer", "difficulty", "domain"})


class QuestionLoadError(ValueError):
    """A question file is malformed."""


@dataclass(frozen=True)
class Question:
    qid: str
    text: str
    gold_answer: str
    difficulty: str
    domain: str = "synthetic"

    def __post_init__(self) -> None:
        if not self.qid:
            raise ValueError("qid must be nonempty")
        # The qid names the question's trace file.
        if not is_path_component(self.qid):
            raise ValueError(f"qid {clip(repr(self.qid))} cannot be a file name")
        # The domain names the folder its few-shot examples are read from.
        if not is_path_component(self.domain):
            raise ValueError(
                f"question {clip(self.qid)}: domain {clip(repr(self.domain))} "
                "cannot be a folder name"
            )
        if not self.text:
            raise ValueError(f"question {clip(self.qid)}: text must be nonempty")
        if self.difficulty not in VALID_DIFFICULTIES:
            raise ValueError(
                f"question {clip(self.qid)}: difficulty {clip(repr(self.difficulty))} not in "
                f"{sorted(VALID_DIFFICULTIES)}"
            )


def load_questions(path: str | Path) -> list[Question]:
    """Load a line-delimited question file.

    Each line holds ``qid``, ``question``, ``answer``, ``difficulty`` and an
    optional ``domain``, all strings; anything else is rejected, as are
    duplicate qids, qids that cannot be a file name, domains that cannot be
    a folder name, and bytes that are not UTF-8.
    """
    questions: list[Question] = []
    seen: set[str] = set()
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    record = decode_json(line)
                except json.JSONDecodeError as exc:
                    raise QuestionLoadError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
                if not isinstance(record, dict):
                    raise QuestionLoadError(f"{path}:{lineno}: expected an object")
                unknown = set(record) - _QUESTION_FIELDS
                if unknown:
                    raise QuestionLoadError(
                        f"{path}:{lineno}: unknown fields {clip(repr(sorted(unknown)))}"
                    )
                missing = _QUESTION_FIELDS - {"domain"} - set(record)
                if missing:
                    raise QuestionLoadError(f"{path}:{lineno}: missing fields {sorted(missing)}")
                for name, value in record.items():
                    if not isinstance(value, str):
                        raise QuestionLoadError(
                            f"{path}:{lineno}: {name} must be a string, "
                            f"got {clip(json.dumps(value))}"
                        )
                try:
                    question = Question(
                        qid=record["qid"],
                        text=record["question"],
                        gold_answer=record["answer"],
                        difficulty=record["difficulty"],
                        domain=record.get("domain", Question.domain),
                    )
                except ValueError as exc:
                    raise QuestionLoadError(f"{path}:{lineno}: {exc}") from exc
                if question.qid in seen:
                    raise QuestionLoadError(
                        f"{path}:{lineno}: duplicate qid {clip(repr(question.qid))}"
                    )
                seen.add(question.qid)
                questions.append(question)
    except UnicodeDecodeError as exc:
        line = first_undecodable_line(path)
        raise QuestionLoadError(f"{path}:{line}: not UTF-8 ({exc.reason})") from exc
    return questions


def _lcs_length(a: list[str], b: list[str]) -> int:
    if not a or not b:
        return 0
    previous = [0] * (len(b) + 1)
    for token in a:
        current = [0] * (len(b) + 1)
        for j, other in enumerate(b, start=1):
            if token == other:
                current[j] = previous[j - 1] + 1
            else:
                current[j] = max(previous[j], current[j - 1])
        previous = current
    return previous[len(b)]


def rouge_l(candidate: str, reference: str) -> float:
    """Longest-common-subsequence F1 over case-folded alphanumeric tokens.

    Returns 0.0 when either side tokenizes to nothing or the subsequence is
    empty.
    """
    cand = tokenize(candidate)
    ref = tokenize(reference)
    if not cand or not ref:
        return 0.0
    lcs = _lcs_length(cand, ref)
    if lcs == 0:
        return 0.0
    precision = lcs / len(cand)
    recall = lcs / len(ref)
    return 2 * precision * recall / (precision + recall)


@dataclass
class EvalResult:
    """One question's result row; absent fields stay None rather than defaulting.

    ``llm_calls`` and ``kg_ops`` are the totals of the trace's per-tag and
    per-kind counters.
    """

    qid: str
    answer: str | None
    termination: str
    rouge_l: float | None
    judge_correct: bool | None
    error_class: str | None
    llm_calls: int
    kg_ops: int


def judge_correct(
    question: Question,
    model_answer: str,
    backend: Backend,
    counters: CostCounters,
) -> bool | None:
    """Model judgement of answer correctness; None when it stays malformed."""
    request = request_for(
        "judge_correctness",
        {
            "question": question.text,
            "gold_answer": question.gold_answer,
            "model_answer": model_answer,
        },
        tag="judge",
        domain=question.domain,
    )
    return complete_with_reask(backend, request, counters, parse_yes_no, None)


def _parse_error_class(text: str) -> str:
    token = parse_bracketed_answer(text).casefold()
    if token == ERROR_FOUND_NOT_RETURNED:
        return ERROR_FOUND_NOT_RETURNED
    if token == ERROR_WRONG_STEP:
        return ERROR_WRONG_STEP
    raise MalformedOutputError(f"unknown error-class token {token!r}")


def classify_error(
    trace: "TraceRecord",
    question: Question,
    backend: Backend | None,
    counters: CostCounters,
) -> str | None:
    """Sort one run into the error taxonomy.

    The two mechanical classes are decided without any model call: a true
    judge verdict is ``correct``, and hitting the step limit without one is
    ``reached_limit``. Everything else needs the evidence judge; without a
    backend for it the class stays absent. A malformed judge reply (after
    the one re-ask) falls back to ``wrong_step``.
    """
    if trace.eval.get("judge_correct") is True:
        return ERROR_CORRECT
    if trace.termination == TERMINATION_STEP_LIMIT:
        return ERROR_REACHED_LIMIT
    if backend is None:
        return None
    evidence = trace.evidence_strings()
    request = request_for(
        "judge_error_class",
        {
            "question": question.text,
            "gold_answer": question.gold_answer,
            "model_answer": trace.answer if trace.answer is not None else "(none)",
            "evidence": "\n".join(evidence) if evidence else "(no evidence collected)",
        },
        tag="judge",
        domain=question.domain,
    )
    return complete_with_reask(backend, request, counters, _parse_error_class, ERROR_WRONG_STEP)


@dataclass
class GroupStats:
    count: int = 0
    rouge_mean: float | None = None
    judge_rate: float | None = None  # percent correct over evaluated judgements
    judge_evaluated: int = 0
    judge_absent: int = 0


@dataclass
class AggregateReport:
    overall: GroupStats
    by_domain: dict[str, GroupStats]
    by_difficulty: dict[str, GroupStats]
    error_counts: dict[str, int]
    error_shares: dict[str, float]  # percent of classified traces
    mean_llm_calls: float
    mean_kg_ops: float


def _stats_for(pairs: list[tuple[Question, EvalResult]]) -> GroupStats:
    stats = GroupStats(count=len(pairs))
    rouges = [r.rouge_l for _, r in pairs if r.rouge_l is not None]
    if rouges:
        stats.rouge_mean = sum(rouges) / len(rouges)
    judged = [r.judge_correct for _, r in pairs if r.judge_correct is not None]
    stats.judge_evaluated = len(judged)
    stats.judge_absent = stats.count - len(judged)
    if judged:
        stats.judge_rate = 100.0 * sum(judged) / len(judged)
    return stats


def aggregate(questions: list[Question], results: list[EvalResult]) -> AggregateReport:
    """Fold per-question results into per-domain/difficulty summaries.

    Order-insensitive: any permutation of the inputs (kept pairwise aligned)
    produces the same report.
    """
    if len(questions) != len(results):
        raise ValueError("questions and results must align")
    pairs = sorted(zip(questions, results), key=lambda pair: pair[0].qid)

    by_domain: dict[str, list[tuple[Question, EvalResult]]] = {}
    by_difficulty: dict[str, list[tuple[Question, EvalResult]]] = {}
    for question, result in pairs:
        by_domain.setdefault(question.domain, []).append((question, result))
        by_difficulty.setdefault(question.difficulty, []).append((question, result))

    error_counts: dict[str, int] = {}
    for _, result in pairs:
        if result.error_class is not None:
            error_counts[result.error_class] = error_counts.get(result.error_class, 0) + 1
    classified = sum(error_counts.values())
    error_shares = {
        cls: 100.0 * count / classified for cls, count in error_counts.items()
    }

    count = len(pairs)
    return AggregateReport(
        overall=_stats_for(pairs),
        by_domain={k: _stats_for(v) for k, v in by_domain.items()},
        by_difficulty={k: _stats_for(v) for k, v in by_difficulty.items()},
        error_counts=error_counts,
        error_shares=error_shares,
        mean_llm_calls=sum(r.llm_calls for r in results) / count if count else 0.0,
        mean_kg_ops=sum(r.kg_ops for r in results) / count if count else 0.0,
    )
