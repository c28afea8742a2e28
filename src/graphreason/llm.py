"""Model access layer: wire and replay backends, metering, output parsing.

Every completion flows through :func:`complete`, which increments the
per-run call meter exactly once per request (tagged, so generation calls
can be budgeted separately from pruning/evaluation/judging) and applies the
transport retry policy. Malformed-output handling is a separate, single
re-ask with a format reminder (:func:`reask_request`), after which
:func:`complete_with_reask` returns the call site's documented fallback; a
transport failure that outlasts the retries returns the same fallback.

The replay backend makes whole runs bit-reproducible: it serves canned
responses from a line-delimited script of ``{"match": ..., "response": ...}``
records, either consumed strictly in order (each match checked as a
substring of the prompt) or scanned statelessly for the first match.
"""

from __future__ import annotations

import functools
import http.client
import json
import logging
import os
import re
import threading
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Protocol, TypeVar

from . import prompts
from .costs import REASK_SUFFIX, CostCounters
from .prompts import DecodingParams

logger = logging.getLogger(__name__)

TOKEN_ENV_VAR = "GRAPHREASON_API_TOKEN"

MAX_TRANSPORT_RETRIES = 2

FORMAT_REMINDER = (
    "\nReminder: answer in exactly the format requested above, placing the "
    "final answer inside the brackets."
)

T = TypeVar("T")
F = TypeVar("F")


class TransportError(Exception):
    """The backend could not produce a completion (network, HTTP, shape)."""


class ReplayMismatchError(Exception):
    """A replay script had no entry for the request.

    Deliberately not a TransportError, so no call site's transport fallback
    swallows it: a script mismatch is a test failure, not a flaky call.
    """


class MalformedOutputError(Exception):
    """Model output did not contain the span the call site needs."""


@dataclass(frozen=True)
class CompletionRequest:
    prompt: str
    decoding: DecodingParams
    tag: str


class Backend(Protocol):
    def raw_complete(self, request: CompletionRequest) -> str: ...


def request_for(
    template_name: str,
    variables: dict[str, str],
    *,
    tag: str,
    domain: str,
) -> CompletionRequest:
    """Render a registry template into a tagged completion request, decoded
    as the template's row says.

    A template with an ``{examples}`` slot gets the few-shot block of
    ``domain`` from :func:`prompts.load_examples`; callers never pass one.
    That raises ``ValueError`` for a domain that is not one folder name.
    """
    template = prompts.get_template(template_name)
    if "examples" in template.required_placeholders:
        variables = {**variables, "examples": prompts.load_examples(template_name, domain)}
    prompt = prompts.render(template, variables)
    return CompletionRequest(prompt=prompt, decoding=template.decoding, tag=tag)


def reask_request(request: CompletionRequest, reminder: str = FORMAT_REMINDER) -> CompletionRequest:
    """The one form of a re-ask: the prompt plus a reminder, tagged ``<tag>:reask``."""
    return CompletionRequest(
        prompt=request.prompt + reminder,
        decoding=request.decoding,
        tag=request.tag + REASK_SUFFIX,
    )


@dataclass(frozen=True)
class ReplayEntry:
    match: str
    response: str


class ReplayBackend:
    """Serves scripted responses; the basis of reproducible offline runs.

    Strict mode consumes entries in order and fails loudly when the next
    entry's ``match`` is not a substring of the incoming prompt — the right
    mode for golden-trace tests. Non-strict mode statelessly returns the
    first entry whose ``match`` occurs in the prompt, so one script can
    serve many structurally similar requests.
    """

    def __init__(self, entries: list[ReplayEntry], *, strict: bool = False) -> None:
        self.entries = list(entries)
        self.strict = strict
        self._cursor = 0
        self._lock = threading.Lock()

    @classmethod
    def from_file(cls, path: str | Path) -> "ReplayBackend":
        entries = []
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}:{lineno}: bad replay record: {exc}") from exc
                match record:  # other keys are allowed
                    case {"match": str(pattern), "response": str(response)}:
                        entries.append(ReplayEntry(match=pattern, response=response))
                    case _:
                        raise ValueError(
                            f"{path}:{lineno}: bad replay record: want an object whose "
                            "'match' and 'response' are strings"
                        )
        return cls(entries)

    def raw_complete(self, request: CompletionRequest) -> str:
        with self._lock:
            if self.strict:
                if self._cursor >= len(self.entries):
                    raise ReplayMismatchError(
                        f"replay script exhausted after {len(self.entries)} entries; "
                        f"unmatched prompt starts: {request.prompt[:120]!r}"
                    )
                entry = self.entries[self._cursor]
                if entry.match not in request.prompt:
                    raise ReplayMismatchError(
                        f"replay entry {self._cursor} expects {entry.match!r} "
                        f"in prompt starting: {request.prompt[:120]!r}"
                    )
                self._cursor += 1
                return entry.response
            for entry in self.entries:
                if entry.match in request.prompt:
                    return entry.response
            raise ReplayMismatchError(
                f"no replay entry matches prompt starting: {request.prompt[:120]!r}"
            )

    def remaining(self) -> int:
        """Unconsumed entry count (strict mode); handy for exhaustion checks."""
        return len(self.entries) - self._cursor


@dataclass
class WireBackend:
    """Chat-completions endpoint client.

    Auth token comes from the environment (never a flag, never logged).
    ``max_in_flight`` caps concurrent outbound requests. Standard library
    only: each call is one ``urllib`` request on a fresh connection.
    """

    endpoint: str
    model: str
    timeout_s: float = 60.0
    max_in_flight: int = 4
    _gate: threading.Semaphore = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        self._gate = threading.Semaphore(self.max_in_flight)

    @functools.cached_property
    def _opener(self) -> urllib.request.OpenerDirector:
        """The backend's one opener, built at its first call.

        Its default ProxyHandler takes HTTP(S)_PROXY from the environment
        then; NO_PROXY is checked against the endpoint's host at each call.
        Building scans the environment and registers ten handlers, ~0.8 ms,
        which at construction would add a third to a wire run's set-up time.
        Threads that race on the first call build equal openers and keep one.
        """
        return urllib.request.build_opener()

    def raw_complete(self, request: CompletionRequest) -> str:
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(TOKEN_ENV_VAR)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        payload: dict[str, object] = {
            "model": self.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": request.decoding.temperature,
            "max_tokens": request.decoding.max_tokens,
        }
        if request.decoding.stop:
            payload["stop"] = list(request.decoding.stop)
        data = json.dumps(payload).encode("utf-8")
        http_request = urllib.request.Request(self.endpoint, data, headers)
        with self._gate:
            # One fresh connection per call (urllib sends Connection: close).
            # Against bench/stub_server.py (10 ms delay, 4 calls in flight) a
            # reused keep-alive connection took a 52.0 ms median call against
            # 11.3 ms fresh, and client TCP_NODELAY did not change that; the
            # stall left when the stub sent headers and body in one write.
            try:
                with self._opener.open(http_request, timeout=self.timeout_s) as response:
                    raw = response.read()
            except (OSError, http.client.HTTPException) as exc:
                if isinstance(exc, urllib.error.HTTPError):
                    exc.close()
                raise TransportError(f"wire request failed: {exc}") from exc
        try:
            body = json.loads(raw)
        except ValueError as exc:
            raise TransportError(f"wire response is not JSON: {exc}") from exc
        try:
            content = body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError("wire response missing choices[0].message.content") from exc
        if not isinstance(content, str):
            raise TransportError("wire response content is not a string")
        return content


def complete(backend: Backend, request: CompletionRequest, counters: CostCounters) -> str:
    """Run one completion with transport retries; meter exactly one call.

    The call meter ticks once per request under ``request.tag`` no matter
    how many transport attempts were needed or whether they all failed;
    retries are counted separately.
    """
    counters.record_llm_call(request.tag)
    last_error: TransportError | None = None
    for attempt in range(1 + MAX_TRANSPORT_RETRIES):
        if attempt > 0:
            counters.record_transport_retry()
            logger.debug("transport retry %d for tag %s", attempt, request.tag)
        try:
            return backend.raw_complete(request)
        except TransportError as exc:
            last_error = exc
    assert last_error is not None
    raise last_error


def complete_with_reask(
    backend: Backend,
    request: CompletionRequest,
    counters: CostCounters,
    parse: Callable[[str], T],
    fallback: F,
) -> T | F:
    """Complete, parse, and on malformed output re-ask once with a reminder.

    The re-ask is its own metered call tagged ``<tag>:reask``. A second
    malformed reply returns ``fallback``, the call site's documented
    deterministic behaviour, and so does a transport failure that outlasts
    the retries of either call.
    """
    try:
        text = complete(backend, request, counters)
        try:
            return parse(text)
        except MalformedOutputError:
            logger.debug("malformed output for tag %s; re-asking", request.tag)
        text = complete(backend, reask_request(request), counters)
        return parse(text)
    except MalformedOutputError:
        logger.debug("output for tag %s stayed malformed; falling back", request.tag)
    except TransportError:
        logger.debug("transport failed for tag %s; falling back", request.tag)
    return fallback


_BRACKET_SPAN_RE = re.compile(r"\{\{(.*?)\}\}|\[(.*?)\]", re.DOTALL)


def parse_bracketed_answer(text: str) -> str:
    """Extract the last ``{{...}}`` or ``[...]`` span, trimmed.

    Raises:
        MalformedOutputError: no bracketed span anywhere in the text.
    """
    last: str | None = None
    for match in _BRACKET_SPAN_RE.finditer(text):
        group = match.group(1) if match.group(1) is not None else match.group(2)
        last = group
    if last is None:
        raise MalformedOutputError(f"no bracketed answer span in: {text[:120]!r}")
    return last.strip()


def parse_bracketed_list(text: str) -> list[str]:
    """The comma-separated items of :func:`parse_bracketed_answer`, trimmed,
    empty items dropped."""
    return [item for item in map(str.strip, parse_bracketed_answer(text).split(",")) if item]


def closing_bracket(text: str, start: int) -> int | None:
    """Index of the ``]`` that closes the ``[`` at ``text[start]``, counting
    nested pairs; None when the span never closes."""
    depth = 0
    for i in range(start, len(text)):
        if text[i] == "[":
            depth += 1
        elif text[i] == "]":
            depth -= 1
            if depth == 0:
                return i
    return None


def parse_yes_no(text: str) -> bool:
    """Strict Yes/No reading of the bracketed span."""
    token = parse_bracketed_answer(text).casefold()
    if token == "yes":
        return True
    if token == "no":
        return False
    raise MalformedOutputError(f"expected Yes or No, got {token!r}")


_NUMBER_RE = re.compile(r"-?\d+(?:\.\d+)?")


def parse_last_number(text: str) -> float:
    """Return the last numeric literal in the text (score votes)."""
    numbers = _NUMBER_RE.findall(text)
    if not numbers:
        raise MalformedOutputError(f"no number in: {text[:120]!r}")
    return float(numbers[-1])
