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

import base64
import functools
import http.client
import json
import logging
import os
import re
import socket
import ssl
import threading
import urllib.parse
import urllib.request
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Protocol, TypeVar

from . import prompts
from .costs import REASK_SUFFIX, CostCounters
from .prompts import DecodingParams
from .textops import decode_json, first_undecodable_line

logger = logging.getLogger(__name__)

TOKEN_ENV_VAR = "GRAPHREASON_API_TOKEN"

MAX_TRANSPORT_RETRIES = 2

#: A wire reply body holds at most ``REPLY_ENVELOPE_BYTES`` plus
#: ``REPLY_BYTES_PER_TOKEN`` per ``max_tokens`` of its request; the reader
#: stops one byte past that, and a longer body is a ``TransportError``.
REPLY_ENVELOPE_BYTES = 64 * 1024
REPLY_BYTES_PER_TOKEN = 64

FORMAT_REMINDER = (
    "\nReminder: answer in exactly the format requested above, placing the "
    "final answer inside the brackets."
)

T = TypeVar("T")
F = TypeVar("F")


class TransportError(Exception):
    """The backend could not produce a completion (network, HTTP, shape).

    ``retriable`` says whether sending the same request again may succeed.
    Connection errors, timeouts, bodies that cannot be read and the HTTP
    statuses 408, 429 and 5xx are; any other status is not, nor is a body
    that times out after a status that is not, so :func:`complete` sends
    that request once.
    """

    def __init__(self, message: str, *, retriable: bool = True) -> None:
        super().__init__(message)
        self.retriable = retriable


class ReplayMismatchError(Exception):
    """A replay script had no entry for the request.

    Deliberately not a TransportError, so no call site's transport fallback
    swallows it: a script mismatch is a test failure, not a flaky call.
    """


class MalformedOutputError(Exception):
    """Model output did not contain the span the call site needs."""


class CompletionRequest(NamedTuple):
    """One model call: the rendered prompt, its decoding, and its meter tag.

    A named tuple, not a frozen dataclass: it is as immutable, and every
    call builds one, a re-ask two, in 0.7 us against 1.8 us (keyword
    arguments, best of 7 x 200,000, 2-core VM, Python 3.11).
    """

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
    mode for golden-trace tests; its cursor moves under a lock. Non-strict
    mode statelessly returns the first entry whose ``match`` occurs in the
    prompt, so one script can serve many structurally similar requests. It
    only reads, so it scans a tuple of ``(match, response)`` pairs, made
    once with the script, with no lock. The script is fixed when the
    backend is made: ``entries`` is a tuple.
    """

    def __init__(self, entries: list[ReplayEntry], *, strict: bool = False) -> None:
        self.entries = tuple(entries)
        self.strict = strict
        self._pairs = tuple((entry.match, entry.response) for entry in self.entries)
        self._cursor = 0
        self._lock = threading.Lock()

    @classmethod
    def from_file(cls, path: str | Path) -> "ReplayBackend":
        entries = []
        try:
            with open(path, encoding="utf-8") as handle:
                for lineno, line in enumerate(handle, start=1):
                    if not line.strip():
                        continue
                    try:
                        record = decode_json(line)
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
        except UnicodeDecodeError as exc:
            line = first_undecodable_line(path)
            raise ValueError(f"{path}:{line}: not UTF-8 ({exc.reason})") from exc
        return cls(entries)

    def raw_complete(self, request: CompletionRequest) -> str:
        if not self.strict:
            prompt = request.prompt
            for match, response in self._pairs:
                if match in prompt:
                    return response
            raise ReplayMismatchError(
                f"no replay entry matches prompt starting: {prompt[:120]!r}"
            )
        with self._lock:
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

    def remaining(self) -> int:
        """Unconsumed entry count (strict mode); handy for exhaustion checks."""
        return len(self.entries) - self._cursor


#: Set on a wire connection's socket after each request is sent, where the
#: platform has it (Linux), so the reply is acknowledged at once.
_TCP_QUICKACK = getattr(socket, "TCP_QUICKACK", None)


class _Route(NamedTuple):
    """How a backend reaches its endpoint: a factory for a new connection,
    the request target, and the headers every request adds for a proxy."""

    connect: Callable[[], http.client.HTTPConnection]
    target: str
    headers: dict[str, str]


@dataclass
class WireBackend:
    """Chat-completions endpoint client, on the standard library alone.

    Auth token comes from the environment (never a flag, never logged).
    ``max_in_flight`` caps concurrent outbound requests. The backend keeps
    one pool of idle keep-alive ``http.client`` connections, shared by every
    thread that calls it; since a connection is taken and given back inside
    the ``max_in_flight`` gate, it never holds more than that many.
    :meth:`close` closes the idle ones.
    """

    endpoint: str
    model: str
    timeout_s: float = 60.0
    max_in_flight: int = 16
    _gate: threading.Semaphore = field(init=False, repr=False)
    _idle: list[http.client.HTTPConnection] = field(init=False, repr=False)
    _idle_lock: threading.Lock = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        self._gate = threading.Semaphore(self.max_in_flight)
        self._idle = []
        self._idle_lock = threading.Lock()
        # A backend dropped without close() still closes its idle sockets.
        weakref.finalize(self, _close_all, self._idle)

    @functools.cached_property
    def _route(self) -> _Route:
        """The backend's route, worked out at its first call.

        ``urllib.request.getproxies`` reads HTTP(S)_PROXY and NO_PROXY from
        the environment then, as urllib's ProxyHandler would: a plain-HTTP
        endpoint is sent through an HTTP proxy in absolute form, an HTTPS one
        through a CONNECT tunnel, and credentials in the proxy URL become a
        Basic ``Proxy-Authorization``. HTTPS is verified against
        ``ssl.create_default_context()``. It is not done at construction:
        building urllib's opener there once cost a wire run 29% more
        set-up time. Threads that race on the first call work out equal
        routes and keep one.
        """
        parts = urllib.parse.urlsplit(self.endpoint)
        address = parts.netloc.rpartition("@")[2]
        target = urllib.parse.urlunsplit(("", "", parts.path or "/", parts.query, ""))
        headers: dict[str, str] = {}
        tunnel_headers: dict[str, str] = {}
        tunnel = None
        scheme = parts.scheme
        proxy = urllib.request.getproxies().get(scheme)
        if proxy and not urllib.request.proxy_bypass(address):
            proxy_parts = urllib.parse.urlsplit(proxy if "://" in proxy else f"{scheme}://{proxy}")
            if proxy_parts.username and proxy_parts.password:
                user = urllib.parse.unquote(proxy_parts.username)
                password = urllib.parse.unquote(proxy_parts.password)
                credentials = base64.b64encode(f"{user}:{password}".encode()).decode("ascii")
                auth = {"Proxy-Authorization": f"Basic {credentials}"}
            else:
                auth = {}
            if scheme == "https":
                tunnel, tunnel_headers = address, auth
            else:
                scheme, target, headers = proxy_parts.scheme, self.endpoint, auth
            address = urllib.parse.unquote(proxy_parts.netloc.rpartition("@")[2])
        if scheme == "https":
            context = ssl.create_default_context()

            def connect() -> http.client.HTTPConnection:
                connection = http.client.HTTPSConnection(
                    address, timeout=self.timeout_s, context=context
                )
                if tunnel is not None:
                    connection.set_tunnel(tunnel, headers=tunnel_headers)
                return connection

        else:
            connect = functools.partial(http.client.HTTPConnection, address, timeout=self.timeout_s)
        return _Route(connect, target, headers)

    def raw_complete(self, request: CompletionRequest) -> str:
        route = self._route
        headers = {"Content-Type": "application/json", **route.headers}
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
        limit = REPLY_ENVELOPE_BYTES + REPLY_BYTES_PER_TOKEN * request.decoding.max_tokens
        with self._gate:
            status, raw = self._post(route, data, headers, limit)
        if not 200 <= status <= 299:
            raise TransportError(
                f"wire request failed: HTTP {status}", retriable=_retriable_status(status)
            )
        if len(raw) > limit:
            raise TransportError(f"wire response body is over {limit} bytes")
        try:
            body = decode_json(raw)
        except ValueError as exc:
            raise TransportError(f"wire response is not JSON: {exc}") from exc
        try:
            content = body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError("wire response missing choices[0].message.content") from exc
        if not isinstance(content, str):
            raise TransportError("wire response content is not a string")
        return content

    def _post(
        self, route: _Route, data: bytes, headers: dict[str, str], limit: int
    ) -> tuple[int, bytes]:
        """POST on an idle connection, or a new one; return the status and
        at most ``limit + 1`` bytes of the body.

        A reused connection that fails before any reply byte was most likely
        closed by the server while idle, so the call is sent once more on a
        new connection. That is logged, not metered: a trace must not depend
        on the server's idle timing.

        A body that times out after its headers came is retriable only if
        its status is. A server that sent a success short of its
        Content-Length and kept the connection open stalls every resend the
        same way, so retrying would cost ``timeout_s`` per attempt instead
        of once per call.
        """
        with self._idle_lock:
            connection = self._idle.pop() if self._idle else None
        reused = connection is not None
        response = None
        try:
            try:
                if connection is None:
                    connection = route.connect()
                response = _send(connection, route.target, data, headers)
            except ConnectionError as exc:
                if not reused:
                    raise
                logger.debug("reused wire connection failed (%s); reconnecting", exc)
                connection.close()
                connection = route.connect()
                response = _send(connection, route.target, data, headers)
            raw = response.read(limit + 1)
            if len(raw) <= limit:
                # Nothing is left of a whole body; a body cut short of its
                # Content-Length raises IncompleteRead here.
                response.read()
        except (OSError, http.client.HTTPException) as exc:
            if connection is not None:
                connection.close()
            stalled = (
                response is not None
                and isinstance(exc, TimeoutError)
                and not _retriable_status(response.status)
            )
            raise TransportError(f"wire request failed: {exc}", retriable=not stalled) from exc
        if response.isclosed() and not response.will_close:
            with self._idle_lock:
                self._idle.append(connection)
        else:
            connection.close()
        return response.status, raw

    def close(self) -> None:
        """Close the idle connections; a later call opens new ones."""
        with self._idle_lock:
            idle = self._idle[:]
            self._idle.clear()
        _close_all(idle)


def _retriable_status(status: int) -> bool:
    return status in (408, 429) or 500 <= status <= 599


def _close_all(connections: list[http.client.HTTPConnection]) -> None:
    for connection in connections:
        connection.close()


def _send(
    connection: http.client.HTTPConnection, target: str, data: bytes, headers: dict[str, str]
) -> http.client.HTTPResponse:
    connection.request("POST", target, data, headers)
    if _TCP_QUICKACK is not None:
        # A server that writes a reply's headers and body separately (as
        # bench/stub_server.py does) holds the body back under Nagle until
        # the headers are acknowledged. On a reused connection the client
        # delays that ACK, about 40 ms, so a call took a 52.0 ms median
        # against 11.2 ms fresh; acknowledging at once made it 10.7 ms.
        connection.sock.setsockopt(socket.IPPROTO_TCP, _TCP_QUICKACK, 1)
    return connection.getresponse()


def complete(backend: Backend, request: CompletionRequest, counters: CostCounters) -> str:
    """Run one completion with transport retries; meter exactly one call.

    The call meter ticks once per request under ``request.tag`` no matter
    how many transport attempts were needed or whether they all failed;
    retries are counted separately. Only a retriable ``TransportError`` is
    retried, at once, with no backoff; the last attempt's error propagates.
    """
    counters.record_llm_call(request.tag)
    for attempt in range(1, 1 + MAX_TRANSPORT_RETRIES):
        try:
            return backend.raw_complete(request)
        except TransportError as exc:
            if not exc.retriable:
                raise
            counters.record_transport_retry()
            logger.debug("transport retry %d for tag %s", attempt, request.tag)
    return backend.raw_complete(request)


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
    # A span opens with "[" or "{{", so a reply holding neither skips the scan.
    if "[" in text or "{{" in text:
        for match in _BRACKET_SPAN_RE.finditer(text):
            last = match.group(1) if match.group(1) is not None else match.group(2)
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
