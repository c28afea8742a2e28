"""Backends, metering, retry policy, and output parsing."""

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import synthetic_question, write_question_file
from graphreason.costs import CostCounters
from graphreason.kg import generate_synthetic_graph, save_graph
from graphreason.prompts import get_template
from graphreason.llm import (
    FORMAT_REMINDER,
    MAX_TRANSPORT_RETRIES,
    REPLY_BYTES_PER_TOKEN,
    REPLY_ENVELOPE_BYTES,
    TOKEN_ENV_VAR,
    CompletionRequest,
    DecodingParams,
    MalformedOutputError,
    ReplayBackend,
    ReplayEntry,
    ReplayMismatchError,
    TransportError,
    WireBackend,
    complete,
    complete_with_reask,
    closing_bracket,
    parse_bracketed_answer,
    parse_bracketed_list,
    parse_last_number,
    parse_yes_no,
    request_for,
)
from graphreason.runner import RunConfig, run_experiment, score_run
from graphreason.traces import load_trace


def _request(prompt="hello world", tag="thought", max_tokens=256):
    return CompletionRequest(
        prompt=prompt, decoding=DecodingParams(max_tokens=max_tokens), tag=tag
    )


class FlakyBackend:
    """Fails a fixed number of times, then answers."""

    def __init__(self, failures, response="ok"):
        self.failures = failures
        self.response = response
        self.calls = 0

    def raw_complete(self, request):
        self.calls += 1
        if self.calls <= self.failures:
            raise TransportError("synthetic outage")
        return self.response


class SequenceBackend:
    """Returns canned responses in order regardless of the prompt."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.prompts = []

    def raw_complete(self, request):
        self.prompts.append(request.prompt)
        return self.responses.pop(0)


# --- decoding and request construction -------------------------------------


def test_decoding_params_validate():
    with pytest.raises(ValueError):
        DecodingParams(temperature=-0.1)
    with pytest.raises(ValueError):
        DecodingParams(max_tokens=0)


def test_default_decoding_covers_every_template():
    from graphreason import prompts

    assert DecodingParams is prompts.DecodingParams
    sampled = DecodingParams(temperature=0.7, max_tokens=512)
    expected = {name: DecodingParams() for name in prompts.PROMPT_TEMPLATES}
    expected.update(
        agent_step=DecodingParams(temperature=0.7, max_tokens=512, stop=("\nObservation",)),
        search_thought=sampled,
        got_merge=sampled,
    )
    assert DecodingParams() == DecodingParams(temperature=0.0, max_tokens=256, stop=())
    assert {n: t.decoding for n, t in prompts.PROMPT_TEMPLATES.items()} == expected


def test_request_for_renders_and_tags():
    request = request_for(
        "entity_extraction", {"text": "probe text"}, tag="extract", domain="synthetic"
    )
    assert "probe text" in request.prompt
    assert request.tag == "extract"
    assert request.decoding.temperature == 0.0
    assert request.decoding is get_template("entity_extraction").decoding


# --- replay backend ---------------------------------------------------------


def test_replay_nonstrict_first_match_is_stateless():
    backend = ReplayBackend(
        [ReplayEntry("alpha", "A"), ReplayEntry("beta", "B"), ReplayEntry("alpha", "A2")]
    )
    assert backend.raw_complete(_request("sing beta song")) == "B"
    assert backend.raw_complete(_request("alpha first")) == "A"
    assert backend.raw_complete(_request("alpha again")) == "A"


def test_replay_nonstrict_no_match_raises():
    backend = ReplayBackend([ReplayEntry("alpha", "A")])
    with pytest.raises(ReplayMismatchError):
        backend.raw_complete(_request("no such cue"))


def test_replay_strict_consumes_in_order():
    backend = ReplayBackend(
        [ReplayEntry("one", "1"), ReplayEntry("two", "2")], strict=True
    )
    assert backend.raw_complete(_request("step one")) == "1"
    assert backend.remaining() == 1
    assert backend.raw_complete(_request("step two")) == "2"
    assert backend.remaining() == 0
    with pytest.raises(ReplayMismatchError, match="exhausted"):
        backend.raw_complete(_request("step three"))


def test_replay_strict_rejects_out_of_order():
    backend = ReplayBackend(
        [ReplayEntry("one", "1"), ReplayEntry("two", "2")], strict=True
    )
    with pytest.raises(ReplayMismatchError, match="entry 0"):
        backend.raw_complete(_request("step two"))


def test_replay_from_file_round_trip(tmp_path):
    path = tmp_path / "script.lines"
    path.write_text(
        json.dumps({"match": "cue", "response": "reply"}) + "\n\n",
        encoding="utf-8",
    )
    backend = ReplayBackend.from_file(path)
    assert backend.raw_complete(_request("the cue here")) == "reply"


def test_replay_from_file_reports_line_numbers(tmp_path):
    path = tmp_path / "script.lines"
    path.write_text('{"match": "x"}\n', encoding="utf-8")
    with pytest.raises(ValueError, match=":1:"):
        ReplayBackend.from_file(path)


# --- metering and retries ---------------------------------------------------


def test_complete_meters_one_call_per_request():
    counters = CostCounters()
    backend = SequenceBackend(["a", "b"])
    complete(backend, _request(tag="thought"), counters)
    complete(backend, _request(tag="select"), counters)
    assert counters.llm_calls_by_tag == {"thought": 1, "select": 1}
    assert counters.transport_retries == 0


def test_complete_retries_transport_failures():
    counters = CostCounters()
    backend = FlakyBackend(failures=2)
    assert complete(backend, _request(), counters) == "ok"
    assert counters.llm_calls_by_tag == {"thought": 1}  # still one logical call
    assert counters.transport_retries == 2


def test_complete_gives_up_after_retry_budget():
    counters = CostCounters()
    backend = FlakyBackend(failures=10)
    with pytest.raises(TransportError):
        complete(backend, _request(), counters)
    assert backend.calls == 1 + MAX_TRANSPORT_RETRIES
    assert counters.llm_calls_by_tag == {"thought": 1}
    assert counters.transport_retries == MAX_TRANSPORT_RETRIES


def test_complete_does_not_retry_replay_mismatch():
    counters = CostCounters()
    backend = ReplayBackend([ReplayEntry("never", "x")])
    with pytest.raises(ReplayMismatchError):
        complete(backend, _request("unmatched"), counters)
    assert counters.transport_retries == 0


def test_reask_appends_reminder_and_retags():
    counters = CostCounters()
    backend = SequenceBackend(["no brackets", "fine [Yes] really"])
    result = complete_with_reask(
        backend, _request(tag="end_check"), counters, parse_yes_no, None
    )
    assert result is True
    assert backend.prompts[1].endswith(FORMAT_REMINDER)
    assert counters.llm_calls_by_tag == {"end_check": 1, "end_check:reask": 1}


def test_reask_happens_at_most_once():
    counters = CostCounters()
    backend = SequenceBackend(["junk", "more junk"])
    fallback = object()
    result = complete_with_reask(backend, _request(tag="select"), counters, parse_yes_no, fallback)
    assert result is fallback
    assert counters.llm_total() == 2


def test_reask_skipped_when_first_reply_parses():
    counters = CostCounters()
    backend = SequenceBackend(["[No] done"])
    assert complete_with_reask(backend, _request(), counters, parse_yes_no, None) is False
    assert counters.llm_total() == 1


# --- wire backend against a live local stub ---------------------------------


class _StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keeps a connection open unless the client closes it
    requests_seen = []
    connections = 0
    response_body = None
    status = 200
    statuses = []  # consumed, one per request, before ``status`` applies
    delay_s = 0.0
    reply = "json"  # or "not-json", "deep", "long-int", "hang-up", "cut-body", "padded"
    padding = 0  # bytes of whitespace a "padded" reply appends to its JSON

    def setup(self):
        type(self).connections += 1
        super().setup()

    def do_POST(self):
        stub = type(self)
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        stub.requests_seen.append({"payload": payload, "auth": self.headers.get("Authorization")})
        time.sleep(stub.delay_s)
        if stub.reply == "hang-up":
            self.close_connection = True
            return
        body = {
            "not-json": b"not json",
            # Nested far deeper than Python's recursion limit.
            "deep": b"[" * 100000 + b"]" * 100000,
            # Past Python's 4,300-digit limit for int().
            "long-int": b'{"choices": ' + b"9" * 5000 + b"}",
            "padded": json.dumps(stub.response_body).encode() + b" " * stub.padding,
        }.get(stub.reply) or json.dumps(stub.response_body).encode()
        self.send_response(stub.statuses.pop(0) if stub.statuses else stub.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body) + (100 if stub.reply == "cut-body" else 0)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    _StubHandler.requests_seen = []
    _StubHandler.connections = 0
    _StubHandler.status = 200
    _StubHandler.statuses = []
    _StubHandler.delay_s = 0.0
    _StubHandler.reply = "json"
    _StubHandler.padding = 0
    _StubHandler.response_body = {
        "choices": [{"message": {"content": "wire reply"}}]
    }
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()
    server.server_close()


@pytest.fixture()
def proxy_env(monkeypatch):
    """An environment whose only proxy settings are the ones a test sets."""
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy", "REQUEST_METHOD"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    return monkeypatch


def test_wire_backend_payload_and_auth(stub_server, monkeypatch):
    monkeypatch.setenv(TOKEN_ENV_VAR, "sekrit")
    backend = WireBackend(endpoint=stub_server, model="m-1")
    request = CompletionRequest(
        prompt="ping",
        decoding=DecodingParams(temperature=0.7, max_tokens=99, stop=("\nObservation",)),
        tag="thought",
    )
    assert backend.raw_complete(request) == "wire reply"
    seen = _StubHandler.requests_seen[0]
    assert seen["auth"] == "Bearer sekrit"
    assert seen["payload"] == {
        "model": "m-1",
        "messages": [{"role": "user", "content": "ping"}],
        "temperature": 0.7,
        "max_tokens": 99,
        "stop": ["\nObservation"],
    }


def test_wire_backend_omits_auth_without_token(stub_server, monkeypatch):
    monkeypatch.delenv(TOKEN_ENV_VAR, raising=False)
    backend = WireBackend(endpoint=stub_server, model="m-1")
    backend.raw_complete(_request("ping"))
    assert _StubHandler.requests_seen[0]["auth"] is None
    assert "stop" not in _StubHandler.requests_seen[0]["payload"]


def test_wire_backend_http_error_is_transport_error(stub_server):
    _StubHandler.status = 500
    backend = WireBackend(endpoint=stub_server, model="m-1")
    with pytest.raises(TransportError):
        backend.raw_complete(_request())


def test_wire_backend_bad_shape_is_transport_error(stub_server):
    _StubHandler.response_body = {"choices": []}
    backend = WireBackend(endpoint=stub_server, model="m-1")
    with pytest.raises(TransportError, match="choices"):
        backend.raw_complete(_request())


def test_wire_backend_connection_refused_is_transport_error():
    backend = WireBackend(endpoint="http://127.0.0.1:9", model="m-1", timeout_s=0.5)
    with pytest.raises(TransportError):
        backend.raw_complete(_request())


def test_wire_backend_non_json_body_is_transport_error(stub_server):
    _StubHandler.reply = "not-json"
    backend = WireBackend(endpoint=stub_server, model="m-1")
    with pytest.raises(TransportError, match="not JSON"):
        backend.raw_complete(_request())


@pytest.mark.parametrize(
    "reply, reason", [("deep", "nested too deeply"), ("long-int", "number too long")]
)
def test_a_wire_reply_that_cannot_be_decoded_costs_only_its_call(stub_server, reply, reason):
    """The body is malformed JSON, so the call is retried as a transport
    failure, metered, and then answered by the call site's fallback. The
    request's budget admits the 200 KB nested body under the reply cap."""
    _StubHandler.reply = reply
    backend = WireBackend(endpoint=stub_server, model="m-1")
    request = _request(max_tokens=4096)
    with pytest.raises(TransportError, match=f"not JSON: {reason}"):
        backend.raw_complete(request)
    counters = CostCounters()
    answer = complete_with_reask(backend, request, counters, parse_yes_no, "fallback")
    assert answer == "fallback"
    assert counters.llm_total() == 1
    assert counters.transport_retries == MAX_TRANSPORT_RETRIES
    assert len(_StubHandler.requests_seen) == 2 + MAX_TRANSPORT_RETRIES


@pytest.mark.parametrize("max_tokens", [1, 256, 512])
def test_a_wire_reply_body_is_capped_by_the_token_budget(stub_server, max_tokens):
    """A body of up to 64 KiB plus 64 bytes per token is read; one byte more
    is a transport failure, so it costs only its call: retried, metered, then
    the call site's fallback."""
    limit = REPLY_ENVELOPE_BYTES + REPLY_BYTES_PER_TOKEN * max_tokens
    assert limit == 65536 + 64 * max_tokens
    _StubHandler.reply = "padded"
    _StubHandler.response_body = {"choices": [{"message": {"content": "[Yes]"}}]}
    envelope = len(json.dumps(_StubHandler.response_body))
    backend = WireBackend(endpoint=stub_server, model="m-1")
    request = _request(max_tokens=max_tokens)
    _StubHandler.padding = limit - envelope
    assert backend.raw_complete(request) == "[Yes]"
    _StubHandler.padding += 1
    with pytest.raises(TransportError, match=f"over {limit} bytes"):
        backend.raw_complete(request)
    _StubHandler.requests_seen = []
    counters = CostCounters()
    answer = complete_with_reask(backend, request, counters, parse_yes_no, "fallback")
    assert answer == "fallback"
    assert counters.llm_total() == 1
    assert counters.transport_retries == MAX_TRANSPORT_RETRIES
    assert len(_StubHandler.requests_seen) == 1 + MAX_TRANSPORT_RETRIES


def test_wire_backend_timeout_is_transport_error(stub_server):
    _StubHandler.delay_s = 0.5
    backend = WireBackend(endpoint=stub_server, model="m-1", timeout_s=0.2)
    with pytest.raises(TransportError) as raised:
        backend.raw_complete(_request())
    assert isinstance(raised.value.__cause__, TimeoutError)


@pytest.mark.parametrize("reply", ["hang-up", "cut-body"])
def test_wire_backend_dropped_connection_is_transport_error(stub_server, reply):
    _StubHandler.reply = reply
    backend = WireBackend(endpoint=stub_server, model="m-1", timeout_s=5)
    with pytest.raises(TransportError):
        backend.raw_complete(_request())


def test_wire_backend_503_is_retried_by_complete(stub_server):
    _StubHandler.statuses = [503]
    counters = CostCounters()
    backend = WireBackend(endpoint=stub_server, model="m-1")
    assert complete(backend, _request(), counters) == "wire reply"
    assert counters.llm_total() == 1
    assert counters.transport_retries == 1
    assert len(_StubHandler.requests_seen) == 2


def test_wire_backend_opens_one_connection_per_call(stub_server):
    backend = WireBackend(endpoint=stub_server, model="m-1")
    backend.raw_complete(_request())
    backend.raw_complete(_request())
    assert _StubHandler.connections == 2


def test_wire_backend_honours_no_proxy(stub_server, proxy_env):
    proxy_env.setenv("HTTP_PROXY", "http://127.0.0.1:9")
    proxy_env.setenv("NO_PROXY", "127.0.0.1")
    backend = WireBackend(endpoint=stub_server, model="m-1", timeout_s=5)
    assert backend.raw_complete(_request()) == "wire reply"


def test_wire_backend_sends_through_the_proxy(stub_server, proxy_env):
    proxy_env.setenv("HTTP_PROXY", "http://127.0.0.1:9")
    backend = WireBackend(endpoint=stub_server, model="m-1", timeout_s=5)
    with pytest.raises(TransportError):
        backend.raw_complete(_request())
    assert _StubHandler.requests_seen == []


def test_a_wire_run_that_gets_the_same_replies_is_byte_identical(stub_server, proxy_env, tmp_path):
    """No trace holds a wall clock, so two wire runs served the same replies
    write the same bytes."""
    _StubHandler.response_body = {
        "choices": [{"message": {"content": "Thought 1: Done.\nAction 1: Finish[alpha 2]"}}]
    }
    graph_path = tmp_path / "graph.kg"
    save_graph(generate_synthetic_graph(11), graph_path)
    questions = write_question_file(
        tmp_path / "q.lines", [synthetic_question("q1"), synthetic_question("q2")]
    )
    runs = []
    for name in ("first", "second"):
        out = tmp_path / name
        run_experiment(
            RunConfig(
                kg_path=str(graph_path),
                questions_path=str(questions),
                out_dir=str(out),
                backend="wire",
                endpoint=stub_server,
                model="m-1",
            )
        )
        runs.append(
            {
                path.relative_to(out).as_posix(): path.read_bytes()
                for path in sorted(out.rglob("*"))
                if path.name == "results.lines" or path.suffix == ".trace"
            }
        )
    assert sorted(runs[0]) == ["results.lines", "traces/q1.trace", "traces/q2.trace"]
    assert runs[1] == runs[0]
    assert len(_StubHandler.requests_seen) == 4
    assert load_trace(tmp_path / "first" / "traces" / "q1.trace").answer == "alpha 2"


def test_a_tab_in_the_model_name_stays_on_the_config_line(stub_server, proxy_env, tmp_path):
    """The report writes a tab, newline or carriage return in a value as its
    escape, and ``score`` rebuilds the same bytes."""
    reply = "Thought 1: Done.\nAction 1: Finish[alpha\t2\nq9\tbeta]"
    _StubHandler.response_body = {"choices": [{"message": {"content": reply}}]}
    graph_path = tmp_path / "graph.kg"
    save_graph(generate_synthetic_graph(11), graph_path)
    questions = write_question_file(tmp_path / "q.lines", [synthetic_question("q1")])
    out = tmp_path / "run"
    config = RunConfig(
        kg_path=str(graph_path),
        questions_path=str(questions),
        out_dir=str(out),
        backend="wire",
        endpoint=stub_server,
        model="m\t1\r",
    )
    run_experiment(config)
    lines = (out / "report.table").read_bytes().decode("utf-8").split("\n")
    assert lines[1].startswith("# config: ") and " model=m\\t1\\r " in lines[1]
    assert lines[3].split("\t") == [
        "q1", "alpha\\t2\\nq9\\tbeta", "0.6667", "-", "-", "1", "0"
    ]
    assert lines[4].startswith("# overall: ")
    score_run(out / "traces", questions, tmp_path / "rescored")
    for name in ("results.lines", "report.table"):
        assert (tmp_path / "rescored" / name).read_bytes() == (out / name).read_bytes()


# --- parsers ----------------------------------------------------------------


@pytest.mark.parametrize(
    "text, expected",
    [
        ("answer {{alpha 2}}", "alpha 2"),
        ("[one] then [two]", "two"),
        ("{{first}} but [second]", "second"),
        ("nested list ['a', 'b'] end", "'a', 'b'"),
        ("{{ spaced  }}", "spaced"),
        ("multi\n[line\nspan] tail", "line\nspan"),
    ],
)
def test_parse_bracketed_answer(text, expected):
    assert parse_bracketed_answer(text) == expected


def test_parse_bracketed_answer_rejects_bare_text():
    with pytest.raises(MalformedOutputError):
        parse_bracketed_answer("nothing here")


@pytest.mark.parametrize(
    "text, expected",
    [
        ("{{a, , b }}", ["a", "b"]),
        ("{{x, y}} then [z]", ["z"]),
        ("[ , ]", []),
    ],
)
def test_parse_bracketed_list(text, expected):
    assert parse_bracketed_list(text) == expected


def test_parse_bracketed_list_rejects_bare_text():
    with pytest.raises(MalformedOutputError):
        parse_bracketed_list("a, b")


@pytest.mark.parametrize(
    "text, start, expected",
    [
        ("[a [b] c] d", 0, 8),
        ("[unclosed [b]", 0, None),
        ("Finish[x] Finish[y]", 16, 18),
    ],
)
def test_closing_bracket(text, start, expected):
    assert closing_bracket(text, start) == expected


@pytest.mark.parametrize(
    "text, expected",
    [("[Yes] indeed", True), ("[no]", False), ("meh [YES]", True)],
)
def test_parse_yes_no(text, expected):
    assert parse_yes_no(text) == expected


def test_parse_yes_no_rejects_other_tokens():
    with pytest.raises(MalformedOutputError):
        parse_yes_no("[maybe]")


@pytest.mark.parametrize(
    "text, expected",
    [("Score: 0.8", 0.8), ("first 1 then 0.25", 0.25), ("minus -3", -3.0)],
)
def test_parse_last_number(text, expected):
    assert parse_last_number(text) == expected


def test_parse_last_number_requires_a_number():
    with pytest.raises(MalformedOutputError):
        parse_last_number("no digits")


@given(st.text(max_size=60))
def test_parse_bracketed_never_crashes_oddly(text):
    """Any text either parses to a string or raises the malformed error."""
    try:
        result = parse_bracketed_answer(text)
    except MalformedOutputError:
        return
    assert isinstance(result, str)


@given(payload=st.text(alphabet="abc 123", max_size=20))
def test_parse_bracketed_recovers_payload(payload):
    assert parse_bracketed_answer("x {{" + payload + "}} y") == payload.strip()
