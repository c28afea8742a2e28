"""Stub chat-completions server for the wire workload (stdlib only).

Run as its own process so its CPU work does not share an interpreter lock
with the program being measured:

    python3 bench/stub_server.py --delay-ms 10 --fail-every 20

It prints ``port <n>`` once it listens on localhost, then serves:

- ``POST /v1/chat/completions``: sleeps the fixed delay, then answers from
  the loaded response table. Every ``fail-every``-th request (counted in
  arrival order) gets HTTP 503 instead, once, so the client's retry path runs.
- ``POST /load``: the body names a table file (JSON lines of ``match`` /
  ``response`` and an optional ``case``). Entries without a case are tried
  first, in order; then the entries of the case named by the first
  ``(case <id>`` in the prompt. The first entry whose ``match`` occurs in
  the prompt answers.
- ``GET /stats``: ``{"served": n, "failed": m}``, every completion request
  received and the 503s among them.

The server speaks HTTP/1.1 keep-alive and handles requests on threads, so
clients that reuse connections or overlap calls see the benefit.
"""

from __future__ import annotations

import argparse
import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_CASE_RE = re.compile(r"\(case ([A-Za-z0-9_-]+)")


class Table:
    def __init__(self) -> None:
        self.generic: list[tuple[str, str]] = []
        self.by_case: dict[str, list[tuple[str, str]]] = {}

    @classmethod
    def from_file(cls, path: str) -> "Table":
        table = cls()
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if not line.strip():
                    continue
                row = json.loads(line)
                entry = (row["match"], row["response"])
                case = row.get("case")
                if case is None:
                    table.generic.append(entry)
                else:
                    table.by_case.setdefault(case, []).append(entry)
        return table

    def answer(self, prompt: str) -> str | None:
        for match, response in self.generic:
            if match in prompt:
                return response
        case = _CASE_RE.search(prompt)
        for match, response in self.by_case.get(case.group(1), ()) if case else ():
            if match in prompt:
                return response
        return None


class StubState:
    def __init__(self, delay_s: float, fail_every: int) -> None:
        self.delay_s = delay_s
        self.fail_every = fail_every
        self.table = Table()
        self.served = 0
        self.failed = 0
        self.lock = threading.Lock()

    def admit(self) -> bool:
        """Count one completion request; False if it is one to fail."""
        with self.lock:
            self.served += 1
            fail = self.fail_every > 0 and self.served % self.fail_every == 0
            self.failed += fail
            return not fail


def make_handler(state: StubState):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, format, *args):  # noqa: A002 - stdlib signature
            pass

        def _reply(self, status: int, body: dict) -> None:
            data = json.dumps(body).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def _body(self) -> bytes:
            return self.rfile.read(int(self.headers.get("Content-Length", 0)))

        def do_GET(self):
            if self.path != "/stats":
                self._reply(404, {"error": "not found"})
                return
            with state.lock:
                self._reply(200, {"served": state.served, "failed": state.failed})

        def do_POST(self):
            body = self._body()
            if self.path == "/load":
                state.table = Table.from_file(body.decode("utf-8"))
                self._reply(200, {"loaded": True})
                return
            if self.path != "/v1/chat/completions":
                self._reply(404, {"error": "not found"})
                return
            ok = state.admit()
            time.sleep(state.delay_s)
            if not ok:
                self._reply(503, {"error": "injected failure"})
                return
            prompt = json.loads(body)["messages"][0]["content"]
            content = state.table.answer(prompt)
            if content is None:
                self._reply(500, {"error": f"no table entry for prompt {prompt[:120]!r}"})
                return
            self._reply(200, {"choices": [{"message": {"role": "assistant", "content": content}}]})

    return Handler


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--delay-ms", type=float, required=True)
    parser.add_argument("--fail-every", type=int, required=True)
    args = parser.parse_args()
    state = StubState(args.delay_ms / 1000.0, args.fail_every)
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(state))
    server.daemon_threads = True
    print(f"port {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
