"""Local chat-completions stub for the ``endpoint`` workload.

Runs in its own process and speaks HTTP/1.1 on 127.0.0.1. Every
``POST /v1/chat/completions`` is answered after a fixed service delay
(``DELAY_MS``) with a ranking chosen by a hash of the request's system and
user messages (``answer_for``), so replies are deterministic and orderings
really move.
Two worker threads serve connections, matching a two-core machine.

The stub counts requests, accepted TCP connections that carried a chat
request, bytes in and out, and its own per-request service time.
``GET /stats`` returns those counters without counting itself;
``POST /shutdown`` stops the server, which then prints the final counters
as one JSON line on standard output and exits.

Usage: python3 stub.py
The first line printed is ``{"port": <n>}``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, HTTPServer

WORKERS = 2
DELAY_MS = 10.0  # fixed service delay per chat request
_SLOT = re.compile(r"^Resume \[(\d+)\]:", re.MULTILINE)


def answer_for(system: str, user: str) -> list[int]:
    """The ranking the stub returns for a prompt: one permutation of 1..k.

    k is the number of ``Resume [n]:`` sections in the user message; the
    permutation is picked by the first 8 bytes of a SHA-256 over both messages.
    """
    k = len(_SLOT.findall(user))
    perms = list(itertools.permutations(range(1, k + 1)))
    digest = hashlib.sha256(f"{system}\x00{user}".encode("utf-8")).digest()
    return list(perms[int.from_bytes(digest[:8], "big") % len(perms)])


def reply_text(ordering: list[int]) -> str:
    chain = " > ".join(f"[{slot}]" for slot in ordering)
    return f"Compared every resume against the job description.\n<answer> {chain} </answer>"


class Counters:
    def __init__(self):
        self.lock = threading.Lock()
        self.requests = 0
        self.connections = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.service_ms: list[float] = []

    def snapshot(self) -> dict:
        with self.lock:
            return {
                "requests": self.requests,
                "connections": self.connections,
                "bytes_in": self.bytes_in,
                "bytes_out": self.bytes_out,
                "service_ms": list(self.service_ms),
            }


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = 30  # an idle keep-alive connection frees its worker after this
    server: "StubServer"

    def setup(self):
        super().setup()
        self.counted_connection = False

    def log_message(self, format, *args):  # noqa: A002 - signature fixed by the base class
        pass

    def _send(self, status: int, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path == "/stats":
            self._send(200, json.dumps(self.server.counters.snapshot()).encode())
        else:
            self._send(404, b"{}")

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        if self.path == "/shutdown":
            self._send(200, b"{}")
            threading.Thread(target=self.server.shutdown).start()
            return
        if self.path != "/v1/chat/completions":
            self._send(404, b"{}")
            return
        started = time.perf_counter()
        payload = json.loads(body)
        messages = {m["role"]: m["content"] for m in payload["messages"]}
        content = reply_text(answer_for(messages["system"], messages["user"]))
        time.sleep(DELAY_MS / 1000.0)
        out = json.dumps(
            {
                "object": "chat.completion",
                "model": payload.get("model"),
                "choices": [
                    {
                        "index": 0,
                        "message": {"role": "assistant", "content": content},
                        "finish_reason": "stop",
                    }
                ],
            }
        ).encode()
        self._send(200, out)
        service_ms = (time.perf_counter() - started) * 1000.0
        counters = self.server.counters
        with counters.lock:
            counters.requests += 1
            counters.bytes_in += len(body)
            counters.bytes_out += len(out)
            counters.service_ms.append(service_ms)
            if not self.counted_connection:
                counters.connections += 1
        self.counted_connection = True


class StubServer(HTTPServer):
    """HTTPServer whose connections are served by a fixed pool of worker threads."""

    def __init__(self):
        super().__init__(("127.0.0.1", 0), Handler)
        self.counters = Counters()
        self.pool = ThreadPoolExecutor(max_workers=WORKERS)

    def process_request(self, request, client_address):
        self.pool.submit(self._serve, request, client_address)

    def _serve(self, request, client_address):
        try:
            self.finish_request(request, client_address)
        except Exception:
            self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)


def main() -> None:
    server = StubServer()
    print(json.dumps({"port": server.server_address[1]}), flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.pool.shutdown(wait=True)
        server.server_close()
    print(json.dumps(server.counters.snapshot()), flush=True)


if __name__ == "__main__":
    main()
