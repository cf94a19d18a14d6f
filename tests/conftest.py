import json
import os
import random
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from types import SimpleNamespace

import pytest

import rankfit.ranker
from rankfit.core import Document, KIND_JOB, KIND_RESUME, RankedPool
from rankfit.synthetic import generate
from rankfit.windows import Window


def make_resume(rid, skills="python, sql"):
    return Document(
        id=rid,
        kind=KIND_RESUME,
        fields=(("title", f"Engineer {rid}"), ("skills", skills)),
    )


def make_job(jid, skills="python, sql, kafka"):
    return Document(
        id=jid,
        kind=KIND_JOB,
        fields=(("title", f"Role {jid}"), ("required skills", skills)),
    )


def generate_corpus(cfg):
    """``synthetic.generate`` with the documents it hands on collected: ({id: Document} in corpus order, labels, pools)."""
    docs = {}

    def keep(doc):
        docs[doc.id] = doc

    labels, pools = generate(cfg, keep)
    return docs, labels, pools


def make_pool(job_id="j1", n=20, accepted_ranks=(4,)):
    """A labeled pool with positives planted at the given 0-based ranks."""
    ids = [f"{job_id}-r{i}" for i in range(n)]
    accepted = frozenset(ids[i] for i in accepted_ranks)
    return RankedPool(job_id=job_id, candidates=tuple(ids), accepted_ids=accepted)


def corpus_for(pool):
    docs = {pool.job_id: make_job(pool.job_id)}
    for cid in pool.candidates:
        docs[cid] = make_resume(cid)
    return docs


def make_window(window_id="j1/w0", job_id="j1", gold_slot=1, r_bar=None, hint=None):
    """A 4-candidate window with the gold presented at ``gold_slot``."""
    ids = ("gold", "n1", "n2", "n3")
    presented = list(range(1, 5))
    # candidate_ids[presented[j]-1] sits at slot j+1; put the gold (index 1) there
    presented.remove(1)
    presented.insert(gold_slot - 1, 1)
    return Window(
        window_id=window_id,
        job_id=job_id,
        candidate_ids=tuple(f"{window_id}-{c}" for c in ids),
        gold_id=f"{window_id}-gold",
        presented_order=tuple(presented),
        r_bar=r_bar,
        hint=hint,
    )


def corpus_for_windows(windows):
    docs = {}
    for w in windows:
        if w.job_id not in docs:
            docs[w.job_id] = make_job(w.job_id)
        for cid in w.candidate_ids:
            docs[cid] = make_resume(cid)
    return docs


@pytest.fixture
def rng():
    return random.Random(0)


SRC = Path(__file__).resolve().parents[1] / "src"

# runs the CLI as the console script does, then reports which of the heavy
# third-party modules, which of the two ways into OpenSSL, and which of the
# standard library's heavier modules no stage needs, the process loaded
_PROBE = """
import json, sys
from rankfit.cli import main
try:
    main(sys.argv[1:], prog_name="rankfit")
except SystemExit as exc:
    code = exc.code or 0
print(json.dumps({"exit": code, "loaded": [m for m in ("numpy", "requests", "_hashlib", "ssl", "statistics", "decimal", "unicodedata") if m in sys.modules]}))
"""


def run_rankfit(args, timeout=60):
    """``rankfit ARGS`` in a fresh interpreter: (exit code, output, the ``_PROBE`` modules it loaded).

    The probed modules are numpy, requests, ``_hashlib`` and ``ssl``, which
    each load OpenSSL's libcrypto (``_hashlib`` is what ``import hashlib``
    loads), and ``statistics``, ``decimal`` and ``unicodedata``.
    ``statistics`` imports ``fractions`` and ``decimal``; ``unicodedata``
    comes with the ``idna`` codec that a ``str`` host makes
    ``socket.getaddrinfo`` load.

    A run that outlives ``timeout`` seconds raises subprocess.TimeoutExpired.
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *map(str, args)],
        capture_output=True, text=True, timeout=timeout, env=env,
    )
    *lines, last = proc.stdout.splitlines() or [""]
    try:
        report = json.loads(last)
    except ValueError:
        raise AssertionError(f"rankfit {args} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}") from None
    return report["exit"], "\n".join(lines) + proc.stderr, report["loaded"]


def chat_body(content) -> bytes:
    """A chat-completions reply body whose one choice's message content is ``content``."""
    return json.dumps({"choices": [{"message": {"content": content}}]}).encode()


@pytest.fixture
def fake_endpoint(monkeypatch):
    """Replaces the client's transport ``rankfit.ranker._requests_post``; no socket is opened.

    The n-th request gets ``replies[n]``, and the last one repeats. A string
    is a 200 reply with that message content, bytes a 200 reply with that
    body, an int a reply with that status, ``(status, headers)`` the same
    with headers, and an exception is raised. ``requests`` holds each
    request's (path, payload, headers).
    """
    endpoint = SimpleNamespace(replies=[], requests=[])

    def post(conn, path, payload, headers):
        reply = endpoint.replies[min(len(endpoint.requests), len(endpoint.replies) - 1)]
        endpoint.requests.append((path, payload, headers))
        if isinstance(reply, BaseException):
            raise reply
        if isinstance(reply, str):
            reply = chat_body(reply)
        if isinstance(reply, bytes):
            return 200, {}, reply
        status, fields = reply if isinstance(reply, tuple) else (reply, {})
        return status, fields, b"{}"

    monkeypatch.setattr(rankfit.ranker, "_requests_post", post)
    return endpoint


class _FaultHandler(BaseHTTPRequestHandler):
    """Replies to the n-th request as ``server.script[n]`` says; the last entry repeats.

    "ok" answers ``server.answer(user prompt)``; "hold" answers the same
    after 50 ms; "late" after a delay of 0-15 ms drawn from ``server.delays``;
    "short" sends a body 50 bytes short of its Content-Length and closes;
    "close" and "hang" close without a reply, "hang" only once
    ``server.release`` is set; ``(status, headers)`` sends that status.
    ``server.peak`` is the most requests in progress at once,
    ``server.connections`` the connections accepted and ``server.last_body``
    the last request's JSON. A connection closes after its
    ``server.close_after``-th reply, with no ``Connection: close``.
    """

    def setup(self):
        super().setup()
        self.replies = 0
        with self.server.lock:
            self.server.connections += 1

    def do_POST(self):
        server = self.server
        request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with server.lock:
            fault = server.script[min(server.hits, len(server.script) - 1)]
            server.hits += 1
            server.last_body = request
            server.open += 1
            server.peak = max(server.peak, server.open)
            delay = server.delays.uniform(0, 0.015) if fault == "late" else 0
        if fault == "hang":
            server.release.wait(30)
        elif fault in ("hold", "late"):
            server.release.wait(0.05 if fault == "hold" else delay)
        with server.lock:
            server.open -= 1  # before the reply, which lets the client open its next connection
        self.replies += 1
        if fault in ("hang", "close", "short") or self.replies == server.close_after:
            self.close_connection = True
        if fault in ("hang", "close"):
            return
        status, headers = fault if isinstance(fault, tuple) else (200, {})
        body = chat_body(server.answer(request["messages"][1]["content"])) if status == 200 else b"{}"
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body) + (50 if fault == "short" else 0)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class _KeepAliveHandler(_FaultHandler):
    """The same replies over HTTP/1.1, so a connection stays open between requests."""

    protocol_version = "HTTP/1.1"


def _serve(handler, answer="<answer> [1] > [2] > [3] > [4] </answer>"):
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.script, server.hits, server.open, server.peak, server.connections = ["ok"], 0, 0, 0, 0
    server.close_after, server.delays, server.last_body = None, random.Random(0), None
    server.answer = lambda user: answer
    server.lock, server.release = threading.Lock(), threading.Event()
    server.url = f"http://127.0.0.1:{server.server_port}"
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    yield server
    server.release.set()
    server.shutdown()
    server.server_close()


@pytest.fixture
def http_server():
    """A chat-completions endpoint at ``.url`` answering [2] > [3] > [1] > [4]; HTTP/1.0, like fault_server."""
    yield from _serve(_FaultHandler, "<answer> [2] > [3] > [1] > [4] </answer>")


@pytest.fixture
def fault_server():
    """HTTP/1.0: the server closes every connection after its reply."""
    yield from _serve(_FaultHandler)


@pytest.fixture
def keepalive_server():
    yield from _serve(_KeepAliveHandler)
