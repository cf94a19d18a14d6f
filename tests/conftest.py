import json
import os
import random
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

from rankfit.core import Document, KIND_JOB, KIND_RESUME, RankedPool
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
# third-party modules the process loaded
_PROBE = """
import json, sys
from rankfit.cli import main
try:
    main(sys.argv[1:], prog_name="rankfit")
except SystemExit as exc:
    code = exc.code or 0
print(json.dumps({"exit": code, "loaded": [m for m in ("numpy", "requests") if m in sys.modules]}))
"""


def run_rankfit(args, timeout=60):
    """``rankfit ARGS`` in a fresh interpreter: (exit code, output, ["numpy", "requests"] subset loaded).

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


_ERROR_STATUS = {"error": 500, "not_found": 404}


class ChatHandler(BaseHTTPRequestHandler):
    """A chat-completions endpoint answering [2] > [3] > [1] > [4], or the error status ``behavior`` names."""

    behavior = "ok"
    hits = 0
    last_body = None

    def do_POST(self):
        type(self).hits += 1
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).last_body = body
        assert body["messages"][0]["role"] == "system"
        if type(self).behavior in _ERROR_STATUS:
            self.send_response(_ERROR_STATUS[type(self).behavior])
            self.end_headers()
            return
        reply = {
            "choices": [
                {"message": {"content": "<answer> [2] > [3] > [1] > [4] </answer>"}}
            ]
        }
        payload = json.dumps(reply).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server():
    server = HTTPServer(("127.0.0.1", 0), ChatHandler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()
