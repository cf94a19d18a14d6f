import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from rankfit.core import ACCEPTED, UNLABELED, Document, KIND_JOB, KIND_RESUME, RankedPool
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
    labels = {
        cid: ACCEPTED if i in accepted_ranks else UNLABELED for i, cid in enumerate(ids)
    }
    return RankedPool(job_id=job_id, candidates=tuple(ids), labels=labels)


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
