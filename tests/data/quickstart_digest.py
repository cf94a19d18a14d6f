"""Run the README quickstart in a temporary directory and print artifact digests.

Usage:
    python tests/data/quickstart_digest.py [--src DIR] [--n-jobs 50]
        [--n-background 400] [--seed 8]

Each command of the README quickstart runs as ``python -m rankfit.cli`` with
``DIR`` (default: this checkout's ``src``) first on PYTHONPATH. ``--seed``
replaces the quickstart's seed 8 wherever the README passes it, and
``--n-jobs``/``--n-background`` set the corpus scale. The output is one
``<sha256>  <path>`` line per file the commands wrote, meta sidecars
included, sorted by path, then the sha256 of that list. Run it against two
trees (``--src other/src``) and diff the output to check that a change keeps
every artifact byte-identical. Uses the standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

DEFAULT_SRC = Path(__file__).resolve().parents[2] / "src"


def quickstart(n_jobs: int, n_background: int, seed: int) -> list[list[str]]:
    """The README quickstart's commands, in order."""
    data = ["--corpus", "data/corpus.jsonl", "--labels", "data/labels.jsonl"]
    s = ["--seed", str(seed)]
    return [
        ["gen-synthetic", "--out-dir", "data", "--n-jobs", str(n_jobs), "--n-background", str(n_background), *s],
        ["build-windows", *data, "--pools", "data/pools.jsonl", "--out", "run/windows.jsonl", *s],
        ["annotate", "--windows", "run/windows.jsonl", *data, "--out", "run/annotated.jsonl",
         "--ranker", "noisy", "--p-flip", "0.4", *s],
        ["filter", "--windows", "run/annotated.jsonl", "--out", "run/filtered.jsonl", "--strategy", "remove_hard", *s],
        ["rerank", "--pools", "data/pools.jsonl", *data, "--out", "run/reranked.jsonl", "--ranker", "oracle", *s],
        ["evaluate", "--pools", "data/pools.jsonl", "--labels", "data/labels.jsonl",
         "--reranked", "run/reranked.jsonl", "--out", "run/rerank_report.json"],
        ["ablate", "--pools", "data/pools.jsonl", *data, "--out", "run/ablation.json",
         "--ranker", "noisy", "--p-flip", "0.3", "-t", "1"],
        ["distill", "--windows", "run/filtered.jsonl", *data, "--out", "run/sft.jsonl", "--teacher", "oracle"],
        ["simulate-grpo", "--windows", "run/filtered.jsonl", "--corpus", "data/corpus.jsonl",
         "--out-dir", "run/grpo", "--reward", "rearank", "--features", "match", "--seed", "0"],
    ]


def digests(root: Path) -> list[tuple[str, str]]:
    return [
        (hashlib.sha256(p.read_bytes()).hexdigest(), p.relative_to(root).as_posix())
        for p in sorted(root.rglob("*"))
        if p.is_file()
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=DEFAULT_SRC, help="directory holding the rankfit package")
    parser.add_argument("--n-jobs", type=int, default=50)
    parser.add_argument("--n-background", type=int, default=400)
    parser.add_argument("--seed", type=int, default=8)
    args = parser.parse_args()

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(args.src.resolve()), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory(prefix="quickstart-") as tmp:
        root = Path(tmp)
        for argv in quickstart(args.n_jobs, args.n_background, args.seed):
            run = subprocess.run([sys.executable, "-m", "rankfit.cli", *argv], cwd=root, env=env,
                                 capture_output=True, text=True)
            if run.returncode != 0:
                sys.stderr.write(f"rankfit {argv[0]} exited {run.returncode}:\n{run.stdout}{run.stderr}")
                return 1
        rows = digests(root)
    listing = "".join(f"{digest}  {path}\n" for digest, path in rows)
    sys.stdout.write(listing)
    sys.stdout.write(f"{hashlib.sha256(listing.encode('utf-8')).hexdigest()}  (all {len(rows)} files)\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
