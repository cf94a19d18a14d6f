"""Run the README quickstart in a temporary directory and print artifact digests.

Usage:
    python tests/data/quickstart_digest.py [--src DIR] [--against DIR]
        [--n-jobs 50] [--n-background 400] [--seed 8] [--grpo-windows N] [--rss]

Each command of the README quickstart runs as ``python -m rankfit.cli`` with
``DIR`` (default: this checkout's ``src``) first on PYTHONPATH. ``--seed``
replaces the quickstart's seed 8 wherever the README passes it, and
``--n-jobs``/``--n-background`` set the corpus scale. ``--grpo-windows N``
trains ``simulate-grpo`` on the first N kept windows, copied to
``run/train.jsonl``, as the benchmark's ``pipeline`` workload does with 300;
without it, the simulator trains on every kept window. The output is one
``<sha256>  <path>`` line per file the commands wrote, meta sidecars
included, sorted by path, then the sha256 of that list. ``--against
other/src`` runs the quickstart on that tree too, prints only the paths whose
digest differs between the two (or that one tree lacks), and exits 1 if any
does: the check that a change keeps every artifact byte-identical.
``--rss`` then prints each command's peak RSS in MB, the ``ru_maxrss`` that
``os.wait4`` reports for it, with one column per tree. A forked process's
peak starts from the RSS of the process that forked it, so the commands are
started by a small spawner process, which this script starts before it loads
anything else. The spawner's own peak is printed under the table as
``# floor``: a command that reads near it may be reading the spawner's
peak, not its own. Uses the standard library only.
"""

from __future__ import annotations

import subprocess
import sys

# The spawner reads one JSON request per line, {"cmd", "cwd", "env"}, runs it
# and replies with one line, {"code", "output", "maxrss_kb"}. At the end of
# its input it writes its own peak, {"floor_kb"}, and exits.
_SPAWNER = r"""
import json, os, resource, subprocess, sys
for line in sys.stdin:
    req = json.loads(line)
    proc = subprocess.Popen(req["cmd"], cwd=req["cwd"], env=req["env"],
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    with proc.stdout:
        output = proc.stdout.read().decode("utf-8", errors="replace")
    _, status, usage = os.wait4(proc.pid, 0)
    reply = {"code": os.waitstatus_to_exitcode(status), "output": output, "maxrss_kb": usage.ru_maxrss}
    print(json.dumps(reply), flush=True)
print(json.dumps({"floor_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}), flush=True)
"""

if __name__ == "__main__":  # while this process is still small
    SPAWNER = subprocess.Popen([sys.executable, "-c", _SPAWNER], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

DEFAULT_SRC = Path(__file__).resolve().parents[2] / "src"


def quickstart(n_jobs: int, n_background: int, seed: int, grpo_windows: int | None = None) -> list[list[str]]:
    """The README quickstart's commands, in order; with ``grpo_windows``, simulate-grpo reads run/train.jsonl."""
    train = "run/filtered.jsonl" if grpo_windows is None else "run/train.jsonl"
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
        ["simulate-grpo", "--windows", train, "--corpus", "data/corpus.jsonl",
         "--out-dir", "run/grpo", "--reward", "rearank", "--features", "match", "--seed", "0"],
    ]


def digests(root: Path) -> list[tuple[str, str]]:
    """(sha256, path relative to ``root``) of every file under ``root``, sorted by path; files are read in chunks."""
    listing = []
    for p in sorted(root.rglob("*")):
        if p.is_file():
            sha = hashlib.sha256()
            with open(p, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    sha.update(chunk)
            listing.append((sha.hexdigest(), p.relative_to(root).as_posix()))
    return listing


def run_stage(spawner: subprocess.Popen, argv: list[str], cwd: Path, env: dict) -> tuple[int, str, float]:
    """Run one command to its end through the spawner: (exit code, its merged stdout and stderr, its peak RSS in MB)."""
    spawner.stdin.write(json.dumps({"cmd": argv, "cwd": str(cwd), "env": env}) + "\n")
    spawner.stdin.flush()
    reply = spawner.stdout.readline()
    if not reply:
        raise RuntimeError("the spawner exited")
    reply = json.loads(reply)
    return reply["code"], reply["output"], reply["maxrss_kb"] / 1024.0  # Linux reports KiB


def floor_mb(spawner: subprocess.Popen) -> float:
    """Close the spawner: its own peak RSS in MB, from which each command it started began."""
    spawner.stdin.close()
    floor = json.loads(spawner.stdout.readline())["floor_kb"] / 1024.0
    spawner.stdout.close()
    spawner.wait()
    return floor


def run_quickstart(
    spawner: subprocess.Popen, src: Path, n_jobs: int, n_background: int, seed: int, grpo_windows: int | None = None
) -> tuple[dict[str, str], dict[str, float]] | None:
    """({path: sha256} of every file the quickstart wrote, {command: peak RSS in MB}) with ``src`` first on PYTHONPATH; None if a command failed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src.resolve()), env.get("PYTHONPATH")]))
    rss: dict[str, float] = {}
    with tempfile.TemporaryDirectory(prefix="quickstart-") as tmp:
        root = Path(tmp)
        for argv in quickstart(n_jobs, n_background, seed, grpo_windows):
            if argv[0] == "simulate-grpo" and grpo_windows is not None:
                with open(root / "run/filtered.jsonl", "rb") as kept, open(root / "run/train.jsonl", "wb") as train:
                    train.writelines(itertools.islice(kept, grpo_windows))
            code, output, rss[argv[0]] = run_stage(spawner, [sys.executable, "-m", "rankfit.cli", *argv], root, env)
            if code != 0:
                sys.stderr.write(f"rankfit {argv[0]} ({src}) exited {code}:\n{output}")
                return None
        return {path: digest for digest, path in digests(root)}, rss


def main(spawner: subprocess.Popen) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=DEFAULT_SRC, help="directory holding the rankfit package")
    parser.add_argument("--against", type=Path, default=None,
                        help="a second package directory; print only the paths whose digest differs")
    parser.add_argument("--n-jobs", type=int, default=50)
    parser.add_argument("--n-background", type=int, default=400)
    parser.add_argument("--seed", type=int, default=8)
    parser.add_argument("--grpo-windows", type=int, default=None, metavar="N",
                        help="train simulate-grpo on the first N kept windows only")
    parser.add_argument("--rss", action="store_true", help="also print each command's peak RSS in MB, per tree")
    try:  # argparse exits on --help or a bad argument; the spawner must still be closed
        args = parser.parse_args()
        trees = [args.src] if args.against is None else [args.src, args.against]
        runs = [run_quickstart(spawner, src, args.n_jobs, args.n_background, args.seed, args.grpo_windows) for src in trees]
    finally:
        floor = floor_mb(spawner)
    if None in runs:
        return 1
    files = [digest for digest, _ in runs]
    code = 0
    if args.against is not None:
        ours, theirs = files
        differ = sorted(p for p in ours.keys() | theirs.keys() if ours.get(p) != theirs.get(p))
        sys.stdout.write("".join(f"{path}\n" for path in differ))
        sys.stderr.write(f"{len(differ)} of {len(ours.keys() | theirs.keys())} files differ\n")
        code = 1 if differ else 0
    else:
        listing = "".join(f"{digest}  {path}\n" for path, digest in files[0].items())
        sys.stdout.write(listing)
        sys.stdout.write(f"{hashlib.sha256(listing.encode('utf-8')).hexdigest()}  (all {len(files[0])} files)\n")
    if args.rss:
        sys.stdout.write(f"# peak RSS in MB: {' | '.join(map(str, trees))}\n")
        for stage in runs[0][1]:
            mb = [rss[stage] for _, rss in runs]
            change = f" {mb[1] - mb[0]:+8.2f}" if len(mb) == 2 else ""
            sys.stdout.write(f"{stage:<14}" + "".join(f" {v:8.2f}" for v in mb) + f"{change}\n")
        sys.stdout.write(f"{'# floor':<14} {floor:8.2f}\n")
    return code


if __name__ == "__main__":
    sys.exit(main(SPAWNER))
