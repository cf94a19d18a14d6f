"""The rankfit benchmark: seeded workloads run through the ``rankfit`` CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

``--workload`` is ``pipeline``, ``endpoint`` or ``all``. Each
stage runs as its own process, exactly as the ``rankfit`` console script runs
it, from the toolkit in ``src/``. The seed only generates the inputs. After
set-up (repeated ``SETUP_REPS`` times; the median is ``setup_s``) the
workload's timed stages repeat until ``--seconds`` have passed, at least
``MIN_REPS`` times, and every repetition's outputs are checked against
routes written here, independently of the toolkit.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` reports the
per-layer metrics: it runs the timed stages of every workload once with
spans recorded around the toolkit's public functions (see tracing.py), so
each layer is measured on the workload that exercises it, and runs each
selected workload once more untraced to give the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's context. The full record is also written to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

import tracing
from stub import DELAY_MS, answer_for

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
# What the ``rankfit`` console script does.
ENTRY = "import sys; from rankfit.cli import main; sys.argv[0] = 'rankfit'; sys.exit(main())"

SETUP_REPS = 3
MIN_REPS = 2
CLI_IMPORT_REPS = 5

PIPELINE_SCALE = (500, 4000)
ENDPOINT_SCALE = (50, 400)
# Window counts vary by about 7% (1 sigma) from seed to seed, and GRPO time
# grows with their square. So the simulator and the endpoint stages get a
# fixed count of windows, far below what seeds give: about 2,500 kept windows
# at 500/4000, and at least 218 windows at 50/400 over 20 seeds.
GRPO_WINDOWS = 300
ENDPOINT_WINDOWS = 120
CLIENTS = 2  # --jobs and max_concurrency for endpoint annotate/rerank; nproc here

# Toolkit defaults the checks rely on, restated so the checks do not import them.
ANNOTATE_TRIALS = 5
HARD_THRESHOLD = 0.4
POOL_SIZE, WINDOW, STRIDE, PASSES = 20, 4, 2, 2
ABLATE_GRID = ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3))
ABLATE_PASSES = 1
GRPO_EPOCHS, GRPO_BATCH = 2, 16

# Each workload's one-line reason, as declared next to its bounds.
WHY = {w["name"]: w["why"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}


class BenchError(Exception):
    """The benchmark itself cannot run (missing program, unusable seed)."""


# ---------------------------------------------------------------------------
# Stage processes
# ---------------------------------------------------------------------------


@dataclass
class StageRun:
    name: str
    start: float
    end: float
    code: int
    maxrss_kb: int
    calls: int = 0
    spans: Path | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Rep:
    stages: list[StageRun]
    digests: dict[str, str] = field(default_factory=dict)
    stub: dict | None = None  # the stub's counters over this repetition (endpoint)
    windows: int = 0

    @property
    def wall(self) -> float:
        """Time in timed stages; the benchmark's own work between them is left out."""
        return sum(s.seconds for s in self.stages)

    def stage(self, name: str) -> StageRun:
        return next(s for s in self.stages if s.name == name)


class Spawner:
    """The small process that starts stages and reports their rusage (spawn.py)."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawn.py")], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def run(self, cmd: list[str], cwd: Path, env: dict, log: Path) -> dict:
        request = {"cmd": cmd, "cwd": str(cwd), "env": env, "log": str(log)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("the stage spawner exited")
        return json.loads(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


class Runner:
    """Runs stage processes and keeps the tally of operations and failures."""

    def __init__(self, spawner: Spawner):
        self.spawner = spawner
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
        )
        self.operations = 0  # stages run and output checks made
        self.http_calls = 0  # ranker calls the endpoint stub served
        self.failures: list[str] = []  # failed stages and checks
        self.degraded = 0
        self.children: list[subprocess.Popen] = []

    def stage(self, name: str, argv: list[str], cwd: Path, spans: Path | None = None) -> StageRun:
        if spans is None:
            cmd = [sys.executable, "-c", ENTRY, *argv]
        else:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), "--spans", str(spans),
                   "--run-id", f"{cwd.name}/{name}", "--", *argv]
        cwd.mkdir(parents=True, exist_ok=True)
        done = self.spawner.run(cmd, cwd, self.env, cwd / f"{name}.log")
        code = done["code"]
        self.operations += 1
        if code != 0:
            tail = (cwd / f"{name}.log").read_text(errors="replace").strip().splitlines()[-3:]
            self.failures.append(f"{cwd.name}/{name} exited {code}: {' | '.join(tail)}")
        return StageRun(name, done["start"], done["end"], code, done["maxrss_kb"], spans=spans)

    def check(self, ok: bool, what: str) -> None:
        """An output check is one operation; a failed one is one failure."""
        self.operations += 1
        if not ok:
            self.failures.append(f"check failed: {what}")

    @property
    def attempted(self) -> int:
        return self.operations + self.http_calls

    @property
    def failed(self) -> int:
        return len(self.failures) + self.degraded

    @property
    def ok_share(self) -> float:
        """Share of stages and output checks that passed.

        Ranker calls are left out, so that they cannot dilute a failure: a run
        makes 30-55 operations, and one failure lowers the share by 2-3%.
        A degraded call fails a check.
        """
        return 1.0 - len(self.failures) / max(self.operations, 1)

    def run_chain(self, chain, cwd: Path, spans_dir: Path | None, between=None) -> Rep:
        stages = []
        for name, argv in chain:
            before = between() if between else None
            spans = spans_dir / f"{cwd.parent.name}-{cwd.name}-{name}.json" if spans_dir else None
            run = self.stage(name, argv, cwd, spans)
            if between:
                run.calls = between() - before
            stages.append(run)
        return Rep(stages)

    def stop_children(self) -> None:
        for proc in self.children:
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        self.children.clear()


# ---------------------------------------------------------------------------
# Reading outputs (independently of the toolkit)
# ---------------------------------------------------------------------------


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def write_lines(path: Path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def digests(root: Path, names: list[str]) -> dict[str, str]:
    return {n: hashlib.sha256((root / n).read_bytes()).hexdigest() for n in names}


def window_starts(pool_size: int, k: int, s: int) -> list[int]:
    """1-based starts of one sliding-window pass: bottom-up by s, the last clamped to 1."""
    starts = [pool_size - k + 1]
    while starts[-1] > 1:
        starts.append(max(1, starts[-1] - s))
    return starts


def accepted_pairs(labels_path: Path) -> set[tuple[str, str]]:
    return {(r["job_id"], r["resume_id"]) for r in read_jsonl(labels_path) if r["y"] == 1}


def presented(window: dict) -> list[str]:
    return [window["candidates"][i - 1] for i in window["presented_order"]]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def gen_and_build(scale: tuple[int, int], seed: int) -> list[tuple[str, list[str]]]:
    n_jobs, n_background = scale
    return [
        ("gen-synthetic", ["gen-synthetic", "--out-dir", "data", "--n-jobs", str(n_jobs),
                           "--n-background", str(n_background), "--seed", str(seed)]),
        ("build-windows", ["build-windows", "--corpus", "data/corpus.jsonl", "--labels",
                           "data/labels.jsonl", "--pools", "data/pools.jsonl",
                           "--out", "run/windows.jsonl", "--seed", str(seed)]),
    ]


class Pipeline:
    """The README quickstart: built-in rankers, then the simulator on a fixed window count."""

    name = "pipeline"
    artifacts = ["data/corpus.jsonl", "data/labels.jsonl", "data/pools.jsonl", "run/windows.jsonl",
                 "run/skips.json", "run/annotated.jsonl", "run/filtered.jsonl", "run/reranked.jsonl",
                 "run/rerank_report.json", "run/ablation.json", "run/sft.jsonl", "run/grpo/curve.csv",
                 "run/grpo/policy.json"]

    def setup(self, r: Runner, d: Path, seed: int) -> dict:
        r.stage("version", ["--version"], d)  # the first import warms the file cache
        return {"seed": seed, "corpus": dict(zip(("n_jobs", "n_background"), PIPELINE_SCALE))}

    def teardown(self, r: Runner, ctx: dict) -> None:
        pass

    def run(self, r: Runner, ctx: dict, d: Path, spans_dir: Path | None) -> Rep:
        data = ["--corpus", "data/corpus.jsonl", "--labels", "data/labels.jsonl"]
        s = ["--seed", str(ctx["seed"])]
        chain = gen_and_build(PIPELINE_SCALE, ctx["seed"]) + [
            ("annotate", ["annotate", "--windows", "run/windows.jsonl", *data, "--out", "run/annotated.jsonl",
                          "--ranker", "noisy", "--p-flip", "0.4", *s]),
            ("filter", ["filter", "--windows", "run/annotated.jsonl", "--out", "run/filtered.jsonl",
                        "--strategy", "remove_hard", *s]),
            ("rerank", ["rerank", "--pools", "data/pools.jsonl", *data, "--out", "run/reranked.jsonl",
                        "--ranker", "oracle", *s]),
            ("evaluate", ["evaluate", "--pools", "data/pools.jsonl", "--labels", "data/labels.jsonl",
                          "--reranked", "run/reranked.jsonl", "--out", "run/rerank_report.json", *s]),
            ("ablate", ["ablate", "--pools", "data/pools.jsonl", *data, "--out", "run/ablation.json",
                        "--ranker", "noisy", "--p-flip", "0.3", "-t", str(ABLATE_PASSES), *s]),
            ("distill", ["distill", "--windows", "run/filtered.jsonl", *data, "--out", "run/sft.jsonl",
                         "--teacher", "oracle", *s]),
        ]
        rep = r.run_chain(chain, d, spans_dir)
        if (d / "run/filtered.jsonl").exists():
            write_lines(d / "run/train.jsonl", read_jsonl(d / "run/filtered.jsonl")[:GRPO_WINDOWS])
        grpo = [("simulate-grpo", ["simulate-grpo", "--windows", "run/train.jsonl", "--corpus", "data/corpus.jsonl",
                                   "--out-dir", "run/grpo", "--reward", "rearank", "--features", "match", *s])]
        rep.stages += r.run_chain(grpo, d, spans_dir).stages
        if all(stage.code == 0 for stage in rep.stages):
            self.check(r, d, rep)
            rep.digests = digests(d, self.artifacts)
            ctx["windows"] = rep.windows
        return rep

    def check(self, r: Runner, d: Path, rep: Rep) -> None:
        """Check every stage's output; set each ranker stage's call count."""
        pools = read_jsonl(d / "data/pools.jsonl")
        accepted = accepted_pairs(d / "data/labels.jsonl")
        windows = read_jsonl(d / "run/windows.jsonl")
        annotated = read_jsonl(d / "run/annotated.jsonl")
        filtered = read_jsonl(d / "run/filtered.jsonl")
        reranked = read_jsonl(d / "run/reranked.jsonl")
        ids = lambda rows: [w["window_id"] for w in rows]  # noqa: E731

        skips = json.loads((d / "run/skips.json").read_text())
        r.check(len(windows) == skips["windows_emitted"], "pipeline: windows written match the skip report")
        r.check(ids(annotated) == ids(windows) and all(w["r_bar"] is not None for w in annotated),
                "pipeline: annotate scored every window")
        r.check(ids(filtered) == [w["window_id"] for w in annotated if w["r_bar"] >= HARD_THRESHOLD],
                f"pipeline: remove_hard kept exactly the windows with r_bar >= {HARD_THRESHOLD}")
        full = {p["job_id"]: p["candidates"] for p in pools if len(p["candidates"]) == POOL_SIZE}
        r.check([row["job_id"] for row in reranked] == list(full), "pipeline: one reranked row per full pool")
        r.check(all(sorted(row["final"]) == sorted(full.get(row["job_id"], ())) for row in reranked),
                "pipeline: every final ordering is a permutation of its pool")
        degraded = sum(row["degraded_calls"] for row in reranked)
        r.degraded += degraded
        r.check(degraded == 0, f"pipeline: {degraded} rerank calls degraded")
        report = json.loads((d / "run/rerank_report.json").read_text())["macro"]
        r.check(report["jobs_evaluated"] + report["jobs_excluded"] == len(reranked),
                "pipeline: evaluate scored or excluded every reranked pool")
        ablation = json.loads((d / "run/ablation.json").read_text())
        r.check(len(ablation["rows"]) == len(ABLATE_GRID) and not ablation["rejected"],
                "pipeline: ablate ran every grid point")
        # The oracle teacher ranks the only accepted candidate, the gold, first.
        r.check(ids(read_jsonl(d / "run/sft.jsonl")) == ids(filtered), "pipeline: oracle distillation kept every window")

        with open(d / "run/grpo/curve.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        expected = GRPO_EPOCHS * math.ceil(min(GRPO_WINDOWS, len(filtered)) / GRPO_BATCH)
        r.check(len(filtered) >= GRPO_WINDOWS, f"pipeline: {len(filtered)} kept windows, fewer than {GRPO_WINDOWS}")
        r.check(len(rows) == expected, f"simulate-grpo: {len(rows)} curve rows, expected {expected}")
        r.check(all(math.isfinite(float(v)) for row in rows for v in row.values()),
                "simulate-grpo: every curve value is finite")
        theta = json.loads((d / "run/grpo/policy.json").read_text())["theta"]
        r.check(bool(theta) and all(math.isfinite(float(x)) for x in theta), "simulate-grpo: theta is finite")

        with_positive = sum(1 for job, cands in full.items() if any((job, c) in accepted for c in cands))
        rep.stage("annotate").calls = len(windows) * ANNOTATE_TRIALS
        rep.stage("rerank").calls = len(reranked) * PASSES * len(window_starts(POOL_SIZE, WINDOW, STRIDE))
        rep.stage("ablate").calls = (with_positive * ABLATE_PASSES
                                     * sum(len(window_starts(POOL_SIZE, k, s)) for k, s in ABLATE_GRID))
        rep.stage("distill").calls = len(filtered)
        rep.windows = len(windows)


class Stub:
    """The chat-completions stub process (stub.py)."""

    def __init__(self, r: Runner):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "stub.py")], stdout=subprocess.PIPE, text=True)
        r.children.append(self.proc)
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("stub did not start")
        self.port = json.loads(line)["port"]
        self.base_url = f"http://127.0.0.1:{self.port}"

    def stats(self) -> dict:
        with urllib.request.urlopen(self.base_url + "/stats", timeout=10) as resp:
            return json.loads(resp.read())

    def requests(self) -> int:
        return self.stats()["requests"]

    def stop(self) -> dict:
        """Shut the stub down and return the counters it reports at exit."""
        req = urllib.request.Request(self.base_url + "/shutdown", data=b"", method="POST")
        with urllib.request.urlopen(req, timeout=10):
            pass
        final = json.loads(self.proc.stdout.read().strip().splitlines()[-1])
        self.proc.wait(timeout=30)
        self.proc.stdout.close()
        return final


class Endpoint:
    name = "endpoint"
    artifacts = ["run/annotated.jsonl", "run/reranked.jsonl", "run/sft.jsonl"]

    def setup(self, r: Runner, d: Path, seed: int) -> dict:
        rep = r.run_chain(gen_and_build(ENDPOINT_SCALE, seed), d, None)
        if any(s.code for s in rep.stages):
            raise BenchError(f"endpoint set-up failed: {r.failures}")
        windows = read_jsonl(d / "run/windows.jsonl")
        if len(windows) < ENDPOINT_WINDOWS:
            raise BenchError(f"seed {seed} gives {len(windows)} windows, fewer than {ENDPOINT_WINDOWS}")
        write_lines(d / "run/inputs.jsonl", windows[:ENDPOINT_WINDOWS])
        stub = Stub(r)
        endpoint = {"base_url": stub.base_url, "model": "bench-stub", "max_concurrency": CLIENTS}
        (d / "endpoint.json").write_text(json.dumps({"ranker": {"endpoint": endpoint}}))
        return {"seed": seed, "dir": d, "stub": stub, "windows": ENDPOINT_WINDOWS,
                "corpus": dict(zip(("n_jobs", "n_background"), ENDPOINT_SCALE))}

    def teardown(self, r: Runner, ctx: dict) -> None:
        final = ctx["stub"].stop()
        ctx["stub_final"] = {k: v for k, v in final.items() if k != "service_ms"}

    def run(self, r: Runner, ctx: dict, d: Path, spans_dir: Path | None) -> Rep:
        src, seed = ctx["dir"], str(ctx["seed"])
        common = ["--corpus", str(src / "data/corpus.jsonl"), "--config", str(src / "endpoint.json"), "--seed", seed]
        windows = str(src / "run/inputs.jsonl")
        chain = [
            ("annotate", ["annotate", "--windows", windows, "--out", "run/annotated.jsonl",
                          "--ranker", "endpoint", "--jobs", str(CLIENTS), *common]),
            ("rerank", ["rerank", "--pools", str(src / "data/pools.jsonl"), "--labels", str(src / "data/labels.jsonl"),
                        "--out", "run/reranked.jsonl", "--ranker", "endpoint", "--jobs", str(CLIENTS), *common]),
            ("distill", ["distill", "--windows", windows, "--out", "run/sft.jsonl", "--teacher", "endpoint", *common]),
        ]
        stub = ctx["stub"]
        before = stub.stats()
        rep = r.run_chain(chain, d, spans_dir, between=stub.requests)
        after = stub.stats()
        rep.stub = {
            "requests": after["requests"] - before["requests"],
            "connections": after["connections"] - before["connections"],
            "bytes_in": after["bytes_in"] - before["bytes_in"],
            "service_ms": after["service_ms"][len(before["service_ms"]):],
        }
        r.http_calls += rep.stub["requests"]
        if all(s.code == 0 for s in rep.stages):
            self.check(r, ctx, d, rep)
            rep.digests = digests(d, self.artifacts)
        return rep

    def reference(self, ctx: dict) -> dict:
        """What each stage must produce if every call returns the stub's hash answer.

        Prompts come from the toolkit's ``build_prompt``; the sliding window,
        the gold-first test and the difficulty score are worked out here.
        """
        if "reference" in ctx:
            return ctx["reference"]
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        from rankfit.core import load_corpus
        from rankfit.ranker import RankRequest, build_prompt

        src = ctx["dir"]
        corpus = load_corpus(src / "data/corpus.jsonl")

        def answer(job_id: str, ids: list[str]) -> list[int]:
            req = RankRequest(job=corpus[job_id], candidates=tuple((i, corpus[c]) for i, c in enumerate(ids, 1)))
            return answer_for(*build_prompt(req))

        windows = read_jsonl(src / "run/inputs.jsonl")
        gold_first = {}
        for w in windows:
            ids = presented(w)
            gold_first[w["window_id"]] = ids[answer(w["job_id"], ids)[0] - 1] == w["gold"]
        finals = {}
        full = [p for p in read_jsonl(src / "data/pools.jsonl") if len(p["candidates"]) == POOL_SIZE]
        starts = window_starts(POOL_SIZE, WINDOW, STRIDE)
        for pool in full:
            order = list(pool["candidates"])
            for _ in range(PASSES):
                for start in starts:
                    ids = order[start - 1 : start - 1 + WINDOW]
                    order[start - 1 : start - 1 + WINDOW] = [ids[slot - 1] for slot in answer(pool["job_id"], ids)]
            finals[pool["job_id"]] = order
        ctx["reference"] = {
            "r_bar": {wid: 1.0 if hit else 0.0 for wid, hit in gold_first.items()},
            "kept": [wid for wid, hit in gold_first.items() if hit],
            "finals": finals,
            "calls": {
                "annotate": len(windows) * ANNOTATE_TRIALS,
                "rerank": len(full) * PASSES * len(starts),
                "distill": len(windows),
            },
        }
        return ctx["reference"]

    def check(self, r: Runner, ctx: dict, d: Path, rep: Rep) -> None:
        ref = self.reference(ctx)
        for s in rep.stages:
            retries = retries_in(s.spans)
            r.check(s.calls == ref["calls"][s.name] + retries,
                    f"endpoint: stub saw {s.calls} {s.name} requests, expected {ref['calls'][s.name]} + {retries} retries")
        annotated = read_jsonl(d / "run/annotated.jsonl")
        r.check({w["window_id"]: w["r_bar"] for w in annotated} == ref["r_bar"],
                "endpoint: every difficulty score matches the stub's answers")
        reranked = read_jsonl(d / "run/reranked.jsonl")
        r.check({row["job_id"]: row["final"] for row in reranked} == ref["finals"],
                "endpoint: reranked orderings equal the in-process sliding window over the stub's answers")
        degraded = sum(row["degraded_calls"] for row in reranked)
        r.degraded += degraded
        r.check(degraded == 0, f"endpoint: {degraded} rerank calls degraded")
        sft = read_jsonl(d / "run/sft.jsonl")
        r.check([row["window_id"] for row in sft] == ref["kept"],
                "endpoint: distillation kept exactly the windows whose answer puts the gold first")


def load_spans(path: Path | None) -> list:
    """The spans a traced stage wrote; none if it wrote none (it failed early)."""
    return json.loads(path.read_text())["spans"] if path and path.exists() else []


def retries_in(spans_path: Path) -> int:
    return sum(s[5].get("retry_count", 0) for s in load_spans(spans_path) if s[2] == "ranker.call")


WORKLOADS = {w.name: w for w in (Pipeline(), Endpoint())}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def set_up(r: Runner, wl, work: Path, seed: int, reps: int) -> tuple[dict, list[float]]:
    """Set the workload up ``reps`` times; keep the last set-up, return all timings."""
    times, ctx, first = [], None, None
    for i in range(reps):
        if ctx is not None:
            wl.teardown(r, ctx)
        d = work / f"setup{i}"
        start = time.perf_counter()
        ctx = wl.setup(r, d, seed)
        times.append(time.perf_counter() - start)
        same = digests(d, sorted(p.relative_to(d).as_posix() for p in d.rglob("*.jsonl")))
        r.check(first is None or same == first, f"{wl.name}: set-up {i} inputs equal set-up 0")
        first = first or same
    return ctx, times


def end_to_end(r: Runner, wl, seed: int, seconds: float, work: Path) -> tuple[dict, dict]:
    ctx, setup_times = set_up(r, wl, work, seed, SETUP_REPS)
    reps: list[Rep] = []
    try:
        started = time.perf_counter()
        while len(reps) < MIN_REPS or time.perf_counter() - started < seconds:
            reps.append(wl.run(r, ctx, work / f"rep{len(reps)}", None))
    finally:
        wl.teardown(r, ctx)
    for i, rep in enumerate(reps[1:], 1):
        r.check(rep.digests == reps[0].digests, f"{wl.name}: repetition {i} artifacts equal repetition 0")

    walls = [rep.wall for rep in reps]
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "wall_s": metric(statistics.median(walls), "s"),
        "peak_rss_mb": metric(max(s.maxrss_kb for rep in reps for s in rep.stages) / 1024.0, "MB"),
        "ok_share": metric(r.ok_share, "ratio"),
    }
    context = {
        "reps": len(reps),
        "wall_s_samples": walls,
        "setup_s_samples": setup_times,
        "stage_s_samples": {s.name: [rep.stage(s.name).seconds for rep in reps] for s in reps[0].stages},
        "corpus": ctx.get("corpus"),
        "windows": ctx.get("windows"),
        "calls_per_rep": {s.name: s.calls for s in reps[0].stages if s.calls},
        "calls_per_s": {s.name: statistics.median(rep.stage(s.name).calls / rep.stage(s.name).seconds for rep in reps)
                        for s in reps[0].stages if s.calls},
        "failed_share": r.failed / max(r.attempted, 1),
    }
    if "stub_final" in ctx:
        context["stub"] = ctx["stub_final"]
    return metrics, context


def per_layer(r: Runner, selected: list[str], seed: int, work: Path) -> tuple[dict, dict]:
    """One traced pass over every workload, plus one untraced pass of each selected one."""
    import_times = []
    for _ in range(CLI_IMPORT_REPS):
        run = r.stage("version", ["--version"], work / "import")
        import_times.append(run.seconds)
    spans_dir = work / "spans"
    spans_dir.mkdir(parents=True)
    traced: dict[str, Rep] = {}
    untraced: dict[str, Rep] = {}
    stub_counts = None
    for name, wl in WORKLOADS.items():
        ctx, _ = set_up(r, wl, work / name, seed, 1)
        try:
            if name in selected:
                untraced[name] = wl.run(r, ctx, work / name / "untraced", None)
            traced[name] = wl.run(r, ctx, work / name / "traced", spans_dir)
            if name == "endpoint":
                stub_counts = traced[name].stub
        finally:
            wl.teardown(r, ctx)
        if name in untraced:
            r.check(untraced[name].digests == traced[name].digests,
                    f"{name}: traced and untraced artifacts are identical")
    layer = layer_metrics(traced, stub_counts, statistics.median(import_times), work)
    for name in selected:
        prefix = "" if len(selected) == 1 else f"{name}."
        layer.update({prefix + k: v for k, v in trace_cost(traced[name], untraced[name]).items()})
    context = {"cli_import_s_samples": import_times, "traced_workloads": list(traced)}
    return layer, context


def trace_cost(traced: Rep, untraced: Rep) -> dict:
    """One workload's tracing overhead, and the share of its stage time no top-level span covers."""
    overhead = traced.wall - untraced.wall
    covered, span_count = 0, 0
    for s in traced.stages:
        spans = load_spans(s.spans)
        span_count += len(spans)
        root = next((sp[0] for sp in spans if sp[1] is None), None)
        covered += tracing.union_ns((sp[3], sp[4]) for sp in spans if sp[1] == root and root is not None)
    return {
        "trace.traced_wall_s": metric(traced.wall, "s"),
        "trace.untraced_wall_s": metric(untraced.wall, "s"),
        "trace.overhead_s": metric(overhead, "s"),
        "trace.overhead_share": metric(overhead / untraced.wall, "ratio"),
        "trace.uncovered_share": metric(1.0 - covered / (traced.wall * 1e9), "ratio"),
        "trace.spans": metric(span_count, "count"),
    }


def layer_metrics(traced: dict[str, Rep], stub: dict | None, import_s: float, work: Path) -> dict:
    """Per-layer figures from the spans of the traced pass (see README.md for definitions)."""
    loaded: dict[tuple[str, str], list] = {}
    for wl, rep in traced.items():
        for s in rep.stages:
            loaded[(wl, s.name)] = load_spans(s.spans)

    def spans(wl: str, name: str, stage: str | None = None) -> list:
        return [sp for (w, st), rows in loaded.items() if w == wl and stage in (None, st)
                for sp in rows if sp[2] == name]

    def total_s(rows) -> float:
        return sum(sp[4] - sp[3] for sp in rows) / 1e9

    def durs(rows, scale: float) -> list[float]:
        return [(sp[4] - sp[3]) / scale for sp in rows]

    def one(wl, name, stage=None) -> dict:
        rows = spans(wl, name, stage)
        return rows[0][5] if rows else {}

    def outermost(wl, name) -> list:
        out = []
        for rows in (v for (w, _), v in loaded.items() if w == wl):
            names = {sp[0]: sp[2] for sp in rows}
            out += [sp for sp in rows if sp[2] == name and names.get(sp[1]) != name]
        return out

    def rerank_metrics(wl: str) -> tuple[float, float]:
        rows = loaded.get((wl, "rerank"), [])
        selfs = tracing.self_times_ns(rows)
        pools = [sp for sp in rows if sp[2] == "engine.rerank_pool"]
        return total_s(pools), sum(selfs[sp[0]] for sp in pools) / 1e9

    m: dict[str, dict] = {"cli.import_s": metric(import_s, "s")}
    for wl, rep in traced.items():
        for s in rep.stages:
            m[f"cli.stage.{wl}.{s.name}_s"] = metric(s.seconds, "s")

    p = "pipeline"
    m["core.load_s"] = metric(total_s(outermost(p, "core.load")), "s")
    m["core.write_s"] = metric(total_s(outermost(p, "core.write")), "s")
    m["core.records"] = metric(sum(sp[5].get("n", 0) for sp in spans(p, "core.load") + spans(p, "core.write")), "count")

    m["synthetic.generate_s"] = metric(total_s(spans(p, "synthetic.generate")), "s")
    data = work / p / "traced" / "data"
    pools = read_jsonl(data / "pools.jsonl")
    labels = read_jsonl(data / "labels.jsonl")
    per_job: dict[str, int] = {}
    for lab in labels:
        per_job[lab["job_id"]] = per_job.get(lab["job_id"], 0) + 1
    pairs, made = 0, 0
    for pool in pools:  # jobs in generation order; each scores every resume made so far
        made += per_job.get(pool["job_id"], 0)
        pairs += PIPELINE_SCALE[1] + made
    in_pool = {(pl["job_id"], c) for pl in pools for c in pl["candidates"]}
    positives = [(lab["job_id"], lab["resume_id"]) for lab in labels if lab["y"] == 1]
    m["synthetic.pairs_scored"] = metric(pairs, "count")
    m["synthetic.positive_in_pool_ratio"] = metric(sum(pr in in_pool for pr in positives) / max(len(positives), 1), "ratio")

    build = one(p, "windows.build")
    m["windows.build_s"] = metric(total_s(spans(p, "windows.build")), "s")
    m["windows.emitted"] = metric(build.get("n", 0), "count")
    for reason in ("too_few_candidates", "no_positive", "too_many_positives", "too_few_negatives"):
        m[f"windows.skips.{reason}"] = metric(build.get("skips", {}).get(reason, 0), "count")
    for wl, suffix, call in ((p, "", "ranker.builtin_call"), ("endpoint", ".endpoint", "ranker.call")):
        ann = one(wl, "windows.annotate")
        m[f"windows.annotate_s{suffix}"] = metric(total_s(spans(wl, "windows.annotate")), "s")
        m[f"windows.annotate_calls{suffix}"] = metric(len(spans(wl, call, "annotate")), "count")
        m[f"windows.annotate_failed{suffix}"] = metric(ann.get("failed_windows", 0), "count")
        dist = one(wl, "windows.distill")
        m[f"windows.distill_s{suffix}"] = metric(total_s(spans(wl, "windows.distill")), "s")
        m[f"windows.distill_kept_ratio{suffix}"] = metric(dist.get("kept", 0) / max(dist.get("n_in", 0), 1), "ratio")
        rerank_s, rerank_self_s = rerank_metrics(wl)
        m[f"engine.rerank_s{suffix}"] = metric(rerank_s, "s")
        m[f"engine.rerank_self_s{suffix}"] = metric(rerank_self_s, "s")
    filt = one(p, "windows.filter")
    m["windows.filter_s"] = metric(total_s(spans(p, "windows.filter")), "s")
    m["windows.kept_ratio"] = metric(filt.get("n", 0) / max(filt.get("n_in", 0), 1), "ratio")

    rows = loaded.get((p, "rerank"), [])
    pool_ids = {sp[0] for sp in rows if sp[2] == "engine.rerank_pool"}
    calls_in_pools = sum(1 for sp in rows if sp[1] in pool_ids and sp[2] == "ranker.builtin_call")
    m["engine.calls_per_pool"] = metric(calls_in_pools / max(len(pool_ids), 1), "count")
    m["engine.ablate_s"] = metric(total_s(spans(p, "engine.ablate")), "s")

    e = "endpoint"
    call_spans = spans(e, "ranker.call")
    transports = spans(e, "ranker.transport")
    overheads = []  # call time minus the transport time inside it; span ids are per stage file
    for (w, _), rows in loaded.items():
        if w == e:
            inside: dict[int, int] = {}
            for sp in rows:
                if sp[2] == "ranker.transport":
                    inside[sp[1]] = inside.get(sp[1], 0) + sp[4] - sp[3]
            overheads += [(sp[4] - sp[3] - inside.get(sp[0], 0)) / 1e6 for sp in rows if sp[2] == "ranker.call"]
    m["ranker.calls"] = metric(len(call_spans), "count")
    m["ranker.call_p50_ms"] = metric(percentile(durs(call_spans, 1e6), 50), "ms")
    m["ranker.call_p99_ms"] = metric(percentile(durs(call_spans, 1e6), 99), "ms")
    m["ranker.transport_p50_ms"] = metric(percentile(durs(transports, 1e6), 50), "ms")
    m["ranker.transport_p99_ms"] = metric(percentile(durs(transports, 1e6), 99), "ms")
    m["ranker.client_overhead_p50_ms"] = metric(percentile(overheads, 50), "ms")
    m["ranker.build_prompt_us"] = metric(percentile(durs(spans(e, "ranker.build_prompt"), 1e3), 50), "us")
    m["ranker.parse_answer_us"] = metric(percentile(durs(spans(e, "ranker.parse_answer"), 1e3), 50), "us")
    m["ranker.retries"] = metric(sum(sp[5].get("retry_count", 0) for sp in call_spans if not sp[5].get("degraded")), "count")
    m["ranker.repaired"] = metric(sum(1 for sp in call_spans if sp[5].get("repaired") and not sp[5].get("degraded")), "count")
    m["ranker.degraded"] = metric(sum(1 for sp in call_spans if sp[5].get("degraded")), "count")
    stub = stub or {"requests": 0, "connections": 0, "bytes_in": 0, "service_ms": []}
    m["ranker.calls_per_connection"] = metric(stub["requests"] / max(stub["connections"], 1), "count")
    m["ranker.stub_service_p50_ms"] = metric(percentile(stub["service_ms"], 50), "ms")
    m["ranker.request_bytes"] = metric(stub["bytes_in"] / max(stub["requests"], 1), "B")
    for s in traced[e].stages:
        m[f"ranker.{s.name}_calls_per_s"] = metric(s.calls / s.seconds, "calls/s")
    m["ranker.builtin_call_us"] = metric(percentile(durs(spans(p, "ranker.builtin_call"), 1e3), 50), "us")

    scores = spans(p, "metrics.score", "evaluate")
    m["metrics.score_us"] = metric(total_s(scores) * 1e6 / max(len(scores) / 4, 1), "us")

    g = "pipeline"
    train_s = total_s(spans(g, "grpo.train"))
    steps = durs(spans(g, "grpo.step"), 1e6)
    greedy_ms = percentile(durs(spans(g, "grpo.greedy_eval"), 1e6), 50)
    m["grpo.train_s"] = metric(train_s, "s")
    m["grpo.steps"] = metric(len(steps), "count")
    m["grpo.step_p50_ms"] = metric(percentile(steps, 50), "ms")
    m["grpo.step_p99_ms"] = metric(percentile(steps, 99), "ms")
    m["grpo.greedy_eval_ms"] = metric(greedy_ms, "ms")
    m["grpo.greedy_share"] = metric(len(steps) * greedy_ms / 1000.0 / train_s if train_s else 0.0, "ratio")
    m["grpo.kl_exact_us"] = metric(percentile(durs(spans(g, "grpo.kl_exact"), 1e3), 50), "us")
    m["grpo.sample_group_us"] = metric(percentile(durs(spans(g, "grpo.sample_group"), 1e3), 50), "us")
    m["grpo.eval_reward_s"] = metric(total_s(spans(g, "grpo.eval_reward")), "s")
    return m


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def context_info(seed: int, seconds: float, trace: int) -> dict:
    sha = None
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
                                   text=True, timeout=10).stdout.split() or (None, None)
        if top and Path(top).resolve() == ROOT:
            sha = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    tree = hashlib.sha256()
    for path in sorted((SRC / "rankfit").rglob("*.py")):
        tree.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"git_sha": sha, "src_sha256": tree.hexdigest(), "python": platform.python_version(),
            "numpy": numpy_version, "nproc": os.cpu_count(), "seed": seed, "run_seconds": seconds,
            "trace": trace, "stub_delay_ms": DELAY_MS, "clients": CLIENTS}


def run_workload(spawner: Spawner, names: list[str], seed: int, seconds: float, trace: int) -> dict:
    """End-to-end metrics of one workload, or (``trace``) per-layer metrics for the named ones."""
    label = names[0] if len(names) == 1 else "all"
    work = WORK / f"{label}-s{seed}-t{trace}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    r = Runner(spawner)
    try:
        if trace:
            metrics, extra = per_layer(r, names, seed, work)
        else:
            metrics, extra = end_to_end(r, WORKLOADS[label], seed, seconds, work)
    finally:
        r.stop_children()
    context = {"workload": label, "why": {n: WHY[n] for n in names}, **context_info(seed, seconds, trace), **extra,
               "attempted": r.attempted, "operations": r.operations, "http_calls": r.http_calls,
               "failures": r.failures, "degraded_calls": r.degraded}
    if not r.failures:  # a failed run's files stay for inspection
        shutil.rmtree(work, ignore_errors=True)
    return {"correct": not r.failures and r.degraded == 0, "attempted": r.attempted, "failed": r.failed,
            "metrics": metrics, "context": context}


def main() -> int:
    parser = argparse.ArgumentParser(description="rankfit benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "rankfit" / "cli.py").is_file():
        print(f"error: no rankfit sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    groups = [names] if args.trace else [[n] for n in names]  # one traced pass covers every workload
    results = {}
    spawner = Spawner()  # before this process grows; see spawn.py
    try:
        for group in groups:
            label = group[0] if len(group) == 1 else "all"
            results[label] = result = run_workload(spawner, group, args.seed, args.seconds, args.trace)
            OUT.mkdir(exist_ok=True)
            (OUT / f"{label}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=2))
            print(f"== {label} (seed {args.seed}, trace {args.trace})")
            for name in group:
                print(f"  {name}: {WHY[name]}")
            for key, m in result["metrics"].items():
                print(f"  {key:<40} {m['value']:>14.6g} {m['unit']}")
            print(f"  failed_share {result['failed'] / result['attempted']:.6g}"
                  f" ({result['failed']} of {result['attempted']} operations)")
            for stage, rate in result["context"].get("calls_per_s", {}).items():
                print(f"  {stage + ' ranker calls/s':<40} {rate:>14.6g} calls/s")
            for failure in result["context"]["failures"]:
                print(f"  FAILED {failure}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        spawner.close()
    if len(results) == 1:
        final = next(iter(results.values()))
        print(json.dumps({"context": final["context"]}))
    else:
        final = {
            "correct": all(res["correct"] for res in results.values()),
            "attempted": sum(res["attempted"] for res in results.values()),
            "failed": sum(res["failed"] for res in results.values()),
            "metrics": {f"{n}.{k}": v for n, res in results.items() for k, v in res["metrics"].items()},
        }
    print(json.dumps({k: final[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
