"""Every toolkit name that perfbench's tracer binds or reads still exists.

``perfbench/tracing.py`` skips a name it cannot find, so a rename in ``src/``
would silently zero a per-layer metric. The tracer is loaded by path and
nothing under ``perfbench/`` is changed. The benchmark's other scripts are
read with ``ast`` only: each name they import from rankfit must resolve.
"""

import ast
import dataclasses
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import rankfit.ranker
from rankfit.ranker import EndpointConfig, LlmRanker, RankRequest, build_prompt
from rankfit.windows import AnnotateStats, DistillStats

from conftest import SRC, make_job, make_resume

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _rankfit_imports():
    """(file, module, name) for each rankfit import in perfbench/*.py; name is None for ``import module``."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "rankfit":
                found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, a.name, None) for a in node.names if a.name.split(".")[0] == "rankfit"]
    return found


RANKFIT_IMPORTS = _rankfit_imports()


# run from its source, so that no bytecode cache is written under perfbench/
tracing = types.ModuleType("perfbench_tracing")
exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), tracing.__dict__)


@pytest.mark.parametrize("span,module,attr", tracing.TRACED_FUNCTIONS, ids=[f"{m}.{a}" for _, m, a in tracing.TRACED_FUNCTIONS])
def test_traced_function_exists(span, module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"span {span} binds missing {module}.{attr}"


@pytest.mark.xfail(
    strict=True,
    reason="stale binding: cli no longer imports ndcg/recall_at_k, so metrics.score_us reads 0 (benchmark upkeep, ROADMAP item 1)",
)
@pytest.mark.parametrize("span,module,attr", tracing.CLI_ONLY, ids=[f"{m}.{a}" for _, m, a in tracing.CLI_ONLY])
def test_cli_only_function_exists(span, module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"span {span} binds missing {module}.{attr}"


@pytest.mark.parametrize("span,cls", tracing.TRACED_RANKERS, ids=[cls for _, cls in tracing.TRACED_RANKERS])
def test_traced_ranker_defines_call(span, cls):
    assert "__call__" in vars(getattr(importlib.import_module("rankfit.ranker"), cls))


@pytest.mark.parametrize("stats,names", [(AnnotateStats, {"failed_windows", "trials"}), (DistillStats, {"kept"})])
def test_stats_keep_the_fields_the_tracer_counts(stats, names):
    assert names <= {f.name for f in dataclasses.fields(stats)}


def test_the_scan_finds_the_reference_imports():
    assert {("run.py", "rankfit.core", "load_corpus"), ("run.py", "rankfit.ranker", "RankRequest"),
            ("run.py", "rankfit.ranker", "build_prompt")} <= set(RANKFIT_IMPORTS)


@pytest.mark.parametrize(
    "path,module,name", RANKFIT_IMPORTS, ids=[f"{p}:{m}.{n}" if n else f"{p}:{m}" for p, m, n in RANKFIT_IMPORTS]
)
def test_perfbench_rankfit_import_resolves(path, module, name):
    imported = importlib.import_module(module)
    assert name is None or hasattr(imported, name), f"perfbench/{path} imports missing {module}.{name}"


def test_reference_request_renders_the_prompts_of_for_ids():
    """run.py's reference builds its requests with the (slot, doc) constructor; the prompts must not differ."""
    ids = ["r3", "r1", "r4", "r2"]
    corpus = {"j1": make_job("j1"), **{rid: make_resume(rid) for rid in ids}}
    reference = RankRequest(job=corpus["j1"], candidates=tuple((i, corpus[c]) for i, c in enumerate(ids, 1)))
    assert build_prompt(reference) == build_prompt(RankRequest.for_ids(corpus, "j1", ids, "j1:it1:s17"))


def test_transport_span_sees_every_exchange(http_server, monkeypatch):
    """The client looks ``_requests_post`` up per call, so the span the tracer rebinds there times each exchange."""
    ids = ["r1", "r2", "r3", "r4"]
    corpus = {"j1": make_job("j1"), **{rid: make_resume(rid) for rid in ids}}
    ranker = LlmRanker(EndpointConfig(base_url=http_server.url, model="m", timeout_s=5))
    tracer = tracing.Tracer("bindings")
    monkeypatch.setattr(rankfit.ranker, "_requests_post", tracer.wrap("ranker.transport", rankfit.ranker._requests_post))
    for i in range(3):
        assert not ranker(RankRequest.for_ids(corpus, "j1", ids, f"req{i}")).degraded
    assert [span[2] for span in tracer.spans] == ["ranker.transport"] * 3


def test_importing_the_cli_loads_no_network_module():
    """Every benchmark stage compiles its imports from source; the HTTP client's modules load on the first call."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    code = "import sys, rankfit.cli; print(sorted({'http.client', 'socket', 'ssl'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout.strip()) == (0, "[]"), proc.stderr


def test_an_endpoint_call_loads_no_http_email_or_ssl_module(http_server):
    """The client writes and reads HTTP/1.1 itself, so an ``http://`` call imports neither ``http.client`` nor ``email``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys\n"
        "from rankfit.ranker import ChatCompletionsClient, EndpointConfig, SamplingParams\n"
        f"cfg = EndpointConfig(base_url={http_server.url!r}, model='m', timeout_s=5)\n"
        "print(ChatCompletionsClient(cfg).complete_once('s', 'u', SamplingParams()))\n"
        "print(sorted({'http.client', 'email', 'ssl'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout.splitlines()) == (0, ["<answer> [2] > [3] > [1] > [4] </answer>", "[]"]), proc.stderr
