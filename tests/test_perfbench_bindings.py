"""Every toolkit name that perfbench's tracer binds or reads still exists.

``perfbench/tracing.py`` skips a name it cannot find, so a rename in ``src/``
would silently zero a per-layer metric. The tracer is loaded by path and
nothing under ``perfbench/`` is changed.
"""

import dataclasses
import importlib
import types
from pathlib import Path

import pytest

from rankfit.windows import AnnotateStats, DistillStats

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
