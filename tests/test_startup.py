"""Each CLI stage loads numpy only when its code path uses it, and no stage loads requests.

Every stage is its own process, so a module-level import of either costs
every stage its start-up time. Each run here is a fresh interpreter, because
the test process itself has numpy loaded.
"""

import json

import pytest

from conftest import run_rankfit

# (command line, third-party modules it may load); {d} is the data directory
_STAGES = {
    "--version": (["--version"], []),
    "gen-synthetic": (["gen-synthetic", "--out-dir", "{d}", "--n-jobs", "6", "--n-background", "60", "--seed", "4"], ["numpy"]),
    "build-windows": (["build-windows", "--corpus", "{d}/corpus.jsonl", "--labels", "{d}/labels.jsonl",
                       "--pools", "{d}/pools.jsonl", "--out", "{d}/windows.jsonl"], []),
    "annotate": (["annotate", "--windows", "{d}/windows.jsonl", "--corpus", "{d}/corpus.jsonl",
                  "--labels", "{d}/labels.jsonl", "--out", "{d}/annotated.jsonl", "--ranker", "noisy"], []),
    "filter": (["filter", "--windows", "{d}/annotated.jsonl", "--out", "{d}/kept.jsonl", "--strategy", "remove_hard"], []),
    "rerank": (["rerank", "--pools", "{d}/pools.jsonl", "--corpus", "{d}/corpus.jsonl",
                "--labels", "{d}/labels.jsonl", "--out", "{d}/reranked.jsonl", "--ranker", "oracle"], []),
    "evaluate": (["evaluate", "--pools", "{d}/pools.jsonl", "--labels", "{d}/labels.jsonl",
                  "--reranked", "{d}/reranked.jsonl", "--out", "{d}/report.json"], []),
    "ablate": (["ablate", "--pools", "{d}/pools.jsonl", "--corpus", "{d}/corpus.jsonl",
                "--labels", "{d}/labels.jsonl", "--out", "{d}/ablation.json", "--grid", "4:2", "-t", "1"], []),
    "distill": (["distill", "--windows", "{d}/kept.jsonl", "--corpus", "{d}/corpus.jsonl",
                 "--labels", "{d}/labels.jsonl", "--out", "{d}/sft.jsonl", "--teacher", "oracle"], []),
    "simulate-grpo": (["simulate-grpo", "--windows", "{d}/kept.jsonl", "--corpus", "{d}/corpus.jsonl",
                       "--out-dir", "{d}/grpo", "--epochs", "1"], ["numpy"]),
}


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    return tmp_path_factory.mktemp("startup")


@pytest.fixture(scope="module")
def stage_runs(data):
    """Every stage run once, in pipeline order: {stage: (exit code, output, modules loaded)}."""
    return {
        stage: run_rankfit([arg.format(d=data) for arg in args])
        for stage, (args, _) in _STAGES.items()
    }


@pytest.mark.parametrize("stage", list(_STAGES))
def test_stage_loads_only_the_modules_it_uses(stage, stage_runs):
    code, output, loaded = stage_runs[stage]
    assert code == 0, output
    assert loaded == _STAGES[stage][1]


def test_endpoint_annotate_loads_neither(stage_runs, data, http_server):
    """The HTTP client is the standard library's, so an endpoint stage loads no third-party module."""
    assert stage_runs["build-windows"][0] == 0
    config = data / "endpoint.json"
    config.write_text(json.dumps({"ranker": {"endpoint": {"base_url": http_server.url, "model": "m", "timeout_s": 5}}}))
    code, output, loaded = run_rankfit(
        ["annotate", "--windows", data / "windows.jsonl", "--corpus", data / "corpus.jsonl",
         "--labels", data / "labels.jsonl", "--out", data / "annotated-endpoint.jsonl",
         "--ranker", "endpoint", "--config", config]
    )
    assert code == 0, output
    assert "0 windows had no successful trial" in output
    assert loaded == []
