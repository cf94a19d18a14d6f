"""Re-ranking holds a bounded number of pools' calls, however many pools it runs.

A fake ranker answers every call with 4 KB of fresh reasoning text, as a
reasoning model would; on 4 workers each call also waits 5 ms with the GIL
released, as an endpoint call waits on the network. ``tracemalloc`` measures
the peak from the moment re-ranking starts, after the inputs, which grow with
the pool count, have been loaded. That peak over 8 and over 64 pools must
differ by less than one pool's calls take on one worker. On ``workers``
threads the pools that finish before the awaited one wait for the consumer
too, so the bound is 2 × workers − 1 pools' calls.

First a run over 120 pools (2,160 calls) fills the interpreter's free lists.
CPython keeps up to 2,000 freed tuples of each length for reuse, and a tuple
built from an iterator is resized into its length, so each call's tuples add
to those lists until they are full. ``tracemalloc`` counts them as held.
"""

import time
import tracemalloc

import pytest
from click.testing import CliRunner

import rankfit.cli
from rankfit.cli import main
from rankfit.core import Label, RankedPool, write_corpus, write_labels, write_pools
from rankfit.engine import EngineConfig, evaluate_run, rerank_pool, rerank_pools
from rankfit.ranker import RankResponse

from conftest import make_job, make_resume

RESUMES = [make_resume(f"r{i}") for i in range(EngineConfig().pool_size)]


def reasoning_ranker(req):
    """The identity ordering, after 4 KB of reasoning text made fresh for each call."""
    ordering = list(range(1, req.k + 1))
    return RankResponse(raw_text=req.request_id + "x" * 4096, ordering=ordering)


def waiting_ranker(req):
    """``reasoning_ranker``'s answer, given after 5 ms spent off the GIL."""
    time.sleep(0.005)
    return reasoning_ranker(req)


RANKERS = {1: reasoning_ranker, 4: waiting_ranker}  # by worker count


def dataset(n_pools):
    """(corpus, labels, pools): ``n_pools`` jobs over the same resumes, each accepting the sixth."""
    jobs = [make_job(f"j{i}") for i in range(n_pools)]
    candidates = tuple(r.id for r in RESUMES)
    labels = [Label(job.id, candidates[5], 1) for job in jobs]
    pools = [RankedPool(job.id, candidates, frozenset({candidates[5]})) for job in jobs]
    return {doc.id: doc for doc in (*jobs, *RESUMES)}, labels, pools


@pytest.fixture
def traced(tmp_path, monkeypatch):
    tracemalloc.start()
    cli_rerank_peak(120, tmp_path, monkeypatch)  # fills the free lists
    yield
    tracemalloc.stop()


def one_pool_bytes():
    """What one pool's trace, its calls' reasoning text included, holds."""
    corpus, _, (pool,) = dataset(1)
    before = tracemalloc.get_traced_memory()[0]
    trace = rerank_pool(pool, reasoning_ranker, EngineConfig(), corpus)
    held = tracemalloc.get_traced_memory()[0] - before
    assert len(trace.calls) == 18 and held > 18 * 4096
    return held


def peak_above(start: list[int]) -> int:
    """The traced peak since ``start[0]`` was taken and the peak reset, above that level."""
    return tracemalloc.get_traced_memory()[1] - start[0]


def cli_rerank_peak(n_pools, tmp_path, monkeypatch, workers=1):
    """The traced peak of ``rankfit rerank --trace --jobs workers`` over ``n_pools`` pools, from where it starts re-ranking."""
    corpus, labels, pools = dataset(n_pools)
    data = tmp_path / str(n_pools)
    write_corpus(corpus.values(), data / "corpus.jsonl")
    write_labels(labels, data / "labels.jsonl")
    write_pools(pools, data / "pools.jsonl")
    monkeypatch.setattr(rankfit.cli, "_make_ranker", lambda name, p_flip, *a: (RANKERS[workers], {"name": name, "p_flip": p_flip}))
    start = []

    def measured(*args, **kwargs):  # the inputs are loaded: measure from here
        start.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return rerank_pools(*args, **kwargs)

    monkeypatch.setattr(rankfit.cli, "rerank_pools", measured)
    result = CliRunner().invoke(main, [
        "rerank", "--pools", str(data / "pools.jsonl"), "--corpus", str(data / "corpus.jsonl"),
        "--labels", str(data / "labels.jsonl"), "--out", str(data / "r.jsonl"), "--trace",
        "--jobs", str(workers),
    ])
    peak = peak_above(start)
    assert result.exit_code == 0, result.output
    assert f"reranked {n_pools} pools" in result.output
    with open(data / "r.trace.jsonl", encoding="utf-8") as trace:
        assert sum(1 for _ in trace) == 18 * n_pools
    return peak


def evaluate_run_peak(n_pools, workers=1):
    """The traced peak of ``evaluate_run`` on ``workers`` threads over ``n_pools`` pools built beforehand."""
    corpus, _, pools = dataset(n_pools)
    start = [tracemalloc.get_traced_memory()[0]]
    tracemalloc.reset_peak()
    report = evaluate_run(pools, RANKERS[workers], EngineConfig(), corpus, max_workers=workers)
    assert report["macro"]["jobs_evaluated"] == n_pools
    return peak_above(start)


@pytest.mark.parametrize("workers", sorted(RANKERS))
def test_rerank_holds_a_bounded_number_of_pools(traced, tmp_path, monkeypatch, workers):
    small, large = (cli_rerank_peak(n, tmp_path / str(workers), monkeypatch, workers) for n in (8, 64))
    assert large - small < (2 * workers - 1) * one_pool_bytes()


@pytest.mark.parametrize("workers", sorted(RANKERS))
def test_evaluate_run_holds_a_bounded_number_of_pools(traced, workers):
    small, large = evaluate_run_peak(8, workers), evaluate_run_peak(64, workers)
    assert large - small < (2 * workers - 1) * one_pool_bytes()
