"""Multi-pass sliding-window re-ranking over a top-N retrieval pool.

One pass walks a window of size k from the bottom of the list to the top with
stride s (the final window is clamped to start at rank 1), asking the ranker
to re-order each window in place; the whole pass repeats for t iterations so
strong candidates can travel more than one window per run. The window
schedule is a pure function of (N, k, s) and independent of ranker behavior.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Iterable, Iterator, Mapping, Sequence

from .core import Document, RankedPool, parallel_map
from .errors import ConfigError, check_fields
from .metrics import ndcg, recall_at_k
from .ranker import Ranker, RankRequest


@dataclass(frozen=True)
class EngineConfig:
    window_size: int = 4
    stride: int = 2
    iterations: int = 2
    pool_size: int = 20

    def __post_init__(self):
        check_fields(self, ("window_size", "stride", "iterations", "pool_size"), int, lambda v: v >= 1, "an integer >= 1")
        if not self.stride < self.window_size <= self.pool_size:
            raise ConfigError(
                f"need 1 <= stride < window_size <= pool_size, got "
                f"s={self.stride}, k={self.window_size}, N={self.pool_size}"
            )


def window_starts(pool_size: int, window_size: int, stride: int) -> list[int]:
    """1-based window start ranks for one pass, bottom-up.

    Starts at N-k+1 and moves up by the stride; the last window is clamped to
    rank 1 (it may overlap its predecessor by more than k-s).
    """
    starts = []
    start = pool_size - window_size + 1
    while start >= 1:
        starts.append(start)
        if start == 1:
            break
        start = max(1, start - stride)
    return starts


def comparisons_per_pass(pool_size: int, window_size: int, stride: int) -> int:
    """Analytic number of ranker calls per pass: 1 + ceil((N - k) / s)."""
    return 1 + math.ceil((pool_size - window_size) / stride)


@dataclass(slots=True)
class WindowCall:
    iteration: int
    start: int
    before: list[str]
    after: list[str]
    raw_text: str
    repaired: bool
    degraded: bool


@dataclass
class RerankTrace:
    job_id: str
    initial: tuple[str, ...]
    final: tuple[str, ...]
    calls: list[WindowCall] = field(default_factory=list)

    @property
    def degraded_calls(self) -> int:
        return sum(1 for call in self.calls if call.degraded)


def _is_permutation(ordering: Sequence[int], k: int) -> bool:
    return len(ordering) == k and set(ordering) == set(range(1, k + 1))


def rerank_pool(
    pool: RankedPool,
    ranker: Ranker,
    cfg: EngineConfig,
    corpus: Mapping[str, Document],
) -> RerankTrace:
    """Run t sliding-window passes over one pool and trace every ranker call.

    The final ordering is always a permutation of the initial one: a ranker
    response that is somehow not a full permutation of 1..k is discarded in
    favor of the identity window and flagged degraded.
    """
    if len(pool.candidates) != cfg.pool_size:
        raise ConfigError(
            f"pool {pool.job_id!r} has {len(pool.candidates)} candidates, "
            f"engine configured for {cfg.pool_size}"
        )
    if pool.job_id not in corpus:
        raise ConfigError(f"job {pool.job_id!r} missing from corpus")

    k = cfg.window_size
    starts = window_starts(cfg.pool_size, k, cfg.stride)
    order = list(pool.candidates)
    calls: list[WindowCall] = []

    for iteration in range(1, cfg.iterations + 1):
        for start in starts:
            lo = start - 1
            window_ids = order[lo : lo + k]
            resp = ranker(RankRequest.for_ids(corpus, pool.job_id, window_ids, f"{pool.job_id}:it{iteration}:s{start}"))
            ordering = resp.ordering
            degraded = resp.degraded
            if not _is_permutation(ordering, k):
                ordering = list(range(1, k + 1))
                degraded = True
            new_ids = [window_ids[slot - 1] for slot in ordering]
            order[lo : lo + k] = new_ids
            calls.append(
                WindowCall(
                    iteration=iteration,
                    start=start,
                    before=window_ids,
                    after=new_ids,
                    raw_text=resp.raw_text,
                    repaired=resp.repaired,
                    degraded=degraded,
                )
            )

    return RerankTrace(job_id=pool.job_id, initial=pool.candidates, final=tuple(order), calls=calls)


def rerank_pools(
    pools: Sequence[RankedPool],
    ranker: Ranker,
    cfg: EngineConfig,
    corpus: Mapping[str, Document],
    max_workers: int = 1,
) -> Iterator[RerankTrace]:
    """Re-rank every pool, up to ``max_workers`` pools at a time; each trace is yielded, in pool order, once it is ready."""
    return parallel_map(lambda pool: rerank_pool(pool, ranker, cfg, corpus), pools, max_workers)


def score_run(
    scored: Iterable[tuple[RankedPool, Sequence[str], int]], metric_k: int = 10
) -> dict:
    """Report nDCG@k / Recall@k before and after re-ranking, per job and macro.

    ``scored`` holds (pool, final ordering, degraded calls) triples. Pools
    without a single accepted candidate cannot be scored and are excluded
    (their job ids are reported). Rows are sorted by job id; each macro
    figure is ``math.fsum`` of its per-job column over the job count, as in ``fmean``.
    """
    per_job, excluded = [], []
    for pool, final, degraded_calls in scored:
        rels_before = pool.relevance()
        if not any(rels_before):
            excluded.append(pool.job_id)
            continue
        rels_after = pool.relevance(final)
        per_job.append(
            {
                "job_id": pool.job_id,
                f"ndcg{metric_k}_before": ndcg(rels_before, metric_k),
                f"ndcg{metric_k}_after": ndcg(rels_after, metric_k),
                f"recall{metric_k}_before": recall_at_k(rels_before, metric_k),
                f"recall{metric_k}_after": recall_at_k(rels_after, metric_k),
                "degraded_calls": degraded_calls,
            }
        )
    per_job.sort(key=lambda row: row["job_id"])

    def macro(key: str) -> float:
        return math.fsum(row[key] for row in per_job) / len(per_job) if per_job else 0.0

    nb, na = macro(f"ndcg{metric_k}_before"), macro(f"ndcg{metric_k}_after")
    rb, ra = macro(f"recall{metric_k}_before"), macro(f"recall{metric_k}_after")
    return {
        "per_job": per_job,
        "macro": {
            f"ndcg{metric_k}_before": nb,
            f"ndcg{metric_k}_after": na,
            f"recall{metric_k}_before": rb,
            f"recall{metric_k}_after": ra,
            "average_before": (nb + rb) / 2,
            "average_after": (na + ra) / 2,
            "jobs_evaluated": len(per_job),
            "jobs_excluded": len(excluded),
            "degraded_calls": sum(row["degraded_calls"] for row in per_job),
        },
        "excluded": sorted(excluded),
    }


def evaluate_run(
    pools: Sequence[RankedPool],
    ranker: Ranker,
    cfg: EngineConfig,
    corpus: Mapping[str, Document],
    max_workers: int = 1,
):
    """Re-rank every scorable pool and report it with ``score_run`` at k = 10.

    Pools without an accepted candidate are excluded without being re-ranked.
    """
    scored = [p for p in pools if p.accepted_ids]
    traces = rerank_pools(scored, ranker, cfg, corpus, max_workers)
    report = score_run(
        [(p, tr.final, tr.degraded_calls) for p, tr in zip(scored, traces)]
        + [(p, p.candidates, 0) for p in pools if not p.accepted_ids]
    )
    return {"config": asdict(cfg), **report}


def ablate(
    pools: Sequence[RankedPool],
    ranker: Ranker,
    base: EngineConfig,
    grid: Sequence[tuple[int, int]],
    corpus: Mapping[str, Document],
    max_workers: int = 1,
):
    """Evaluate ``base`` at each (k, s) of ``grid``; invalid points are rejected, the rest still run.

    Returns (rows, rejected) where each row carries the setting, macro
    metrics, and the analytic comparisons-per-pass count.
    """
    rows, rejected = [], []
    for k, s in grid:
        setting = {"k": k, "s": s, "t": base.iterations}
        try:
            cfg = replace(base, window_size=k, stride=s)
        except ConfigError as exc:
            rejected.append({"setting": setting, "error": str(exc)})
            continue
        report = evaluate_run(pools, ranker, cfg, corpus, max_workers=max_workers)
        rows.append(
            {
                "setting": setting,
                "ndcg10": report["macro"]["ndcg10_after"],
                "recall10": report["macro"]["recall10_after"],
                "comparisons_per_iter": comparisons_per_pass(cfg.pool_size, k, s),
            }
        )
    return rows, rejected
