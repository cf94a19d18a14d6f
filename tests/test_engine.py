import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankfit.engine import (
    EngineConfig,
    ablate,
    comparisons_per_pass,
    evaluate_run,
    rerank_pool,
    window_starts,
)
from rankfit.errors import ConfigError
from rankfit.ranker import IdentityRanker, NoisyOracleRanker, OracleRanker, RankResponse

from conftest import corpus_for, make_pool


def oracle_for(pools):
    return OracleRanker({p.job_id: p.accepted_ids for p in pools})


class TestSchedule:
    def test_default_schedule_matches_walkthrough(self):
        assert window_starts(20, 4, 2) == [17, 15, 13, 11, 9, 7, 5, 3, 1]

    ANALYTIC_GRID = [
        (2, 1, 19),
        (3, 1, 18),
        (3, 2, 10),
        (4, 1, 17),
        (4, 2, 9),
        (4, 3, 7),
    ]

    @pytest.mark.parametrize("k,s,expected", ANALYTIC_GRID)
    def test_comparisons_per_pass(self, k, s, expected):
        assert comparisons_per_pass(20, k, s) == expected
        assert len(window_starts(20, k, s)) == expected

    def test_clamped_final_window(self):
        starts = window_starts(20, 4, 3)
        assert starts[-1] == 1
        assert starts[-2] - starts[-1] <= 3

    def test_schedule_independent_of_ranker(self):
        pool = make_pool(accepted_ranks=(10,))
        corpus = corpus_for(pool)
        cfg = EngineConfig(iterations=1)
        for ranker in (IdentityRanker(), oracle_for([pool])):
            trace = rerank_pool(pool, ranker, cfg, corpus)
            assert [c.start for c in trace.calls] == window_starts(20, 4, 2)

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            EngineConfig(window_size=4, stride=4)
        with pytest.raises(ConfigError):
            EngineConfig(window_size=2, stride=0)
        with pytest.raises(ConfigError):
            EngineConfig(iterations=0)
        with pytest.raises(ConfigError):
            EngineConfig(window_size=30, stride=2, pool_size=20)


class TestRerankPool:
    def test_identity_leaves_order(self):
        pool = make_pool(accepted_ranks=(7,))
        trace = rerank_pool(pool, IdentityRanker(), EngineConfig(), corpus_for(pool))
        assert trace.final == trace.initial == pool.candidates

    def test_oracle_lifts_bottom_positive_in_one_pass(self):
        pool = make_pool(accepted_ranks=(19,))
        cfg = EngineConfig(iterations=1)
        trace = rerank_pool(pool, oracle_for([pool]), cfg, corpus_for(pool))
        assert trace.final[0] == pool.candidates[19]

    def test_bubble_up_exhaustive(self):
        for k in (2, 3, 4):
            for s in range(1, k):
                for start_rank in range(20):
                    pool = make_pool(job_id=f"j-{k}-{s}-{start_rank}", accepted_ranks=(start_rank,))
                    cfg = EngineConfig(window_size=k, stride=s, iterations=1)
                    trace = rerank_pool(pool, oracle_for([pool]), cfg, corpus_for(pool))
                    assert trace.final[0] == pool.candidates[start_rank]

    def test_oracle_fixed_point_after_one_pass(self):
        pool = make_pool(accepted_ranks=(3, 12))
        corpus = corpus_for(pool)
        ranker = oracle_for([pool])
        one = rerank_pool(pool, ranker, EngineConfig(iterations=1), corpus)
        two = rerank_pool(pool, ranker, EngineConfig(iterations=2), corpus)
        assert one.final == two.final

    def test_trace_accounting(self):
        pool = make_pool(accepted_ranks=(5,))
        cfg = EngineConfig(iterations=2)
        trace = rerank_pool(pool, oracle_for([pool]), cfg, corpus_for(pool))
        assert len(trace.calls) == 18
        assert trace.degraded_calls == 0
        assert sorted(trace.final) == sorted(trace.initial)

    def test_pool_size_mismatch(self):
        pool = make_pool(n=15)
        with pytest.raises(ConfigError):
            rerank_pool(pool, IdentityRanker(), EngineConfig(), corpus_for(pool))

    def test_pool_size_mismatch_names_both_sizes(self):
        pool = make_pool(n=15)
        with pytest.raises(ConfigError, match="pool 'j1' has 15 candidates, engine configured for 20"):
            rerank_pool(pool, IdentityRanker(), EngineConfig(), corpus_for(pool))

    def test_job_missing_from_corpus(self):
        pool = make_pool()
        corpus = corpus_for(pool)
        del corpus[pool.job_id]
        with pytest.raises(ConfigError, match="job 'j1' missing from corpus"):
            rerank_pool(pool, IdentityRanker(), EngineConfig(), corpus)

    def test_degraded_response_absorbed_as_identity(self):
        class AlwaysDegraded:
            def __call__(self, req):
                return RankResponse(
                    raw_text="",
                    ordering=list(range(1, req.k + 1)),
                    repaired=True,
                    degraded=True,
                )

        pool = make_pool(accepted_ranks=(2,))
        trace = rerank_pool(pool, AlwaysDegraded(), EngineConfig(), corpus_for(pool))
        assert trace.final == trace.initial
        assert trace.degraded_calls == len(trace.calls)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_permutation_preserved_under_adversarial_ranker(self, seed):
        rng = random.Random(seed)

        class Adversary:
            """Emits corrupt orderings: duplicates, out-of-range, short lists."""

            def __call__(self, req):
                k = req.k
                roll = rng.random()
                if roll < 0.25:
                    ordering = [rng.randint(-2, k + 2) for _ in range(k)]
                elif roll < 0.5:
                    ordering = [1] * k
                elif roll < 0.75:
                    ordering = list(range(1, k))  # one short
                else:
                    ordering = rng.sample(range(1, k + 1), k)
                return RankResponse(raw_text="", ordering=ordering)

        pool = make_pool(job_id=f"adv{seed}", accepted_ranks=(0,))
        trace = rerank_pool(pool, Adversary(), EngineConfig(), corpus_for(pool))
        assert sorted(trace.final) == sorted(pool.candidates)


class TestEvaluateRun:
    def test_oracle_upper_bound(self):
        pools = [make_pool(job_id=f"j{i}", accepted_ranks=(3 + i, 15)) for i in range(5)]
        corpus = {}
        for p in pools:
            corpus.update(corpus_for(p))
        report = evaluate_run(pools, oracle_for(pools), EngineConfig(), corpus)
        assert report["macro"]["ndcg10_after"] == pytest.approx(1.0)
        assert report["macro"]["recall10_after"] == pytest.approx(1.0)

    def test_identity_before_equals_after(self):
        pools = [make_pool(job_id=f"j{i}", accepted_ranks=(i + 2,)) for i in range(4)]
        corpus = {}
        for p in pools:
            corpus.update(corpus_for(p))
        report = evaluate_run(pools, IdentityRanker(), EngineConfig(), corpus)
        assert report["macro"]["ndcg10_before"] == report["macro"]["ndcg10_after"]
        assert report["macro"]["recall10_before"] == report["macro"]["recall10_after"]

    def test_no_positive_pool_excluded(self):
        good = make_pool(job_id="good", accepted_ranks=(4,))
        empty = make_pool(job_id="empty", accepted_ranks=())
        corpus = {**corpus_for(good), **corpus_for(empty)}
        report = evaluate_run([good, empty], IdentityRanker(), EngineConfig(), corpus)
        assert report["excluded"] == ["empty"]
        assert report["macro"]["jobs_evaluated"] == 1

    def test_noisier_ranker_scores_lower(self):
        rng = random.Random(11)
        pools = [
            make_pool(job_id=f"j{i}", accepted_ranks=(rng.randrange(20),))
            for i in range(60)
        ]
        corpus = {}
        for p in pools:
            corpus.update(corpus_for(p))
        accepted = {p.job_id: p.accepted_ids for p in pools}
        sharp = evaluate_run(
            pools, NoisyOracleRanker(accepted, 0.0, seed=1), EngineConfig(), corpus
        )
        blunt = evaluate_run(
            pools, NoisyOracleRanker(accepted, 0.5, seed=1), EngineConfig(), corpus
        )
        assert (
            blunt["macro"]["average_after"] < sharp["macro"]["average_after"]
        )

    def test_parallel_matches_sequential(self):
        pools = [make_pool(job_id=f"j{i}", accepted_ranks=(i,)) for i in range(8)]
        corpus = {}
        for p in pools:
            corpus.update(corpus_for(p))
        accepted = {p.job_id: p.accepted_ids for p in pools}
        ranker = NoisyOracleRanker(accepted, 0.4, seed=5)
        seq = evaluate_run(pools, ranker, EngineConfig(), corpus, max_workers=1)
        par = evaluate_run(pools, ranker, EngineConfig(), corpus, max_workers=4)
        assert seq == par


class TestAblate:
    def test_grid_runs_and_rejects(self):
        pools = [make_pool(job_id=f"j{i}", accepted_ranks=(10,)) for i in range(3)]
        corpus = {}
        for p in pools:
            corpus.update(corpus_for(p))
        grid = [(2, 1), (4, 2), (4, 5)]
        rows, rejected = ablate(pools, oracle_for(pools), EngineConfig(iterations=1), grid, corpus)
        assert [r["setting"] for r in rows] == [
            {"k": 2, "s": 1, "t": 1},
            {"k": 4, "s": 2, "t": 1},
        ]
        assert rows[0]["comparisons_per_iter"] == 19
        assert rows[1]["comparisons_per_iter"] == 9
        assert len(rejected) == 1
        assert rejected[0]["setting"] == {"k": 4, "s": 5, "t": 1}
