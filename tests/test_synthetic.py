import random
from collections import Counter
from dataclasses import asdict

import pytest

from rankfit.core import KIND_JOB, KIND_RESUME
from rankfit.errors import ConfigError
from rankfit.synthetic import (
    DEGREES,
    LOCATIONS,
    SKILLS,
    TITLES,
    SyntheticConfig,
    _gauss_many,
    generate,
    make_eval_pools,
    match_score,
    skill_set,
)

from oracles import synthetic_by_loops


class TestGenerate:
    def test_shapes_and_kinds(self):
        cfg = SyntheticConfig(n_jobs=10, n_background=60, seed=1)
        docs, labels, pools = generate(cfg)
        kinds = Counter(d.kind for d in docs.values())
        assert kinds[KIND_JOB] == 10
        assert kinds[KIND_RESUME] >= 60
        assert len(pools) == 10
        assert all(len(p.candidates) <= 20 for p in pools)

    def test_deterministic(self):
        cfg = SyntheticConfig(n_jobs=8, n_background=50, seed=5)
        a = generate(cfg)
        b = generate(cfg)
        assert [d.fields for d in a[0].values()] == [d.fields for d in b[0].values()]
        assert a[1] == b[1]
        assert [p.candidates for p in a[2]] == [p.candidates for p in b[2]]

    def test_labels_resolve_and_pools_join(self):
        cfg = SyntheticConfig(n_jobs=12, n_background=80, seed=2)
        docs, labels, pools = generate(cfg)
        for label in labels:
            assert label.job_id in docs
            assert label.resume_id in docs
        for pool in pools:
            assert pool.accepted_ids <= set(pool.candidates)

    def test_archetype_mix_produces_skip_cases(self):
        cfg = SyntheticConfig(n_jobs=50, n_background=300, seed=3)
        docs, labels, pools = generate(cfg)
        sizes = [len(p.candidates) for p in pools]
        accepted_counts = [len(p.accepted_ids) for p in pools]
        assert any(s < 20 for s in sizes)
        assert any(c == 0 for c in accepted_counts)
        assert any(c >= 11 for c in accepted_counts)
        assert any(1 <= c <= 3 for c in accepted_counts)

    def test_accepted_resumes_match_their_job_best(self):
        cfg = SyntheticConfig(n_jobs=10, n_background=100, seed=4)
        docs, labels, pools = generate(cfg)
        scores = []
        for label in labels:
            if label.y == 1:
                scores.append(match_score(docs[label.job_id], docs[label.resume_id]))
        assert sum(scores) / len(scores) > 0.7

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            SyntheticConfig(n_jobs=0)
        with pytest.raises(ConfigError):
            SyntheticConfig(n_background=5)
        for pool_size in (0, 1):  # a short pool would hold no candidate
            with pytest.raises(ConfigError, match="pool_size must be an integer >= 2"):
                SyntheticConfig(pool_size=pool_size)
        with pytest.raises(ConfigError, match="frac_short_pool must be a finite number >= 0"):
            SyntheticConfig(frac_short_pool=-0.1)


class TestLoopReference:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(n_jobs=50, n_background=400, seed=8),
            dict(n_jobs=50, n_background=400, seed=2026),
            dict(n_jobs=500, n_background=4000, seed=3),
            # every score ties with many others, so the resume-id tie-break decides
            dict(n_jobs=50, n_background=400, seed=8, retrieval_noise=0.0),
            # 6-digit ids sort before most 5-digit ones ("r100000" < "r10001"); at
            # this seed they share tied scores with such 5-digit ids in the pool
            dict(n_jobs=1, n_background=100_050, seed=11, retrieval_noise=0.0),
        ],
    )
    def test_generate_matches_pairwise_loop(self, overrides):
        cfg = SyntheticConfig(**overrides)
        docs, labels, pools = generate(cfg)
        ref_docs, ref_labels, ref_pools = synthetic_by_loops(
            (SKILLS, TITLES, DEGREES, LOCATIONS), **asdict(cfg)
        )
        assert {d.id: d.fields for d in docs.values()} == ref_docs
        assert [(l.job_id, l.resume_id, l.y) for l in labels] == ref_labels
        assert [(p.job_id, p.candidates) for p in pools] == ref_pools
        accepted = {(job, rid) for job, rid, y in ref_labels if y}
        for pool in pools:
            assert pool.accepted_ids == {c for c in pool.candidates if (pool.job_id, c) in accepted}

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 100, 101])
    @pytest.mark.parametrize("pending", [False, True])
    def test_gauss_many_matches_random_gauss(self, n, pending):
        for seed in range(20):
            ours, ref = random.Random(seed), random.Random(seed)
            if pending:
                assert ours.gauss(0.0, 1.0) == ref.gauss(0.0, 1.0)
            values = _gauss_many(ours, n, 0.08)
            assert values.tolist() == [ref.gauss(0.0, 0.08) for _ in range(n)]
            assert ours.getstate() == ref.getstate()
            assert ours.random() == ref.random()


class TestSkillHelpers:
    def test_skill_set_parses_fields(self):
        cfg = SyntheticConfig(n_jobs=2, n_background=30, seed=0)
        docs, _, _ = generate(cfg)
        doc = next(d for d in docs.values() if d.kind == KIND_RESUME)
        assert skill_set(doc)
        assert all(s == s.strip() for s in skill_set(doc))

    def test_match_score_range(self):
        cfg = SyntheticConfig(n_jobs=3, n_background=30, seed=0)
        docs, _, _ = generate(cfg)
        job = next(d for d in docs.values() if d.kind == KIND_JOB)
        for doc in docs.values():
            if doc.kind == KIND_RESUME:
                assert 0.0 <= match_score(job, doc) <= 1.0


class TestEvalPools:
    def test_single_positive_at_random_rank(self):
        docs, pools = make_eval_pools(30, seed=9)
        ranks = []
        for pool in pools:
            rels = pool.relevance()
            assert sum(rels) == 1
            ranks.append(rels.index(1))
            assert all(cid in docs for cid in pool.candidates)
            assert pool.job_id in docs
        assert len(set(ranks)) > 5  # positives spread over depths

    def test_positive_ranks_pinned(self):
        ranks = [pool.relevance().index(1) for pool in make_eval_pools(8, seed=4, pool_size=50)[1]]
        assert ranks == [0, 18, 8, 43, 16, 15, 30, 28]

    def test_deterministic(self):
        a = make_eval_pools(5, seed=3)
        b = make_eval_pools(5, seed=3)
        assert [p.candidates for p in a[1]] == [p.candidates for p in b[1]]
        assert [p.accepted_ids for p in a[1]] == [p.accepted_ids for p in b[1]]
