"""Acceptance suite: one test per shipped criterion, at its stated tolerance.

Each test prints a single [acceptance] PASS line on success (visible under
``pytest -s`` or in failure reports). Expected values come from independent
oracles in tests/oracles.py or frozen audited fixtures in tests/data/.
"""

import itertools
import json
import math
import random
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from scipy import stats as scipy_stats

from rankfit.cli import main as cli_main
from rankfit.core import accepted_by_job
from rankfit.engine import EngineConfig, comparisons_per_pass, rerank_pool, window_starts
from rankfit.errors import MalformedAnswer
from rankfit.grpo import (
    GrpoConfig,
    evaluate_mean_reward,
    group_step_probs,
    make_policy,
    match_features,
    noise_features,
    pl_log_prob,
    surrogate_grad,
    train,
    window_reward,
)
from rankfit.metrics import RewardGroup, group_advantages, ndcg, rearank_reward, recall_at_k
from rankfit.ranker import NoisyOracleRanker, OracleRanker, format_answer, parse_answer
from rankfit.synthetic import SyntheticConfig, generate, make_eval_pools
from rankfit.windows import (
    PipelineConfig,
    annotate_difficulty,
    apply_strategy,
    build_all_windows,
)

from conftest import corpus_for, make_pool, make_window
from oracles import (
    central_difference_grad,
    naive_ndcg,
    naive_recall,
    ndcg4_single_positive_table,
    recount_skips,
)

DATA_DIR = Path(__file__).parent / "data"


def _report(criterion, detail):
    print(f"[acceptance] criterion {criterion}: PASS  {detail}")


def test_criterion_1_metric_oracle_equivalence():
    started = time.perf_counter()

    table = ndcg4_single_positive_table()
    assert len(table) == 24
    for rels, expected in table:
        assert abs(ndcg(list(rels), 4) - expected) < 1e-12

    rng = random.Random(20260808)
    checked = 0
    for _ in range(10_000):
        n = rng.randint(1, 30)
        rels = [rng.randint(0, 1) for _ in range(n)]
        if not any(rels):
            rels[rng.randrange(n)] = 1
        k = rng.choice((10, rng.randint(1, 30)))
        value = ndcg(rels, k)
        assert 0.0 <= value <= 1.0 + 1e-12
        assert abs(value - naive_ndcg(rels, k)) < 1e-9
        assert abs(recall_at_k(rels, k) - naive_recall(rels, k)) < 1e-9
        checked += 1

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report(1, f"24-ordering table exact, {checked} randomized cases < 1e-9, {elapsed:.2f}s")


def test_criterion_2_reward_and_advantage_properties():
    # boundary identities
    assert rearank_reward(0.5, 1.0, 1.0) == 1.0
    assert rearank_reward(0.6309, 0.6309, 1.0) == 0.0
    rng = random.Random(7)
    for _ in range(200):
        max_ = rng.randint(1, 1000) / 1000
        old = rng.randint(0, int(max_ * 1000)) / 1000
        assert rearank_reward(old, old, max_) == 0.0
        if old > 0:
            worse = rng.randint(0, int(old * 1000) - 1) / 1000 if old >= 0.001 else 0.0
            if worse < old < max_:
                assert rearank_reward(old, worse, max_) < 0

    # the published-style negative example; inputs at 4-decimal precision
    value = rearank_reward(0.6309, 0.5, 1.0)
    assert value == pytest.approx(-0.35462, abs=1e-4)

    # advantage standardization over 1k random groups
    for trial in range(1000):
        group_rng = random.Random(trial)
        rewards = [group_rng.uniform(-1, 1) for _ in range(group_rng.randint(2, 64))]
        adv = group_advantages(rewards)
        if all(a == 0.0 for a in adv):
            continue
        mean = sum(adv) / len(adv)
        std = math.sqrt(sum((a - mean) ** 2 for a in adv) / len(adv))
        assert abs(mean) < 1e-12
        assert abs(std - 1.0) < 1e-9

    _report(2, "boundary identities, -0.35462 +/- 1e-4 example, 1k standardized groups")


def test_criterion_3_engine_schedule_fidelity():
    started = time.perf_counter()

    analytic = {(2, 1): 19, (3, 1): 18, (3, 2): 10, (4, 1): 17, (4, 2): 9, (4, 3) : 7}
    for (k, s), expected in analytic.items():
        assert comparisons_per_pass(20, k, s) == expected
        assert len(window_starts(20, k, s)) == expected
    assert window_starts(20, 4, 2) == [17, 15, 13, 11, 9, 7, 5, 3, 1]

    # bubble-up guarantee, exhaustive over (k, s, start)
    cases = 0
    for k in (2, 3, 4):
        for s in range(1, k):
            accepted = {}
            for start_rank in range(20):
                pool = make_pool(job_id=f"bub-{k}-{s}-{start_rank}", accepted_ranks=(start_rank,))
                ranker = OracleRanker({pool.job_id: pool.accepted_ids})
                cfg = EngineConfig(window_size=k, stride=s, iterations=1)
                trace = rerank_pool(pool, ranker, cfg, corpus_for(pool))
                assert trace.final[0] == pool.candidates[start_rank]
                cases += 1

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(3, f"analytic comparisons column exact, bubble-up over {cases} cases, {elapsed:.2f}s")


def test_criterion_4_multipass_benefit():
    docs, pools = make_eval_pools(300, seed=5)
    accepted = {p.job_id: p.accepted_ids for p in pools}
    ranker = NoisyOracleRanker(accepted, p_flip=0.3, seed=5)

    def ndcg_after(iterations):
        cfg = EngineConfig(iterations=iterations)
        return [
            ndcg(p.relevance(rerank_pool(p, ranker, cfg, docs).final), 10) for p in pools
        ]

    one_pass = ndcg_after(1)
    two_pass = ndcg_after(2)
    mean1 = sum(one_pass) / len(one_pass)
    mean2 = sum(two_pass) / len(two_pass)
    assert mean2 > mean1

    t_stat, p_two_sided = scipy_stats.ttest_rel(two_pass, one_pass)
    assert t_stat > 0
    p_one_sided = p_two_sided / 2
    assert p_one_sided < 0.05
    _report(4, f"nDCG@10 {mean1:.4f} (t=1) -> {mean2:.4f} (t=2), paired p={p_one_sided:.2e}")


def test_criterion_5_pipeline_fidelity():
    started = time.perf_counter()
    expected = json.loads((DATA_DIR / "expected_pipeline.json").read_text())
    seed = expected["fixture_seed"]

    docs, labels, pools = generate(SyntheticConfig(n_jobs=50, n_background=400, seed=seed))
    assert len(pools) == expected["jobs_total"]

    # dual route: independent recount of the skip rules over raw records
    pool_records = [{"job_id": p.job_id, "candidates": list(p.candidates)} for p in pools]
    label_records = [
        {"job_id": l.job_id, "resume_id": l.resume_id, "y": l.y} for l in labels
    ]
    recounted = Counter(r for r in recount_skips(pool_records, label_records).values() if r)

    windows, skips = build_all_windows(pools, PipelineConfig(rng_seed=seed))
    pipeline_skips = Counter(s.reason for s in skips)
    assert dict(pipeline_skips) == dict(recounted) == expected["skips"]
    assert len(pools) - len(skips) == expected["jobs_kept"]
    assert len(windows) == expected["windows_emitted"]
    assert dict(Counter(w.job_id for w in windows)) == expected["windows_per_job"]

    # positive-slot uniformity, pooled over 5 pipeline seeds
    counts = Counter()
    for shuffle_seed in range(seed, seed + 5):
        ws, _ = build_all_windows(pools, PipelineConfig(rng_seed=shuffle_seed))
        for w in ws:
            counts[w.gold_slot()] += 1
    observed = [counts[slot] for slot in (1, 2, 3, 4)]
    _, p_value = scipy_stats.chisquare(observed)
    assert p_value > 0.01

    # filter arithmetic against the annotated difficulty values
    accepted = accepted_by_job(labels)
    annotated, _ = annotate_difficulty(
        windows, NoisyOracleRanker(accepted, p_flip=0.5, seed=seed), docs, PipelineConfig()
    )
    n_hard = sum(1 for w in annotated if w.r_bar < 0.4)
    n_easy = len(annotated) - n_hard
    removed = apply_strategy(annotated, "remove_hard", random.Random(seed))
    assert len(removed) == n_easy
    subsampled = apply_strategy(annotated, "subsample_hard", random.Random(seed))
    assert len(subsampled) == n_easy + round(0.5 * n_hard)

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(
        5,
        f"skips {dict(pipeline_skips)} == recount == frozen, {len(windows)} windows, "
        f"chi2 p={p_value:.3f}, filter arithmetic exact, {elapsed:.2f}s",
    )


def test_criterion_6_answer_protocol_round_trip():
    for k in range(1, 6):
        for perm in itertools.permutations(range(1, k + 1)):
            ordering, repaired = parse_answer(format_answer(list(perm)), k)
            assert ordering == list(perm)
            assert repaired is False

    rng = random.Random(606)
    fragments = [
        "<answer>", "</answer>", "<answer", "answer>", "[", "]", ">", " ", "\n",
        "[1]", "[2]", "[3]", "[4]", "[5]", "[9]", "[12]", "[-3]", "[0]",
        "resume", "think", "=", "1", "2", "XYZ",
    ]
    outcomes = Counter()
    for _ in range(10_000):
        raw = "".join(rng.choice(fragments) for _ in range(rng.randint(0, 30)))
        k = rng.randint(1, 6)
        try:
            ordering, _ = parse_answer(raw, k)
        except MalformedAnswer:
            outcomes["malformed"] += 1
            continue
        assert sorted(ordering) == list(range(1, k + 1))
        outcomes["parsed"] += 1
    assert outcomes["parsed"] > 0 and outcomes["malformed"] > 0
    _report(6, f"exhaustive round trip k<=5, fuzz outcomes {dict(outcomes)}")


def _gradcheck_triple(rng):
    window = make_window(
        window_id=f"acc/{rng.integers(10**6)}", gold_slot=int(rng.integers(1, 5))
    )

    def onehot(w, cid):
        v = np.zeros(4)
        v[w.candidate_ids.index(cid)] = 1.0
        return v

    from rankfit.grpo import PLPolicy

    policy = PLPolicy(rng.normal(0, 1.0, size=4), onehot, [f"c{i}" for i in range(4)])
    ref = PLPolicy(rng.normal(0, 1.0, size=4), onehot, [f"c{i}" for i in range(4)])
    ids = window.presented_ids()
    samples = []
    for _ in range(8):
        perm = list(ids)
        rng.shuffle(perm)
        ordering = tuple(perm)
        samples.append((ordering, window_reward(window, ordering)))
    group = RewardGroup(
        window_id=window.window_id,
        samples=samples,
        advantages=group_advantages([r for _, r in samples]),
    )
    return policy, ref, window, group


def test_criterion_7_grpo_simulator_numerics():
    started = time.perf_counter()

    # analytic gradient vs central finite differences over 100 random triples
    rng = np.random.default_rng(1234)
    cfg = GrpoConfig(beta=0.01, kl_mode="exact")
    worst = 0.0
    for _ in range(100):
        policy, ref, window, group = _gradcheck_triple(rng)
        denoms = group_step_probs(policy, window, group)

        def value_at(theta_list):
            probe = policy.clone()
            probe.theta = np.asarray(theta_list, dtype=float)
            return surrogate_grad(probe, ref, window, group, cfg, denoms)[0]

        _, grad, _ = surrogate_grad(policy, ref, window, group, cfg, denoms=denoms)
        fd = np.asarray(central_difference_grad(value_at, list(policy.theta), h=1e-5))
        worst = max(worst, np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-10))
    assert worst < 1e-4

    # likelihood normalization at random parameters
    window = make_window(window_id="acc/norm")
    ids = window.presented_ids()
    norm_rng = np.random.default_rng(5)
    for _ in range(10):
        policy, _, _, _ = _gradcheck_triple(np.random.default_rng(int(norm_rng.integers(10**6))))
        total = sum(
            math.exp(pl_log_prob(policy, window, perm))
            for perm in itertools.permutations(ids)
        )
        assert abs(total - 1.0) < 1e-9

    # the shipped synthetic task: informative features train, noise stays flat
    docs, labels, pools = generate(SyntheticConfig(n_jobs=120, n_background=500, seed=11))
    windows = build_all_windows(pools, PipelineConfig(rng_seed=11))[0][:500]
    assert len(windows) == 500
    train_cfg = GrpoConfig(learning_rate=4.0, batch_size=16, rng_seed=0)

    match_fn, match_names = match_features(docs)
    policy = make_policy(match_fn, match_names)
    reward_before = evaluate_mean_reward(policy, windows, train_cfg, "init")
    result = train(policy, windows, train_cfg)
    reward_after = evaluate_mean_reward(result.policy, windows, train_cfg, "final")
    rearank_gain = reward_after - reward_before
    assert rearank_gain >= 0.2
    rho, _ = scipy_stats.spearmanr(
        [c.step for c in result.curve], [c.mean_reward for c in result.curve]
    )
    assert rho > 0.8

    noise_fn, noise_names = noise_features(0)
    noise_policy = make_policy(noise_fn, noise_names)
    noise_before = evaluate_mean_reward(noise_policy, windows, train_cfg, "init")
    noise_result = train(noise_policy, windows, train_cfg)
    noise_after = evaluate_mean_reward(noise_result.policy, windows, train_cfg, "final")
    assert abs(noise_after - noise_before) < 0.05

    # qualitative ordering check: both reward modes improve over initialization
    rankr1_cfg = GrpoConfig(learning_rate=4.0, batch_size=16, reward="rankr1", rng_seed=0)
    rankr1_policy = make_policy(match_fn, match_names)
    rankr1_before = evaluate_mean_reward(rankr1_policy, windows, rankr1_cfg, "init")
    rankr1_result = train(rankr1_policy, windows, rankr1_cfg)
    rankr1_after = evaluate_mean_reward(rankr1_result.policy, windows, rankr1_cfg, "final")
    assert rankr1_after > rankr1_before

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(
        7,
        f"gradcheck worst rel err {worst:.2e}, rearank {reward_before:.3f}->{reward_after:.3f} "
        f"(curve rho={rho:.2f}), noise |d|={abs(noise_after - noise_before):.3f}, "
        f"rankr1 {rankr1_before:.3f}->{rankr1_after:.3f}, {elapsed:.1f}s",
    )


def test_criterion_8_end_to_end_determinism(tmp_path):
    runner = CliRunner()

    def run_chain(root):
        root.mkdir()
        data = root / "data"
        steps = [
            ["gen-synthetic", "--out-dir", str(data), "--n-jobs", "25",
             "--n-background", "150", "--seed", "8"],
            ["build-windows", "--corpus", str(data / "corpus.jsonl"),
             "--labels", str(data / "labels.jsonl"), "--pools", str(data / "pools.jsonl"),
             "--out", str(root / "windows.jsonl"), "--seed", "8"],
            ["annotate", "--windows", str(root / "windows.jsonl"),
             "--corpus", str(data / "corpus.jsonl"), "--labels", str(data / "labels.jsonl"),
             "--out", str(root / "annotated.jsonl"), "--ranker", "noisy",
             "--p-flip", "0.4", "--seed", "8"],
            ["filter", "--windows", str(root / "annotated.jsonl"),
             "--out", str(root / "filtered.jsonl"), "--strategy", "remove_hard",
             "--seed", "8"],
            ["rerank", "--pools", str(data / "pools.jsonl"),
             "--corpus", str(data / "corpus.jsonl"), "--labels", str(data / "labels.jsonl"),
             "--out", str(root / "reranked.jsonl"), "--ranker", "oracle", "--seed", "8"],
            ["evaluate", "--pools", str(data / "pools.jsonl"),
             "--labels", str(data / "labels.jsonl"), "--reranked", str(root / "reranked.jsonl"),
             "--out", str(root / "report.json"), "--seed", "8"],
        ]
        for step in steps:
            result = runner.invoke(cli_main, step)
            assert result.exit_code == 0, (step[0], result.output)
        artifacts = {}
        for path in sorted(root.rglob("*")):
            if path.is_file():
                artifacts[str(path.relative_to(root))] = path.read_bytes()
        return artifacts

    first = run_chain(tmp_path / "run1")
    second = run_chain(tmp_path / "run2")
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"artifact {name} differs between runs"
    _report(8, f"{len(first)} artifacts byte-identical across two runs")
