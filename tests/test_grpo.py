import itertools
import math
import random

import numpy as np
import pytest

from rankfit.errors import ConfigError, InvalidOrdering, NumericalError
from rankfit.grpo import (
    GrpoConfig,
    PLPolicy,
    evaluate_mean_reward,
    greedy_ndcg4,
    grpo_step,
    kl_exact,
    make_policy,
    match_features,
    pl_log_prob,
    sample_group,
    surrogate_grad,
    group_step_probs,
    train,
    window_reward,
)
from rankfit.metrics import RewardGroup, group_advantages
from rankfit.seeding import child_rng
from rankfit.synthetic import SyntheticConfig
from rankfit.windows import PipelineConfig, build_all_windows

import oracles
from conftest import generate_corpus, make_window
from oracles import central_difference_grad


def onehot_policy(theta=None):
    """Features are one-hot on the candidate's index within the window."""

    def fn(window, cid):
        v = np.zeros(4)
        v[window.candidate_ids.index(cid)] = 1.0
        return v

    names = [f"cand_{i}" for i in range(4)]
    if theta is None:
        theta = np.zeros(4)
    return PLPolicy(np.asarray(theta, dtype=float), fn, names)


def independent_pl_probs(scores):
    """Plain-math Plackett-Luce distribution over all permutations."""
    probs = {}
    for perm in itertools.permutations(range(len(scores))):
        p = 1.0
        remaining = list(range(len(scores)))
        for chosen in perm:
            exps = [math.exp(scores[i]) for i in remaining]
            p *= math.exp(scores[chosen]) / sum(exps)
            remaining.remove(chosen)
        probs[perm] = p
    return probs


class TestPlLogProb:
    def test_uniform_policy_is_one_over_24(self):
        policy = onehot_policy()
        window = make_window()
        logp = pl_log_prob(policy, window, window.presented_ids())
        assert logp == pytest.approx(math.log(1 / 24), abs=1e-12)

    def test_dominant_score_first_step(self):
        window = make_window(gold_slot=1)
        policy = onehot_policy()
        # put weight 10 on the candidate presented first
        first_id = window.presented_ids()[0]
        theta = np.zeros(4)
        theta[window.candidate_ids.index(first_id)] = 10.0
        policy = onehot_policy(theta)
        ordering = window.presented_ids()
        logp = pl_log_prob(policy, window, ordering)
        first_step = math.log(math.exp(10) / (math.exp(10) + 3))
        assert first_step == pytest.approx(-1.36194e-4, rel=1e-3)
        # remaining three candidates are uniform: log(1/3!) for the tail
        assert logp == pytest.approx(first_step + math.log(1 / 6), abs=1e-9)

    def test_normalization_random_theta(self):
        rng = np.random.default_rng(0)
        window = make_window()
        ids = window.presented_ids()
        for _ in range(20):
            policy = onehot_policy(rng.normal(0, 2, size=4))
            total = sum(
                math.exp(pl_log_prob(policy, window, perm))
                for perm in itertools.permutations(ids)
            )
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_matches_independent_enumeration(self):
        rng = np.random.default_rng(1)
        window = make_window()
        ids = window.presented_ids()
        policy = onehot_policy(rng.normal(0, 1.5, size=4))
        scores = policy.scores(window)
        reference = independent_pl_probs(list(scores))
        for perm_idx, expected in reference.items():
            ordering = tuple(ids[i] for i in perm_idx)
            assert math.exp(pl_log_prob(policy, window, ordering)) == pytest.approx(
                expected, rel=1e-9
            )

    def test_nonpermutation_rejected(self):
        policy = onehot_policy()
        window = make_window()
        ids = window.presented_ids()
        with pytest.raises(InvalidOrdering):
            pl_log_prob(policy, window, (ids[0], ids[0], ids[1], ids[2]))
        with pytest.raises(InvalidOrdering):
            pl_log_prob(policy, window, ids[:3])

    def test_always_nonpositive(self):
        rng = np.random.default_rng(2)
        window = make_window()
        ids = list(window.presented_ids())
        for _ in range(50):
            policy = onehot_policy(rng.normal(0, 3, size=4))
            perm = list(ids)
            rng.shuffle(perm)
            assert pl_log_prob(policy, window, tuple(perm)) <= 0.0


class TestWindowReward:
    def test_rearank_gold_to_top(self):
        window = make_window(gold_slot=3)  # ndcg_old = 0.5
        ids = window.presented_ids()
        gold_first = (window.gold_id,) + tuple(i for i in ids if i != window.gold_id)
        assert window_reward(window, gold_first) == pytest.approx(1.0)

    def test_rearank_unchanged_is_zero(self):
        window = make_window(gold_slot=3)
        assert window_reward(window, window.presented_ids()) == pytest.approx(0.0)

    def test_rearank_gold_already_first_is_zero(self):
        window = make_window(gold_slot=1)
        ids = window.presented_ids()
        demoted = (ids[1], ids[0], ids[2], ids[3])
        assert window_reward(window, demoted) == 0.0
        assert window_reward(window, ids) == 0.0

    def test_rankr1_binary(self):
        window = make_window(gold_slot=2)
        ids = window.presented_ids()
        gold_first = (window.gold_id,) + tuple(i for i in ids if i != window.gold_id)
        assert window_reward(window, gold_first, "rankr1") == 1.0
        assert window_reward(window, ids, "rankr1") == 0.0


class TestSampleGroup:
    def test_advantages_standardized(self):
        policy = onehot_policy()
        window = make_window(gold_slot=2)
        cfg = GrpoConfig(rng_seed=0)
        group = sample_group(policy, window, cfg, random.Random(0))
        assert len(group.samples) == cfg.group_size
        if any(a != 0 for a in group.advantages):
            assert sum(group.advantages) == pytest.approx(0.0, abs=1e-9)

    def test_oracle_policy_zero_variance(self):
        window = make_window(gold_slot=2)
        theta = np.zeros(4)
        theta[window.candidate_ids.index(window.gold_id)] = 50.0
        policy = onehot_policy(theta)
        group = sample_group(policy, window, GrpoConfig(), random.Random(1))
        assert all(r == 1.0 for r in group.rewards)
        assert group.advantages == [0.0] * len(group.samples)

    def test_seeded_determinism(self):
        policy = onehot_policy(np.array([0.5, -0.2, 0.1, 0.0]))
        window = make_window(gold_slot=4)
        a = sample_group(policy, window, GrpoConfig(), random.Random(7))
        b = sample_group(policy, window, GrpoConfig(), random.Random(7))
        assert a.samples == b.samples
        assert a.advantages == b.advantages


class TestKl:
    def test_exact_zero_at_ref(self):
        policy = onehot_policy(np.array([0.3, -0.7, 0.2, 0.1]))
        ref = policy.clone()
        window = make_window()
        value, grad = kl_exact(policy, ref, window)
        assert value == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(grad, 0.0, atol=1e-12)

    def test_exact_nonnegative_and_matches_independent_sum(self):
        rng = np.random.default_rng(3)
        window = make_window()
        for _ in range(10):
            policy = onehot_policy(rng.normal(0, 1, size=4))
            ref = onehot_policy(rng.normal(0, 1, size=4))
            value, _ = kl_exact(policy, ref, window)
            assert value >= -1e-12
            p = independent_pl_probs(list(policy.scores(window)))
            q = independent_pl_probs(list(ref.scores(window)))
            expected = sum(p[k] * math.log(p[k] / q[k]) for k in p)
            assert value == pytest.approx(expected, rel=1e-9)


def random_triple(rng):
    """A random (policy, window, group) for gradient checking."""
    window = make_window(
        window_id=f"gc/{rng.integers(10**6)}", gold_slot=int(rng.integers(1, 5))
    )
    theta = rng.normal(0, 1.0, size=4)
    policy = onehot_policy(theta)
    ids = window.presented_ids()
    samples = []
    for _ in range(8):
        perm = list(ids)
        rng.shuffle(perm)
        ordering = tuple(perm)
        samples.append((ordering, window_reward(window, ordering)))
    advantages = group_advantages([r for _, r in samples])
    group = RewardGroup(window_id=window.window_id, samples=samples, advantages=advantages)
    return policy, window, group


class TestGradientCorrectness:
    @pytest.mark.parametrize("beta", [0.0, 0.05])
    def test_analytic_matches_central_differences(self, beta):
        rng = np.random.default_rng(42)
        cfg = GrpoConfig(beta=beta, rng_seed=0)
        worst = 0.0
        for _ in range(100):
            policy, window, group = random_triple(rng)
            ref = onehot_policy(rng.normal(0, 1.0, size=4))
            denoms = group_step_probs(policy, window, group)

            def value_at(theta_list):
                probe = onehot_policy(np.asarray(theta_list))
                return surrogate_grad(probe, ref, window, group, cfg, denoms)[0]

            _, grad, _ = surrogate_grad(policy, ref, window, group, cfg, denoms=denoms)
            fd = np.asarray(central_difference_grad(value_at, list(policy.theta), h=1e-5))
            rel_err = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-10)
            worst = max(worst, rel_err)
        assert worst < 1e-4

    def test_offpolicy_ratio_gradient_also_matches(self):
        # denominators frozen from a different parameter point than the probe
        rng = np.random.default_rng(7)
        cfg = GrpoConfig(beta=0.01)
        policy, window, group = random_triple(rng)
        sampler = onehot_policy(rng.normal(0, 1.0, size=4))
        denoms = group_step_probs(sampler, window, group)
        ref = onehot_policy(rng.normal(0, 1.0, size=4))

        def value_at(theta_list):
            probe = onehot_policy(np.asarray(theta_list))
            return surrogate_grad(probe, ref, window, group, cfg, denoms)[0]

        _, grad, _ = surrogate_grad(policy, ref, window, group, cfg, denoms=denoms)
        fd = np.asarray(central_difference_grad(value_at, list(policy.theta), h=1e-5))
        assert np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-10) < 1e-4


class TestGrpoStep:
    def test_gold_weight_increases_when_gold_first_has_positive_advantage(self):
        window = make_window(gold_slot=2)
        policy = onehot_policy()
        ref = policy.clone()
        cfg = GrpoConfig(beta=0.0, rng_seed=0)
        ids = window.presented_ids()
        gold = window.gold_id
        others = [i for i in ids if i != gold]
        orderings = [
            (gold, *others),
            (others[0], gold, *others[1:]),
            (others[1], *[i for i in ids if i not in (others[1],)]),
            tuple(reversed(ids)),
        ]
        rewards = [window_reward(window, o) for o in orderings]
        assert rewards[0] == 1.0 and max(rewards[1:]) < 1.0
        group = RewardGroup(
            window_id=window.window_id,
            samples=list(zip(orderings, rewards)),
            advantages=group_advantages(rewards),
        )
        _, grad, _ = surrogate_grad(policy, ref, window, group, cfg)
        gold_idx = window.candidate_ids.index(gold)
        assert grad[gold_idx] > 0
        updated = policy.theta + 0.1 * grad
        assert updated[gold_idx] > policy.theta[gold_idx]

    def test_zero_advantages_update_is_minus_lr_beta_klgrad(self):
        window = make_window(gold_slot=1)
        policy = onehot_policy(np.array([0.4, -0.1, 0.0, 0.3]))
        ref = onehot_policy(np.array([0.0, 0.1, 0.0, -0.2]))
        cfg = GrpoConfig(beta=0.5)
        ids = window.presented_ids()
        orderings = [tuple(ids), tuple(reversed(ids))]
        group = RewardGroup(
            window_id=window.window_id,
            samples=[(o, 0.3) for o in orderings],
            advantages=[0.0, 0.0],
        )
        _, grad, _ = surrogate_grad(policy, ref, window, group, cfg)
        _, kl_grad = kl_exact(policy, ref, window)
        assert np.allclose(grad, -cfg.beta * kl_grad, atol=1e-12)

    def test_zero_advantages_at_ref_is_no_op(self):
        window = make_window(gold_slot=1)
        policy = onehot_policy(np.array([0.4, -0.1, 0.0, 0.3]))
        ref = policy.clone()
        cfg = GrpoConfig(beta=0.5)
        ids = window.presented_ids()
        group = RewardGroup(
            window_id=window.window_id,
            samples=[(tuple(ids), 1.0), (tuple(reversed(ids)), 1.0)],
            advantages=[0.0, 0.0],
        )
        _, grad, _ = surrogate_grad(policy, ref, window, group, cfg)
        assert np.allclose(grad, 0.0, atol=1e-12)

    def test_batch_size_below_one_rejected(self):
        with pytest.raises(ConfigError, match="batch_size must be an integer >= 1, got 0"):
            GrpoConfig(batch_size=0)

    @pytest.mark.parametrize("epochs", [0, -2, 1.5])
    def test_epochs_below_one_rejected(self, epochs):
        with pytest.raises(ConfigError, match=f"epochs must be an integer >= 1, got {epochs}"):
            GrpoConfig(epochs=epochs)

    def test_unknown_reward_rejected(self):
        # the CLI's --reward choices stop this first; library callers reach the check
        with pytest.raises(ConfigError, match=r"^reward must be one of \('rearank', 'rankr1'\)$"):
            GrpoConfig(reward="ndcg")

    @pytest.mark.parametrize(
        "field,value,rule",
        [("learning_rate", 0.0, "> 0"), ("learning_rate", -4.0, "> 0"), ("learning_rate", float("nan"), "> 0"),
         ("learning_rate", float("inf"), "> 0"), ("beta", float("inf"), ">= 0"), ("beta", float("nan"), ">= 0")],
    )
    def test_step_settings_must_be_finite(self, field, value, rule):
        with pytest.raises(ConfigError, match=f"^{field} must be a finite number {rule}, got"):
            GrpoConfig(**{field: value})

    def test_empty_batch_rejected(self):
        policy = onehot_policy()
        with pytest.raises(ConfigError):
            grpo_step(policy, policy.clone(), [], GrpoConfig())

    def test_nonfinite_gradient_names_window(self):
        window = make_window(window_id="j1/bad", gold_slot=2)

        def fn(w, cid):
            return np.array([np.inf, 1.0])

        policy = PLPolicy(np.zeros(2), fn, ["a", "b"])
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericalError) as exc_info:
                grpo_step(policy, policy.clone(), [window], GrpoConfig(learning_rate=0.1))
        assert "j1/bad" in str(exc_info.value)

    def test_step_runs_and_reports(self):
        windows = [make_window(window_id=f"j1/w{i}", gold_slot=(i % 4) + 1) for i in range(4)]
        policy = onehot_policy()
        new_policy, stats = grpo_step(
            policy, policy.clone(), windows, GrpoConfig(learning_rate=1.0, rng_seed=0)
        )
        assert np.isfinite(stats.mean_reward)
        assert stats.kl >= -1e-12
        assert stats.grad_norm >= 0


class TestTraining:
    def _windows(self, n_jobs=40, seed=11):
        docs, labels, pools = generate_corpus(
            SyntheticConfig(n_jobs=n_jobs, n_background=200, seed=seed)
        )
        windows, _ = build_all_windows(pools, PipelineConfig(rng_seed=seed))
        return docs, windows

    def test_deterministic_given_seed(self):
        docs, windows = self._windows(n_jobs=10)
        fn, names = match_features(docs)
        cfg = GrpoConfig(learning_rate=2.0, batch_size=8, epochs=1, rng_seed=3)
        a = train(make_policy(fn, names), windows, cfg)
        b = train(make_policy(fn, names), windows, cfg)
        assert np.array_equal(a.policy.theta, b.policy.theta)
        assert a.curve == b.curve

    def test_informative_task_improves(self):
        docs, windows = self._windows()
        fn, names = match_features(docs)
        cfg = GrpoConfig(learning_rate=4.0, batch_size=16, rng_seed=0)
        policy = make_policy(fn, names)
        before = evaluate_mean_reward(policy, windows, cfg, "init")
        result = train(policy, windows, cfg)
        after = evaluate_mean_reward(result.policy, windows, cfg, "final")
        assert after > before + 0.1
        assert greedy_ndcg4(result.policy, windows) > greedy_ndcg4(result.ref, windows)

    def test_reference_frozen_at_init(self):
        docs, windows = self._windows(n_jobs=10)
        fn, names = match_features(docs)
        policy = make_policy(fn, names)
        init_theta = policy.theta.copy()
        result = train(policy, windows, GrpoConfig(learning_rate=2.0, epochs=1, rng_seed=0))
        assert np.array_equal(result.ref.theta, init_theta)

    def test_large_beta_pins_policy_to_ref(self):
        docs, windows = self._windows(n_jobs=25, seed=13)
        windows = windows[:100]
        fn, names = match_features(docs)
        # plain ascent on beta*KL is only stable for lr*beta*Fisher < 2, so the
        # regularization sweep runs at a small step size
        disps = {}
        for beta in (0.0, 1.0, 1000.0):
            cfg = GrpoConfig(learning_rate=0.02, batch_size=16, beta=beta, rng_seed=0)
            result = train(make_policy(fn, names), windows, cfg)
            disps[beta] = float(np.linalg.norm(result.policy.theta - result.ref.theta))
        assert disps[1000.0] < 0.01
        assert disps[1000.0] < disps[1.0] < disps[0.0]


def dense_policy(rng, theta_scale=1.0, dim=3):
    """A policy over random dense features, one fixed vector per candidate id."""
    table = {}

    def fn(window, cid):
        if cid not in table:
            table[cid] = rng.normal(0, 1.0, size=dim)
        return table[cid]

    return PLPolicy(rng.normal(0, theta_scale, size=dim), fn, [f"f{i}" for i in range(dim)])


def oracle_inputs(policy, window):
    return list(policy.scores(window)), policy.features(window).tolist()


def naive_window_reward(window, ordering):
    """Relative nDCG improvement over the presented order, from the oracle nDCG."""
    k = len(ordering)
    old = oracles.naive_ndcg([int(c == window.gold_id) for c in window.presented_ids()], k)
    new = oracles.naive_ndcg([int(c == window.gold_id) for c in ordering], k)
    return 0.0 if old == 1.0 else (new - old) / (1.0 - old)


def reference_train(windows, feature_fn, dim, cfg):
    """The training loop rebuilt from the loop oracles: on-policy ratios and exact KL.

    Returns (step, mean_reward, kl, grad_norm, eval_ndcg4) per step, starting
    from theta = 0 with the reference frozen there.
    """
    feats = {w.window_id: [[float(x) for x in feature_fn(w, c)] for c in w.presented_ids()] for w in windows}

    def scores(theta, window):
        return [sum(t * f for t, f in zip(theta, row)) for row in feats[window.window_id]]

    def greedy(theta):
        total = 0.0
        for w in windows:
            s = scores(theta, w)
            order = sorted(range(len(s)), key=lambda i: -s[i])
            total += oracles.naive_ndcg([int(w.presented_ids()[i] == w.gold_id) for i in order], len(s))
        return total / len(windows)

    theta = [0.0] * dim
    ref_theta = list(theta)
    curve = []
    for epoch in range(cfg.epochs):
        order = list(range(len(windows)))
        child_rng(cfg.rng_seed, f"shuffle:{epoch}").shuffle(order)
        for lo in range(0, len(order), cfg.batch_size):
            batch = [windows[i] for i in order[lo : lo + cfg.batch_size]]
            grad_sum = [0.0] * dim
            rewards, kls = [], []
            for w in batch:
                rng = child_rng(cfg.rng_seed, f"group:e{epoch}:{w.window_id}")
                s = scores(theta, w)
                perms = [oracles.pl_sample(s, rng) for _ in range(cfg.group_size)]
                group_rewards = [naive_window_reward(w, [w.presented_ids()[i] for i in p]) for p in perms]
                mean = sum(group_rewards) / len(group_rewards)
                std = math.sqrt(sum((r - mean) ** 2 for r in group_rewards) / len(group_rewards))
                adv = [(r - mean) / std if std > 0 else 0.0 for r in group_rewards]
                _, grad, kl = oracles.surrogate_by_loops(
                    s, scores(ref_theta, w), feats[w.window_id], perms, adv, cfg.beta
                )
                grad_sum = [a + b for a, b in zip(grad_sum, grad)]
                rewards.extend(group_rewards)
                kls.append(kl)
            grad_mean = [g / len(batch) for g in grad_sum]
            theta = [t + cfg.learning_rate * g for t, g in zip(theta, grad_mean)]
            norm = math.sqrt(sum(g * g for g in grad_mean))
            curve.append((len(curve) + 1, float(np.mean(rewards)), float(np.mean(kls)), norm, greedy(theta)))
    return curve


def assert_close(actual, expected):
    """Within 1e-12, relative to the reference's magnitude once it exceeds 1."""
    np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-12)


class TestLoopReference:
    """The array kernels against the plain-loop Plackett-Luce reference in oracles.py."""

    def test_log_prob_kl_and_surrogate_match_reference(self):
        rng = np.random.default_rng(21)
        for cfg in (GrpoConfig(beta=0.05), GrpoConfig(beta=0.0)):
            for _ in range(15):
                _, window, group = random_triple(rng)
                policy, ref, sampler = (dense_policy(rng, theta_scale=1.5) for _ in range(3))
                ref.feature_fn = sampler.feature_fn = policy.feature_fn
                scores, feats = oracle_inputs(policy, window)
                ref_scores, _ = oracle_inputs(ref, window)
                ids = window.presented_ids()
                perms = [[ids.index(c) for c in ordering] for ordering, _ in group.samples]
                for (ordering, _), perm in zip(group.samples, perms):
                    assert_close(pl_log_prob(policy, window, ordering), oracles.pl_log_prob(scores, feats, perm))

                value, grad = kl_exact(policy, ref, window)
                ref_value, ref_grad = oracles.kl_by_enumeration(scores, ref_scores, feats)
                assert_close(value, ref_value)
                assert_close(grad, ref_grad)

                for denoms in (None, group_step_probs(sampler, window, group)):
                    v, g, kl = surrogate_grad(policy, ref, window, group, cfg, denoms=denoms)
                    rv, rg, rkl = oracles.surrogate_by_loops(
                        scores, ref_scores, feats, perms, group.advantages, cfg.beta, denoms
                    )
                    assert_close(v, rv)
                    assert_close(kl, rkl)
                    assert_close(g, rg)

    def test_sampling_matches_sequential_sampler(self):
        rng = np.random.default_rng(22)
        cfg = GrpoConfig(group_size=16)
        windows = [make_window(window_id=f"s/{i}", gold_slot=(i % 4) + 1) for i in range(12)]
        policy = dense_policy(rng, theta_scale=2.0)
        for seed, window in enumerate(windows):
            scores, _ = oracle_inputs(policy, window)
            ids = window.presented_ids()
            draws = random.Random(seed)
            expected = [
                tuple(ids[i] for i in oracles.pl_sample(scores, draws)) for _ in range(cfg.group_size)
            ]
            for mode in ("rearank", "rankr1"):
                group = sample_group(policy, window, GrpoConfig(group_size=16, reward=mode), random.Random(seed))
                assert [ordering for ordering, _ in group.samples] == expected
                assert group.rewards == [window_reward(window, o, mode) for o in expected]

        total, count = 0.0, 0
        for window in windows:
            scores, _ = oracle_inputs(policy, window)
            ids = window.presented_ids()
            draws = child_rng(cfg.rng_seed, f"eval:tag:{window.window_id}")
            for _ in range(8):
                total += window_reward(window, [ids[i] for i in oracles.pl_sample(scores, draws)])
                count += 1
        assert evaluate_mean_reward(policy, windows, cfg, "tag") == total / count

    def test_train_matches_reference_loop(self):
        docs, _, pools = generate_corpus(SyntheticConfig(n_jobs=12, n_background=120, seed=5))
        windows = build_all_windows(pools, PipelineConfig(rng_seed=5))[0][:40]
        assert len(windows) == 40
        fn, names = match_features(docs)
        cfg = GrpoConfig(group_size=8, learning_rate=4.0, batch_size=8, epochs=2, rng_seed=5)
        curve = train(make_policy(fn, names), windows, cfg).curve
        expected = reference_train(windows, fn, len(names), cfg)
        assert [(c.step, c.mean_reward, c.eval_ndcg4) for c in curve] == [(e[0], e[1], e[4]) for e in expected]
        for point, (_, _, kl, grad_norm, _) in zip(curve, expected):
            assert abs(point.kl - kl) <= 1e-12
            assert abs(point.grad_norm - grad_norm) <= 1e-12
