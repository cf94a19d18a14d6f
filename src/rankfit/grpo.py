"""Desk-scale group-relative policy optimization over ranking windows.

Full-scale training optimizes an LLM; this module verifies the same objective
numerically with a policy small enough to check by brute force: a
Plackett-Luce distribution over orderings of a 4-candidate window. The policy
scores each candidate as theta . features(window, candidate) and builds an
ordering by sequential softmax selections over the remaining candidates, so
every permutation has a tractable likelihood (24 terms for k=4).

Training follows the group-relative recipe: sample a group of orderings per
window, score each with the relative-nDCG-improvement reward (or the binary
top-1 reward), standardize rewards within the group into advantages, and
ascend the advantage-weighted likelihood-ratio surrogate minus a KL penalty
toward the frozen reference policy. Each of the k-1 nontrivial selection
steps plays the role of one token, and length normalization divides by k-1.
The ratio's denominator is the sampling-time probability held constant, so
on-policy the ratio is 1 and its gradient is the score function.

The KL term is exact: it enumerates all k! orderings, so it is exactly zero
with zero gradient at theta = theta_ref.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .core import Document, open_atomic
from .errors import ConfigError, InvalidOrdering, NumericalError, check_fields
from .metrics import RewardGroup, group_advantages, ndcg, rankr1_reward, rearank_reward, running_total
from .seeding import child_rng
from .synthetic import match_score
from .windows import Window

REWARD_MODES = ("rearank", "rankr1")
EVAL_SAMPLES_PER_WINDOW = 8  # Monte-Carlo draws per window in evaluate_mean_reward

FeatureFn = Callable[[Window, str], "np.ndarray"]


@dataclass
class PLPolicy:
    """Plackett-Luce listwise policy: softmax over remaining candidates per step."""

    theta: np.ndarray
    feature_fn: FeatureFn
    feature_names: list[str]

    def features(self, window: Window) -> np.ndarray:
        """Feature matrix (k x d) for the window's presented candidates."""
        import numpy as np
        return np.array([self.feature_fn(window, cid) for cid in window.presented_ids()], dtype=float)

    def scores(self, window: Window) -> np.ndarray:
        return self.features(window) @ self.theta

    def clone(self) -> "PLPolicy":
        return PLPolicy(self.theta.copy(), self.feature_fn, list(self.feature_names))


@dataclass(frozen=True)
class GrpoConfig:
    group_size: int = 32
    beta: float = 0.01
    learning_rate: float = 1e-6  # recorded full-scale default; desk runs override upward
    epochs: int = 2
    batch_size: int = 16
    reward: str = "rearank"
    rng_seed: int = 0

    def __post_init__(self):
        check_fields(self, ("group_size", "batch_size", "epochs"), int, lambda v: v >= 1, "an integer >= 1")
        check_fields(self, ("beta",), float, lambda v: v >= 0, "a finite number >= 0")
        check_fields(self, ("learning_rate",), float, lambda v: v > 0, "a finite number > 0")
        if self.reward not in REWARD_MODES:
            raise ConfigError(f"reward must be one of {REWARD_MODES}")


# ---------------------------------------------------------------------------
# Likelihood
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _perm_table(k: int) -> np.ndarray:
    """All k! orderings of range(k), one per row, in itertools order (read-only)."""
    import numpy as np
    table = np.array(list(itertools.permutations(range(k))), dtype=np.intp)
    table.flags.writeable = False
    return table


def _perm_indices(window: Window, orderings: Sequence[Sequence[str]]) -> np.ndarray:
    """Orderings of the window's candidates as an (n x k) array of presented-slot indices."""
    import numpy as np
    ids = window.presented_ids()
    expected = sorted(ids)
    index = {cid: i for i, cid in enumerate(ids)}
    rows = []
    for ordering in orderings:
        if sorted(ordering) != expected:
            raise InvalidOrdering(
                f"ordering {ordering!r} is not a permutation of window {window.window_id}"
            )
        rows.append([index[cid] for cid in ordering])
    return np.array(rows, dtype=np.intp)


def _pl_steps(scores: np.ndarray, feats: np.ndarray, perms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Plackett-Luce selection steps of every ordering in ``perms`` (n x k).

    Step t picks perms[:, t] from perms[:, t:]. Returns the per-step
    log-probabilities (n x k-1) and their gradients in theta (n x k-1 x d):
    the chosen candidate's features minus their mean under the step's softmax.
    """
    import numpy as np
    k = perms.shape[1]
    s = scores[perms]
    f = feats[perms]
    left = np.arange(k) >= np.arange(k - 1)[:, None]  # left[t, j]: perms[:, j] not chosen before step t
    logits = np.where(left, s[:, None, :], -np.inf)
    top = logits.max(axis=2, keepdims=True)
    exp = np.exp(logits - top)
    total = exp.sum(axis=2, keepdims=True)
    logp = s[:, : k - 1] - (top + np.log(total))[:, :, 0]
    return logp, f[:, : k - 1] - (exp / total) @ f


def _policy_steps(policy: PLPolicy, window: Window, perms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    feats = policy.features(window)
    return _pl_steps(feats @ policy.theta, feats, perms)


def pl_log_prob(policy: PLPolicy, window: Window, ordering: Sequence[str]) -> float:
    """Log-likelihood of an ordering under the policy; always <= 0."""
    logp, _ = _policy_steps(policy, window, _perm_indices(window, [ordering]))
    return float(logp.sum())


def _draws(rng: random.Random, n: int, k: int) -> np.ndarray:
    """The k-1 uniform draws each of n sampled orderings consumes, in sampling order."""
    import numpy as np
    return np.array([rng.random() for _ in range(n * (k - 1))]).reshape(n, k - 1)


def _sample_perms(scores: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """One Plackett-Luce ordering per row of ``scores`` (n x k), by inverse CDF.

    Each step takes the softmax over the remaining candidates in index order,
    accumulates it left to right and picks the first candidate whose running
    sum exceeds the step's draw, or the last one when rounding leaves the draw
    above the total.
    """
    import numpy as np
    n, k = scores.shape
    rows = np.arange(n)
    left = np.tile(np.arange(k), (n, 1))
    perms = np.empty((n, k), dtype=np.intp)
    for t in range(k - 1):
        logits = scores[rows[:, None], left]
        exp = np.exp(logits - logits.max(axis=1, keepdims=True))
        below = draws[:, t, None] < np.cumsum(exp / exp.sum(axis=1, keepdims=True), axis=1)
        # the running sums rise, so the first one above the draw follows those that are not
        pos = np.minimum((~below).sum(axis=1), k - t - 1)
        perms[:, t] = left[rows, pos]
        left = left[np.arange(k - t) != pos[:, None]].reshape(n, k - t - 1)
    perms[:, k - 1] = left[:, 0]
    return perms


# ---------------------------------------------------------------------------
# Rewards and sampling
# ---------------------------------------------------------------------------


def window_reward(window: Window, ordering: Sequence[str], mode: str = "rearank") -> float:
    """Reward of an ordering: relative nDCG improvement, or binary top-1.

    The rearank mode takes nDCG_old from the window's presented order and uses
    nDCG_max = 1, which is exact because the window holds a single positive.
    """
    if mode == "rankr1":
        return rankr1_reward(ordering[0], window.gold_id, list(ordering))
    k = len(ordering)
    rels_new = [1 if cid == window.gold_id else 0 for cid in ordering]
    rels_old = [1 if cid == window.gold_id else 0 for cid in window.presented_ids()]
    return rearank_reward(ndcg(rels_old, k), ndcg(rels_new, k), 1.0)


def _rank_rewards(window: Window, mode: str) -> np.ndarray:
    """``window_reward`` of an ordering with the gold at rank 0..k-1.

    Both reward modes depend on the ordering only through the gold's rank.
    """
    import numpy as np
    others = [cid for cid in window.presented_ids() if cid != window.gold_id]
    return np.array(
        [window_reward(window, (*others[:r], window.gold_id, *others[r:]), mode) for r in range(len(others) + 1)]
    )


def sample_group(policy: PLPolicy, window: Window, cfg: GrpoConfig, rng: random.Random) -> RewardGroup:
    """Sample ``group_size`` orderings, score them, and standardize advantages."""
    import numpy as np
    ids = window.presented_ids()
    scores = np.broadcast_to(policy.scores(window), (cfg.group_size, len(ids)))
    perms = _sample_perms(scores, _draws(rng, cfg.group_size, len(ids)))
    gold_rank = (perms == window.gold_slot() - 1).argmax(axis=1)
    rewards = _rank_rewards(window, cfg.reward)[gold_rank].tolist()
    samples = [(tuple([ids[i] for i in perm]), reward) for perm, reward in zip(perms.tolist(), rewards)]
    return RewardGroup(window_id=window.window_id, samples=samples, advantages=group_advantages(rewards))


# ---------------------------------------------------------------------------
# KL term
# ---------------------------------------------------------------------------


def kl_exact(policy: PLPolicy, ref: PLPolicy, window: Window) -> tuple[float, np.ndarray]:
    """KL(pi_theta || pi_ref) over all k! orderings, with its exact gradient.

    d/dtheta sum_perm p (log p - log ref) = sum_perm p grad_logp (diff + 1);
    the +1 keeps the gradient exact for the value as computed (the sum of
    p * grad_logp vanishes analytically over the full enumeration).
    """
    import numpy as np
    table = _perm_table(len(window.candidate_ids))
    logp, grads = _policy_steps(policy, window, table)
    ref_logp, _ = _policy_steps(ref, window, table)
    logp = logp.sum(axis=1)
    diff = logp - ref_logp.sum(axis=1)
    p = np.exp(logp)
    return float(p @ diff), (p * (diff + 1.0)) @ grads.sum(axis=1)


# ---------------------------------------------------------------------------
# Surrogate objective
# ---------------------------------------------------------------------------


def group_step_probs(policy: PLPolicy, window: Window, group: RewardGroup) -> list[list[float]]:
    """Per-sample selection-step probabilities under ``policy`` (ratio denominators)."""
    import numpy as np
    logp, _ = _policy_steps(policy, window, _perm_indices(window, [o for o, _ in group.samples]))
    return np.exp(logp).tolist()


def surrogate_grad(
    policy: PLPolicy,
    ref: PLPolicy,
    window: Window,
    group: RewardGroup,
    cfg: GrpoConfig,
    denoms: list[list[float]] | None = None,
) -> tuple[float, np.ndarray, float]:
    """(value, gradient, kl) of the maximized objective for one window, given a frozen group.

    The value is (1/|G|) sum_i adv_i * (1/(k-1)) sum_t pi_theta(step)/denom
    - beta * KL, where ``denoms`` holds the sampling-time step probabilities.
    With ``denoms`` omitted the call is on-policy: denominators equal the
    current step probabilities, every ratio is 1, and the policy-gradient part
    reduces to the advantage-weighted score function.
    """
    import numpy as np
    logp, grads = _policy_steps(policy, window, _perm_indices(window, [o for o, _ in group.samples]))
    probs = np.exp(logp)
    ratios = probs / (probs if denoms is None else np.asarray(denoms, dtype=float))
    # ratios.size = |G| * (k-1): the group mean times the length normalization
    weights = np.asarray(group.advantages)[:, None] * ratios / ratios.size
    kl, kl_grad = kl_exact(policy, ref, window)
    grad = weights.reshape(-1) @ grads.reshape(weights.size, -1)
    return float(weights.sum()) - cfg.beta * kl, grad - cfg.beta * kl_grad, kl


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


@dataclass
class StepStats:
    mean_reward: float
    kl: float
    grad_norm: float


@dataclass
class CurvePoint:
    step: int
    mean_reward: float
    kl: float
    grad_norm: float
    eval_ndcg4: float


@dataclass
class TrainResult:
    policy: PLPolicy
    ref: PLPolicy
    curve: list[CurvePoint] = field(default_factory=list)


def grpo_step(
    policy: PLPolicy,
    ref: PLPolicy,
    batch: Sequence[Window],
    cfg: GrpoConfig,
    seed_ctx: str = "",
) -> tuple[PLPolicy, StepStats]:
    """One gradient-ascent step over a mini-batch of windows.

    Groups are sampled with per-window child seeds so the result does not
    depend on iteration order or parallelism. Raises NumericalError naming the
    offending window if any per-window gradient is non-finite.
    """
    import numpy as np
    if not batch:
        raise ConfigError("grpo_step requires a non-empty batch")
    grad_total = np.zeros_like(policy.theta)
    rewards: list[float] = []
    kls: list[float] = []
    for window in batch:
        rng = child_rng(cfg.rng_seed, f"group:{seed_ctx}:{window.window_id}")
        group = sample_group(policy, window, cfg, rng)
        _, grad, kl = surrogate_grad(policy, ref, window, group, cfg)
        if not np.all(np.isfinite(grad)):
            raise NumericalError("non-finite gradient", window_id=window.window_id)
        grad_total += grad
        kls.append(kl)
        rewards.extend(group.rewards)
    grad_mean = grad_total / len(batch)
    new_policy = PLPolicy(policy.theta + cfg.learning_rate * grad_mean, policy.feature_fn, policy.feature_names)
    stats = StepStats(
        mean_reward=float(np.mean(rewards)),
        kl=float(np.mean(kls)),
        grad_norm=float(np.linalg.norm(grad_mean)),
    )
    return new_policy, stats


def _window_features(policy: PLPolicy, windows: Sequence[Window]) -> np.ndarray:
    """The windows' feature matrices stacked into one (W x k x d) array; k must be the same for all."""
    import numpy as np
    if not windows:
        raise ConfigError("no windows to evaluate")
    k = len(windows[0].candidate_ids)
    odd = next((w for w in windows if len(w.candidate_ids) != k), None)
    if odd is not None:
        raise ConfigError(
            f"window {odd.window_id} has {len(odd.candidate_ids)} candidates where "
            f"window {windows[0].window_id} has {k}; all windows need the same count"
        )
    return np.stack([policy.features(window) for window in windows])


def greedy_ndcg4(policy: PLPolicy, windows: Sequence[Window], feats: np.ndarray | None = None) -> float:
    """Mean nDCG@4 when each window is ranked greedily by policy score.

    ``feats`` is the windows' stacked (W x k x d) feature array, for callers
    that evaluate the same windows repeatedly.
    """
    import numpy as np
    if feats is None:
        feats = _window_features(policy, windows)
    k = feats.shape[1]
    gains = np.array([ndcg([int(i == rank) for i in range(k)], k) for rank in range(k)])
    order = np.argsort(-(feats @ policy.theta), axis=1, kind="stable")
    gold = np.array([window.gold_slot() - 1 for window in windows])
    return running_total(gains[(order == gold[:, None]).argmax(axis=1)].tolist()) / len(windows)


def evaluate_mean_reward(
    policy: PLPolicy,
    windows: Sequence[Window],
    cfg: GrpoConfig,
    seed_tag: str,
) -> float:
    """Monte-Carlo estimate of the expected reward under the policy."""
    import numpy as np
    n = EVAL_SAMPLES_PER_WINDOW
    feats = _window_features(policy, windows)
    k = feats.shape[1]
    draws = np.concatenate(
        [_draws(child_rng(cfg.rng_seed, f"eval:{seed_tag}:{w.window_id}"), n, k) for w in windows]
    )
    perms = _sample_perms(np.repeat(feats @ policy.theta, n, axis=0), draws)
    gold = np.repeat([w.gold_slot() - 1 for w in windows], n)
    table = np.repeat([_rank_rewards(w, cfg.reward) for w in windows], n, axis=0)
    rewards = table[np.arange(len(perms)), (perms == gold[:, None]).argmax(axis=1)]
    return running_total(rewards.tolist()) / len(rewards)


def train(policy: PLPolicy, windows: Sequence[Window], cfg: GrpoConfig) -> TrainResult:
    """Run the full training loop: shuffled mini-batches for cfg.epochs epochs.

    The reference policy is frozen at initialization. Deterministic given
    cfg.rng_seed.
    """
    if not windows:
        raise ConfigError("train requires at least one window")
    ref = policy.clone()
    feats = _window_features(policy, windows)
    curve: list[CurvePoint] = []
    step = 0
    for epoch in range(cfg.epochs):
        order = list(range(len(windows)))
        child_rng(cfg.rng_seed, f"shuffle:{epoch}").shuffle(order)
        for lo in range(0, len(order), cfg.batch_size):
            batch = [windows[i] for i in order[lo : lo + cfg.batch_size]]
            policy, stats = grpo_step(policy, ref, batch, cfg, seed_ctx=f"e{epoch}")
            step += 1
            curve.append(
                CurvePoint(
                    step=step,
                    mean_reward=stats.mean_reward,
                    kl=stats.kl,
                    grad_norm=stats.grad_norm,
                    eval_ndcg4=greedy_ndcg4(policy, windows, feats),
                )
            )
    return TrainResult(policy=policy, ref=ref, curve=curve)


# ---------------------------------------------------------------------------
# Feature functions and persistence
# ---------------------------------------------------------------------------


def match_features(corpus: Mapping[str, Document]) -> tuple[FeatureFn, list[str]]:
    """Informative features: the candidate's required-skill coverage plus a bias."""
    import numpy as np
    cache: dict[tuple[str, str], float] = {}

    def fn(window: Window, cid: str) -> np.ndarray:
        key = (window.job_id, cid)
        if key not in cache:
            cache[key] = match_score(corpus[window.job_id], corpus[cid])
        return np.array([cache[key], 1.0])

    return fn, ["skill_overlap", "bias"]


def noise_features(seed: int) -> tuple[FeatureFn, list[str]]:
    """Pure-noise features, independent of the gold label; the null task."""
    import numpy as np

    def fn(window: Window, cid: str) -> np.ndarray:
        rng = child_rng(seed, f"feat:{window.window_id}:{cid}")
        return np.array([rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)])

    return fn, ["noise_0", "noise_1"]


def make_policy(feature_fn: FeatureFn, feature_names: Sequence[str]) -> PLPolicy:
    import numpy as np
    return PLPolicy(np.zeros(len(feature_names)), feature_fn, list(feature_names))


def save_policy(policy: PLPolicy, path: str | Path) -> None:
    with open_atomic(path) as fh:
        json.dump(
            {"theta": [float(x) for x in policy.theta], "feature_names": policy.feature_names},
            fh,
        )
        fh.write("\n")


def write_curve(curve: Sequence[CurvePoint], path: str | Path) -> None:
    with open_atomic(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "mean_reward", "kl", "grad_norm", "eval_ndcg4"])
        for point in curve:
            writer.writerow(
                [point.step, point.mean_reward, point.kl, point.grad_norm, point.eval_ndcg4]
            )
