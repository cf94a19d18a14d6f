"""Ranking metrics, re-ranking rewards, and group-relative advantages.

All functions here are pure and operate on binary relevance vectors (gain =
relevance, discount 1/log2(rank+1); with binary labels the exponential-gain
variant is identical).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import EmptyGroup, InvalidK, InvalidNdcg, NoPositives, UnknownCandidate


def running_total(values: Iterable[float]) -> float:
    """Left-to-right float sum: the plain loop that Python 3.11's ``sum()`` runs.

    Python 3.12 made ``sum()`` of floats compensated, which can move the last
    bit; this total gives the same bytes on every version.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def dcg(rels: Sequence[int], k: int) -> float:
    """Discounted cumulative gain of the first ``k`` positions."""
    if k < 1:
        raise InvalidK(f"k must be >= 1, got {k}")
    return running_total(rel / math.log2(i + 2) for i, rel in enumerate(rels[:k]))


def ndcg(rels: Sequence[int], k: int) -> float:
    """DCG normalized by the ideal ordering's DCG; in [0, 1].

    Raises NoPositives on an all-zero vector: such lists carry no signal and
    callers are expected to filter them out before scoring.
    """
    if k < 1:
        raise InvalidK(f"k must be >= 1, got {k}")
    if not any(rels):
        raise NoPositives("relevance vector has no positive entry")
    ideal = sorted(rels, reverse=True)
    return dcg(rels, k) / dcg(ideal, k)


def recall_at_k(rels: Sequence[int], k: int) -> float:
    """Fraction of the vector's positives that appear within the first ``k``."""
    if k < 1:
        raise InvalidK(f"k must be >= 1, got {k}")
    total = sum(rels)
    if total == 0:
        raise NoPositives("relevance vector has no positive entry")
    return sum(rels[:k]) / total


def rearank_reward(ndcg_old: float, ndcg_new: float, ndcg_max: float) -> float:
    """Relative nDCG improvement of a proposed re-ordering.

        R = (ndcg_new - ndcg_old) / (ndcg_max - ndcg_old)

    R is 1 exactly when the new ordering is ideal, 0 when nothing changed, and
    negative when the ordering got worse. When the initial ordering is already
    ideal (ndcg_old == ndcg_max) no improvement is possible and the reward is
    defined as 0.
    """
    for name, value in (("ndcg_old", ndcg_old), ("ndcg_new", ndcg_new), ("ndcg_max", ndcg_max)):
        if not 0.0 <= value <= 1.0:
            raise InvalidNdcg(f"{name} must be in [0, 1], got {value}")
    if ndcg_old > ndcg_max or ndcg_new > ndcg_max:
        raise InvalidNdcg("ndcg_max must bound ndcg_old and ndcg_new")
    if ndcg_old == ndcg_max:
        return 0.0
    return (ndcg_new - ndcg_old) / (ndcg_max - ndcg_old)


def rankr1_reward(predicted_top: str, gold: str, candidates: Sequence[str]) -> float:
    """Binary reward: 1 iff the predicted top candidate is the accepted one."""
    if predicted_top not in candidates:
        raise UnknownCandidate(f"predicted id {predicted_top!r} not in window")
    if gold not in candidates:
        raise UnknownCandidate(f"gold id {gold!r} not in window")
    return 1.0 if predicted_top == gold else 0.0


def group_advantages(rewards: Sequence[float]) -> list[float]:
    """Standardize rewards within a sampled group: (R_i - mean) / std.

    Uses the population standard deviation. Groups whose rewards are all
    equal (including singletons) map to all-zero advantages; there is no
    epsilon in the denominator.
    """
    n = len(rewards)
    if n == 0:
        raise EmptyGroup("cannot standardize an empty reward group")
    first = rewards[0]
    if all(r == first for r in rewards):
        return [0.0] * n
    mean = running_total(rewards) / n
    std = math.sqrt(running_total((r - mean) ** 2 for r in rewards) / n)
    if std == 0.0:  # spread below float resolution behaves like all-equal
        return [0.0] * n
    return [(r - mean) / std for r in rewards]


@dataclass
class RewardGroup:
    """A group of sampled orderings for one window, with rewards and advantages.

    Whenever the rewards vary, the advantages have mean 0 and population
    standard deviation 1; all-equal groups have all-zero advantages.
    """

    window_id: str
    samples: list[tuple[tuple[str, ...], float]]
    advantages: list[float]

    def __post_init__(self):
        if len(self.samples) != len(self.advantages):
            raise ValueError(
                f"group {self.window_id}: {len(self.samples)} samples but "
                f"{len(self.advantages)} advantages"
            )

    @property
    def rewards(self) -> list[float]:
        return [reward for _, reward in self.samples]
