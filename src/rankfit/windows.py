"""Training-window construction from labeled retrieval pools.

A window pairs one job with exactly four candidate resumes, exactly one of
which is the accepted (gold) candidate. Pools are filtered first (too small,
no positive, too many positives, or too few negatives), then each surviving
positive is combined with three uniformly drawn negatives up to n_rep times,
deduplicated on the unordered 4-id set per job, and presented in a shuffled
order to eliminate position bias.

Downstream steps implemented here: empirical difficulty annotation (fraction
of stochastic ranker trials that put the gold first), the four data-filtering
strategies, and teacher-distillation record extraction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

from .core import Document, RankedPool, parallel_map
from .errors import ConfigError, MissingDifficulty, check_fields
from .ranker import (
    ANNOTATION_SAMPLING,
    ChatCompletionsClient,
    MalformedAnswer,
    Ranker,
    RankRequest,
    SamplingParams,
    TransportFailure,
    build_judge_prompt,
    build_prompt,
    parse_judge_answer,
)
from .seeding import child_rng

SKIP_TOO_FEW_CANDIDATES = "too_few_candidates"
SKIP_NO_POSITIVE = "no_positive"
SKIP_TOO_MANY_POSITIVES = "too_many_positives"
SKIP_TOO_FEW_NEGATIVES = "too_few_negatives"

DIFFICULTY_STRATEGIES = ("all", "remove_hard", "subsample_hard", "hint_augment")
STRATEGIES = (*DIFFICULTY_STRATEGIES, "llm_filter")


@dataclass(frozen=True)
class PipelineConfig:
    window_size: int = 4
    neg_per_window: int = 3
    n_rep: int = 3
    m_max: int = 11
    min_pool: int = 20
    annotate_trials: int = 5
    hard_threshold: float = 0.4
    subsample_keep: float = 0.5
    rng_seed: int = 0

    def __post_init__(self):
        counts = ("window_size", "neg_per_window", "n_rep", "m_max", "min_pool", "annotate_trials")
        check_fields(self, counts, int, lambda v: v >= 1, "an integer >= 1")
        check_fields(self, ("hard_threshold", "subsample_keep"), float, lambda v: 0 <= v <= 1, "a number in [0, 1]")
        if self.neg_per_window != self.window_size - 1:
            raise ConfigError("neg_per_window must equal window_size - 1")


@dataclass(frozen=True)
class Skip:
    """A pool excluded from window construction; skips are data, not errors."""

    job_id: str
    reason: str


@dataclass(frozen=True)
class Partition:
    positives: tuple[str, ...]
    negatives: tuple[str, ...]


@dataclass(frozen=True)
class Window:
    """One job plus four candidates, exactly one of them accepted.

    ``candidate_ids`` keeps draw order (gold first); ``presented_order`` is
    the shuffled permutation of 1..4 actually shown to a ranker: slot j
    displays candidate_ids[presented_order[j-1] - 1].
    """

    window_id: str
    job_id: str
    candidate_ids: tuple[str, str, str, str]
    gold_id: str
    presented_order: tuple[int, int, int, int]
    r_bar: float | None = None
    hint: str | None = None

    def __post_init__(self):
        where = f"window {self.window_id}: "
        check_fields(self, ("window_id", "job_id"), str, bool, "a non-empty string", where)
        check_fields(self, ("candidate_ids",), tuple, lambda v: all(isinstance(c, str) for c in v), "a list of ids", where)
        n = len(self.candidate_ids)
        is_perm = lambda v: all(type(i) is int for i in v) and sorted(v) == list(range(1, n + 1))
        check_fields(self, ("presented_order",), tuple, is_perm, f"a permutation of 1..{n}", where)
        check_fields(self, ("r_bar",), (int, float, type(None)), lambda v: v is None or 0 <= v <= 1, "null or a number in [0, 1]", where)
        check_fields(self, ("hint",), (str, type(None)), lambda v: True, "null or a string", where)
        if len(set(self.candidate_ids)) != len(self.candidate_ids):
            raise ConfigError(f"{where}duplicate candidate ids")
        if self.candidate_ids.count(self.gold_id) != 1:
            raise ConfigError(f"{where}gold must appear exactly once")

    def presented_ids(self) -> tuple[str, ...]:
        return tuple(self.candidate_ids[i - 1] for i in self.presented_order)

    def gold_slot(self) -> int:
        return self.presented_ids().index(self.gold_id) + 1

    def to_record(self) -> dict:
        return {
            "window_id": self.window_id,
            "job_id": self.job_id,
            "candidates": list(self.candidate_ids),
            "gold": self.gold_id,
            "presented_order": list(self.presented_order),
            "r_bar": self.r_bar,
            "hint": self.hint,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "Window":
        """The window a ``to_record`` dict holds; its JSON lists become tuples."""
        as_tuple = lambda v: tuple(v) if isinstance(v, list) else v
        return cls(
            window_id=rec["window_id"],
            job_id=rec["job_id"],
            candidate_ids=as_tuple(rec["candidates"]),
            gold_id=rec["gold"],
            presented_order=as_tuple(rec["presented_order"]),
            r_bar=rec.get("r_bar"),
            hint=rec.get("hint"),
        )


def partition_pool(pool: RankedPool, cfg: PipelineConfig) -> Partition | Skip:
    """Split a pool into positives and negatives, or skip it.

    Skip reasons, checked in order: fewer than min_pool candidates, zero
    positives, m_max or more positives, fewer negatives than a window needs.
    Rejected and unlabeled candidates both count as negatives.
    """
    if len(pool.candidates) < cfg.min_pool:
        return Skip(pool.job_id, SKIP_TOO_FEW_CANDIDATES)
    positives = tuple(cid for cid in pool.candidates if cid in pool.accepted_ids)
    negatives = tuple(cid for cid in pool.candidates if cid not in pool.accepted_ids)
    if not positives:
        return Skip(pool.job_id, SKIP_NO_POSITIVE)
    if len(positives) >= cfg.m_max:
        return Skip(pool.job_id, SKIP_TOO_MANY_POSITIVES)
    if len(negatives) < cfg.neg_per_window:
        return Skip(pool.job_id, SKIP_TOO_FEW_NEGATIVES)
    return Partition(positives=positives, negatives=negatives)


def build_windows(pool: RankedPool, cfg: PipelineConfig, rng: random.Random) -> list[Window]:
    """Build up to n_rep windows per positive for one pool.

    Draws neg_per_window negatives uniformly without replacement for each
    repetition, discards any window whose unordered 4-id set coincides with an
    earlier window for the same job, and shuffles the presentation order.
    Deterministic given (pool, cfg, rng state). Skipped pools yield [].
    """
    part = partition_pool(pool, cfg)
    if isinstance(part, Skip):
        return []
    windows: list[Window] = []
    seen: set[frozenset[str]] = set()
    counter = 0
    for gold in part.positives:
        for _ in range(cfg.n_rep):
            negs = rng.sample(part.negatives, cfg.neg_per_window)
            key = frozenset((gold, *negs))
            if key in seen:
                continue
            seen.add(key)
            presented = list(range(1, cfg.window_size + 1))
            rng.shuffle(presented)
            windows.append(
                Window(
                    window_id=f"{pool.job_id}/w{counter}",
                    job_id=pool.job_id,
                    candidate_ids=(gold, *negs),
                    gold_id=gold,
                    presented_order=tuple(presented),
                )
            )
            counter += 1
    return windows


def build_all_windows(
    pools: Sequence[RankedPool], cfg: PipelineConfig
) -> tuple[list[Window], list[Skip]]:
    """Run partition + construction over many pools with per-job child seeds."""
    windows: list[Window] = []
    skips: list[Skip] = []
    for pool in pools:
        part = partition_pool(pool, cfg)
        if isinstance(part, Skip):
            skips.append(part)
            continue
        rng = child_rng(cfg.rng_seed, f"windows:{pool.job_id}")
        windows.extend(build_windows(pool, cfg, rng))
    return windows, skips


def window_request(
    window: Window, corpus: Mapping[str, Document], tag: str, sampling: SamplingParams
) -> RankRequest:
    """Build the ranking request for a window's presented candidates."""
    return RankRequest.for_ids(corpus, window.job_id, window.presented_ids(), f"{window.window_id}:{tag}", window.hint, sampling)


@dataclass
class AnnotateStats:
    trials: int
    failed_windows: list[str] = field(default_factory=list)


def annotate_difficulty(
    windows: Sequence[Window],
    ranker: Ranker,
    corpus: Mapping[str, Document],
    cfg: PipelineConfig,
    max_workers: int = 1,
) -> tuple[list[Window], AnnotateStats]:
    """Annotate each window with the fraction of trials that rank the gold first.

    Runs ``annotate_trials`` independent stochastic ranker calls per window
    (temperature 0.6, top-p 0.95, top-k 20). Degraded trials are dropped from
    both numerator and denominator; windows where every trial failed keep
    r_bar unset and are reported in the stats. Windows may be annotated in
    parallel: trial outcomes only depend on per-request seeds, so the result
    is identical at any worker count.
    """

    def annotate_one(window: Window) -> Window:
        hits = 0
        valid = 0
        for trial in range(cfg.annotate_trials):
            req = window_request(window, corpus, f"trial{trial}", ANNOTATION_SAMPLING)
            resp = ranker(req)
            if resp.degraded:
                continue
            valid += 1
            if resp.ordering[0] == window.gold_slot():
                hits += 1
        return replace(window, r_bar=hits / valid if valid else None)

    annotated = parallel_map(annotate_one, windows, max_workers)
    stats = AnnotateStats(
        trials=cfg.annotate_trials,
        failed_windows=[w.window_id for w in annotated if w.r_bar is None],
    )
    return annotated, stats


def apply_strategy(
    windows: Sequence[Window],
    strategy: str,
    rng: random.Random,
    cfg: PipelineConfig | None = None,
) -> list[Window]:
    """Apply one of the difficulty strategies to annotated windows.

    * all            -- identity.
    * remove_hard    -- keep windows with r_bar >= hard_threshold.
    * subsample_hard -- keep all easy windows plus a seeded subsample_keep
                        fraction of the hard ones (input order preserved).
    * hint_augment   -- keep everything, attaching a gold-position hint to
                        hard windows only.

    The fifth strategy, llm_filter, is ``judge_windows``.
    """
    if strategy not in DIFFICULTY_STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}; expected one of {DIFFICULTY_STRATEGIES}")
    if strategy == "all":
        return list(windows)
    cfg = cfg or PipelineConfig()

    for w in windows:
        if w.r_bar is None:
            raise MissingDifficulty(
                f"window {w.window_id} has no difficulty score; run annotation first"
            )
    threshold = cfg.hard_threshold
    if strategy == "remove_hard":
        return [w for w in windows if w.r_bar >= threshold]
    if strategy == "subsample_hard":
        hard_indices = [i for i, w in enumerate(windows) if w.r_bar < threshold]
        keep_count = round(cfg.subsample_keep * len(hard_indices))
        kept_hard = set(rng.sample(hard_indices, keep_count))
        return [
            w
            for i, w in enumerate(windows)
            if w.r_bar >= threshold or i in kept_hard
        ]
    # hint_augment
    return [
        replace(w, hint=f"The accepted candidate is [{w.gold_slot()}]")
        if w.r_bar < threshold
        else w
        for w in windows
    ]


def judge_windows(
    windows: Sequence[Window],
    client: ChatCompletionsClient,
    corpus: Mapping[str, Document],
    max_workers: int = 1,
) -> tuple[list[Window], list[str]]:
    """llm_filter: (kept windows, ids of those kept after a failed call).

    An LLM judge says whether each window's gold looks clearly best
    (difficulty is not used), up to ``max_workers`` windows at a time. A
    verdict is True (keep), False (drop) or None for a failed call, which
    keeps the window: dropping data on a transport hiccup would silently
    shrink the training set. Both lists follow input order.
    """

    def verdict(window: Window) -> bool | None:
        req = window_request(window, corpus, "judge", SamplingParams())
        system, user = build_judge_prompt(req, window.gold_slot())
        try:
            return client.complete(system, user, req.sampling, parse_judge_answer)[1]
        except (TransportFailure, MalformedAnswer):
            return None

    verdicts = parallel_map(verdict, windows, max_workers)
    kept = [w for w, v in zip(windows, verdicts) if v is not False]
    return kept, [w.window_id for w, v in zip(windows, verdicts) if v is None]


@dataclass
class DistillStats:
    kept: int = 0
    dropped_wrong_top: int = 0
    dropped_malformed: int = 0


def distill_sft(
    windows: Sequence[Window],
    teacher: Ranker,
    corpus: Mapping[str, Document],
    max_workers: int = 1,
) -> tuple[list[dict], DistillStats]:
    """Collect teacher generations that place the gold candidate first.

    Each kept record stores the full prompt and the teacher's verbatim output;
    generations whose parsed answer does not put the gold on top are dropped,
    and unusable (degraded) teacher outputs are dropped and counted. The
    teacher answers up to ``max_workers`` windows at a time; records and
    counts follow input order.
    """
    requests = [window_request(w, corpus, "teacher", SamplingParams()) for w in windows]
    responses = parallel_map(teacher, requests, max_workers)
    records: list[dict] = []
    stats = DistillStats()
    for window, req, resp in zip(windows, requests, responses):
        if resp.degraded:
            stats.dropped_malformed += 1
            continue
        if resp.ordering[0] != window.gold_slot():
            stats.dropped_wrong_top += 1
            continue
        system, user = build_prompt(req)
        records.append(
            {
                "window_id": window.window_id,
                "prompt": f"{system}\n\n{user}",
                "completion": resp.raw_text,
            }
        )
        stats.kept += 1
    return records, stats
