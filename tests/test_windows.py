import random
from collections import Counter

import pytest

from rankfit.core import ACCEPTED, REJECTED, UNLABELED, RankedPool
from rankfit.errors import ConfigError, MalformedAnswer, MissingDifficulty
from rankfit.ranker import (
    NoisyOracleRanker,
    OracleRanker,
    RankResponse,
)
from rankfit.windows import (
    Partition,
    PipelineConfig,
    Skip,
    Window,
    annotate_difficulty,
    apply_strategy,
    build_all_windows,
    build_windows,
    distill_sft,
    partition_pool,
)

from conftest import corpus_for_windows, make_window


def labeled_pool(n=20, n_accept=1, n_reject=0, job_id="j1"):
    ids = [f"{job_id}-r{i}" for i in range(n)]
    labels = {}
    for i, cid in enumerate(ids):
        if i < n_accept:
            labels[cid] = ACCEPTED
        elif i < n_accept + n_reject:
            labels[cid] = REJECTED
        else:
            labels[cid] = UNLABELED
    return RankedPool(job_id=job_id, candidates=tuple(ids), labels=labels)


class TestPartitionPool:
    def test_normal_partition(self):
        part = partition_pool(labeled_pool(n_accept=1), PipelineConfig())
        assert isinstance(part, Partition)
        assert len(part.positives) == 1
        assert len(part.negatives) == 19

    def test_no_positive_skip(self):
        skip = partition_pool(labeled_pool(n_accept=0), PipelineConfig())
        assert skip == Skip("j1", "no_positive")

    def test_too_many_positives_skip(self):
        skip = partition_pool(labeled_pool(n_accept=11), PipelineConfig())
        assert skip == Skip("j1", "too_many_positives")

    def test_ten_positives_kept(self):
        part = partition_pool(labeled_pool(n_accept=10), PipelineConfig())
        assert isinstance(part, Partition)

    def test_small_pool_skip(self):
        skip = partition_pool(labeled_pool(n=19, n_accept=1), PipelineConfig())
        assert skip == Skip("j1", "too_few_candidates")

    def test_too_few_negatives_skip_with_lowered_min_pool(self):
        cfg = PipelineConfig(min_pool=10)
        skip = partition_pool(labeled_pool(n=12, n_accept=10), cfg)
        assert skip == Skip("j1", "too_few_negatives")

    def test_unlabeled_counts_as_negative(self):
        part = partition_pool(labeled_pool(n_accept=2, n_reject=3), PipelineConfig())
        assert len(part.negatives) == 18


class TestBuildWindows:
    def test_window_shape_and_count(self, rng):
        pool = labeled_pool(n_accept=2)
        windows = build_windows(pool, PipelineConfig(), rng)
        assert 2 <= len(windows) <= 6
        for w in windows:
            assert len(w.candidate_ids) == 4
            assert w.candidate_ids.count(w.gold_id) == 1
            negatives = [c for c in w.candidate_ids if c != w.gold_id]
            assert all(pool.labels[c] != ACCEPTED for c in negatives)
            assert sorted(w.presented_order) == [1, 2, 3, 4]

    def test_exactly_three_negatives_collapses_repeats(self, rng):
        # 20-candidate pool with 17 positives would be skipped; shrink min_pool
        # to make |N| == 3 reachable.
        cfg = PipelineConfig(min_pool=5)
        pool = labeled_pool(n=5, n_accept=2)
        windows = build_windows(pool, cfg, rng)
        per_gold = Counter(w.gold_id for w in windows)
        assert all(count == 1 for count in per_gold.values())

    def test_dedup_is_per_job_unordered_set(self, rng):
        cfg = PipelineConfig(min_pool=4)
        pool = labeled_pool(n=4, n_accept=1)
        windows = build_windows(pool, cfg, rng)
        assert len(windows) == 1  # only one 3-subset of negatives exists

    def test_deterministic_given_seed(self):
        pool = labeled_pool(n_accept=3)
        a = build_windows(pool, PipelineConfig(), random.Random(42))
        b = build_windows(pool, PipelineConfig(), random.Random(42))
        assert [w.to_record() for w in a] == [w.to_record() for w in b]

    def test_skipped_pool_yields_nothing(self, rng):
        assert build_windows(labeled_pool(n_accept=0), PipelineConfig(), rng) == []

    def test_build_all_windows_reports_skips(self):
        pools = [
            labeled_pool(n_accept=1, job_id="keep"),
            labeled_pool(n_accept=0, job_id="drop"),
        ]
        windows, skips = build_all_windows(pools, PipelineConfig(rng_seed=7))
        assert {w.job_id for w in windows} == {"keep"}
        assert skips == [Skip("drop", "no_positive")]

    def test_invariants_over_randomized_pools(self):
        rng = random.Random(2024)
        for trial in range(40):
            n_accept = rng.randint(0, 13)
            n_reject = rng.randint(0, 3)
            pool = labeled_pool(
                n=20, n_accept=n_accept, n_reject=n_reject, job_id=f"j{trial}"
            )
            windows = build_windows(pool, PipelineConfig(), random.Random(trial))
            seen_sets = set()
            for w in windows:
                key = frozenset(w.candidate_ids)
                assert key not in seen_sets
                seen_sets.add(key)
                assert pool.labels[w.gold_id] == ACCEPTED
                assert len(set(w.candidate_ids)) == 4
            if n_accept == 0 or n_accept >= 11:
                assert windows == []
            else:
                assert len(windows) <= 3 * n_accept

    def test_record_roundtrip(self, rng):
        pool = labeled_pool(n_accept=1)
        (window,) = build_windows(pool, PipelineConfig(), rng)[:1]
        assert Window.from_record(window.to_record()) == window


class TestPresentedSlotUniformity:
    def test_gold_slot_spread(self):
        counts = Counter()
        for seed in range(5):
            pool = labeled_pool(n_accept=3, job_id=f"j{seed}")
            cfg = PipelineConfig(n_rep=3, rng_seed=seed)
            windows, _ = build_all_windows([pool] * 1, cfg)
            for w in windows:
                counts[w.gold_slot()] += 1
        assert set(counts) == {1, 2, 3, 4}


class TestAnnotateDifficulty:
    def _setup(self, n_windows=10):
        windows = [make_window(window_id=f"j1/w{i}", gold_slot=(i % 4) + 1) for i in range(n_windows)]
        corpus = corpus_for_windows(windows)
        accepted = {"j1": frozenset(w.gold_id for w in windows)}
        return windows, corpus, accepted

    def test_perfect_oracle_gives_one(self):
        windows, corpus, accepted = self._setup()
        annotated, stats = annotate_difficulty(
            windows, OracleRanker(accepted), corpus, PipelineConfig()
        )
        assert all(w.r_bar == 1.0 for w in annotated)
        assert stats.failed_windows == []

    def test_always_wrong_gives_zero(self):
        windows, corpus, accepted = self._setup()
        annotated, _ = annotate_difficulty(
            windows, NoisyOracleRanker(accepted, p_flip=1.0, seed=0), corpus, PipelineConfig()
        )
        assert all(w.r_bar == 0.0 for w in annotated)

    def test_granularity_fifths(self):
        windows, corpus, accepted = self._setup(n_windows=40)
        annotated, _ = annotate_difficulty(
            windows, NoisyOracleRanker(accepted, p_flip=0.5, seed=3), corpus, PipelineConfig()
        )
        allowed = {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}
        assert {w.r_bar for w in annotated} <= allowed

    def test_three_of_five(self):
        windows, corpus, accepted = self._setup(n_windows=1)

        class ScriptedRanker:
            """Gold-first on trials 0, 2, 4; wrong otherwise."""

            def __init__(self):
                self.calls = 0

            def __call__(self, req):
                gold_first = self.calls % 2 == 0
                self.calls += 1
                window = windows[0]
                gold_slot = window.gold_slot()
                others = [s for s in range(1, 5) if s != gold_slot]
                ordering = [gold_slot, *others] if gold_first else [others[0], gold_slot, *others[1:]]
                return RankResponse(raw_text="", ordering=ordering)

        annotated, _ = annotate_difficulty(windows, ScriptedRanker(), corpus, PipelineConfig())
        assert annotated[0].r_bar == 0.6

    def test_parallel_annotation_matches_sequential(self):
        windows, corpus, accepted = self._setup(n_windows=12)
        ranker = NoisyOracleRanker(accepted, p_flip=0.5, seed=21)
        seq, _ = annotate_difficulty(windows, ranker, corpus, PipelineConfig())
        par, _ = annotate_difficulty(windows, ranker, corpus, PipelineConfig(), max_workers=4)
        assert seq == par

    def test_all_trials_failed_reported(self):
        windows, corpus, accepted = self._setup(n_windows=2)

        class Broken:
            def __call__(self, req):
                return RankResponse(
                    raw_text="", ordering=[1, 2, 3, 4], repaired=True, degraded=True
                )

        annotated, stats = annotate_difficulty(windows, Broken(), corpus, PipelineConfig())
        assert all(w.r_bar is None for w in annotated)
        assert stats.failed_windows == [w.window_id for w in windows]


class TestApplyStrategy:
    def _windows(self):
        # 6 hard (r_bar < 0.4) + 4 easy
        hard = [make_window(window_id=f"j1/h{i}", r_bar=0.2, gold_slot=2) for i in range(6)]
        easy = [make_window(window_id=f"j1/e{i}", r_bar=0.8, gold_slot=3) for i in range(4)]
        return hard + easy

    def test_all_is_identity(self, rng):
        windows = self._windows()
        assert apply_strategy(windows, "all", rng) == windows

    def test_remove_hard(self, rng):
        kept = apply_strategy(self._windows(), "remove_hard", rng)
        assert len(kept) == 4
        assert all(w.r_bar >= 0.4 for w in kept)

    def test_remove_hard_keeps_threshold_boundary(self, rng):
        windows = [make_window(window_id="j1/b", r_bar=0.4)]
        assert len(apply_strategy(windows, "remove_hard", rng)) == 1

    def test_subsample_hard_size(self):
        kept = apply_strategy(self._windows(), "subsample_hard", random.Random(5))
        assert len(kept) == 4 + 3
        assert sum(1 for w in kept if w.r_bar < 0.4) == 3

    def test_subsample_hard_deterministic(self):
        a = apply_strategy(self._windows(), "subsample_hard", random.Random(5))
        b = apply_strategy(self._windows(), "subsample_hard", random.Random(5))
        assert [w.window_id for w in a] == [w.window_id for w in b]

    def test_hint_augment_targets_hard_only(self, rng):
        kept = apply_strategy(self._windows(), "hint_augment", rng)
        assert len(kept) == 10
        for w in kept:
            if w.r_bar < 0.4:
                assert w.hint == f"The accepted candidate is [{w.gold_slot()}]"
            else:
                assert w.hint is None

    def test_missing_difficulty(self, rng):
        windows = [make_window(r_bar=None)]
        for strategy in ("remove_hard", "subsample_hard", "hint_augment"):
            with pytest.raises(MissingDifficulty):
                apply_strategy(windows, strategy, rng)

    def test_llm_filter_uses_judge(self, rng):
        windows = self._windows()
        kept = apply_strategy(
            windows, "llm_filter", rng, judge=lambda w: w.window_id.endswith("0")
        )
        assert [w.window_id for w in kept] == ["j1/h0", "j1/e0"]

    def test_llm_filter_requires_judge(self, rng):
        with pytest.raises(ConfigError):
            apply_strategy(self._windows(), "llm_filter", rng)

    def test_unknown_strategy(self, rng):
        with pytest.raises(ConfigError):
            apply_strategy(self._windows(), "drop_everything", rng)


class TestLlmJudge:
    def _judge_with(self, replies):
        from rankfit.ranker import ChatCompletionsClient, EndpointConfig
        from rankfit.windows import make_llm_judge

        calls = {"n": 0}

        class FakeResponse:
            def __init__(self, content):
                self.status_code = 200
                self._content = content

            def json(self):
                return {"choices": [{"message": {"content": self._content}}]}

        def post(url, json=None, headers=None, timeout=None):
            reply = replies[min(calls["n"], len(replies) - 1)]
            calls["n"] += 1
            if reply is None:
                raise ConnectionRefusedError("down")
            return FakeResponse(reply)

        client = ChatCompletionsClient(
            EndpointConfig(base_url="http://x", model="m", retry_backoff_s=0.0),
            post=post,
        )
        window = make_window(gold_slot=2)
        corpus = corpus_for_windows([window])
        return make_llm_judge(client, corpus), window

    def test_yes_keeps(self):
        judge, window = self._judge_with(["<answer> yes </answer>"])
        assert judge(window) is True

    def test_no_drops(self):
        judge, window = self._judge_with(["<answer> no </answer>"])
        assert judge(window) is False

    def test_transport_failure_keeps_window(self):
        judge, window = self._judge_with([None, None, None])
        assert judge(window) is True

    def test_retries_through_malformed_reply(self):
        judge, window = self._judge_with(["gibberish", "<answer> no </answer>"])
        assert judge(window) is False

    def test_windows_kept_after_judge_failure_are_counted(self, rng):
        from rankfit.ranker import TransportFailure
        from rankfit.windows import make_llm_judge

        windows = [make_window(window_id=f"j1/w{i}", gold_slot=(i % 4) + 1) for i in range(6)]
        failing = {"j1/w1": TransportFailure("down"), "j1/w4": MalformedAnswer("no answer block")}

        class FailingClient:
            def complete(self, system, user, sampling, parse):
                for window_id, error in failing.items():
                    if f"Engineer {window_id}-gold" in user:
                        raise error
                return "", parse("<answer> no </answer>"), 0

        judge = make_llm_judge(FailingClient(), corpus_for_windows(windows))
        kept = apply_strategy(windows, "llm_filter", rng, judge=judge)
        assert [w.window_id for w in kept] == ["j1/w1", "j1/w4"]
        assert judge.failed == ["j1/w1", "j1/w4"]


class TestDistill:
    def _setup(self, n=20):
        windows = [make_window(window_id=f"j1/w{i}", gold_slot=(i % 4) + 1) for i in range(n)]
        corpus = corpus_for_windows(windows)
        accepted = {"j1": frozenset(w.gold_id for w in windows)}
        return windows, corpus, accepted

    def test_oracle_teacher_keeps_everything(self):
        windows, corpus, accepted = self._setup()
        records, stats = distill_sft(windows, OracleRanker(accepted), corpus)
        assert stats.kept == len(windows)
        assert [r["window_id"] for r in records] == [w.window_id for w in windows]
        for record in records:
            assert "<answer>" in record["completion"]
            assert "Resume [1]:" in record["prompt"]

    def test_wrong_top_dropped(self):
        windows, corpus, accepted = self._setup()
        records, stats = distill_sft(
            windows, NoisyOracleRanker(accepted, p_flip=1.0, seed=9), corpus
        )
        assert records == []
        assert stats.dropped_wrong_top == len(windows)

    def test_malformed_counted(self):
        windows, corpus, _ = self._setup(n=3)

        class BrokenTeacher:
            def __call__(self, req):
                return RankResponse(
                    raw_text="", ordering=[1, 2, 3, 4], repaired=True, degraded=True
                )

        records, stats = distill_sft(windows, BrokenTeacher(), corpus)
        assert records == []
        assert stats.dropped_malformed == 3

    def test_completion_is_verbatim_teacher_output(self):
        windows, corpus, accepted = self._setup(n=1)

        class VerboseTeacher:
            def __call__(self, req):
                gold_slot = windows[0].gold_slot()
                others = [s for s in range(1, 5) if s != gold_slot]
                chain = " > ".join(f"[{s}]" for s in [gold_slot, *others])
                return RankResponse(
                    raw_text=f"<think>slot {gold_slot} matches best</think>\n<answer> {chain} </answer>",
                    ordering=[gold_slot, *others],
                )

        records, stats = distill_sft(windows, VerboseTeacher(), corpus)
        assert stats.kept == 1
        assert records[0]["completion"].startswith("<think>")
