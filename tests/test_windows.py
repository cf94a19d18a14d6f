import random
from collections import Counter

import pytest

from rankfit.core import RankedPool
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
    judge_windows,
    partition_pool,
)

from conftest import corpus_for_windows, make_window


def labeled_pool(n=20, n_accept=1, job_id="j1"):
    ids = [f"{job_id}-r{i}" for i in range(n)]
    return RankedPool(job_id=job_id, candidates=tuple(ids), accepted_ids=frozenset(ids[:n_accept]))


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
        part = partition_pool(labeled_pool(n_accept=2), PipelineConfig())
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
            assert not pool.accepted_ids.intersection(negatives)
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
            pool = labeled_pool(n=20, n_accept=n_accept, job_id=f"j{trial}")
            windows = build_windows(pool, PipelineConfig(), random.Random(trial))
            seen_sets = set()
            for w in windows:
                key = frozenset(w.candidate_ids)
                assert key not in seen_sets
                seen_sets.add(key)
                assert w.gold_id in pool.accepted_ids
                assert len(set(w.candidate_ids)) == 4
            if n_accept == 0 or n_accept >= 11:
                assert windows == []
            else:
                assert len(windows) <= 3 * n_accept

    def test_record_roundtrip(self, rng):
        pool = labeled_pool(n_accept=1)
        (window,) = build_windows(pool, PipelineConfig(), rng)[:1]
        assert Window.from_record(window.to_record()) == window

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("window_id", "", "window_id must be a non-empty string, got ''"),
            ("job_id", ["j1"], "job_id must be a non-empty string, got ['j1']"),
            ("candidates", 5, "candidate_ids must be a list of ids, got 5"),
            ("candidates", "abcd", "candidate_ids must be a list of ids, got 'abcd'"),
            ("presented_order", [1, 2, 3, "4"], "presented_order must be a permutation of 1..4, got (1, 2, 3, '4')"),
            ("presented_order", [1, 2, 3, 4.0], "presented_order must be a permutation of 1..4, got (1, 2, 3, 4.0)"),
            ("presented_order", [1, 2, 2, 4], "presented_order must be a permutation of 1..4, got (1, 2, 2, 4)"),
            ("r_bar", "0.5", "r_bar must be null or a number in [0, 1], got '0.5'"),
            ("r_bar", -0.1, "r_bar must be null or a number in [0, 1], got -0.1"),
            ("r_bar", False, "r_bar must be null or a number in [0, 1], got False"),
        ],
    )
    def test_record_field_of_wrong_type_names_the_field(self, key, value, message):
        rec = dict(make_window(r_bar=0.5).to_record(), **{key: value})
        with pytest.raises(ConfigError) as exc_info:
            Window.from_record(rec)
        assert str(exc_info.value).endswith(message)

    @pytest.mark.parametrize("r_bar", [None, 0, 0.25, 1])
    def test_record_r_bar_null_or_in_unit_interval(self, r_bar):
        assert Window.from_record(make_window(r_bar=r_bar).to_record()).r_bar == r_bar


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

    def test_thresholds_outside_unit_interval_rejected(self):
        for key, value in (("hard_threshold", 7), ("hard_threshold", -0.1), ("subsample_keep", 1.5), ("subsample_keep", "0.5")):
            with pytest.raises(ConfigError, match=f"{key} must be a number in"):
                PipelineConfig(**{key: value})

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

    def test_llm_filter_uses_judge(self):
        windows = self._windows()

        class EndsInZeroClient:
            """Says yes to the windows whose id ends in 0."""

            def complete(self, system, user, sampling, parse):
                return "", parse("<answer> yes </answer>" if "0-gold" in user else "<answer> no </answer>"), 0

        kept, failed = judge_windows(windows, EndsInZeroClient(), corpus_for_windows(windows))
        assert [w.window_id for w in kept] == ["j1/h0", "j1/e0"]
        assert failed == []

    def test_llm_filter_requires_judge(self, rng):
        """llm_filter is judged by judge_windows, not applied by apply_strategy."""
        with pytest.raises(ConfigError, match="unknown strategy 'llm_filter'"):
            apply_strategy(self._windows(), "llm_filter", rng)

    def test_unknown_strategy(self, rng):
        with pytest.raises(ConfigError):
            apply_strategy(self._windows(), "drop_everything", rng)


class TestLlmJudge:
    @pytest.fixture
    def judge_with(self, fake_endpoint):
        """judge_windows over one window, against a client whose endpoint gives ``replies`` in turn."""
        from rankfit.ranker import ChatCompletionsClient, EndpointConfig

        def judge(replies):
            fake_endpoint.replies = replies
            client = ChatCompletionsClient(EndpointConfig(base_url="http://x", model="m", retry_backoff_s=0.0))
            window = make_window(gold_slot=2)
            return judge_windows([window], client, corpus_for_windows([window])), window

        return judge

    def test_yes_keeps(self, judge_with):
        result, window = judge_with(["<answer> yes </answer>"])
        assert result == ([window], [])

    def test_no_drops(self, judge_with):
        result, window = judge_with(["<answer> no </answer>"])
        assert result == ([], [])

    def test_transport_failure_keeps_window(self, judge_with):
        result, window = judge_with([ConnectionRefusedError("down")])
        assert result == ([window], [window.window_id])

    def test_retries_through_malformed_reply(self, judge_with):
        result, window = judge_with(["gibberish", "<answer> no </answer>"])
        assert result == ([], [])

    def test_windows_kept_after_judge_failure_are_counted(self):
        from rankfit.ranker import TransportFailure

        windows = [make_window(window_id=f"j1/w{i}", gold_slot=(i % 4) + 1) for i in range(6)]
        failing = {"j1/w1": TransportFailure("down"), "j1/w4": MalformedAnswer("no answer block")}

        class FailingClient:
            def complete(self, system, user, sampling, parse):
                for window_id, error in failing.items():
                    if f"Engineer {window_id}-gold" in user:
                        raise error
                return "", parse("<answer> no </answer>"), 0

        kept, failed = judge_windows(windows, FailingClient(), corpus_for_windows(windows))
        assert [w.window_id for w in kept] == ["j1/w1", "j1/w4"]
        assert failed == ["j1/w1", "j1/w4"]

    def test_failures_judged_in_parallel_are_listed_in_input_order(self):
        """The first failing window fails last; the failed ids still follow the input."""
        import time

        from rankfit.ranker import TransportFailure

        windows = [make_window(window_id=f"j1/w{i}", gold_slot=(i % 4) + 1) for i in range(6)]
        delays = {"j1/w1": 0.3, "j1/w4": 0.0}

        class SlowFailingClient:
            def complete(self, system, user, sampling, parse):
                for window_id, delay in delays.items():
                    if f"Engineer {window_id}-gold" in user:
                        time.sleep(delay)
                        raise TransportFailure("down")
                return "", parse("<answer> no </answer>"), 0

        kept, failed = judge_windows(windows, SlowFailingClient(), corpus_for_windows(windows), max_workers=4)
        assert [w.window_id for w in kept] == ["j1/w1", "j1/w4"]
        assert failed == ["j1/w1", "j1/w4"]

    def test_many_threads_lose_no_failure(self):
        """Eight threads, with a short switch interval, report every failure once, in input order."""
        import sys

        from rankfit.ranker import TransportFailure

        windows = [make_window(window_id=f"j1/w{i}", gold_slot=(i % 4) + 1) for i in range(200)]

        class EveryThirdFails:
            def complete(self, system, user, sampling, parse):
                if int(user.split("Engineer j1/w")[1].split("-")[0]) % 3 == 0:
                    raise TransportFailure("down")
                return "", parse("<answer> no </answer>"), 0

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            kept, failed = judge_windows(windows, EveryThirdFails(), corpus_for_windows(windows), max_workers=8)
        finally:
            sys.setswitchinterval(interval)
        expected = [f"j1/w{i}" for i in range(0, 200, 3)]
        assert [w.window_id for w in kept] == expected
        assert failed == expected

    def test_prompts_are_pinned(self):
        """sha256 of the judge's and the teacher's prompt strings for a hinted window, as the toolkit wrote them."""
        import hashlib

        from rankfit.ranker import SamplingParams, build_judge_prompt, build_prompt
        from rankfit.windows import window_request

        window = make_window(window_id="j7/w3", job_id="j7", gold_slot=3, hint="The accepted candidate is [3]")
        corpus = corpus_for_windows([window])
        seen = []

        class CapturingClient:
            def complete(self, system, user, sampling, parse):
                seen.append((system, user, sampling))
                return "", parse("<answer> yes </answer>"), 0

        assert judge_windows([window], CapturingClient(), corpus) == ([window], [])
        system, user, sampling = seen[0]
        assert sampling == SamplingParams()

        def digest(text):
            return hashlib.sha256(text.encode()).hexdigest()

        assert digest(system) == "c949b8fd6409dcf239864177c8d8fd900531f272427e927f45037d90749dda29"
        assert digest(user) == "46f832e4934c074374af53ac8e052540deebd07da36adeae7b62bb3488858a81"
        req = window_request(window, corpus, "judge", SamplingParams())
        assert build_judge_prompt(req, window.gold_slot()) == (system, user)
        system, user = build_prompt(window_request(window, corpus, "teacher", SamplingParams()))
        assert digest(system) == "4ecdb97b555edffe4e591bad67ccf1d215312c2a33d7a4b28208ab41bb39c33c"
        assert digest(user) == "2ca5074f360b98c78bb9f18f8299aac2b72bcc42dd7180c9fdcbd77c407dc687"


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
