import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankfit.errors import EmptyGroup, InvalidK, InvalidNdcg, NoPositives, UnknownCandidate
from rankfit.metrics import (
    RewardGroup,
    dcg,
    group_advantages,
    ndcg,
    rankr1_reward,
    rearank_reward,
    recall_at_k,
)

from oracles import naive_dcg, naive_ndcg, ndcg4_single_positive_table


class TestDcg:
    def test_top_position(self):
        assert dcg([1, 0, 0, 0], 4) == 1.0

    def test_rank_three(self):
        assert dcg([0, 0, 1, 0], 4) == pytest.approx(0.5)

    def test_two_positives(self):
        # 1/log2(3) + 1/log2(5), evaluated by the independent oracle
        expected = naive_dcg([0, 1, 0, 1], 4)
        assert expected == pytest.approx(1.06161, abs=1e-4)
        assert dcg([0, 1, 0, 1], 4) == pytest.approx(expected, abs=1e-12)

    def test_k_zero_invalid(self):
        with pytest.raises(InvalidK):
            dcg([1, 0], 0)

    def test_truncates_at_k(self):
        assert dcg([0, 0, 0, 1], 3) == 0.0


class TestNdcg:
    def test_ideal_is_one(self):
        assert ndcg([1, 0, 0, 0], 4) == 1.0

    def test_single_positive_rank_three(self):
        assert ndcg([0, 0, 1, 0], 4) == pytest.approx(0.5)

    def test_two_positives(self):
        expected = naive_ndcg([0, 1, 0, 1], 4)
        assert expected == pytest.approx(0.65096, abs=1e-4)
        assert ndcg([0, 1, 0, 1], 4) == pytest.approx(expected, abs=1e-12)

    def test_all_zero_raises(self):
        with pytest.raises(NoPositives):
            ndcg([0, 0, 0], 3)

    def test_exhaustive_single_positive_window(self):
        table = ndcg4_single_positive_table()
        assert len(table) == 24
        for rels, expected in table:
            assert ndcg(list(rels), 4) == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=500)
    @given(
        rels=st.lists(st.integers(0, 1), min_size=1, max_size=30).filter(any),
        k=st.integers(1, 30),
    )
    def test_bounded_unit_interval(self, rels, k):
        value = ndcg(rels, k)
        assert 0.0 <= value <= 1.0 + 1e-12

    @settings(max_examples=300)
    @given(data=st.data())
    def test_promoting_a_positive_increases_dcg(self, data):
        rels = data.draw(
            st.lists(st.integers(0, 1), min_size=2, max_size=20).filter(
                lambda r: 0 in r and 1 in r
            )
        )
        ones = [i for i, r in enumerate(rels) if r == 1]
        zeros = [i for i, r in enumerate(rels) if r == 0]
        i = data.draw(st.sampled_from(ones))
        earlier_zeros = [j for j in zeros if j < i]
        if not earlier_zeros:
            return
        j = data.draw(st.sampled_from(earlier_zeros))
        swapped = list(rels)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert dcg(swapped, len(rels)) > dcg(rels, len(rels))


class TestRecall:
    def test_two_of_three_in_topk(self):
        rels = [0] * 20
        rels[0] = rels[5] = 1  # inside top-10
        rels[15] = 1  # outside
        assert recall_at_k(rels, 10) == pytest.approx(2 / 3, abs=1e-9)

    def test_all_inside(self):
        assert recall_at_k([1, 1, 0, 0], 2) == 1.0

    def test_positive_just_outside(self):
        rels = [0] * 20
        rels[10] = 1
        assert recall_at_k(rels, 10) == 0.0

    def test_no_positives(self):
        with pytest.raises(NoPositives):
            recall_at_k([0, 0], 1)


class TestRearankReward:
    def test_perfect_improvement(self):
        assert rearank_reward(0.5, 1.0, 1.0) == 1.0

    def test_no_change(self):
        assert rearank_reward(0.6309, 0.6309, 1.0) == 0.0

    def test_regression_sign_and_value(self):
        # exact evaluation at old = 0.63093
        value = rearank_reward(0.63093, 0.5, 1.0)
        assert value == pytest.approx((0.5 - 0.63093) / (1 - 0.63093), abs=1e-12)
        assert value == pytest.approx(-0.3547557, abs=1e-6)
        assert value < 0

    def test_already_optimal_returns_zero(self):
        assert rearank_reward(1.0, 1.0, 1.0) == 0.0
        assert rearank_reward(0.8, 0.5, 0.8) == 0.0

    def test_out_of_range(self):
        with pytest.raises(InvalidNdcg):
            rearank_reward(-0.1, 0.5, 1.0)
        with pytest.raises(InvalidNdcg):
            rearank_reward(0.5, 1.2, 1.0)
        with pytest.raises(InvalidNdcg):
            rearank_reward(0.5, 0.9, 0.8)

    @settings(max_examples=300)
    @given(
        old=st.floats(0, 1),
        max_=st.floats(0, 1),
    )
    def test_unchanged_is_zero(self, old, max_):
        if old > max_:
            old, max_ = max_, old
        assert rearank_reward(old, old, max_) == 0.0

    @settings(max_examples=300)
    @given(data=st.data())
    def test_monotone_in_new(self, data):
        # thousandths grid keeps the strict comparison clear of float absorption
        max_i = data.draw(st.integers(2, 1000))
        old_i = data.draw(st.integers(0, max_i - 1))
        hi_i = data.draw(st.integers(1, max_i))
        lo_i = data.draw(st.integers(0, hi_i - 1))
        old, max_, new_hi, new_lo = (v / 1000 for v in (old_i, max_i, hi_i, lo_i))
        assert rearank_reward(old, new_hi, max_) > rearank_reward(old, new_lo, max_)


class TestRankR1Reward:
    def test_correct(self):
        assert rankr1_reward("r2", "r2", ["r1", "r2", "r3", "r4"]) == 1.0

    def test_wrong(self):
        assert rankr1_reward("r1", "r2", ["r1", "r2", "r3", "r4"]) == 0.0

    def test_unknown_candidate(self):
        with pytest.raises(UnknownCandidate):
            rankr1_reward("r9", "r2", ["r1", "r2"])
        with pytest.raises(UnknownCandidate):
            rankr1_reward("r1", "r9", ["r1", "r2"])


class TestGroupAdvantages:
    def test_hand_checked(self):
        assert group_advantages([1, 0, 0, 1]) == [1.0, -1.0, -1.0, 1.0]

    def test_zero_variance(self):
        assert group_advantages([0.3, 0.3, 0.3]) == [0.0, 0.0, 0.0]

    def test_singleton(self):
        assert group_advantages([1.0]) == [0.0]

    def test_empty(self):
        with pytest.raises(EmptyGroup):
            group_advantages([])

    def test_standardization_on_random_groups(self):
        rng = random.Random(99)
        for _ in range(200):
            group = [rng.uniform(-2, 2) for _ in range(rng.randint(2, 64))]
            if len(set(group)) == 1:
                continue
            adv = group_advantages(group)
            mean = sum(adv) / len(adv)
            std = math.sqrt(sum((a - mean) ** 2 for a in adv) / len(adv))
            assert abs(mean) < 1e-12
            assert abs(std - 1.0) < 1e-9

    @settings(max_examples=300)
    @given(
        rewards=st.lists(
            st.floats(-10, 10, allow_nan=False).map(lambda x: round(x, 3)),
            min_size=2,
            max_size=32,
        ),
        shift=st.floats(-5, 5, allow_nan=False).map(lambda x: round(x, 3)),
    )
    def test_shift_invariance(self, rewards, shift):
        base = group_advantages(rewards)
        shifted = group_advantages([r + shift for r in rewards])
        for a, b in zip(base, shifted):
            assert a == pytest.approx(b, abs=1e-6)


class TestRewardGroup:
    def test_samples_and_advantages_must_pair_up(self):
        samples = [(("a", "b"), 1.0), (("b", "a"), 0.0)]
        with pytest.raises(ValueError, match="group w1: 2 samples but 1 advantages"):
            RewardGroup(window_id="w1", samples=samples, advantages=[0.0])
