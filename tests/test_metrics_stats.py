import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazecast.errors import (
    ConfigError,
    EmptyInputError,
    InsufficientDataError,
    UndefinedStatisticError,
)
from gazecast.metrics import (
    bonferroni,
    iqr,
    kendall_w,
    quantile,
    rankdata,
    spearman,
)


def quantile_oracle(values, p):
    # explicit order-statistic interpolation, written independently
    v = sorted(float(x) for x in values)
    h = (len(v) - 1) * p
    lo = math.floor(h)
    hi = math.ceil(h)
    return v[lo] + (h - lo) * (v[hi] - v[lo])


def ranks_oracle(values):
    # O(n^2) average ranks: 1 + (# strictly smaller) + (# equal - 1)/2
    out = []
    for v in values:
        less = sum(1 for u in values if u < v)
        equal = sum(1 for u in values if u == v)
        out.append(less + (equal + 1) / 2.0)
    return out


class TestQuantile:
    def test_quarter_points(self):
        assert quantile([1, 2, 3, 4], 0.25) == pytest.approx(1.75)
        assert quantile([1, 2, 3, 4], 0.75) == pytest.approx(3.25)

    def test_singleton(self):
        for p in (0.0, 0.3, 1.0):
            assert quantile([42.0], p) == 42.0

    def test_matches_oracle_on_random_vectors(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            v = rng.normal(size=n)
            p = float(rng.uniform())
            assert quantile(v, p) == pytest.approx(quantile_oracle(v, p), abs=1e-12)

    def test_empty_raises(self):
        with pytest.raises(InsufficientDataError):
            quantile([], 0.5)

    def test_bad_level(self):
        with pytest.raises(ConfigError):
            quantile([1.0], 1.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(UndefinedStatisticError):
            quantile([1.0, bad, 3.0], 0.5)

    def test_iqr(self):
        assert iqr([1, 2, 3, 4]) == pytest.approx(1.5)
        assert iqr([5, 5, 5]) == 0.0


class TestRanks:
    def test_tie_heavy_fixture_matches_oracle(self):
        v = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0, 5.0, 1.0]
        assert np.allclose(rankdata(v), ranks_oracle(v), atol=1e-12)

    @given(st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_property(self, v):
        assert np.allclose(rankdata(v), ranks_oracle(v), atol=1e-12)

    @pytest.mark.parametrize("bad", [float("nan"), None, float("inf"), -float("inf")])
    def test_non_finite_rejected(self, bad):
        values = [1.0, 2.0, 3.0, 4.0, bad, 6.0]
        with pytest.raises(UndefinedStatisticError, match="non-finite"):
            rankdata(values)
        with pytest.raises(UndefinedStatisticError, match="non-finite"):
            spearman(values, range(1, 7))
        with pytest.raises(UndefinedStatisticError, match="non-finite"):
            kendall_w([values, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]])


class TestSpearman:
    def test_monotone_increasing_is_one(self):
        x = [0.1, 0.5, 2.0, 3.0, 7.0, 9.0]
        y = [math.exp(v) for v in x]
        r, p = spearman(x, y)
        assert r == 1.0 and p == 0.0

    def test_monotone_decreasing_is_minus_one(self):
        x = [1, 2, 3, 4, 5, 6]
        r, _ = spearman(x, [-v**3 for v in x])
        assert r == -1.0

    def test_tie_heavy_fixture_matches_rank_oracle(self):
        x = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0, 5.0, 1.0]
        y = [2.0, 7.0, 1.0, 8.0, 2.0, 8.0, 1.0, 8.0, 2.0, 8.0, 4.0, 5.0]
        rx, ry = ranks_oracle(x), ranks_oracle(y)
        mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
        num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
        den = math.sqrt(sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry))
        r, _ = spearman(x, y)
        assert r == pytest.approx(num / den, abs=1e-12)

    def test_p_value_matches_t_formula(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=30)
        y = x + rng.normal(size=30) * 2.0
        r, p = spearman(x, y)
        n = 30
        t = r * math.sqrt((n - 2) / (1 - r * r))
        from scipy.special import stdtr

        assert p == pytest.approx(2 * stdtr(n - 2, -abs(t)), abs=1e-15)
        assert 0.0 <= p <= 1.0

    def test_constant_input_rejected(self):
        with pytest.raises(UndefinedStatisticError):
            spearman([1, 1, 1, 1, 1], [1, 2, 3, 4, 5])

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            spearman([1, 2, 3], [1, 2, 3])

    @given(st.lists(st.integers(-1000, 1000), min_size=5, max_size=25, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_monotone_transform_invariance(self, x):
        # integer inputs keep the transforms strictly monotone in float math
        rng = np.random.default_rng(abs(hash(tuple(x))) % 2**32)
        y = list(rng.normal(size=len(x)))
        r0, _ = spearman(x, y)
        r1, _ = spearman([math.exp(v / 300) for v in x], y)
        r2, _ = spearman(x, [v**3 for v in y])
        assert r1 == pytest.approx(r0, abs=1e-12)
        assert r2 == pytest.approx(r0, abs=1e-12)


class TestBonferroni:
    def test_family_of_114(self):
        flags = bonferroni([0.001, 1e-5], family_size=114)
        assert flags == [False, True]

    def test_single_test_reduces_to_alpha(self):
        assert bonferroni([0.049]) == [True]
        assert bonferroni([0.051]) == [False]

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            bonferroni([])

    def test_family_smaller_than_tests_rejected(self):
        bonferroni([0.02, 0.03, 0.04], family_size=3)
        # a fractional family is rejected even when it exceeds the tests
        for family_size in (0, 1, 2, 2.5, 3.5):
            with pytest.raises(ConfigError, match="family size"):
                bonferroni([0.02, 0.03, 0.04], family_size=family_size)


class TestKendallW:
    def test_identical_rankings_give_one(self):
        row = [10.0, 20.0, 30.0, 40.0, 50.0]
        assert kendall_w([row, row, row]) == pytest.approx(1.0)

    def test_hand_fixture_matches_formula(self):
        scores = np.array(
            [
                [1.0, 2.0, 3.0, 4.0],
                [2.0, 1.0, 4.0, 3.0],
                [1.0, 3.0, 2.0, 4.0],
            ]
        )
        # direct evaluation: no ties, so T = 0
        ranks = np.array([ranks_oracle(r) for r in scores])
        sums = ranks.sum(axis=0)
        s = float(np.sum((sums - sums.mean()) ** 2))
        m, n = scores.shape
        expect = 12 * s / (m * m * (n**3 - n))
        assert kendall_w(scores) == pytest.approx(expect, abs=1e-12)

    def test_tie_correction(self):
        scores = np.array(
            [
                [1.0, 1.0, 2.0, 3.0],
                [1.0, 2.0, 2.0, 3.0],
            ]
        )
        ranks = np.array([ranks_oracle(r) for r in scores])
        sums = ranks.sum(axis=0)
        s = float(np.sum((sums - sums.mean()) ** 2))
        t_total = sum(
            sum(c**3 - c for c in np.unique(row, return_counts=True)[1])
            for row in scores
        )
        m, n = scores.shape
        expect = 12 * s / (m * m * (n**3 - n) - m * t_total)
        assert kendall_w(scores) == pytest.approx(expect, abs=1e-12)

    def test_all_tied_rater_rejected(self):
        with pytest.raises(UndefinedStatisticError):
            kendall_w([[1.0, 1.0, 1.0], [1.0, 2.0, 3.0]])

    def test_preconditions(self):
        with pytest.raises(InsufficientDataError):
            kendall_w([[1.0, 2.0, 3.0]])
        with pytest.raises(InsufficientDataError):
            kendall_w([[1.0, 2.0], [2.0, 1.0]])

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_invariant_under_per_rater_monotone_transforms(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=(4, 6))
        w0 = kendall_w(scores)
        warped = np.vstack(
            [
                np.exp(scores[0]),
                scores[1] ** 3,
                scores[2] * 7.5 + 3,
                np.arctan(scores[3]),
            ]
        )
        assert kendall_w(warped) == pytest.approx(w0, abs=1e-12)

    def test_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            w = kendall_w(rng.normal(size=(3, 5)))
            assert 0.0 <= w <= 1.0
