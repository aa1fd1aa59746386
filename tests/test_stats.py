"""Tests for the statistics substrate (t-tests, FDR, flags)."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from repro.stats import (
    Flag,
    PairedTTestResult,
    benjamini_hochberg,
    benjamini_yekutieli,
    bonferroni,
    decide_flag,
    flag_distribution,
    flags_with_fdr,
    paired_t_test,
    reject,
    t_sf,
)
from tests.oracles import t_sf_reference


class TestTSF:
    @pytest.mark.parametrize("t,df", [(0.0, 5), (1.5, 10), (-2.0, 19), (3.3, 7)])
    def test_matches_scipy(self, t, df):
        assert t_sf(t, df) == pytest.approx(scipy_stats.t.sf(t, df), abs=1e-12)

    def test_infinite_statistic(self):
        assert t_sf(np.inf, 5) == 0.0
        assert t_sf(-np.inf, 5) == 1.0

    def test_invalid_df(self):
        with pytest.raises(ValueError):
            t_sf(1.0, 0)


def t_sf_finite_sum(t, df):
    """P(T > t) from the finite sums of Abramowitz & Stegun 26.7.3/26.7.4.

    They give A = P(|T| < t) to a few ulps absolute for every integer
    ``df`` (not relative: they cancel in the far tail), so they serve
    as an absolute-accuracy oracle near t = 0, where scipy's tail
    rounds ``df/(df+t^2)`` to 1.
    """
    theta = math.atan(abs(t) / math.sqrt(df))
    cos2 = math.cos(theta) ** 2
    if df % 2:
        term, total = 1.0, 0.0
        for j in range(1, (df - 1) // 2):
            term *= cos2 * (2 * j) / (2 * j + 1)
            total += term
        inside = theta + (
            math.sin(theta) * math.cos(theta) * (1.0 + total) if df > 1 else 0.0
        )
        inside *= 2.0 / math.pi
    else:
        term = total = 1.0
        for j in range(1, df // 2):
            term *= cos2 * (2 * j - 1) / (2 * j)
            total += term
        inside = math.sin(theta) * total
    return 0.5 - math.copysign(0.5 * inside, t)


SIGNED_T = [sign * t for t in (1e-8, 1e-4, 1.0, 1e3) for sign in (1, -1)]


class TestTSFAccuracy:
    @pytest.mark.parametrize("t", SIGNED_T)
    def test_df1_closed_form(self, t):
        assert t_sf(t, 1) == pytest.approx(0.5 - math.atan(t) / math.pi, abs=1e-15)

    @pytest.mark.parametrize("t", SIGNED_T)
    def test_df2_closed_form(self, t):
        exact = 0.5 - t / (2.0 * math.sqrt(2.0 + t * t))
        assert t_sf(t, 2) == pytest.approx(exact, abs=1e-15)

    def test_finite_sums_near_zero(self):
        for df in range(1, 41):
            for t in np.logspace(-8, 0, 17):
                for signed in (t, -t):
                    assert t_sf(signed, df) == pytest.approx(
                        t_sf_finite_sum(signed, df), abs=1e-14
                    ), (signed, df)

    def test_reference_absolute(self):
        # below |t| = 1e-3 the reference itself drifts (up to 8e-12 at
        # 1e-4, df 39) because it rounds df/(df+t^2); the finite sums
        # cover that band
        for df in range(1, 41):
            for t in np.logspace(-3, 3, 25):
                for signed in (t, -t):
                    assert t_sf(signed, df) == pytest.approx(
                        t_sf_reference(signed, df), abs=1e-12
                    ), (signed, df)

    def test_reference_relative_tail(self):
        for df in range(1, 41):
            for t in np.logspace(0, 3, 25):
                assert t_sf(t, df) == pytest.approx(
                    t_sf_reference(t, df), rel=1e-10, abs=0.0
                ), (t, df)

    def test_zero_is_half(self):
        for df in (1, 2, 19, 40, 199):
            assert t_sf(0.0, df) == 0.5

    def test_nan_statistic(self):
        assert math.isnan(t_sf(math.nan, 19))

    def test_numpy_scalars_at_the_ends(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert t_sf(np.float64(np.inf), 5) == 0.0
            assert t_sf(np.float64(-np.inf), 5) == 1.0
            assert t_sf(np.float64(1e200), 5) == 0.0
            assert t_sf(np.float64(1e-200), 5) == 0.5

    def test_symmetry_and_range(self):
        for df in (1, 2, 3, 19, 40, 99, 199):
            for t in np.logspace(-8, 3, 45):
                upper = t_sf(t, df)
                assert t_sf(-t, df) == 1.0 - upper
                assert 0.0 <= upper <= 0.5


class TestPairedTTest:
    def test_matches_scipy_two_sided(self):
        rng = np.random.default_rng(0)
        before = rng.normal(0.8, 0.02, 20)
        after = before + rng.normal(0.01, 0.02, 20)
        ours = paired_t_test(before, after)
        scipys = scipy_stats.ttest_rel(after, before)
        assert ours.statistic == pytest.approx(scipys.statistic)
        assert ours.p_two_sided == pytest.approx(scipys.pvalue)

    def test_matches_scipy_one_sided(self):
        rng = np.random.default_rng(1)
        before = rng.normal(0.8, 0.02, 20)
        after = before + 0.01 + rng.normal(0.0, 0.02, 20)
        ours = paired_t_test(before, after)
        upper = scipy_stats.ttest_rel(after, before, alternative="greater")
        lower = scipy_stats.ttest_rel(after, before, alternative="less")
        assert ours.p_upper == pytest.approx(upper.pvalue)
        assert ours.p_lower == pytest.approx(lower.pvalue)

    def test_clear_improvement_significant(self):
        before = np.full(20, 0.63) + np.linspace(0, 0.004, 20)
        after = np.full(20, 0.67) + np.linspace(0.004, 0, 20)
        result = paired_t_test(before, after)
        assert result.p_two_sided < 1e-6
        assert result.p_upper < 1e-6
        assert result.p_lower > 0.99

    def test_identical_pairs_insignificant(self):
        result = paired_t_test([0.8] * 10, [0.8] * 10)
        assert result.p_two_sided == 1.0
        assert result.statistic == 0.0

    def test_constant_nonzero_difference(self):
        result = paired_t_test([0.8] * 10, [0.9] * 10)
        assert np.isinf(result.statistic)
        assert result.p_upper == 0.0
        assert result.p_lower == 1.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            paired_t_test([0.5], [0.6])
        with pytest.raises(ValueError):
            paired_t_test([0.5, 0.6], [0.6])

    @given(
        st.lists(st.floats(0.0, 1.0), min_size=3, max_size=30),
        st.floats(-0.2, 0.2),
    )
    @settings(max_examples=50, deadline=None)
    def test_pvalue_symmetry(self, metrics, shift):
        """Swapping before/after must mirror the one-sided p-values."""
        before = np.array(metrics)
        rng = np.random.default_rng(0)
        after = np.clip(before + shift + rng.normal(0, 0.01, len(before)), 0, 1)
        forward = paired_t_test(before, after)
        backward = paired_t_test(after, before)
        assert forward.p_upper == pytest.approx(backward.p_lower, abs=1e-9)
        assert forward.p_two_sided == pytest.approx(
            backward.p_two_sided, abs=1e-9
        )


class TestFDR:
    def test_bonferroni_known_case(self):
        rejected = bonferroni(np.array([0.001, 0.02, 0.04]), alpha=0.05)
        assert rejected.tolist() == [True, False, False]

    def test_bh_rejects_more_than_bonferroni(self):
        rng = np.random.default_rng(0)
        pvalues = np.concatenate([rng.uniform(0, 0.01, 20), rng.uniform(0, 1, 80)])
        assert benjamini_hochberg(pvalues).sum() >= bonferroni(pvalues).sum()

    def test_by_more_conservative_than_bh(self):
        rng = np.random.default_rng(1)
        pvalues = np.concatenate([rng.uniform(0, 0.02, 30), rng.uniform(0, 1, 70)])
        assert benjamini_yekutieli(pvalues).sum() <= benjamini_hochberg(pvalues).sum()

    def test_by_step_up_shape(self):
        # classic example: only the smallest p-values survive
        pvalues = np.array([0.001, 0.008, 0.039, 0.041, 0.042, 0.06, 0.074, 0.205])
        by = benjamini_yekutieli(pvalues, alpha=0.05)
        assert by[0] and not by[-1]

    def test_rejection_sets_are_prefixes_in_sorted_order(self):
        rng = np.random.default_rng(2)
        pvalues = rng.uniform(0, 1, 50)
        for procedure in ("bonferroni", "bh", "by"):
            rejected = reject(pvalues, procedure=procedure)
            order = np.argsort(pvalues)
            flags_sorted = rejected[order]
            if flags_sorted.any():
                last_true = np.nonzero(flags_sorted)[0][-1]
                assert flags_sorted[: last_true + 1].all()

    def test_none_procedure_is_raw_alpha(self):
        pvalues = np.array([0.01, 0.04, 0.06])
        assert reject(pvalues, alpha=0.05, procedure="none").tolist() == [
            True, True, False,
        ]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            reject(np.array([1.5]), procedure="by")
        with pytest.raises(ValueError):
            reject(np.array([0.5]), procedure="holm")
        with pytest.raises(ValueError):
            bonferroni(np.array([]))


def _result(p0, p1, p2):
    return PairedTTestResult(
        statistic=0.0, p_two_sided=p0, p_upper=p1, p_lower=p2, n=20,
        mean_difference=0.0,
    )


class TestFlags:
    def test_paper_rules(self):
        assert decide_flag(_result(0.2, 0.1, 0.9)) is Flag.INSIGNIFICANT
        assert decide_flag(_result(0.01, 0.005, 0.995)) is Flag.POSITIVE
        assert decide_flag(_result(0.01, 0.995, 0.005)) is Flag.NEGATIVE

    def test_paper_example_4_2(self):
        # p0 = 3.82e-17, p1 = 1.91e-17, p2 = 1 -> "P"
        assert decide_flag(_result(3.82e-17, 1.91e-17, 1.0)) is Flag.POSITIVE

    def test_flags_with_fdr_by(self):
        strong_p = [_result(1e-8, 5e-9, 1.0)] * 3
        strong_n = [_result(1e-8, 1.0, 5e-9)] * 2
        nulls = [_result(0.5, 0.25, 0.75)] * 10
        flags = flags_with_fdr(strong_p + strong_n + nulls)
        counts = flag_distribution(flags)
        assert counts == {"P": 3, "N": 2, "S": 10}

    def test_fdr_makes_borderline_insignificant(self):
        # 0.04 survives raw alpha but not BY among many nulls
        borderline = [_result(0.04, 0.02, 0.98)]
        nulls = [_result(0.9, 0.45, 0.55)] * 30
        flags = flags_with_fdr(borderline + nulls, procedure="by")
        assert flags[0] is Flag.INSIGNIFICANT
        raw = flags_with_fdr(borderline + nulls, procedure="none")
        assert raw[0] is Flag.POSITIVE

    def test_empty_input(self):
        assert flags_with_fdr([]) == []

    def test_distribution_order(self):
        counts = flag_distribution([Flag.POSITIVE, Flag.NEGATIVE, Flag.POSITIVE])
        assert list(counts) == ["P", "S", "N"]
        assert counts["P"] == 2
