"""Tests for the Poisson and Skellam primitives.

High-precision expected values were computed with an arbitrary-precision
evaluator (mpmath, 40 digits) and frozen here.  ``scipy.special`` is a
test-only reference: the incomplete gamma function for the Poisson tails,
and a log-space ascending Bessel series as an independent route to the
Skellam law (``ive`` shows where scaled Bessel values underflow).
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import gammainc, gammaincc, gammaln, ive, logsumexp

from inplay import Bet, Intensities, ScoreState, distributions, price
from inplay.distributions import (
    _poisson_sides,
    cap_for_tail,
    poisson_pmf,
    poisson_pmf_matrix,
    poisson_pmf_vector,
    poisson_tail,
    skellam_pmf,
    skellam_pmf_range,
)

MEANS = [0.1, 0.5, 1.0, 2.0, 5.0]


def skellam_by_convolution(k: int, mean1: float, mean2: float, cap: int = 200) -> float:
    """Direct convolution of two Poisson pmfs; the independent route."""
    return sum(poisson_pmf(j + k, mean1) * poisson_pmf(j, mean2) for j in range(cap))


class TestPoissonPmf:
    def test_empty_process(self):
        assert poisson_pmf(0, 0.0) == 1.0

    def test_negative_count_is_zero(self):
        assert poisson_pmf(-1, 2.3) == 0.0

    def test_frozen_value(self):
        # e^-1 / 2!
        assert poisson_pmf(2, 1.0) == pytest.approx(0.18393972058572116, abs=1e-15)

    @pytest.mark.parametrize("bad", [-0.5, float("nan"), float("inf")])
    def test_bad_mean_rejected(self, bad):
        with pytest.raises(ValueError):
            poisson_pmf(1, bad)

    @given(mean=st.floats(min_value=0.05, max_value=20.0))
    def test_unimodal_with_mode_at_floor_mean(self, mean):
        mode = int(mean)
        pmf = [poisson_pmf(n, mean) for n in range(mode + 12)]
        for n in range(mode):
            assert pmf[n] <= pmf[n + 1] * (1 + 1e-12)
        for n in range(mode, len(pmf) - 1):
            assert pmf[n + 1] <= pmf[n] * (1 + 1e-12)

    @given(
        n=st.integers(min_value=-2, max_value=100),
        mean=st.floats(min_value=0.0, max_value=100.0),
    )
    def test_always_a_probability(self, n, mean):
        assert 0.0 <= poisson_pmf(n, mean) <= 1.0


class TestPoissonTail:
    def test_total_mass_below_support(self):
        for mean in [0.0] + MEANS:
            assert poisson_tail(-1, mean) == 1.0

    def test_frozen_zero_mean(self):
        assert poisson_tail(0, 0.0) == 0.0

    def test_frozen_value(self):
        # 1 - e^-1 (1 + 1 + 1/2)
        assert poisson_tail(2, 1.0) == pytest.approx(0.080301397071394196, abs=1e-15)

    @given(mean=st.floats(min_value=0.0, max_value=30.0))
    def test_monotone_nonincreasing_in_n(self, mean):
        tails = [poisson_tail(n, mean) for n in range(-1, 40)]
        assert all(b <= a + 1e-15 for a, b in zip(tails, tails[1:]))

    @pytest.mark.parametrize("mean", MEANS + [10.0, 20.0])
    def test_partition_of_unity_with_pmf(self, mean):
        cap = 200
        total = sum(poisson_pmf(n, mean) for n in range(cap + 1)) + poisson_tail(cap, mean)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_both_sides_match_the_incomplete_gamma_function(self):
        # P[N > n] = P(n+1, m) and P[N <= n] = Q(n+1, m), regularised.
        for mean in np.geomspace(1e-6, 60.0, 60):
            for n in range(201):
                below, above = _poisson_sides(n, mean)
                ref_above = gammainc(n + 1, mean)
                ref_below = gammaincc(n + 1, mean)
                if ref_above > 1e-300:
                    assert above == pytest.approx(ref_above, rel=1e-12), (n, mean)
                    assert poisson_tail(n, mean) == above
                if ref_below > 1e-300:
                    assert below == pytest.approx(ref_below, rel=1e-12), (n, mean)


class TestPmfVectorAndCaps:
    @pytest.mark.parametrize("mean", MEANS)
    def test_vector_matches_scalar(self, mean):
        vec = poisson_pmf_vector(mean, 40)
        for n in range(41):
            assert vec[n] == pytest.approx(poisson_pmf(n, mean), rel=1e-13, abs=1e-300)

    def test_cap_is_smallest_with_floor(self):
        cap, tail = cap_for_tail(2.0, 1e-13, 25)
        assert tail == poisson_tail(cap, 2.0) < 1e-13
        assert cap == 25 or poisson_tail(cap - 1, 2.0) >= 1e-13
        assert cap_for_tail(0.0) == (25, 0.0)

    @pytest.mark.parametrize("mean", [2.0, 18.0, 40.0])
    def test_the_bound_is_the_tail_the_bisection_computed(self, monkeypatch, mean):
        calls = []

        def counted(n, m):
            calls.append(n)
            return poisson_tail(n, m)

        monkeypatch.setattr(distributions, "poisson_tail", counted)
        cap, bound = cap_for_tail.__wrapped__(mean)
        assert bound == poisson_tail(cap, mean)
        # Each cap's tail is computed once: the floor's, then the bisection's.
        assert len(calls) == len(set(calls))
        if mean == 18.0:  # above the floor of 25: 1 + 6 bisection steps
            assert (cap, len(calls)) == (57, 7)

    @pytest.mark.parametrize("floor", [4, 25])
    @pytest.mark.parametrize("tol", [1e-13, 1e-14])
    def test_cap_equals_the_incomplete_gamma_search(self, floor, tol):
        for mean in np.geomspace(1e-6, 60.0, 100):
            n = floor
            while gammainc(n + 1, mean) >= tol:
                n += 1
            cap, tail = cap_for_tail(float(mean), tol, floor)
            assert cap == n, mean
            assert tail.hex() == poisson_tail(n, float(mean)).hex(), mean


class TestPmfMatrix:
    def test_rows_are_the_pmf_vectors(self):
        means = [5.0, 2.0, 0.5, 1e-4]
        matrix = poisson_pmf_matrix(means, 40)
        assert matrix.shape == (4, 41)
        for row, mean in zip(matrix, means):
            np.testing.assert_allclose(row, poisson_pmf_vector(mean, 40), rtol=1e-13, atol=0.0)

    def test_zero_mean_row_is_exactly_the_unit_vector(self, recwarn):
        matrix = poisson_pmf_matrix([0.0, 1.3, 0.0], 25)
        assert not recwarn.list  # no log(0)
        unit = np.eye(1, 26)[0]
        assert np.array_equal(matrix[0], unit) and np.array_equal(matrix[2], unit)
        np.testing.assert_allclose(matrix[1], poisson_pmf_vector(1.3, 25), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("means", [[1.0, -0.5], [math.nan], [math.inf], [[1.0]]])
    def test_rejects_bad_means(self, means):
        with pytest.raises(ValueError):
            poisson_pmf_matrix(means, 25)


class TestSkellam:
    def test_frozen_symmetric_value(self):
        assert skellam_pmf(0, 1.0, 1.0) == pytest.approx(0.30850832255367104, rel=1e-13)

    def test_symmetry_at_equal_means(self):
        assert skellam_pmf(3, 1.0, 1.0) == pytest.approx(skellam_pmf(-3, 1.0, 1.0), rel=1e-13)

    def test_against_truncated_convolution(self):
        expected = skellam_by_convolution(1, 2.0, 0.5)
        assert skellam_pmf(1, 2.0, 0.5) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.26113484804805573, abs=1e-14)

    @pytest.mark.parametrize("mean1", MEANS)
    @pytest.mark.parametrize("mean2", MEANS)
    def test_convolution_agreement_grid(self, mean1, mean2):
        for k in range(-15, 16):
            conv = skellam_by_convolution(k, mean1, mean2)
            assert skellam_pmf(k, mean1, mean2) == pytest.approx(conv, abs=1e-10)

    @pytest.mark.parametrize("mean1,mean2", [(1.0, 1.0), (2.0, 0.5), (5.0, 5.0)])
    def test_sums_to_one(self, mean1, mean2):
        ks = np.arange(-60, 61)
        total = skellam_pmf_range(-60, 60, mean1, mean2).sum()
        assert len(ks) == 121
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_zero_mean_degenerates_to_shifted_poisson(self):
        assert skellam_pmf(2, 1.5, 0.0) == pytest.approx(poisson_pmf(2, 1.5), rel=1e-14)
        assert skellam_pmf(-2, 0.0, 1.5) == pytest.approx(poisson_pmf(2, 1.5), rel=1e-14)
        assert skellam_pmf(0, 0.0, 0.0) == 1.0
        assert skellam_pmf(1, 0.0, 0.0) == 0.0

    def test_non_finite_inputs_rejected(self):
        with pytest.raises(ValueError):
            skellam_pmf(0, float("nan"), 1.0)
        with pytest.raises(ValueError):
            skellam_pmf(0, 1.0, float("inf"))

    @pytest.mark.parametrize("mean1,mean2", [(0.3, 2.2), (4.0, 0.1), (1.0, 1.0)])
    def test_range_matches_scalar(self, mean1, mean2):
        vec = skellam_pmf_range(-10, 10, mean1, mean2)
        for i, k in enumerate(range(-10, 11)):
            assert vec[i] == pytest.approx(skellam_pmf(k, mean1, mean2), rel=1e-11, abs=1e-300)


def log_bessel_series(orders: np.ndarray, log_half: float) -> np.ndarray:
    """log I_nu(z) for each order nu, with log(z/2) given, by the ascending
    series sum_m (z/2)^(2m+nu) / (m! (m+nu)!) folded into a logsumexp."""
    n_terms = 40
    while True:
        m = np.arange(n_terms)[:, None]
        nu = orders[None, :]
        log_terms = (2 * m + nu) * log_half - gammaln(m + 1) - gammaln(m + nu + 1)
        log_bessel = logsumexp(log_terms, axis=0)
        # Converged once the last term is negligible against the total.
        if np.all(log_terms[-1, :] < log_bessel - 40.0):
            return log_bessel
        n_terms *= 2
        assert n_terms <= 10_000, "ascending series did not converge"


def skellam_by_series(ks: np.ndarray, mean1: float, mean2: float) -> np.ndarray:
    """The log-space ascending-series reference for every k."""
    log_half = 0.5 * (math.log(mean1) + math.log(mean2))
    log_bessel = log_bessel_series(np.abs(ks), log_half)
    return np.exp(-(mean1 + mean2) + 0.5 * ks * math.log(mean1 / mean2) + log_bessel)


class TestSkellamTable:
    PAIRS = [(20.0, 1e-4), (1e-4, 20.0), (10.0, 10.0), (1e-3, 2e-3)]

    @pytest.mark.parametrize("mean1,mean2", PAIRS)
    def test_recurrence_route_matches_scalar_and_series(self, mean1, mean2):
        ks = np.arange(-60, 61)
        table = skellam_pmf_range(-60, 60, mean1, mean2)
        series = skellam_by_series(ks, mean1, mean2)
        assert np.abs(table - series).max() <= 1e-12
        for k, p in zip(ks, table):
            assert abs(p - skellam_pmf(int(k), mean1, mean2)) <= 1e-12

    @pytest.mark.parametrize("mean1,mean2", PAIRS)
    def test_full_range_sums_to_one(self, mean1, mean2):
        j, tail = cap_for_tail(mean1 + mean2, 1e-13, 25)
        assert tail.hex() == poisson_tail(j, mean1 + mean2).hex()
        assert skellam_pmf_range(-j, j, mean1, mean2).sum() == pytest.approx(1.0, abs=1e-12)

    def test_orders_where_ive_underflows_match_the_series(self):
        # z = 2 sqrt(20 * 1e-10) ~ 9e-5: ive(nu, z) underflows to 0 from
        # order 54 on, while P[D = 60] ~ 2.9e-13 is far from negligible.
        mean1, mean2 = 20.0, 1e-10
        ks = np.arange(-80, 81)
        z = 2.0 * math.sqrt(mean1 * mean2)
        assert (ive(np.abs(ks), z) == 0.0).sum() > 0
        table = skellam_pmf_range(-80, 80, mean1, mean2)
        assert np.all(np.isfinite(table)) and np.all(table >= 0.0)
        series = skellam_by_series(ks, mean1, mean2)
        assert np.abs(table - series).max() <= 1e-12
        assert table[60 + 80] == pytest.approx(series[60 + 80], rel=1e-12)
        assert table[60 + 80] > 1e-14


class TestSkellamUnderflowRegression:
    # 40-digit mpmath value of P[N1 - N2 = 60] for means (20, 1e-10); the
    # scalar Bessel series this replaced raised instead, because its leading
    # term (z/2)^60 / 60! underflows to 0.  The table over orders +-80 is
    # checked by TestSkellamTable.test_orders_where_ive_underflows_match_the_series.
    EXPECTED = 2.8558490756574356e-13

    def test_scalar_pmf(self):
        assert skellam_pmf(60, 20.0, 1e-10) == pytest.approx(self.EXPECTED, rel=1e-10)

    def test_winning_margin_price(self):
        got = price(Bet.winning_margin(60), ScoreState(0, 0, 0.0), Intensities(20.0, 1e-10))
        assert got.value == pytest.approx(self.EXPECTED, rel=1e-10)
