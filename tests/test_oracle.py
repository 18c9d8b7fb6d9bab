"""Tests for the simulation / Monte Carlo / enumeration cross-checkers."""

import math

import numpy as np
import pytest
from scipy.stats import chisquare

from inplay.contracts import (
    Bet,
    Intensities,
    MATCH_ODDS_HOME,
    NEXT_GOAL_HOME,
    Outcome,
    ScoreState,
    Team,
    payoff,
)
from inplay.distributions import poisson_pmf
from inplay.oracle import (
    enumerate_price,
    enumeration_remainder,
    mc_price,
    simulate_paths,
)
from inplay.pricing import price, price_european


class TestSimulatePaths:
    def test_zero_intensity_means_no_events(self):
        paths = simulate_paths(Intensities(0, 0), ScoreState(1, 0, 0.2), 50, seed=7)
        assert all(p.events == () for p in paths)
        assert all((p.home_goals, p.away_goals) == (1, 0) for p in paths)

    def test_seed_determinism(self):
        a = simulate_paths(Intensities(1.4, 0.9), ScoreState(0, 0, 0.0), 500, seed=11)
        b = simulate_paths(Intensities(1.4, 0.9), ScoreState(0, 0, 0.0), 500, seed=11)
        assert a == b

    def test_event_times_increase_and_match_counts(self):
        for p in simulate_paths(Intensities(2.5, 2.0), ScoreState(0, 1, 0.1), 200, seed=3):
            times = [t for t, _ in p.events]
            assert all(b > a for a, b in zip(times, times[1:]))
            assert all(0.1 < t <= 1.0 for t in times)
            home = sum(1 for _, team in p.events if team is Team.HOME)
            away = sum(1 for _, team in p.events if team is Team.AWAY)
            assert (p.home_goals, p.away_goals) == (home, 1 + away)

    def test_mean_terminal_goals(self):
        n = 100_000
        paths = simulate_paths(Intensities(2.0, 0.0), ScoreState(0, 0, 0.0), n, seed=5)
        goals = np.array([p.home_goals for p in paths])
        stderr = goals.std(ddof=1) / math.sqrt(n)
        assert abs(goals.mean() - 2.0) <= 3 * stderr

    def test_terminal_distribution_chi_square(self):
        n = 100_000
        lam = 1.7
        paths = simulate_paths(Intensities(lam, 0.0), ScoreState(0, 0, 0.0), n, seed=29)
        counts = np.bincount([p.home_goals for p in paths])
        # Pool the tail so every expected bin count is >= 5.
        k_max = counts.size
        expected = np.array([n * poisson_pmf(k, lam) for k in range(k_max)])
        tail_expected = n - expected.sum()
        while expected[-1] < 5 or tail_expected < 5:
            tail_expected += expected[-1]
            expected = expected[:-1]
            counts = np.concatenate([counts[: len(expected)], [counts[len(expected):].sum()]])
            if counts.size == expected.size:
                break
        observed = np.concatenate([counts[: len(expected)], [n - counts[: len(expected)].sum()]])
        expected = np.concatenate([expected, [tail_expected]])
        stat, p_value = chisquare(observed, expected)
        assert p_value > 0.001

    def test_compensated_process_is_a_martingale(self):
        # Empirical mean of N_tau + lam (1 - tau) constant across the clock.
        n = 100_000
        lam = Intensities(1.3, 0.0)
        paths = simulate_paths(lam, ScoreState(0, 0, 0.0), n, seed=17)
        for tau in (0.25, 0.5, 0.75, 1.0):
            counts = np.array(
                [sum(1 for t, _ in p.events if t <= tau) for p in paths], dtype=float
            )
            compensated = counts + lam.home * (1.0 - tau)
            stderr = compensated.std(ddof=1) / math.sqrt(n)
            assert abs(compensated.mean() - lam.home) <= 4 * stderr


class TestMcPrice:
    def test_settled_bet_has_zero_error(self):
        est, err = mc_price(Bet.over(2.5), ScoreState(2, 1, 0.5), Intensities(1, 1), 2000, seed=1)
        assert est == 1.0 and err == 0.0

    def test_needs_enough_paths(self):
        with pytest.raises(ValueError):
            mc_price(MATCH_ODDS_HOME, ScoreState(0, 0, 0.0), Intensities(1, 1), 10, seed=1)

    def test_next_goal_consistency(self):
        lam = Intensities(1.0, 1.0)
        state = ScoreState(0, 0, 0.0)
        est, err = mc_price(NEXT_GOAL_HOME, state, lam, 200_000, seed=2)
        exact = price(NEXT_GOAL_HOME, state, lam).value
        assert abs(est - exact) <= 3 * err

    def test_match_odds_consistency(self):
        lam = Intensities(1.2, 0.8)
        state = ScoreState(0, 0, 0.0)
        est, err = mc_price(MATCH_ODDS_HOME, state, lam, 200_000, seed=3)
        exact = price_european(MATCH_ODDS_HOME, state, lam).value
        assert abs(est - exact) <= 3 * err

    def test_ht_ft_consistency_including_second_half(self):
        lam = Intensities(1.2, 0.8)
        bet = Bet.ht_ft(Outcome.HOME, Outcome.HOME)
        pre = ScoreState(0, 0, 0.2)
        est, err = mc_price(bet, pre, lam, 200_000, seed=4)
        exact = price(Bet.ht_ft(Outcome.HOME, Outcome.HOME), pre, lam).value
        assert abs(est - exact) <= 3 * err

        post = ScoreState(2, 1, 0.7)
        est2, err2 = mc_price(bet, post, lam, 100_000, seed=5, ht_score=(1, 0))
        exact2 = price(Bet.ht_ft(Outcome.HOME, Outcome.HOME), post, lam, ht_score=(1, 0)).value
        assert abs(est2 - exact2) <= 3 * max(err2, 1e-12)


class TestEnumerate:
    LAM = Intensities(1.2, 0.8)
    STATE = ScoreState(0, 0, 0.0)

    def test_total_mass(self):
        value = enumerate_price(lambda h, a: 1.0, self.STATE, self.LAM, cap=60)
        remainder = enumeration_remainder(self.STATE, self.LAM, cap=60)
        assert 0.0 < remainder < 1e-13
        assert value == pytest.approx(1.0 - remainder, abs=1e-18)

    def test_single_term_correct_score(self):
        value = enumerate_price({(0, 0): 1.0}, self.STATE, self.LAM, cap=30)
        assert value == pytest.approx(math.exp(-2.0), rel=1e-15)

    def test_skellam_identity_for_draw(self):
        value = enumerate_price(
            lambda h, a: float(h == a), self.STATE, Intensities(1.0, 1.0), cap=60
        )
        # e^-2 I_0(2)
        assert value == pytest.approx(0.30850832255367104, abs=1e-14)

    def test_cap_floor_enforced(self):
        with pytest.raises(ValueError):
            enumerate_price({(0, 0): 1.0}, self.STATE, self.LAM, cap=10)

    @pytest.mark.parametrize("tau", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("lam", [(0.1, 0.1), (1.0, 2.0), (5.0, 5.0)])
    def test_agrees_with_production_pricer(self, tau, lam):
        state = ScoreState(1, 0, tau)
        lam_ = Intensities(*lam)
        for bet in (MATCH_ODDS_HOME, Bet.under(2.5), Bet.winning_margin(1)):
            grid = np.array(
                [
                    [payoff(bet, 1 + i, 0 + j) for j in range(61)]
                    for i in range(61)
                ],
                dtype=float,
            )
            a = enumerate_price(grid, state, lam_, cap=60)
            b = price_european(bet, state, lam_).value
            assert a == pytest.approx(b, abs=1e-10)
