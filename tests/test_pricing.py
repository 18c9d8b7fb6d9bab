"""Tests for the valuation formulas, greeks and structural identities.

Frozen high-precision values come from an arbitrary-precision (mpmath)
evaluation of the defining sums; grid agreement against the extended-
precision enumerator runs in test_acceptance at full size.
"""

import math

import numpy as np
import pytest

from inplay.contracts import (
    Bet,
    BetKind,
    EVEN_TOTAL,
    Intensities,
    MATCH_ODDS_AWAY,
    MATCH_ODDS_DRAW,
    MATCH_ODDS_HOME,
    NEXT_GOAL_AWAY,
    NEXT_GOAL_HOME,
    NonEuropeanBetError,
    ODD_TOTAL,
    Outcome,
    ScoreState,
    Team,
    payoff,
)
from inplay.distributions import poisson_pmf_vector
from inplay.hedging import next_goal_delta_matrix, solve_replication_weights
from inplay import contracts, pricing
from inplay.oracle import enumerate_price, kolmogorov_residual, theta_fd
from inplay.synthetic import calibration_catalogue
from inplay.pricing import (
    EuropeanBoard,
    greeks,
    intensity_sensitivity,
    price,
    price_closed_form,
    price_european,
    static_replication,
)

EURO_BETS = [
    MATCH_ODDS_HOME,
    MATCH_ODDS_AWAY,
    MATCH_ODDS_DRAW,
    Bet.correct_score(2, 1),
    Bet.correct_score(0, 0),
    Bet.over(2.5),
    Bet.under(2.5),
    ODD_TOTAL,
    EVEN_TOTAL,
    Bet.winning_margin(0),
    Bet.winning_margin(-2),
]


def payoff_grid(bet, state, cap):
    return np.array(
        [
            [payoff(bet, state.home_goals + i, state.away_goals + j) for j in range(cap + 1)]
            for i in range(cap + 1)
        ],
        dtype=float,
    )


class TestPriceEuropean:
    def test_frozen_game_draw_is_certain(self):
        res = price_european(MATCH_ODDS_DRAW, ScoreState(1, 1, 0.5), Intensities(0.0, 0.0))
        assert res.value == 1.0

    def test_locked_over_line(self):
        state = ScoreState(2, 1, 0.4)
        lam = Intensities(1.7, 2.3)
        # The double sum carries float accumulation at the 1e-16 scale; the
        # closed form reduces to a tail below the support and is exact.
        assert price_european(Bet.over(2.5), state, lam).value == pytest.approx(1.0, abs=1e-12)
        assert price_closed_form(Bet.over(2.5), state, lam).value == 1.0

    def test_match_odds_home_against_frozen_enumeration(self):
        # mpmath double sum at 0-0, lam=(1.2, 0.8), tau=0
        res = price_european(MATCH_ODDS_HOME, ScoreState(0, 0, 0.0), Intensities(1.2, 0.8))
        assert res.value == pytest.approx(0.45395080970362334, abs=1e-10)
        assert res.truncation_bound < 1e-10

    def test_rejects_path_dependent_bets(self):
        with pytest.raises(NonEuropeanBetError):
            price_european(NEXT_GOAL_HOME, ScoreState(0, 0, 0.0), Intensities(1, 1))

    @pytest.mark.parametrize("bet", EURO_BETS)
    def test_terminal_boundary_equals_payoff(self, bet):
        for score in [(0, 0), (2, 1), (1, 3)]:
            state = ScoreState(score[0], score[1], 1.0)
            value = price_european(bet, state, Intensities(1.3, 0.9)).value
            assert value == float(payoff(bet, *score))


class TestPriceClosedForm:
    def test_terminal_correct_score(self):
        res = price_closed_form(Bet.correct_score(2, 1), ScoreState(2, 1, 1.0), Intensities(1, 1))
        assert res.value == 1.0

    def test_even_total_is_cosh_form(self):
        # Remaining-goal parity at 0-0: e^-Lambda cosh(Lambda) with Lambda=1
        res = price_closed_form(EVEN_TOTAL, ScoreState(0, 0, 0.0), Intensities(0.5, 0.5))
        assert res.value == pytest.approx(0.56766764161830635, abs=1e-14)

    def test_even_total_flips_with_current_parity(self):
        even_at_10 = price_closed_form(EVEN_TOTAL, ScoreState(1, 0, 0.0), Intensities(0.5, 0.5))
        assert even_at_10.value == pytest.approx(0.43233235838169365, abs=1e-14)

    def test_even_certain_when_nothing_can_happen(self):
        # Frozen game with an even current total: the parity is already settled.
        res = price_closed_form(EVEN_TOTAL, ScoreState(1, 1, 0.3), Intensities(0.0, 0.0))
        assert res.value == 1.0
        assert price_closed_form(ODD_TOTAL, ScoreState(1, 1, 0.3), Intensities(0.0, 0.0)).value == 0.0

    @pytest.mark.parametrize("total_mean", [1e-20, 1e-9, 1e-5])
    @pytest.mark.parametrize("score", [(0, 0), (1, 0)])
    @pytest.mark.parametrize("bet", [ODD_TOTAL, EVEN_TOTAL])
    def test_parity_keeps_relative_accuracy(self, bet, score, total_mean):
        # Both parities of the current total, so the odd remainder, a value
        # near total_mean, is priced on each bet.
        state, lam = ScoreState(*score, 0.0), Intensities(total_mean, 0.0)
        want = price_european(bet, state, lam).value
        assert price_closed_form(bet, state, lam).value == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_winning_margin_is_skellam(self):
        res = price_closed_form(Bet.winning_margin(0), ScoreState(0, 0, 0.0), Intensities(1, 1))
        assert res.value == pytest.approx(0.30850832255367104, abs=1e-12)

    @pytest.mark.parametrize("bet", EURO_BETS)
    @pytest.mark.parametrize(
        "lam",
        [
            (0.1, 0.1),
            (1.0, 0.5),
            (5.0, 5.0),
            (20.0, 1e-200),
            (14.525685216847084, 1.807606e-317),
            (1.0, 2.2250738585072e-309),
            (0.0, 3.0),
        ],
    )
    @pytest.mark.parametrize("tau", [0.0, 0.5, 0.9])
    def test_agrees_with_double_sum(self, bet, lam, tau):
        for score in [(0, 0), (2, 1)]:
            state = ScoreState(score[0], score[1], tau)
            lam_ = Intensities(*lam)
            a = price_closed_form(bet, state, lam_).value
            b = price_european(bet, state, lam_).value
            assert a == pytest.approx(b, abs=1e-10)


class TestNormalisation:
    @pytest.mark.parametrize("lam", [(0.1, 0.5), (1.0, 1.0), (5.0, 2.0)])
    @pytest.mark.parametrize("tau", [0.0, 0.5, 0.9])
    def test_families_sum_to_one(self, lam, tau):
        state = ScoreState(1, 0, tau)
        lam_ = Intensities(*lam)
        mo = sum(
            price_closed_form(b, state, lam_).value
            for b in (MATCH_ODDS_HOME, MATCH_ODDS_AWAY, MATCH_ODDS_DRAW)
        )
        assert mo == pytest.approx(1.0, abs=1e-10)
        ou = (
            price_closed_form(Bet.over(3.5), state, lam_).value
            + price_closed_form(Bet.under(3.5), state, lam_).value
        )
        assert ou == pytest.approx(1.0, abs=1e-10)
        parity = (
            price_closed_form(ODD_TOTAL, state, lam_).value
            + price_closed_form(EVEN_TOTAL, state, lam_).value
        )
        assert parity == pytest.approx(1.0, abs=1e-10)
        margins = sum(
            price_closed_form(Bet.winning_margin(k), state, lam_).value
            for k in range(-30, 31)
        )
        assert margins == pytest.approx(1.0, abs=1e-10)

    def test_over_monotone_in_both_intensities(self):
        state = ScoreState(0, 0, 0.25)
        ladder = [0.1, 0.5, 1.0, 2.0, 4.0]
        by_home = [
            price_european(Bet.over(2.5), state, Intensities(l1, 0.7)).value for l1 in ladder
        ]
        by_away = [
            price_european(Bet.over(2.5), state, Intensities(0.7, l2)).value for l2 in ladder
        ]
        for values in (by_home, by_away):
            assert all(b >= a - 1e-14 for a, b in zip(values, values[1:]))


class TestNextGoal:
    def test_worthless_at_the_whistle(self):
        assert price(NEXT_GOAL_HOME, ScoreState(1, 0, 1.0), Intensities(2, 1)).value == 0.0

    def test_no_intensity_no_goal(self):
        assert price(NEXT_GOAL_HOME, ScoreState(0, 0, 0.0), Intensities(0, 0)).value == 0.0

    def test_symmetric_value(self):
        res = price(NEXT_GOAL_HOME, ScoreState(0, 0, 0.0), Intensities(1, 1))
        assert res.value == pytest.approx(0.43233235838169365, abs=1e-14)

    def test_one_sided_limit(self):
        res = price(NEXT_GOAL_HOME, ScoreState(0, 0, 0.0), Intensities(1, 0))
        assert res.value == pytest.approx(0.63212055882855768, abs=1e-14)

    def test_value_is_score_independent(self):
        lam = Intensities(1.4, 0.6)
        a = price(NEXT_GOAL_AWAY, ScoreState(0, 0, 0.3), lam).value
        b = price(NEXT_GOAL_AWAY, ScoreState(3, 1, 0.3), lam).value
        assert a == b


def ht_ft_two_stage_oracle(ht, ft, state, lam, half_clock, cap=40):
    """Independent two-stage enumeration over (half-time, full-time) scores."""
    h1 = half_clock - state.clock
    h2 = 1.0 - half_clock
    p1a = poisson_pmf_vector(lam.home * h1, cap)
    p2a = poisson_pmf_vector(lam.away * h1, cap)
    p1b = poisson_pmf_vector(lam.home * h2, cap)
    p2b = poisson_pmf_vector(lam.away * h2, cap)
    l1g, l2g = np.meshgrid(np.arange(cap + 1), np.arange(cap + 1), indexing="ij")
    second = np.outer(p1b, p2b)

    def sign_ok(diff, outcome):
        if outcome is Outcome.HOME:
            return diff > 0
        if outcome is Outcome.AWAY:
            return diff < 0
        return diff == 0

    total = 0.0
    for i in range(cap + 1):
        k1 = state.home_goals + i
        for j in range(cap + 1):
            k2 = state.away_goals + j
            if not sign_ok(k1 - k2, ht):
                continue
            weight = p1a[i] * p2a[j]
            if weight < 1e-18:
                continue
            mask = sign_ok((k1 + l1g) - (k2 + l2g), ft)
            total += weight * float(second[mask].sum())
    return total


class TestHalfTimeFullTime:
    LAM = Intensities(1.2, 0.8)

    def test_worthless_after_losing_the_half(self):
        res = price(
            Bet.ht_ft(Outcome.HOME, Outcome.DRAW), ScoreState(1, 1, 0.6), self.LAM, ht_score=(0, 1)
        )
        assert res.value == 0.0

    def test_becomes_the_full_time_bet_after_winning_the_half(self):
        state = ScoreState(1, 1, 0.6)
        res = price(Bet.ht_ft(Outcome.HOME, Outcome.DRAW), state, self.LAM, ht_score=(1, 0))
        expected = price_european(MATCH_ODDS_DRAW, state, self.LAM).value
        assert res.value == expected

    def test_requires_half_time_score_in_second_half(self):
        with pytest.raises(ValueError, match="half-time score"):
            price(Bet.ht_ft(Outcome.HOME, Outcome.DRAW), ScoreState(1, 1, 0.6), self.LAM)

    def test_frozen_value_before_half(self):
        res = price(Bet.ht_ft(Outcome.HOME, Outcome.HOME), ScoreState(0, 0, 0.0), self.LAM)
        assert res.value == pytest.approx(0.28355440213845772, abs=1e-10)

    @pytest.mark.parametrize("ht", list(Outcome))
    @pytest.mark.parametrize("ft", list(Outcome))
    def test_matches_two_stage_enumeration(self, ht, ft):
        state = ScoreState(1, 0, 0.2)
        got = price(Bet.ht_ft(ht, ft), state, self.LAM).value
        want = ht_ft_two_stage_oracle(ht, ft, state, self.LAM, half_clock=0.5)
        assert got == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize(
        "state, lam",
        [
            (ScoreState(9, 0, 0.49), Intensities(1, 1)),
            (ScoreState(8, 0, 0.4), Intensities(0.5, 0.5)),
        ],
    )
    def test_far_tail_keeps_relative_accuracy(self, state, lam):
        # Values of order 1e-10 and 1e-11: the full-time leg sums the small
        # probabilities themselves, never 1 minus a near-1 sum.
        got = price(Bet.ht_ft(Outcome.HOME, Outcome.AWAY), state, lam).value
        want = ht_ft_two_stage_oracle(Outcome.HOME, Outcome.AWAY, state, lam, half_clock=0.5)
        assert 0.0 < want < 1e-9
        assert got == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_nine_way_partition(self):
        state = ScoreState(0, 0, 0.1)
        total = sum(
            price(Bet.ht_ft(ht, ft), state, self.LAM).value for ht in Outcome for ft in Outcome
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "bet", [Bet.ht_ft(ht, ft) for ht in Outcome for ft in Outcome] + [Bet.under(2.5)]
    )
    @pytest.mark.parametrize("clock", [0.0, 0.3, 0.5 - 1e-5])
    def test_half_time_score_is_ignored_before_half_time(self, bet, clock):
        # The hedge replay passes the match's half-time score to every bet at
        # every clock; before half time it must change nothing.
        state = ScoreState(1, 0, clock)
        for route in (price, greeks):
            assert route(bet, state, self.LAM, 0.5, None) == route(
                bet, state, self.LAM, 0.5, (3, 1)
            )


# Grid deltas against the bumped-score prices: every calibration bet, the
# parity and extreme margin/total bets, and HT/FT before half time (no
# half-time score) and after it with the half-time leg won and lost.
_HT_WON = {Outcome.HOME: (1, 0), Outcome.DRAW: (0, 0), Outcome.AWAY: (0, 1)}
_HT_LOST = {Outcome.HOME: (0, 0), Outcome.DRAW: (0, 1), Outcome.AWAY: (1, 0)}
DELTA_CASES = [
    (bet, None)
    for bet in calibration_catalogue()
    + [ODD_TOTAL, EVEN_TOTAL, Bet.winning_margin(7), Bet.winning_margin(-7)]
    + [Bet.over(20.5), Bet.under(20.5)]
] + [
    (Bet.ht_ft(ht, ft), ht_score)
    for ht in Outcome
    for ft in Outcome
    for ht_score in (None, _HT_WON[ht], _HT_LOST[ht])
]
DELTA_LAMBDAS = [
    Intensities(1.3, 0.7),
    Intensities(0.0, 2.5),
    Intensities(0.05, 4.0),
    Intensities(20.0, 20.0),
    Intensities(20.0, 0.1),
]
DELTA_SCORES = [(0, 0), (1, 2), (3, 1), (15, 0)]
DELTA_CLOCKS = [0.0, 0.3, 0.5 - 1e-5, 0.5, 0.8, 1.0 - 1e-12, 1.0]


class TestGreeks:
    def test_goal_kills_under_half_line(self):
        lam = Intensities(1.0, 1.0)
        g = greeks(Bet.under(0.5), ScoreState(0, 0, 0.0), lam)
        value = price_european(Bet.under(0.5), ScoreState(0, 0, 0.0), lam).value
        assert value == pytest.approx(math.exp(-2.0), rel=1e-12)
        assert g.delta_home == pytest.approx(-value, rel=1e-12)
        assert g.delta_away == pytest.approx(-value, rel=1e-12)

    def test_goal_kills_current_correct_score(self):
        lam = Intensities(1.3, 0.7)
        base = price_european(Bet.correct_score(0, 0), ScoreState(0, 0, 0.2), lam).value
        g = greeks(Bet.correct_score(0, 0), ScoreState(0, 0, 0.2), lam)
        assert g.delta_home == pytest.approx(-base, rel=1e-12)

    @pytest.mark.parametrize(
        "bet,ht_score", DELTA_CASES, ids=[f"{b}-{s}" for b, s in DELTA_CASES]
    )
    def test_deltas_match_enumeration_oracle(self, bet, ht_score):
        # A delta is the value change at the bumped score: checked against the
        # extended-precision enumeration on one state, then against `price`
        # at the bumped and current scores to 1e-12 over the whole grid.
        if bet.european:
            lam = Intensities(1.2, 0.8)
            state = ScoreState(0, 0, 0.3)
            g = greeks(bet, state, lam)
            cap = 60

            def value(s):
                return enumerate_price(payoff_grid(bet, s, cap), s, lam, cap)

            d1 = value(state.with_goal(Team.HOME)) - value(state)
            d2 = value(state.with_goal(Team.AWAY)) - value(state)
            assert g.delta_home == pytest.approx(d1, abs=1e-10)
            assert g.delta_away == pytest.approx(d2, abs=1e-10)

        clocks = DELTA_CLOCKS
        if bet.kind is BetKind.HT_FT:
            clocks = [tau for tau in DELTA_CLOCKS if (tau < 0.5) == (ht_score is None)]
        for lam in DELTA_LAMBDAS:
            for h, a in DELTA_SCORES:
                for tau in clocks:
                    state = ScoreState(h, a, tau)
                    g = greeks(bet, state, lam, 0.5, ht_score)
                    base = price(bet, state, lam, 0.5, ht_score).value
                    for team, delta in ((Team.HOME, g.delta_home), (Team.AWAY, g.delta_away)):
                        up = price(bet, state.with_goal(team), lam, 0.5, ht_score).value
                        assert abs(delta - (up - base)) <= 1e-12, (lam, state, team)

    def test_next_goal_deltas_are_settlements(self):
        lam = Intensities(1.0, 1.0)
        z = price(NEXT_GOAL_HOME, ScoreState(0, 0, 0.0), lam).value
        g = greeks(NEXT_GOAL_HOME, ScoreState(0, 0, 0.0), lam)
        assert g.delta_home == pytest.approx(1.0 - z, rel=1e-12)
        assert g.delta_away == pytest.approx(-z, rel=1e-12)


# Segments for the batched deltas: increasing clocks, so the first clock's
# caps are the widest; HT/FT stays on one side of half time.
PRE_HALF_CLOCKS = [0.0, 0.1, 0.3, 0.45, 0.5 - 1e-5, 0.5 - 1e-12]
POST_HALF_CLOCKS = [0.5, 0.5 + 1e-12, 0.7, 0.9, 1.0 - 1e-6, 1.0 - 1e-12, 1.0]
SEGMENT_LAMBDAS = [
    Intensities(1.3, 0.7),
    Intensities(0.0, 2.5),
    Intensities(0.0, 0.0),
    Intensities(20.0, 20.0),
    Intensities(20.0, 0.1),
]
SEGMENT_SCORES = [(0, 0), (3, 1), (2, 5), (6, 6)]
SEGMENT_CASES = DELTA_CASES + [(NEXT_GOAL_HOME, None), (NEXT_GOAL_AWAY, None)]


class TestSegmentGreeks:
    @pytest.mark.parametrize(
        "bet,ht_score", SEGMENT_CASES, ids=[f"{b}-{s}" for b, s in SEGMENT_CASES]
    )
    def test_batched_deltas_equal_scalar_greeks(self, bet, ht_score):
        segments = [PRE_HALF_CLOCKS + POST_HALF_CLOCKS, POST_HALF_CLOCKS[-3:]]
        if bet.kind is BetKind.HT_FT:
            side = PRE_HALF_CLOCKS if ht_score is None else POST_HALF_CLOCKS
            segments = [side, side[-2:]]
        for score in SEGMENT_SCORES:
            for clocks in segments:
                # One Intensities for every clock, the same as (T x 2) rows,
                # and rows cycling through the lambdas in both directions.
                n = len(clocks)
                cycle = [SEGMENT_LAMBDAS[i % len(SEGMENT_LAMBDAS)] for i in range(n)]
                cases = [(lam, [lam] * n) for lam in SEGMENT_LAMBDAS]
                for rows in [*(r for _, r in cases), cycle, cycle[::-1]]:
                    cases.append((np.array([(r.home, r.away) for r in rows]), rows))
                for lam, rows in cases:
                    d1, d2, theta = pricing.segment_greeks(bet, score, lam, clocks, 0.5, ht_score)
                    assert d1.shape == d2.shape == theta.shape == (n,)
                    assert not np.isnan([d1, d2, theta]).any()
                    for row, tau, b1, b2, th in zip(rows, clocks, d1, d2, theta):
                        g = greeks(bet, ScoreState(*score, tau), row, 0.5, ht_score)
                        where = (row, score, tau)
                        assert abs(b1 - g.delta_home) <= 1e-12, where
                        assert abs(b2 - g.delta_away) <= 1e-12, where
                        # theta = -(lam . delta), so its bound scales with lam.
                        assert abs(th - g.theta) <= 1e-12 * max(1.0, row.total), where
                        if th == 0.0 or g.theta == 0.0:
                            assert math.copysign(1.0, th) == math.copysign(1.0, g.theta) == 1.0

    def test_ht_ft_clocks_must_stay_on_one_side_of_half_time(self):
        bet = Bet.ht_ft(Outcome.HOME, Outcome.DRAW)
        with pytest.raises(ValueError, match="one side of half time"):
            pricing.segment_greeks(bet, (1, 0), Intensities(1.3, 0.7), [0.4, 0.5], 0.5, (1, 0))

    @pytest.mark.parametrize("clocks", [[], [0.2, 1.5], [[0.2]], [-0.1, 0.3]])
    def test_rejects_bad_clocks(self, clocks):
        with pytest.raises(ValueError):
            pricing.segment_greeks(MATCH_ODDS_HOME, (0, 0), Intensities(1.3, 0.7), clocks)

    @pytest.mark.parametrize(
        "lam",
        [
            [1.3, 0.7],
            [[1.3, 0.7]],
            [[1.3, 0.7, 0.1]] * 2,
            [[1.3, 0.7]] * 3,
            [[1.3, 0.7], [-0.1, 0.7]],
            [[1.3, 0.7], [1.3, math.nan]],
            [[math.inf, 0.7], [1.3, 0.7]],
        ],
    )
    @pytest.mark.parametrize(
        "bet", [MATCH_ODDS_HOME, NEXT_GOAL_AWAY, Bet.ht_ft(Outcome.HOME, Outcome.DRAW)]
    )
    def test_rejects_bad_intensity_rows(self, lam, bet):
        # Two clocks, so an intensity array must be (2 x 2), finite and >= 0.
        with pytest.raises(ValueError, match="intensities"):
            pricing.segment_greeks(bet, (0, 0), lam, [0.2, 0.3])


class TestKolmogorov:
    @pytest.mark.parametrize("bet", EURO_BETS)
    def test_residual_small_on_interior_states(self, bet):
        lam = Intensities(1.7, 0.9)
        for tau in (0.0, 0.3, 0.8):
            res = kolmogorov_residual(bet, ScoreState(1, 1, tau), lam)
            assert abs(res) <= 1e-6

    def test_frozen_game_has_zero_theta(self):
        g = greeks(MATCH_ODDS_DRAW, ScoreState(1, 1, 0.5), Intensities(0.0, 0.0))
        assert g.theta == 0.0
        res = kolmogorov_residual(MATCH_ODDS_DRAW, ScoreState(1, 1, 0.5), Intensities(0.0, 0.0))
        assert res == 0.0

    def test_delta_neutral_portfolio_is_theta_neutral(self):
        # Long Over 2.5, short its Next Goal replication: no time drift.
        lam = Intensities(1.2, 0.8)
        state = ScoreState(0, 0, 0.3)
        target = greeks(Bet.over(2.5), state, lam)
        z1 = price(NEXT_GOAL_HOME, state, lam).value
        z2 = price(NEXT_GOAL_AWAY, state, lam).value
        w = solve_replication_weights(target, next_goal_delta_matrix(z1, z2))
        theta_z1 = greeks(NEXT_GOAL_HOME, state, lam).theta
        theta_z2 = greeks(NEXT_GOAL_AWAY, state, lam).theta
        portfolio_theta = target.theta - w.psi1 * theta_z1 - w.psi2 * theta_z2
        assert abs(portfolio_theta) <= 1e-6

    def test_rejects_non_european(self):
        with pytest.raises(NonEuropeanBetError):
            kolmogorov_residual(NEXT_GOAL_HOME, ScoreState(0, 0, 0.0), Intensities(1, 1))


# Criterion 4's grid (test_acceptance): intensities x scores x clocks.
THETA_LAMBDAS = [0.1, 0.5, 1.0, 2.0, 5.0]
THETA_SCORES = [(h, a) for h in range(5) for a in range(5)]
THETA_CLOCKS = [0.0, 0.25, 0.5, 0.9]
HT_FT_CLOCKS = [0.0, 0.3, 0.5 - 1e-5, 0.5, 0.5 + 1e-5, 0.8, 1.0 - 1e-5]


class TestAnalyticTheta:
    def test_matches_finite_difference_on_criterion_4_grid(self):
        worst = 0.0
        for l1 in THETA_LAMBDAS:
            for l2 in THETA_LAMBDAS:
                lam = Intensities(l1, l2)
                for h, a in THETA_SCORES:
                    for tau in THETA_CLOCKS:
                        state = ScoreState(h, a, tau)
                        for bet in EURO_BETS:
                            diff = greeks(bet, state, lam).theta - theta_fd(bet, state, lam)
                            worst = max(worst, abs(diff))
        assert worst <= 1e-6

    @pytest.mark.parametrize("ht", list(Outcome))
    @pytest.mark.parametrize("ft", list(Outcome))
    def test_ht_ft_matches_finite_difference_across_half_time(self, ht, ft):
        bet = Bet.ht_ft(ht, ft)
        for lam in (Intensities(1.3, 0.7), Intensities(2.5, 0.4)):
            for tau in HT_FT_CLOCKS:
                # After half time the half-time score is fixed; (1, 1) is
                # reachable from each of these.
                ht_scores = [None] if tau < 0.5 else [(1, 0), (1, 1), (0, 1)]
                for ht_score in ht_scores:
                    state = ScoreState(1, 1, tau)
                    g = greeks(bet, state, lam, 0.5, ht_score)
                    fd = theta_fd(bet, state, lam, 0.5, ht_score)
                    assert abs(g.theta - fd) <= 1e-6, (tau, ht_score)

    @pytest.mark.parametrize("tau", [0.0, 0.4, 0.999, 1.0])
    def test_next_goal_theta_is_closed_form(self, tau):
        lam = Intensities(1.4, 0.6)
        decay = math.exp(-lam.total * (1.0 - tau))
        state = ScoreState(2, 1, tau)
        assert greeks(NEXT_GOAL_HOME, state, lam).theta == pytest.approx(
            -lam.home * decay, abs=1e-14
        )
        assert greeks(NEXT_GOAL_AWAY, state, lam).theta == pytest.approx(
            -lam.away * decay, abs=1e-14
        )

    @pytest.mark.parametrize("bet", [NEXT_GOAL_HOME, NEXT_GOAL_AWAY])
    def test_a_next_goal_bets_zero_deltas_are_positive_zeros(self, bet):
        # Worth 0, the bet's losing-side delta is 0 - 0, never -0.0.
        own_zero = Intensities(0.0, 0.7) if bet is NEXT_GOAL_HOME else Intensities(0.7, 0.0)
        for state, lam in ((ScoreState(0, 0, 1 / 3), own_zero),
                           (ScoreState(0, 0, 1.0), Intensities(1.0, 0.7))):
            g = greeks(bet, state, lam)
            zeros = [d for d in (g.delta_home, g.delta_away) if d == 0.0]
            assert len(zeros) == 1 and math.copysign(1.0, zeros[0]) == 1.0, (state, lam)

    @pytest.mark.parametrize(
        "bet", [MATCH_ODDS_HOME, Bet.over(2.5), NEXT_GOAL_HOME, Bet.ht_ft(Outcome.DRAW, Outcome.DRAW)]
    )
    def test_zero_intensities_give_exactly_zero(self, bet):
        g = greeks(bet, ScoreState(1, 1, 0.3), Intensities(0.0, 0.0))
        assert g.theta == 0.0
        assert math.copysign(1.0, g.theta) == 1.0

    @pytest.mark.parametrize(
        "bet,state,ht_score",
        [
            (MATCH_ODDS_HOME, ScoreState(0, 0, 0.3), None),
            (Bet.over(2.5), ScoreState(1, 0, 0.7), None),
            (Bet.ht_ft(Outcome.HOME, Outcome.DRAW), ScoreState(0, 0, 0.3), None),
            (Bet.ht_ft(Outcome.HOME, Outcome.DRAW), ScoreState(1, 0, 0.7), (1, 0)),
            (NEXT_GOAL_HOME, ScoreState(0, 0, 0.3), None),
            (NEXT_GOAL_AWAY, ScoreState(0, 0, 0.3), None),
        ],
    )
    def test_greeks_never_reprice_the_clock(self, monkeypatch, bet, state, ht_score):
        # Next Goal deltas are closed-form arrays too, so no bet calls price.
        seen = []
        real_price = pricing.price

        def counting_price(bet, state, *args, **kwargs):
            seen.append(state)
            return real_price(bet, state, *args, **kwargs)

        monkeypatch.setattr(pricing, "price", counting_price)
        greeks(bet, state, Intensities(1.3, 0.7), 0.5, ht_score)
        assert seen == []


class TestIntensitySensitivity:
    def test_zero_at_the_whistle(self):
        s = intensity_sensitivity(MATCH_ODDS_HOME, ScoreState(0, 0, 1.0), Intensities(1, 1))
        assert s == (0.0, 0.0)

    def test_under_half_line_analytic(self):
        # V = exp(-(l1+l2)(1-tau)); dV/dl_i = -(1-tau) V
        lam = Intensities(1.0, 1.0)
        s = intensity_sensitivity(Bet.under(0.5), ScoreState(0, 0, 0.0), lam)
        assert s[0] == pytest.approx(-math.exp(-2.0), rel=1e-12)
        assert s[1] == pytest.approx(-math.exp(-2.0), rel=1e-12)

    @pytest.mark.parametrize("bet", [MATCH_ODDS_HOME, Bet.over(2.5), Bet.winning_margin(1)])
    def test_matches_finite_difference(self, bet):
        lam = Intensities(1.2, 0.8)
        state = ScoreState(0, 0, 0.3)
        s = intensity_sensitivity(bet, state, lam)
        h = 1e-5
        for i in range(2):
            up = [lam.home, lam.away]
            dn = [lam.home, lam.away]
            up[i] += h
            dn[i] -= h
            fd = (
                price_european(bet, state, Intensities(*up)).value
                - price_european(bet, state, Intensities(*dn)).value
            ) / (2 * h)
            assert s[i] == pytest.approx(fd, abs=1e-6)


class TestEuropeanBoard:
    @pytest.mark.parametrize("score", [(0, 0), (1, 2), (3, 3)])
    @pytest.mark.parametrize("tau", [0.0, 0.25, 0.5, 0.9])
    def test_matches_closed_form_and_sensitivities(self, score, tau):
        bets = calibration_catalogue()
        state = ScoreState(score[0], score[1], tau)
        board = EuropeanBoard(bets)
        grid = [Intensities(l1, l2) for l1 in [0.1, 0.5, 1.0, 2.0, 5.0] for l2 in [0.1, 0.5, 1.0, 2.0, 5.0]]
        out = board.evaluate([[lam.home, lam.away] for lam in grid], [tau] * len(grid), score)
        assert out.values.shape == (len(grid), len(bets))
        assert out.jacobian.shape == (len(grid), len(bets), 2)
        assert out.truncation_bound < 1e-12
        for values, jacobian, lam in zip(out.values, out.jacobian, grid):
            expected = [price_closed_form(b, state, lam).value for b in bets]
            sens = [intensity_sensitivity(b, state, lam) for b in bets]
            assert np.max(np.abs(values - expected)) <= 1e-10
            assert np.max(np.abs(jacobian - sens)) <= 1e-10

    def test_masks_follow_the_grid_caps(self):
        # lam = 20 needs a wider grid than the floor of 25 goals; going back
        # must rebuild the narrow masks, not reuse the wide ones.
        bets = calibration_catalogue()
        state = ScoreState(1, 0, 0.1)
        board = EuropeanBoard(bets)
        for lam in [Intensities(0.5, 0.5), Intensities(20.0, 0.1), Intensities(0.5, 0.5)]:
            fresh = EuropeanBoard(bets).evaluate([[lam.home, lam.away]], [0.1], (1, 0))
            out = board.evaluate([[lam.home, lam.away]], [0.1], (1, 0))
            assert np.array_equal(out.values, fresh.values)
            assert np.array_equal(out.jacobian, fresh.jacobian)
            expected = [price_european(b, state, lam).value for b in bets]
            assert np.max(np.abs(out.values[0] - expected)) <= 1e-12

    def test_masks_are_slices_of_one_grid_from_nil_nil(self):
        # Scores up to 9-9 and caps from 25 to 40, in an order that makes the
        # cached grid grow more than once: each slice equals the stack the
        # board's payoffs give at that score, bit for bit.
        bets = calibration_catalogue()
        board = EuropeanBoard(bets)
        keys = [(h, a, 25 + (7 * h + a) % 16, 25 + (5 * a + h) % 16)
                for h in range(10) for a in range(10)]
        for h, a, n1, n2 in sorted(keys, key=lambda k: (k[0] * 7 + k[1] * 3) % 11):
            grid = (h + np.arange(n1)[:, None], a + np.arange(n2)[None, :])
            want = np.array([contracts.payoff_grid(b, *grid) for b in bets], dtype=float)
            got = board._masks_for(h, a, n1, n2)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert board._grid.shape == (len(bets), 9 + 40, 9 + 40)

    def test_snapshots_share_the_widest_cap(self):
        # The clocks and intensities of a segment's snapshots differ; each
        # row prices as the snapshot would alone, with the widest cap.
        bets = calibration_catalogue()
        lams = [Intensities(1.3, 0.7), Intensities(20.0, 0.1), Intensities(0.2, 4.0)]
        clocks = [0.0, 0.3, 0.95]
        out = EuropeanBoard(bets).evaluate([[l.home, l.away] for l in lams], clocks, (2, 1))
        for row, lam, clock in zip(out.values, lams, clocks):
            expected = [price_european(b, ScoreState(2, 1, clock), lam).value for b in bets]
            assert np.max(np.abs(row - expected)) <= 1e-12
        assert 0.0 < out.truncation_bound < 1e-12

    def test_rejects_path_dependent_bets(self):
        with pytest.raises(NonEuropeanBetError):
            EuropeanBoard([MATCH_ODDS_HOME, NEXT_GOAL_HOME])

    @pytest.mark.parametrize("tau", [0.0, 0.5, 0.9])
    def test_mixed_scores_price_as_one_score_boards(self, tau):
        # Rows cycle through the scores, so runs of equal score are short and
        # a score comes back after others; every score has the same
        # intensity rows, so every board has the same caps.
        bets = calibration_catalogue()
        scores = [(0, 0), (1, 2), (3, 3)]
        lams = [[0.2, 4.0], [1.3, 0.7], [1.3, 0.7], [5.0, 0.1]]
        rows = [(score, lam) for lam in lams for score in scores for _ in range(2)]
        row_scores = np.array([score for score, _ in rows])
        row_lams = np.array([lam for _, lam in rows])
        out = EuropeanBoard(bets).evaluate(row_lams, [tau] * len(rows), row_scores)
        for score in scores:
            mine = (row_scores == score).all(axis=1)
            one = EuropeanBoard(bets).evaluate(row_lams[mine], [tau] * mine.sum(), score)
            assert np.max(np.abs(out.values[mine] - one.values)) <= 1e-14
            assert np.max(np.abs(out.jacobian[mine] - one.jacobian)) <= 1e-14

    def test_an_unquoted_bet_leaves_the_other_columns_alone(self):
        bets = calibration_catalogue()
        lams, clocks = [[1.3, 0.7], [0.4, 2.0], [1.3, 0.7], [2.5, 1.1]], [0.1, 0.2, 0.3, 0.4]
        scores = [(0, 0), (0, 0), (1, 2), (1, 2)]
        full = EuropeanBoard(bets).evaluate(lams, clocks, scores)
        quoted = np.ones((4, len(bets)), dtype=bool)
        quoted[:2, 5] = False  # quoted in neither row of the first run
        quoted[2, 7] = False  # quoted in one row of the second run
        part = EuropeanBoard(bets).evaluate(lams, clocks, scores, quoted)
        kept = np.ones_like(quoted)
        kept[:2, 5] = False
        assert np.max(np.abs(part.values - full.values)[kept]) <= 1e-15
        assert np.max(np.abs(part.jacobian - full.jacobian)[kept]) <= 1e-15
        assert not part.values[:2, 5].any() and not part.jacobian[:2, 5].any()


class TestStaticReplication:
    LAM = Intensities(1.1, 0.9)
    STATE = ScoreState(0, 0, 0.25)

    def ad_prices(self, cap=30):
        out = {}
        for h in range(self.STATE.home_goals, self.STATE.home_goals + cap + 1):
            for a in range(self.STATE.away_goals, self.STATE.away_goals + cap + 1):
                out[(h, a)] = price_closed_form(
                    Bet.correct_score(h, a), self.STATE, self.LAM
                ).value
        return out

    def test_certainty_sums_to_one_minus_truncation(self):
        ad = self.ad_prices()
        total = static_replication({k: 1.0 for k in ad}, ad)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_basis_vector(self):
        ad = self.ad_prices()
        assert static_replication({(1, 0): 1.0}, ad) == ad[(1, 0)]

    def test_match_odds_replication(self):
        ad = self.ad_prices()
        table = {k: float(payoff(MATCH_ODDS_HOME, *k)) for k in ad}
        direct = price_european(MATCH_ODDS_HOME, self.STATE, self.LAM).value
        assert static_replication(table, ad) == pytest.approx(direct, abs=1e-10)

    def test_missing_price_is_an_error(self):
        with pytest.raises(ValueError, match="missing correct-score price"):
            static_replication({(1, 0): 1.0}, {})


class TestDispatcher:
    def test_routes_every_kind(self):
        lam = Intensities(1.2, 0.8)
        state = ScoreState(0, 0, 0.2)
        assert price(MATCH_ODDS_HOME, state, lam).value == pytest.approx(
            price_closed_form(MATCH_ODDS_HOME, state, lam).value
        )
        # Next Goal: lam_team / total * (1 - exp(-total * (1 - tau))).
        for bet, own in ((NEXT_GOAL_HOME, 1.2), (NEXT_GOAL_AWAY, 0.8)):
            assert price(bet, state, lam).value == pytest.approx(
                own / 2.0 * (1.0 - math.exp(-2.0 * 0.8))
            )
        bet = Bet.ht_ft(Outcome.HOME, Outcome.HOME)
        assert price(bet, state, lam).value == pytest.approx(
            ht_ft_two_stage_oracle(Outcome.HOME, Outcome.HOME, state, lam, half_clock=0.5)
        )
