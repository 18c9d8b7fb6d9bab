"""Tests for the bet catalogue, payoffs and odds conversions."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    Quote,
    ScoreState,
    format_bet,
    parse_bet,
    payoff,
    payoff_grid,
    value_from_decimal,
    value_from_fractional,
)
from inplay.contracts import _PARAMETERS
from inplay.synthetic import calibration_catalogue

finals = st.tuples(st.integers(0, 12), st.integers(0, 12))

# The 31-bet catalogue, parity, margins -3..3 and every total line to 20.5.
TABLE_BETS = list(
    dict.fromkeys(
        [
            *calibration_catalogue(),
            ODD_TOTAL,
            EVEN_TOTAL,
            *(Bet.winning_margin(k) for k in range(-3, 4)),
            *(Bet.over(x + 0.5) for x in range(21)),
            *(Bet.under(x + 0.5) for x in range(21)),
        ]
    )
)

# One valid value per parameter field, and bets of every kind drawn from
# values of each field.
FIELD_SAMPLES = {
    "score": (2, 1),
    "line": 2.5,
    "margin": -1,
    "half_time": Outcome.HOME,
    "full_time": Outcome.DRAW,
}
FIELD_VALUES = {
    "score": st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
    "line": st.integers(0, 2**52 - 1).map(lambda x: x + 0.5),
    "margin": st.integers(-(10**6), 10**6),
    "half_time": st.sampled_from(Outcome),
    "full_time": st.sampled_from(Outcome),
}
BETS = st.sampled_from(BetKind).flatmap(
    lambda kind: st.fixed_dictionaries(
        {f: FIELD_VALUES[f] for f in _PARAMETERS.get(kind, ())}
    ).map(lambda fields: Bet(kind, **fields))
)


class TestOddsConversions:
    @pytest.mark.parametrize("decimal,value", [(2.0, 0.5), (1.0, 1.0), (4.0, 0.25)])
    def test_decimal(self, decimal, value):
        assert value_from_decimal(decimal) == value

    @pytest.mark.parametrize("frac,value", [(1.0, 0.5), (0.0, 1.0), (3.0, 0.25)])
    def test_fractional(self, frac, value):
        assert value_from_fractional(frac) == value

    def test_arbitrageable_decimal_rejected(self):
        with pytest.raises(ValueError):
            value_from_decimal(0.99)

    def test_negative_fractional_rejected(self):
        with pytest.raises(ValueError):
            value_from_fractional(-0.1)

    @given(v=st.floats(min_value=1e-6, max_value=1.0))
    def test_decimal_round_trip(self, v):
        assert value_from_decimal(1.0 / v) == pytest.approx(v, rel=1e-12)


class TestPayoffs:
    def test_home_win_indicator(self):
        assert payoff(MATCH_ODDS_HOME, 2, 1) == 1
        assert payoff(MATCH_ODDS_HOME, 1, 1) == 0

    def test_under_includes_the_line_total(self):
        # Under 2.5 pays when the total is at most 2
        assert payoff(Bet.under(2.5), 1, 1) == 1
        assert payoff(Bet.under(2.5), 2, 1) == 0

    def test_margin_zero_is_a_draw(self):
        assert payoff(Bet.winning_margin(0), 3, 3) == 1

    def test_path_dependent_bets_have_no_terminal_payoff(self):
        for bet in (NEXT_GOAL_HOME, NEXT_GOAL_AWAY, Bet.ht_ft(Outcome.HOME, Outcome.DRAW)):
            with pytest.raises(NonEuropeanBetError):
                payoff(bet, 1, 0)

    def test_table_bets_cover_every_european_kind(self):
        # Every kind but the Next Goal pair and HT_FT, which are path-dependent.
        european = [
            "MATCH_ODDS_HOME", "MATCH_ODDS_AWAY", "MATCH_ODDS_DRAW", "CORRECT_SCORE",
            "OVER", "UNDER", "ODD", "EVEN", "WINNING_MARGIN",
        ]
        assert {b.kind for b in TABLE_BETS} == set(map(BetKind, european))
        assert all(b.european for b in TABLE_BETS)
        path_dependent = (NEXT_GOAL_HOME, NEXT_GOAL_AWAY, Bet.ht_ft(Outcome.HOME, Outcome.DRAW))
        assert not any(b.european for b in path_dependent)

    @pytest.mark.parametrize("bet", TABLE_BETS, ids=str)
    def test_array_form_equals_scalar_payoff(self, bet):
        grid = payoff_grid(bet, np.arange(16)[:, None], np.arange(16)[None, :])
        assert grid.shape == (16, 16)
        assert grid.astype(int).tolist() == [
            [payoff(bet, h, a) for a in range(16)] for h in range(16)
        ]

    @pytest.mark.parametrize("score", [(-1, 0), (0, -1), (-2, -3)])
    def test_scalar_payoff_rejects_a_negative_score(self, score):
        with pytest.raises(ValueError, match="nonnegative"):
            payoff(MATCH_ODDS_HOME, *score)

    @given(final=finals)
    def test_match_odds_partition(self, final):
        total = sum(
            payoff(b, *final) for b in (MATCH_ODDS_HOME, MATCH_ODDS_AWAY, MATCH_ODDS_DRAW)
        )
        assert total == 1

    @given(final=finals)
    def test_parity_partition(self, final):
        assert payoff(ODD_TOTAL, *final) + payoff(EVEN_TOTAL, *final) == 1

    @given(final=finals, x=st.integers(0, 12))
    def test_over_under_partition(self, final, x):
        line = x + 0.5
        assert payoff(Bet.over(line), *final) + payoff(Bet.under(line), *final) == 1

    @given(final=finals)
    def test_margin_partition(self, final):
        total = sum(payoff(Bet.winning_margin(k), *final) for k in range(-12, 13))
        assert total == 1

    @given(final=st.tuples(st.integers(0, 6), st.integers(0, 6)))
    def test_correct_score_partition_under_cap(self, final):
        cap = 6
        total = sum(
            payoff(Bet.correct_score(h, a), *final)
            for h in range(cap + 1)
            for a in range(cap + 1)
        )
        assert total == 1


ALL_TOKENS = [
    "MATCH_ODDS_HOME",
    "MATCH_ODDS_AWAY",
    "MATCH_ODDS_DRAW",
    "CORRECT_SCORE_2_1",
    "CORRECT_SCORE_0_0",
    "OVER_2_5",
    "UNDER_0_5",
    "UNDER_7_5",
    "ODD",
    "EVEN",
    "WINNING_MARGIN_-1",
    "WINNING_MARGIN_0",
    "WINNING_MARGIN_3",
    "NEXT_GOAL_HOME",
    "NEXT_GOAL_AWAY",
    "HT_FT_HOME_DRAW",
    "HT_FT_AWAY_AWAY",
]


class TestTokens:
    @pytest.mark.parametrize("token", ALL_TOKENS)
    def test_round_trip(self, token):
        assert format_bet(parse_bet(token)) == token

    def test_case_insensitive(self):
        assert parse_bet("match_odds_home") == MATCH_ODDS_HOME
        assert parse_bet("under_2_5") == Bet.under(2.5)
        assert parse_bet(" UNDER_2_5 ") == Bet.under(2.5)  # surrounding blanks too

    # After the first seven, numbers spelled otherwise than format_bet writes
    # them: a sign, a non-ASCII digit, a leading zero, an inner blank, a line
    # beyond float.
    @pytest.mark.parametrize(
        "bad",
        ["", "MATCH_ODDS", "OVER_2", "OVER_2_4", "CORRECT_SCORE_X_1", "HT_FT_HOME", "NOPE",
         "CORRECT_SCORE_+1_0", "OVER_\u0662_5", "OVER_02_5", "WINNING_MARGIN_+1",
         "CORRECT_SCORE_1_ 0", "WINNING_MARGIN_-0",
         pytest.param("UNDER_" + "9" * 400 + "_5", id="UNDER_9...9_5")],
    )
    def test_bad_tokens_rejected(self, bad):
        with pytest.raises(ValueError, match="unrecognised bet token"):
            parse_bet(bad)

    @given(bet=BETS)
    def test_every_bet_round_trips(self, bet):
        assert parse_bet(format_bet(bet)) == bet
        assert parse_bet(format_bet(bet).lower()) == bet

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            Bet.correct_score(-1, 0)
        with pytest.raises(ValueError):
            Bet.over(2.0)
        with pytest.raises(ValueError):
            Bet.under(-0.5)

    @pytest.mark.parametrize("line", [math.inf, math.nan, 2.0**60])
    def test_a_line_with_no_half_is_rejected(self, line):
        with pytest.raises(ValueError, match=r"line must be X\.5 with X >= 0"):
            Bet.over(line)


class TestParameterFields:
    @pytest.mark.parametrize("kind", BetKind)
    def test_each_kind_constructs_with_exactly_its_fields(self, kind):
        assert Bet(kind, **{f: FIELD_SAMPLES[f] for f in _PARAMETERS.get(kind, ())}).kind is kind

    @pytest.mark.parametrize("field", FIELD_SAMPLES)
    @pytest.mark.parametrize("kind", BetKind)
    def test_a_missing_or_extra_field_is_rejected(self, kind, field):
        fields = {f: FIELD_SAMPLES[f] for f in _PARAMETERS.get(kind, ())}
        if field in fields:
            del fields[field]
            want = f"^{kind.value} needs {field}$"
        else:
            fields[field] = FIELD_SAMPLES[field]
            want = f"^{kind.value} takes no {field}$"
        with pytest.raises(ValueError, match=want):
            Bet(kind, **fields)


    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(kind=BetKind.WINNING_MARGIN, margin=1.5), "margin must be int"),
            (dict(kind=BetKind.WINNING_MARGIN, margin=True), "margin must be int"),
            (dict(kind=BetKind.CORRECT_SCORE, score=(1.0, 0)), "score must be two ints"),
            (dict(kind=BetKind.CORRECT_SCORE, score=(1, False)), "score must be two ints"),
            (dict(kind=BetKind.CORRECT_SCORE, score=(1, 0, 0)), "score must be two ints"),
            (dict(kind=BetKind.CORRECT_SCORE, score=[1, 0]), "score must be tuple"),
            (dict(kind=BetKind.HT_FT, half_time="HOME", full_time=Outcome.DRAW),
             "half_time must be Outcome"),
            (dict(kind=BetKind.HT_FT, half_time=Outcome.HOME, full_time="DRAW"),
             "full_time must be Outcome"),
        ],
    )
    def test_a_field_of_the_wrong_type_is_rejected(self, fields, message):
        # Such a bet would price ("h - a == 1.5" never holds) and format as a
        # token parse_bet rejects, or fail later with no useful message.
        with pytest.raises(ValueError, match=f"^{message}"):
            Bet(**fields)

    def test_the_factories_still_convert_their_arguments(self):
        assert Bet.winning_margin(np.int64(2)) == Bet(BetKind.WINNING_MARGIN, margin=2)
        assert Bet.correct_score(np.int64(1), 0.0) == Bet(BetKind.CORRECT_SCORE, score=(1, 0))
        assert Bet.over(np.float32(2.5)) == Bet(BetKind.OVER, line=2.5)


class TestStateAndIntensities:
    def test_clock_bounds(self):
        with pytest.raises(ValueError):
            ScoreState(0, 0, -0.01)
        with pytest.raises(ValueError):
            ScoreState(0, 0, 1.01)

    def test_goals_nonnegative(self):
        with pytest.raises(ValueError):
            ScoreState(-1, 0, 0.5)

    @pytest.mark.parametrize("goals", [1.5, 2.0, np.float64(1.0), True, np.True_, "1"])
    @pytest.mark.parametrize("field", ["home_goals", "away_goals"])
    def test_goals_are_whole_numbers(self, goals, field):
        with pytest.raises(ValueError, match=field):
            ScoreState(**{"home_goals": 0, "away_goals": 0, field: goals}, clock=0.5)
        for whole in (2, np.int64(2), np.int32(2)):
            assert ScoreState(**{"home_goals": 0, "away_goals": 0, field: whole}, clock=0.5)

    def test_intensities_validated(self):
        with pytest.raises(ValueError):
            Intensities(-0.1, 1.0)
        with pytest.raises(ValueError):
            Intensities(float("nan"), 1.0)
        assert Intensities(1.2, 0.8).total == pytest.approx(2.0)


class TestQuote:
    def test_values_from_decimals(self):
        q = Quote.from_decimals(MATCH_ODDS_HOME, back=2.50, lay=2.54)
        assert q.value_buy == pytest.approx(0.4)
        assert q.value_sell == pytest.approx(0.39370078740157477)
        assert q.value_mid == pytest.approx(0.5 * (0.4 + 0.39370078740157477))
        assert q.spread == pytest.approx(0.4 - 0.39370078740157477)

    def test_one_sided_quote_has_no_mid(self):
        q = Quote.from_decimals(MATCH_ODDS_HOME, back=2.5, lay=None)
        assert not q.two_sided
        assert q.value_mid is None and q.spread is None

    def test_synthetic_quote_round_trip(self):
        q = Quote.from_values(MATCH_ODDS_DRAW, mid=0.3, spread=0.02)
        assert q.value_mid == pytest.approx(0.3)
        assert q.spread == pytest.approx(0.02)
        assert q.back_decimal == pytest.approx(1 / 0.31)

    def test_zero_spread_rejected_in_synthetic(self):
        with pytest.raises(ValueError):
            Quote.from_values(MATCH_ODDS_DRAW, mid=0.3, spread=0.0)
