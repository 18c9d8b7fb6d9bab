"""The risk-neutral tower law, exactly: a price is a conditional expectation.

For tau < tau', V(tau) = E_Q[V(tau') | score at tau], where each team's
goals in (tau, tau'] are independent Poisson counts with mean lam * (tau' -
tau).  The weights here come from ``distributions.poisson_pmf`` alone, not
from the pricer's own pmf rows.  HT/FT across half time runs in two stages,
to half time and then on, with the half-time score the score at half time.
A Next Goal bet follows the first-goal law: V(tau) = P[home scores first in
(tau, tau')] + P[no goal in (tau, tau')] * V(tau') for NEXT_GOAL_HOME.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inplay.contracts import (
    EVEN_TOTAL,
    MATCH_ODDS_AWAY,
    MATCH_ODDS_DRAW,
    MATCH_ODDS_HOME,
    NEXT_GOAL_AWAY,
    NEXT_GOAL_HOME,
    ODD_TOTAL,
    Bet,
    BetKind,
    Intensities,
    Outcome,
    ScoreState,
)
from inplay.distributions import poisson_pmf, poisson_tail
from inplay.pricing import price, price_european

HALF = 0.5

# Expected goals per transition, both teams together: it keeps the number of
# (home, away) goal counts to price small, while intensities reach 20.
MEAN = 1.5

# Goal counts past which less than _TAIL is left of a team's Poisson mass,
# and (home, away) goal counts whose joint weight is below _FLOOR, are left
# out; the mass left out is added to the tolerance.
_TAIL = 1e-17
_FLOOR = 1e-17

# From zero, subnormals included, to 20.
INTENSITY = st.floats(0.0, 20.0)

HT_FT_BETS = [Bet.ht_ft(h, f) for h in Outcome for f in Outcome]

BETS = {
    "match odds": st.sampled_from([MATCH_ODDS_HOME, MATCH_ODDS_DRAW, MATCH_ODDS_AWAY]),
    "correct score": st.builds(Bet.correct_score, st.integers(0, 12), st.integers(0, 12)),
    "over": st.builds(Bet.over, st.integers(0, 20).map(lambda n: n + 0.5)),
    "under": st.builds(Bet.under, st.integers(0, 20).map(lambda n: n + 0.5)),
    "winning margin": st.builds(Bet.winning_margin, st.integers(-6, 6)),
    "parity": st.sampled_from([ODD_TOTAL, EVEN_TOTAL]),
    "next goal": st.sampled_from([NEXT_GOAL_HOME, NEXT_GOAL_AWAY]),
}
CASES = [(name, None) for name in BETS] + [
    (bet, phase) for bet in HT_FT_BETS for phase in ("before", "across", "after")
]


def _goal_weights(lam: Intensities, dt: float) -> tuple[list[list[float]], float]:
    """Per team, the Poisson weights of 0, 1, ... goals in dt of match time,
    up to where less than _TAIL is left, and the two tails left out."""
    weights, left_out = [], 0.0
    for rate in (lam.home, lam.away):
        mean, n = rate * dt, 0
        while poisson_tail(n, mean) >= _TAIL:
            n += 1
        weights.append([poisson_pmf(k, mean) for k in range(n + 1)])
        left_out += poisson_tail(n, mean)
    return weights, left_out


def _expected(bet, lam, score, tau, tau2, ht_score, weight=1.0, prices=None) -> tuple:
    """(weight * E_Q[V(tau2) | score at tau], the probability mass left out
    of it, the largest truncation bound of the prices it sums)."""
    across = bet.kind is BetKind.HT_FT and tau < HALF <= tau2
    (home, away), tails = _goal_weights(lam, (HALF if across else tau2) - tau)
    prices = {} if prices is None else prices
    total, left_out, worst = 0.0, weight * tails, 0.0
    for i, p in enumerate(home):
        for j, q in enumerate(away):
            w = weight * p * q
            if w < _FLOOR:
                left_out += w
                continue
            later = (score[0] + i, score[1] + j)
            if across:  # the score now is the half-time score
                v, out, b = _expected(bet, lam, later, HALF, tau2, later, w, prices)
                left_out += out
            else:
                # An HT/FT payoff reads the half-time score only through its result.
                key = later, ht_score and (ht_score[0] > ht_score[1]) - (ht_score[0] < ht_score[1])
                if key not in prices:
                    prices[key] = price(bet, ScoreState(*later, tau2), lam, HALF, ht_score)
                v, b = w * prices[key].value, prices[key].truncation_bound
            total += v
            worst = max(worst, b)
    return total, left_out, worst


def _first_goal(bet, lam, score, tau, tau2) -> float:
    """P[the bet's team scores first in (tau, tau2)] + P[no goal] * V(tau2)."""
    none = poisson_pmf(0, lam.total * (tau2 - tau))
    own = lam.home if bet.kind is BetKind.NEXT_GOAL_HOME else lam.away
    first = own / lam.total * (1.0 - none) if lam.total > 0.0 else 0.0
    return first + none * price(bet, ScoreState(*score, tau2), lam).value


@pytest.mark.parametrize("kind, phase", CASES, ids=[f"{k}-{p}" if p else k for k, p in CASES])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_price_is_the_expectation_of_a_later_price(kind, phase, data):
    bet = kind if isinstance(kind, Bet) else data.draw(BETS[kind], label="bet")
    lam = Intensities(*data.draw(st.tuples(INTENSITY, INTENSITY), label="lam"))
    score = data.draw(st.tuples(st.integers(0, 9), st.integers(0, 9)), label="score")
    # The longest transition with MEAN goals expected; the half of the match
    # a phase lies in bounds it too.
    reach = MEAN / lam.total if lam.total > 0.0 else 1.0
    length = st.floats(0.01, 1.0).map(lambda u: u * min(reach, HALF))
    ht_score = None
    if phase == "before":
        tau = data.draw(st.floats(0.0, 0.49), label="tau")
        tau2 = tau + 0.99 * data.draw(length, label="dt") * (HALF - tau) / HALF
    elif phase == "across":
        tau = HALF - data.draw(length, label="to half time")
        tau2 = HALF + data.draw(st.sampled_from([0.0, 1.0]), label="on") * data.draw(length)
    else:
        lo = HALF if phase == "after" else 0.0
        tau = data.draw(st.floats(lo, 1.0, exclude_max=True), label="tau")
        tau2 = min(tau + data.draw(length, label="dt"), 1.0)
        if phase == "after":
            ht_score = data.draw(
                st.tuples(st.integers(0, score[0]), st.integers(0, score[1])), label="ht"
            )
    assert tau < tau2

    now = price(bet, ScoreState(*score, tau), lam, HALF, ht_score)
    if bet.kind in (BetKind.NEXT_GOAL_HOME, BetKind.NEXT_GOAL_AWAY):
        later, bound = _first_goal(bet, lam, score, tau, tau2), 0.0
    else:
        later, left_out, worst = _expected(bet, lam, score, tau, tau2, ht_score)
        bound = left_out + worst
    assert abs(now.value - later) <= 1e-13 + now.truncation_bound + bound, (now, later, bound)


@pytest.mark.parametrize(
    "bet, lam, score, clock",
    [
        # An intensity ratio of 2e201, and two subnormal intensities.
        (MATCH_ODDS_HOME, Intensities(20.0, 1e-200), (0, 0), 0.0),
        (MATCH_ODDS_HOME, Intensities(1.0, 2.2250738585072e-309), (0, 1), 0.5),
        (Bet.winning_margin(1), Intensities(14.525685216847084, 1.807606e-317), (4, 4), 0.0),
    ],
)
def test_an_extreme_intensity_ratio_keeps_the_skellam_route_exact(bet, lam, score, clock):
    # The double sum of price_european is the reference.
    state = ScoreState(*score, clock)
    want = price_european(bet, state, lam).value
    assert abs(price(bet, state, lam).value - want) <= 1e-13
