"""Risk-neutral valuation of the bet catalogue, greeks and structural identities.

Two independent pricing routes are deliberately kept for every European bet:

* :func:`price_european` evaluates the defining double Poisson sum over a
  truncated grid of final scores, weighted by ``contracts.payoff_grid``;
* :func:`price_closed_form` evaluates per-bet reductions (Skellam sums for
  match odds and winning margins, one-dimensional Poisson tails for totals,
  hyperbolic forms for parity, plain products for correct scores), never
  the payoff table, which it therefore cross-checks.

They must agree to 1e-10; the test suite enforces this on a dense grid.
Intensities are row data, as clocks are.  ``_rows`` is the one row set-up:
per (home, away) row and horizon, a (T x cap) pmf matrix per team, each
team's cap the one its largest mean needs, and a bound summing the tails
``cap_for_tail`` returns with those caps.  ``_contract`` evaluates
p1 @ weights @ p2 per row with both goal-jump deltas, each swapping in the
scoring team's pmf derivative.  :func:`segment_greeks` calls it on one
bet's value grid over a score segment's (intensities, clock) rows, never
re-pricing; :func:`greeks` is its one-row case.  :class:`EuropeanBoard`
takes scores as row data too: one ``_rows`` call over all its rows, then
``_contract`` on a stack of payoff masks per run of equal score, so its
intensity Jacobian is (1 - tau) times the same deltas, and calibration
solves a whole series against it.  The forward equation makes theta the
intensity-weighted sum of the deltas (``inplay.oracle`` holds the
finite-difference check).  All functions are pure and thread-safe; a board
caches its payoff masks and belongs to one caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from .contracts import (
    MATCH_ODDS_FOR,
    Bet,
    BetKind,
    Intensities,
    NonEuropeanBetError,
    ScoreState,
    format_bet,
    payoff,
    payoff_grid,
)
from .distributions import (
    _clamp01,
    _poisson_sides,
    cap_for_tail,
    poisson_pmf,
    poisson_pmf_matrix,
    poisson_pmf_vector,  # noqa: F401 (unused; perfbench/tracer.py wraps it by this name)
    poisson_tail,
    skellam_pmf,
    skellam_pmf_range,
)

__all__ = [
    "PriceResult",
    "Greeks",
    "BoardValues",
    "EuropeanBoard",
    "price",
    "price_european",
    "price_closed_form",
    "greeks",
    "segment_greeks",
    "intensity_sensitivity",
    "static_replication",
]

# Per-team truncation: smallest cap with tail mass below this, floor 25.
TRUNCATION_TOL = 1e-13
TRUNCATION_FLOOR = 25

DEFAULT_HALF_CLOCK = 0.5


@dataclass(frozen=True)
class PriceResult:
    """A bet value in [0, 1] plus an upper bound on omitted tail mass."""

    value: float
    truncation_bound: float


@dataclass(frozen=True)
class Greeks:
    """Value jumps if either team scores now, and the inter-goal time drift."""

    delta_home: float
    delta_away: float
    theta: float


def _horizons(state: ScoreState, lam: Intensities) -> tuple[float, float]:
    h = 1.0 - state.clock
    return lam.home * h, lam.away * h


def _cap(mean: float) -> tuple[int, float]:
    """(cap, omitted tail) of the pricers' truncation rule for one mean."""
    return cap_for_tail(mean, TRUNCATION_TOL, TRUNCATION_FLOOR)


def _rows(lam, horizon: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(p1, p2, bound) at one (home, away) row of ``lam`` and one horizon
    each: the (T x cap) pmf matrices of each team's goals still to come, a
    team's cap the one its largest mean needs, and the sum of the tails the
    two caps omit."""
    means = np.asarray(lam, dtype=float) * horizon[:, None]
    m1, m2 = means.max(axis=0, initial=0.0).tolist()
    (c1, t1), (c2, t2) = _cap(m1), _cap(m2)
    return poisson_pmf_matrix(means[:, 0], c1), poisson_pmf_matrix(means[:, 1], c2), t1 + t2


def _grid(bet: Bet, score, lam, clocks, half_clock=DEFAULT_HALF_CLOCK, ht_score=None) -> tuple:
    """(p1, weights, p2, bound) with value p1[t] @ weights @ p2[t] of a
    European or HT/FT bet at row t of ``lam`` and ``clocks``: p1, p2 and
    bound are :func:`_rows` over the stage ending at half time (HT/FT before
    it) or at full time, and weights[i, j] is the value once i and j more
    goals have come in it, so a goal scored now shifts p1 or p2 and leaves
    the weights alone.  Only HT/FT's first-half weights, the half-time mask
    times P[full time is ft | half-time score], depend on the intensities:
    one grid per run of equal rows, repeated to one per row if runs differ.
    """
    ht_ft = bet.kind is BetKind.HT_FT
    if ht_ft and not (0.0 < half_clock < 1.0):
        raise ValueError("half_clock must lie strictly inside (0, 1)")
    first_half = ht_ft and clocks.min() < half_clock
    if first_half and clocks.max() >= half_clock:
        raise ValueError("HT/FT clocks must lie on one side of half time")
    if ht_ft and not first_half and ht_score is None:
        raise ValueError("half-time score required once clock >= half_clock")
    p1, p2, bound = _rows(lam, (half_clock if first_half else 1.0) - clocks)
    h = score[0] + np.arange(p1.shape[1])[:, None]  # final or half-time scores
    a = score[1] + np.arange(p2.shape[1])[None, :]
    if not ht_ft:
        return p1, payoff_grid(bet, h, a).astype(float), p2, bound
    if not first_half:
        # A lost half-time leg is worth exactly 0, with nothing omitted.
        won = payoff(MATCH_ODDS_FOR[bet.half_time], *ht_score)
        weights = won * payoff_grid(MATCH_ODDS_FOR[bet.full_time], h, a).astype(float)
        return p1, weights, p2, bound if won else 0.0
    starts = np.r_[True, (lam[1:] != lam[:-1]).any(axis=1)]  # first rows of equal-row runs
    q1, q2, tail = _rows(lam[starts], np.full(starts.sum(), 1.0 - half_clock))
    diff = np.array([np.convolve(r1, r2[::-1]) for r1, r2 in zip(q1, q2)])  # second-half h - a pmf
    k = np.arange(1 - q2.shape[1], q1.shape[1])
    # A match odds payoff depends on the score only through h - a, so P[full
    # time is ft | half-time h, a] is the pmf of k summed where h - a + k wins.
    wins = payoff_grid(MATCH_ODDS_FOR[bet.full_time], (h - a)[..., None] + k, 0)
    weights = payoff_grid(MATCH_ODDS_FOR[bet.half_time], h, a) * np.tensordot(diff, wins, (1, 2))
    return p1, weights[0] if len(weights) == 1 else weights[np.cumsum(starts) - 1], p2, bound + tail


def _priced(bet: Bet, state: ScoreState, lam: Intensities, *half_time) -> PriceResult:
    """A European or HT/FT value; ``half_time`` is (half_clock, ht_score)."""
    score, rows = (state.home_goals, state.away_goals), np.array([[lam.home, lam.away]])
    p1, weights, p2, bound = _grid(bet, score, rows, np.array([state.clock]), *half_time)
    return PriceResult(_clamp01(float(p1[0] @ weights @ p2[0])), bound)


def price_european(bet: Bet, state: ScoreState, lam: Intensities) -> PriceResult:
    """Value of a European bet as the truncated double Poisson sum.

    Sums payoff(n1, n2) P(n1 - N1, L1) P(n2 - N2, L2) over final scores at
    or above the current score, with per-team caps chosen so the joint
    omitted mass stays below ~2e-13 (reported in the result).
    """
    if not bet.european:
        raise NonEuropeanBetError(f"{format_bet(bet)} is path dependent; use price")
    return _priced(bet, state, lam)


@dataclass(frozen=True)
class BoardValues:
    """A board's values at S snapshots, their intensity Jacobian and a bound
    on every snapshot's omitted mass.

    ``jacobian[s, i]`` is (dV_i/dlam_home, dV_i/dlam_away) at snapshot s.
    """

    values: np.ndarray
    jacobian: np.ndarray
    truncation_bound: float


class EuropeanBoard:
    """European bets priced together at rows of (intensities, clock, score).

    Every value is the double sum of :func:`price_european`: one payoff mask
    per bet from ``contracts.payoff_grid``, contracted by the ``_contract``
    that :func:`greeks` uses.  One ``_rows`` call sets up every row, a
    team's cap the one its largest mean needs; then each run of rows with
    equal score takes one stacked ``_contract`` over the bets its rows
    quote, and a bet none of them quotes reads 0.  The Jacobian is exact:
    the pmf p(k; m) has d/dm = p(k-1; m) - p(k; m), so dV/dlam_i is
    (1 - tau) * delta_i, as the forward equation requires.  A payoff depends
    on the final score alone, so every score's masks are slices of one cached
    grid per bet that starts at score (0, 0).
    """

    def __init__(self, bets: list[Bet] | tuple[Bet, ...]):
        for bet in bets:
            if not bet.european:
                raise NonEuropeanBetError(
                    f"{format_bet(bet)} is path dependent and has no board mask"
                )
        self.bets = tuple(bets)
        self._grid = np.zeros((len(self.bets), 0, 0))

    def _masks_for(self, h: int, a: int, n1: int, n2: int) -> np.ndarray:
        """Each bet's mask on final scores (h + i, a + j), i < n1, j < n2."""
        size = np.maximum(self._grid.shape[1:], (h + n1, a + n2))
        if (size > self._grid.shape[1:]).any():
            grid = np.ogrid[: size[0], : size[1]]
            masks = [payoff_grid(b, *grid) for b in self.bets]
            self._grid = np.array(masks, dtype=float).reshape(len(self.bets), *size)
        return self._grid[:, h : h + n1, a : a + n2]

    def evaluate(self, lam, clocks, scores, quoted=None) -> BoardValues:
        """The board at one (home, away) row of ``lam``, one clock and one
        (home, away) score each, or one score for every row; ``quoted[t]``
        marks the bets row t needs, by default all of them."""
        horizon = 1.0 - np.asarray(clocks, dtype=float)
        p1, p2, bound = _rows(lam, horizon)
        n, nb, caps = len(horizon), len(self.bets), (p1.shape[1], p2.shape[1])
        scores = np.broadcast_to(np.asarray(scores, dtype=np.intp), (n, 2))
        quoted = np.ones((n, nb), dtype=bool) if quoted is None else quoted
        values, jacobian = np.zeros((n, nb)), np.zeros((n, nb, 2))
        edges = (np.flatnonzero((scores[1:] != scores[:-1]).any(axis=1)) + 1).tolist()
        for lo, hi in zip([0, *edges], [*edges, n]):
            cols = np.flatnonzero(quoted[lo:hi].any(axis=0))
            if len(cols):
                masks = self._masks_for(*scores[lo].tolist(), *caps)[cols]
                v, d1, d2 = _contract(p1[lo:hi], masks, p2[lo:hi], stacked=True)
                values[lo:hi, cols] = v.T
                jacobian[lo:hi, cols] = np.dstack((d1.T, d2.T)) * horizon[lo:hi, None, None]
        return BoardValues(np.clip(values, 0.0, 1.0, out=values), jacobian, bound)


def _pmf_derivative(p: np.ndarray) -> np.ndarray:
    """d/dm of Poisson pmf rows p(.; m): p(k-1; m) - p(k; m)."""
    out = -p
    out[..., 1:] += p[..., :-1]
    return out


def _contract(p1: np.ndarray, weights: np.ndarray, p2: np.ndarray, stacked=False) -> tuple:
    """(value, delta_home, delta_away) of p1 @ weights @ p2 per row of the
    (T, cap) pmf matrices p1 and p2.

    A goal shifts the scoring team's remaining-goals pmf by one step, so each
    delta is the same contraction with that pmf's derivative in its place.
    ``weights`` is one value grid or one per row; ``stacked`` weights are a
    board's grids, one per bet, and the results then carry that leading bet
    axis before the row axis.
    """
    # One grid takes one matrix-vector product per row, not one stacked
    # product, so that segment_greeks equals greeks row by row, down to +0.0
    # thetas: summed in the stacked order, MATCH_ODDS_AWAY's theta came out
    # -1.4e-17 against 0.0.  Speed does not decide it: for a 26 x 26 grid
    # against 1800-5400 rows on a 2-vCPU VM the stacked product took
    # 0.15-1.2 ms idle and 0.1-1.8 ms with one core busy, per-row products
    # 0.46-2.3 and 0.5-4.0 ms.  A board takes one (cap x cap) @ (cap x T)
    # product per bet.
    if stacked:
        by_home, by_away = np.swapaxes(weights @ p2.T, -1, -2), p1 @ weights
    else:
        by_home = (weights @ p2[..., None])[..., 0]  # home goals to come, away summed out
        by_away = (p1[..., None, :] @ weights)[..., 0, :]  # away goals to come, home summed out
    dp1, dp2 = _pmf_derivative(p1), _pmf_derivative(p2)
    pairs = ((by_home, p1), (by_home, dp1), (by_away, dp2))
    return tuple(np.einsum("...ti,ti->...t", u, v) for u, v in pairs)


@lru_cache(maxsize=4096)
def _skellam_table(lo: int, hi: int, mean1: float, mean2: float) -> np.ndarray:
    out = skellam_pmf_range(lo, hi, mean1, mean2)
    out.flags.writeable = False
    return out


def _match_odds_closed(state: ScoreState, lam: Intensities) -> tuple[float, float, float, float]:
    """(home, draw, away, bound) from the Skellam distribution of the
    remaining goal difference."""
    l1, l2 = _horizons(state, lam)
    d0 = state.away_goals - state.home_goals  # remaining diff needed to draw
    j, bound = _cap(l1 + l2)
    lo, hi = min(-j, d0), max(j, d0)
    pmfs = _skellam_table(lo, hi, l1, l2)
    idx = d0 - lo
    draw = float(pmfs[idx])
    home = float(pmfs[idx + 1 :].sum())
    away = float(pmfs[:idx].sum())
    return home, draw, away, bound


def price_closed_form(bet: Bet, state: ScoreState, lam: Intensities) -> PriceResult:
    """Closed-form value of a European bet.

    Match odds and winning margins reduce to the Skellam distribution of
    the remaining goal difference, totals to one-dimensional Poisson tails
    of the remaining total, parity to (1 +- exp(-2 Lambda))/2 flipped by the
    parity of the current total, and correct scores to a product of two
    Poisson probabilities.
    """
    if not bet.european:
        raise NonEuropeanBetError(f"{format_bet(bet)} is path dependent; use price")
    l1, l2 = _horizons(state, lam)
    k = bet.kind

    if k in (BetKind.MATCH_ODDS_HOME, BetKind.MATCH_ODDS_DRAW, BetKind.MATCH_ODDS_AWAY):
        home, draw, away, bound = _match_odds_closed(state, lam)
        value = {BetKind.MATCH_ODDS_HOME: home, BetKind.MATCH_ODDS_DRAW: draw}.get(k, away)
        return PriceResult(_clamp01(value), bound)

    if k is BetKind.CORRECT_SCORE:
        value = poisson_pmf(bet.score[0] - state.home_goals, l1) * poisson_pmf(
            bet.score[1] - state.away_goals, l2
        )
        return PriceResult(_clamp01(value), 0.0)

    current_total = state.home_goals + state.away_goals
    l_tot = l1 + l2

    if k in (BetKind.OVER, BetKind.UNDER):
        need = int(bet.line - 0.5) - current_total  # remaining goals allowed under the line
        if k is BetKind.OVER:
            return PriceResult(poisson_tail(need, l_tot), 0.0)
        return PriceResult(_poisson_sides(need, l_tot)[0], 0.0)

    if k in (BetKind.ODD, BetKind.EVEN):
        odd = -0.5 * math.expm1(-2.0 * l_tot)  # an odd number of goals to come
        value = odd if (k is BetKind.ODD) == (current_total % 2 == 0) else 1.0 - odd
        return PriceResult(value, 0.0)

    if k is BetKind.WINNING_MARGIN:
        need = bet.margin - state.home_goals + state.away_goals
        return PriceResult(skellam_pmf(need, l1, l2), 0.0)

    raise NonEuropeanBetError(f"{format_bet(bet)} has no closed-form table row")


def _next_goal_value(own, total, horizon):
    """own / total * (1 - exp(-total * horizon)) with total = lam_home +
    lam_away, elementwise on numbers or arrays; 0 with no intensity."""
    share = np.divide(own, total, out=np.zeros_like(horizon), where=np.greater(total, 0.0))
    return share * (1.0 - np.exp(-total * horizon))


def price(
    bet: Bet,
    state: ScoreState,
    lam: Intensities,
    half_clock: float = DEFAULT_HALF_CLOCK,
    ht_score: tuple[int, int] | None = None,
) -> PriceResult:
    """Value any catalogue bet.

    A European bet takes :func:`price_closed_form`.  The bet that a team
    scores the next goal is worth lam_team / (lam_home + lam_away) *
    (1 - exp(-(lam_home+lam_away)(1-tau))), and 0 with no time left or no
    intensity.  Before half time an HT/FT bet is a two-stage sum over
    half-time scores and the conditional full-time outcome; from half time
    onwards it is either worthless (half-time leg lost) or equal to the
    matching full-time match odds bet, so the half-time score must be
    supplied once clock >= half_clock.
    """
    if bet.european:
        return price_closed_form(bet, state, lam)
    if bet.kind is BetKind.HT_FT:
        return _priced(bet, state, lam, half_clock, ht_score)
    own = lam.home if bet.kind is BetKind.NEXT_GOAL_HOME else lam.away
    return PriceResult(_clamp01(float(_next_goal_value(own, lam.total, 1.0 - state.clock))), 0.0)


def segment_greeks(
    bet: Bet,
    score: tuple[int, int],
    lam,
    clocks,
    half_clock: float = DEFAULT_HALF_CLOCK,
    ht_score: tuple[int, int] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(delta_home, delta_away, theta) arrays of one bet over a score
    segment: one score and T clocks, with intensities per clock as a (T x 2)
    (home, away) array or one ``Intensities`` for every clock.

    Each (intensities, clock) pair is one row of the (T x cap) pmf matrices
    and the deltas are ``_contract`` over the rows.  A team's cap is the one
    its largest mean needs, so a row keeps up to about 1e-13 more of the
    tail than :func:`greeks` at that row alone.  HT/FT clocks must lie on
    one side of ``half_clock``; before it the second half's goal-difference
    pmf is built once per run of equal intensity rows.  Next Goal deltas are
    the closed-form settlement jumps.  theta is -(lam_home * delta_home +
    lam_away * delta_away) per row.
    """
    clocks = np.asarray(clocks, dtype=float)
    if clocks.ndim != 1 or len(clocks) == 0:
        raise ValueError("clocks must be a nonempty 1-d array")
    ScoreState(*score, float(clocks.min()))
    ScoreState(*score, float(clocks.max()))  # validates the whole range
    if isinstance(lam, Intensities):
        lam = np.full((len(clocks), 2), (lam.home, lam.away))
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (len(clocks), 2) or not (np.isfinite(lam) & (lam >= 0.0)).all():
        raise ValueError("intensities must be finite and >= 0, one (home, away) row per clock")
    if bet.kind in (BetKind.NEXT_GOAL_HOME, BetKind.NEXT_GOAL_AWAY):
        home = bet.kind is BetKind.NEXT_GOAL_HOME
        base = _next_goal_value(lam[:, 0 if home else 1], lam[:, 0] + lam[:, 1], 1.0 - clocks)
        d1, d2 = (1.0 - base, 0.0 - base) if home else (0.0 - base, 1.0 - base)
    else:
        _, d1, d2 = _contract(*_grid(bet, score, lam, clocks, half_clock, ht_score)[:3])
    # 0.0 - x keeps a zero delta, and a frozen game's theta, at +0.0, not -0.0.
    return d1, d2, 0.0 - (lam[:, 0] * d1 + lam[:, 1] * d2)


def greeks(
    bet: Bet,
    state: ScoreState,
    lam: Intensities,
    half_clock: float = DEFAULT_HALF_CLOCK,
    ht_score: tuple[int, int] | None = None,
) -> Greeks:
    """Goal-jump deltas of a bet and its time drift from the forward equation:
    :func:`segment_greeks` at one clock.

    Deltas are the value changes if home/away scored right now.  For Next
    Goal bets that change is the settlement jump (payout minus current
    value); for everything else it is a shifted-pmf contraction of the
    value grid: (p(k-1) - p(k)) in place of the scoring team's pmf p(k).
    Every catalogue bet is a function of (score, clock) alone between goals
    (HT/FT on either side of half time, with the half-time score held), so
    the forward equation gives theta = -(lam_home*delta_home +
    lam_away*delta_away) exactly; for Next Goal that is
    -lam_team*exp(-(lam_home+lam_away)(1-clock)).  Nothing is re-priced;
    ``inplay.oracle.theta_fd`` is the independent check.
    """
    score = (state.home_goals, state.away_goals)
    d1, d2, theta = segment_greeks(bet, score, lam, [state.clock], half_clock, ht_score)
    return Greeks(float(d1[0]), float(d2[0]), float(theta[0]))


def intensity_sensitivity(
    bet: Bet, state: ScoreState, lam: Intensities
) -> tuple[float, float]:
    """(dV/dlam_home, dV/dlam_away) = (1 - tau) * (delta_home, delta_away)."""
    if not bet.european:
        raise NonEuropeanBetError("intensity sensitivity is defined for European bets")
    g = greeks(bet, state, lam)
    horizon = 1.0 - state.clock
    return horizon * g.delta_home, horizon * g.delta_away


def static_replication(
    payoff_table: Mapping[tuple[int, int], float],
    ad_prices: Mapping[tuple[int, int], float],
) -> float:
    """Value a payoff as a sum of correct-score (Arrow-Debreu) positions.

    Every final score carrying nonzero payoff must have a correct-score
    price; a missing one is an error, not a silent zero.
    """
    total = 0.0
    for score, pay in payoff_table.items():
        if pay == 0.0:
            continue
        if score not in ad_prices:
            raise ValueError(f"missing correct-score price for final score {score}")
        total += pay * ad_prices[score]
    return total
