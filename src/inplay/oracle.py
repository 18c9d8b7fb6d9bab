"""Independent verification engines: path simulation, Monte Carlo pricing, an
extended-precision enumeration pricer and a finite-difference theta.

Nothing in here is used by the production pricing paths; the point is to
cross-check them.  Randomness is PCG64, seeded per batch of 65536 paths by
``SeedSequence([seed, batch_index])`` so results are reproducible and
independent of how batches might be farmed out to workers.

The Monte Carlo payoffs, HT/FT legs included, read the one payoff table,
``contracts.payoff_grid``, on the simulated scores; what they check is the
pricers' probability weights, not the table.  The enumeration takes its
payoffs from the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .contracts import (
    MATCH_ODDS_FOR,
    Bet,
    BetKind,
    Intensities,
    NonEuropeanBetError,
    ScoreState,
    Team,
    payoff,
    payoff_grid,
)
from .distributions import cap_for_tail
from .pricing import DEFAULT_HALF_CLOCK, greeks, price

__all__ = [
    "SimulatedPath",
    "simulate_paths",
    "terminal_scores",
    "mc_price",
    "enumerate_price",
    "enumeration_remainder",
    "theta_fd",
    "kolmogorov_residual",
]

_BATCH = 1 << 16

# Clock step for the finite-difference theta.
_THETA_STEP = 1e-6


@dataclass(frozen=True)
class SimulatedPath:
    """Goal events (time in match units, scoring team) and the terminal score."""

    events: tuple[tuple[float, Team], ...]
    home_goals: int
    away_goals: int


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, batch_index])))


def _arrival_matrix(
    rng: np.random.Generator, lam: float, start_clock: float, n: int
) -> np.ndarray:
    """Absolute goal times per path, padded with +inf beyond the final whistle.

    Times are exponential inter-arrivals accumulated from the current clock;
    the column count is chosen so the chance of overflowing it is < 1e-14.
    """
    horizon = 1.0 - start_clock
    if lam <= 0.0 or horizon <= 0.0:
        return np.full((n, 1), np.inf)
    cols = cap_for_tail(lam * horizon, 1e-14, 4)[0] + 2
    gaps = rng.exponential(scale=1.0 / lam, size=(n, cols))
    times = start_clock + np.cumsum(gaps, axis=1)
    times[times > 1.0] = np.inf
    return times


def _arrival_batches(lam: Intensities, start_clock: float, n: int, seed: int):
    """(home, away) goal-time matrices for n paths, one pair per batch."""
    for batch_index, done in enumerate(range(0, n, _BATCH)):
        rng = _batch_rng(seed, batch_index)
        size = min(_BATCH, n - done)
        t_home = _arrival_matrix(rng, lam.home, start_clock, size)
        yield t_home, _arrival_matrix(rng, lam.away, start_clock, size)


def _final_goals(start: ScoreState, t_home: np.ndarray, t_away: np.ndarray) -> tuple:
    """Final (home, away) goals per path of one batch of goal-time matrices."""
    return (
        start.home_goals + np.isfinite(t_home).sum(axis=1),
        start.away_goals + np.isfinite(t_away).sum(axis=1),
    )


def terminal_scores(lam: Intensities, start: ScoreState, n: int, seed: int):
    """The final (home, away) goal arrays of the paths :func:`simulate_paths`
    draws, one pair per batch, without building the paths."""
    for t_home, t_away in _arrival_batches(lam, start.clock, n, seed):
        yield _final_goals(start, t_home, t_away)


def simulate_paths(
    lam: Intensities, start: ScoreState, n: int, seed: int
) -> list[SimulatedPath]:
    """Simulate n goal-event paths from the given state to the final whistle."""
    if n < 1:
        raise ValueError("need at least one path")
    paths: list[SimulatedPath] = []
    for t_home, t_away in _arrival_batches(lam, start.clock, n, seed):
        n_home, n_away = _final_goals(start, t_home, t_away)
        for i in range(len(t_home)):
            th = t_home[i][np.isfinite(t_home[i])]
            ta = t_away[i][np.isfinite(t_away[i])]
            events = sorted(
                [(float(t), Team.HOME) for t in th] + [(float(t), Team.AWAY) for t in ta]
            )
            paths.append(SimulatedPath(tuple(events), int(n_home[i]), int(n_away[i])))
    return paths


def _payoff_batch(
    bet: Bet,
    state: ScoreState,
    t_home: np.ndarray,
    t_away: np.ndarray,
    half_clock: float,
    ht_score: tuple[int, int] | None,
) -> np.ndarray:
    n_home, n_away = _final_goals(state, t_home, t_away)

    if bet.kind in (BetKind.NEXT_GOAL_HOME, BetKind.NEXT_GOAL_AWAY):
        first_home = t_home[:, 0]
        first_away = t_away[:, 0]
        if bet.kind is BetKind.NEXT_GOAL_HOME:
            return (first_home < first_away).astype(float)
        return (first_away < first_home).astype(float)

    if bet.kind is BetKind.HT_FT:
        ht_leg = MATCH_ODDS_FOR[bet.half_time]
        if state.clock < half_clock:
            ht_h = state.home_goals + (t_home <= half_clock).sum(axis=1)
            ht_a = state.away_goals + (t_away <= half_clock).sum(axis=1)
            ht_won = payoff_grid(ht_leg, ht_h, ht_a)
        else:
            if ht_score is None:
                raise ValueError("half-time score required once clock >= half_clock")
            ht_won = payoff(ht_leg, *ht_score)
        ft_won = payoff_grid(MATCH_ODDS_FOR[bet.full_time], n_home, n_away)
        return (ht_won & ft_won).astype(float)

    return payoff_grid(bet, n_home, n_away).astype(float)


def mc_price(
    bet: Bet,
    state: ScoreState,
    lam: Intensities,
    n: int,
    seed: int,
    half_clock: float = DEFAULT_HALF_CLOCK,
    ht_score: tuple[int, int] | None = None,
) -> tuple[float, float]:
    """Monte Carlo estimate and standard error of a bet value."""
    if n < 1000:
        raise ValueError("Monte Carlo pricing needs n >= 1000")
    total = 0.0
    total_sq = 0.0
    for t_home, t_away in _arrival_batches(lam, state.clock, n, seed):
        pays = _payoff_batch(bet, state, t_home, t_away, half_clock, ht_score)
        total += float(pays.sum())
        total_sq += float((pays * pays).sum())
    mean = total / n
    var = max(total_sq - total * total / n, 0.0) / (n - 1)
    return mean, math.sqrt(var / n)


def _payoff_grid_longdouble(
    payoff_spec: Mapping[tuple[int, int], float] | np.ndarray | Callable[[int, int], float],
    state: ScoreState,
    cap: int,
) -> np.ndarray:
    grid = np.zeros((cap + 1, cap + 1), dtype=np.longdouble)
    if isinstance(payoff_spec, np.ndarray):
        if payoff_spec.shape != (cap + 1, cap + 1):
            raise ValueError(f"payoff array must have shape {(cap + 1, cap + 1)}")
        grid[:, :] = payoff_spec
    elif isinstance(payoff_spec, Mapping):
        for (k1, k2), v in payoff_spec.items():
            i, j = k1 - state.home_goals, k2 - state.away_goals
            if 0 <= i <= cap and 0 <= j <= cap:
                grid[i, j] = v
    else:
        for i in range(cap + 1):
            for j in range(cap + 1):
                grid[i, j] = payoff_spec(state.home_goals + i, state.away_goals + j)
    return grid


def _pmf_longdouble(mean: float, cap: int) -> np.ndarray:
    p = np.zeros(cap + 1, dtype=np.longdouble)
    if mean == 0.0:
        p[0] = 1.0
        return p
    m = np.longdouble(mean)
    p[0] = np.exp(-m)
    ratios = m / np.arange(1, cap + 1, dtype=np.longdouble)
    p[1:] = p[0] * np.cumprod(ratios)
    return p


def enumerate_price(
    payoff_spec: Mapping[tuple[int, int], float] | np.ndarray | Callable[[int, int], float],
    state: ScoreState,
    lam: Intensities,
    cap: int = 60,
) -> float:
    """Ground-truth double sum in 80-bit extended precision.

    The Poisson weights come from a cumulative-product recurrence, a
    different algorithm from the log-space route the pricers use.  Payoffs
    may be given as a dict keyed by absolute final score, a dense
    (cap+1)x(cap+1) array anchored at the current score, or a callable.
    """
    if cap < 25:
        raise ValueError("cap must be at least 25")
    grid = _payoff_grid_longdouble(payoff_spec, state, cap)
    horizon = 1.0 - state.clock
    p1 = _pmf_longdouble(lam.home * horizon, cap)
    p2 = _pmf_longdouble(lam.away * horizon, cap)
    return float(p1 @ grid @ p2)


def enumeration_remainder(state: ScoreState, lam: Intensities, cap: int = 60) -> float:
    """Upper bound on the probability mass outside the enumeration grid."""
    horizon = 1.0 - state.clock
    p1 = _pmf_longdouble(lam.home * horizon, cap)
    p2 = _pmf_longdouble(lam.away * horizon, cap)
    return float(1.0 - p1.sum() * p2.sum())


def theta_fd(
    bet: Bet,
    state: ScoreState,
    lam: Intensities,
    half_clock: float = DEFAULT_HALF_CLOCK,
    ht_score: tuple[int, int] | None = None,
) -> float:
    """Finite-difference time derivative of a bet's value at fixed score.

    The clock is bumped by 1e-6 inside the smooth segment holding the
    current clock ([0, 1], or the HT/FT half that contains it): centered in
    the interior, second-order one-sided at the segment edges so the
    truncation error stays O(step^2) everywhere.
    """
    lo, hi = 0.0, 1.0
    if bet.kind is BetKind.HT_FT:
        if state.clock < half_clock:
            hi = half_clock
        else:
            lo = half_clock

    def value_at(tau: float) -> float:
        return price(bet, state.at_clock(tau), lam, half_clock, ht_score).value

    tau, h = state.clock, _THETA_STEP
    if tau - h > lo and tau + h < hi:
        return (value_at(tau + h) - value_at(tau - h)) / (2.0 * h)
    if tau + 2.0 * h < hi:
        return (-3.0 * value_at(tau) + 4.0 * value_at(tau + h) - value_at(tau + 2.0 * h)) / (2.0 * h)
    if tau - 2.0 * h > lo:
        return (3.0 * value_at(tau) - 4.0 * value_at(tau - h) + value_at(tau - 2.0 * h)) / (2.0 * h)
    return 0.0


def kolmogorov_residual(bet: Bet, state: ScoreState, lam: Intensities) -> float:
    """theta_fd + lam_home*delta_home + lam_away*delta_away.

    The forward equation makes this identically zero for European bets;
    what remains is finite-difference noise, bounded by 1e-6 everywhere on
    the supported parameter range.  The theta is the clock-bumped one above,
    not the analytic theta of ``pricing.greeks``, so the identity is tested
    against an independent derivative.
    """
    if not bet.european:
        raise NonEuropeanBetError("the forward-equation residual is defined for European bets")
    if state.clock >= 1.0:
        raise ValueError("residual requires clock < 1")
    g = greeks(bet, state, lam)
    return theta_fd(bet, state, lam) + lam.home * g.delta_home + lam.away * g.delta_away
