"""Model-consistent synthetic market data.

Real exchange data is not distributed with the package, so round-trip and
replay studies run on quotes manufactured from the pricing model itself:
mids sit exactly on (or uniformly within a fraction of a spread around) the
model values.  Goal timestamps get a pre-goal and a post-goal snapshot at
the same second, which is what lets a replay measure jumps at the instant
they happen; their scores come from the timeline's own rule
(:func:`~inplay.timeline.goal_counts` on :func:`~inplay.timeline.score_path`),
so several goals in one second share one pre and one post snapshot.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import pricing
from .calibration import QuoteSnapshot
from .contracts import (
    Bet,
    BetKind,
    Intensities,
    NEXT_GOAL_AWAY,
    NEXT_GOAL_HOME,
    Quote,
    ScoreState,
    Team,
)
from .timeline import (
    DEFAULT_HALF_MINUTES,
    DEFAULT_MATCH_MINUTES,
    GoalEvent,
    MatchTimeline,
    clocks_of,
    goal_counts,
    score_path,
)

__all__ = [
    "calibration_catalogue",
    "make_snapshot",
    "make_model_timeline",
]

DEFAULT_SPREAD = 0.02


def calibration_catalogue() -> list[Bet]:
    """The 31 bets used for calibration studies.

    Match odds (3), under lines 0.5 to 7.5 (8), over lines 0.5 to 3.5 (4)
    and the correct-score grid up to 3-3 (16).
    """
    bets: list[Bet] = [
        Bet(BetKind.MATCH_ODDS_HOME),
        Bet(BetKind.MATCH_ODDS_DRAW),
        Bet(BetKind.MATCH_ODDS_AWAY),
    ]
    bets += [Bet.under(x + 0.5) for x in range(8)]
    bets += [Bet.over(x + 0.5) for x in range(4)]
    bets += [Bet.correct_score(h, a) for h in range(4) for a in range(4)]
    return bets


def make_snapshot(
    state: ScoreState,
    lam: Intensities,
    timestamp_s: float,
    bets: list[Bet] | None = None,
    spread: float = DEFAULT_SPREAD,
    noise: float = 0.0,
    rng: np.random.Generator | None = None,
    half_clock: float = pricing.DEFAULT_HALF_CLOCK,
    ht_score: tuple[int, int] | None = None,
) -> QuoteSnapshot:
    """Snapshot with mids at model values, optionally perturbed.

    ``noise`` is the amplitude of a uniform mid perturbation in spread
    units; 0.25 means mids land anywhere within a quarter spread of the
    model value.
    """
    if bets is None:
        bets = calibration_catalogue()
    if noise > 0.0 and rng is None:
        raise ValueError("noise requires an rng")
    quotes = []
    for bet in bets:
        mid = pricing.price(bet, state, lam, half_clock, ht_score).value
        if noise > 0.0:
            mid = mid + float(rng.uniform(-noise, noise)) * spread
        quotes.append(Quote.from_values(bet, mid, spread))
    return QuoteSnapshot(timestamp_s=timestamp_s, state=state, quotes=tuple(quotes))


def make_model_timeline(
    lam: Intensities,
    goals: list[tuple[float, Team]],
    step_s: float = 60.0,
    bets: list[Bet] | None = None,
    spread: float = DEFAULT_SPREAD,
    match_length_min: float = DEFAULT_MATCH_MINUTES,
    half_length_min: float = DEFAULT_HALF_MINUTES,
    match_id: str = "synthetic",
    end_s: float | None = None,
) -> MatchTimeline:
    """Timeline of model-priced snapshots with goals at the given seconds.

    Snapshots sit on the regular grid plus a pre/post pair at every goal
    timestamp.  Quote mids are exact model values for the state in effect.
    The default quote list is the calibration catalogue plus the Next Goal
    pair, so the same timeline feeds both calibration and hedge replays.
    """
    if not 0.0 < step_s < np.inf:
        raise ValueError("step_s must be positive and finite")
    if bets is None:
        bets = calibration_catalogue() + [NEXT_GOAL_HOME, NEXT_GOAL_AWAY]
    end_s = match_length_min * 60.0 if end_s is None else end_s
    if not 0.0 <= end_s <= match_length_min * 60.0:
        raise ValueError("end_s must be finite and lie inside the match")
    events = tuple(GoalEvent(t, team) for t, team in sorted(goals, key=lambda g: g[0]))
    # The goals alone, checked to lie inside the match, give the half-time score.
    frame = MatchTimeline(match_id, events, (), match_length_min, half_length_min)
    ht = frame.ht_score()
    path = score_path(events)
    grid = list(np.arange(0.0, end_s + step_s / 2, step_s))
    times = sorted(set(grid) | {ev.timestamp_s for ev in events if ev.timestamp_s <= end_s})
    snapshots = [
        make_snapshot(
            ScoreState(*path[k], float(clocks_of(t, match_length_min))),
            lam,
            timestamp_s=t,
            bets=bets,
            spread=spread,
            half_clock=frame.half_clock,
            ht_score=ht,
        )
        for t, lo, hi in zip(times, *goal_counts(events, times))
        for k in sorted({lo, hi})  # the pre-goal, then the post-goal score at a goal's second
    ]
    return replace(frame, snapshots=tuple(snapshots))
