"""Match timeline: goal events plus quote snapshots on one playing clock.

Timestamps are playing-time seconds from kickoff (the half-time break is not
on the clock).  Snapshots at a goal's exact timestamp may appear both before
and after the goal; their score decides which goals they have seen, which
lets a model-consistent replay observe the last pre-goal and first post-goal
prices at the same instant.  That rule lives here once: a snapshot stamped t
has seen k goals for some k between the goals strictly before t and the
goals at or before t (:func:`goal_counts`), and its score is the score after
the first k goals (:func:`score_path`).  A timeline whose snapshots break it
raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Literal, Sequence

import numpy as np

from .calibration import QuoteSnapshot
from .contracts import Team

__all__ = ["GoalEvent", "MatchTimeline", "score_path", "goal_counts"]

DEFAULT_MATCH_MINUTES = 90.0
DEFAULT_HALF_MINUTES = 45.0


def clock_of(timestamp_s: float, match_length_min: float) -> float:
    """Playing-time seconds as the clock tau in [0, 1]."""
    return min(max(timestamp_s / (match_length_min * 60.0), 0.0), 1.0)


@dataclass(frozen=True)
class GoalEvent:
    timestamp_s: float
    team: Team


Record = tuple[Literal["snapshot", "goal"], QuoteSnapshot | GoalEvent]


def score_path(events: Sequence[GoalEvent]) -> list[tuple[int, int]]:
    """The score after the first k goals, for k = 0 .. len(events)."""
    path = [(0, 0)]
    for ev in events:
        h, a = path[-1]
        path.append((h + 1, a) if ev.team is Team.HOME else (h, a + 1))
    return path


def goal_counts(
    events: Sequence[GoalEvent], stamps: Sequence[float]
) -> tuple[list[int], list[int]]:
    """Per stamp, the number of goals strictly before it and at or before it."""
    times = [ev.timestamp_s for ev in events]
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("goal events must be ordered by timestamp")
    left, right = (np.searchsorted(times, stamps, side).tolist() for side in ("left", "right"))
    return left, right


@dataclass(frozen=True)
class MatchTimeline:
    """Goals and snapshots of one match.  Construction raises ValueError at
    the first snapshot that has no score, has one its goals do not allow, or
    breaks (timestamp, goals) order, naming its timestamp."""

    match_id: str
    events: tuple[GoalEvent, ...]
    snapshots: tuple[QuoteSnapshot, ...]
    match_length_min: float = DEFAULT_MATCH_MINUTES
    half_length_min: float = DEFAULT_HALF_MINUTES

    def __post_init__(self) -> None:
        length_s = self.match_length_min * 60.0
        for ev in self.events:
            if not (0.0 <= ev.timestamp_s <= length_s):
                raise ValueError(f"goal at {ev.timestamp_s}s is outside the match")
        path = score_path(self.events)
        stamps = [s.timestamp_s for s in self.snapshots]
        last = (-np.inf, 0)
        for snap, lo, hi in zip(self.snapshots, *goal_counts(self.events, stamps)):
            t, state = snap.timestamp_s, snap.state
            if state is None:
                raise ValueError(f"snapshot at {t}s has no score")
            score = (state.home_goals, state.away_goals)
            if score not in path[lo : hi + 1]:
                raise ValueError(
                    f"snapshot at {t}s: score {score} does not follow the goals, "
                    f"which allow {path[lo : hi + 1]}"
                )
            now = (t, sum(score))
            if now < last:
                raise ValueError(f"snapshot at {t}s is out of (timestamp, goals) order")
            last = now

    @property
    def half_clock(self) -> float:
        return self.half_length_min / self.match_length_min

    def ht_score(self) -> tuple[int, int]:
        """Score at the end of the first half: goals stamped at or before it."""
        _, (through,) = goal_counts(self.events, [self.half_length_min * 60.0])
        return score_path(self.events)[through]

    def records(self) -> Iterator[Record]:
        """Snapshots and goals merged in replay order: before each snapshot,
        the goals its score counts."""
        seen = 0
        for snap in self.snapshots:
            k = snap.state.home_goals + snap.state.away_goals
            for ev in self.events[seen:k]:
                yield ("goal", ev)
            yield ("snapshot", snap)
            seen = k
        for ev in self.events[seen:]:
            yield ("goal", ev)
