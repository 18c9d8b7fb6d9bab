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
from typing import Sequence

import numpy as np

from .calibration import SnapshotColumns
from .contracts import Team

__all__ = ["GoalEvent", "MatchTimeline", "score_path", "goal_counts", "replay_runs"]

DEFAULT_MATCH_MINUTES = 90.0
DEFAULT_HALF_MINUTES = 45.0


def clocks_of(stamps, match_length_min: float) -> np.ndarray:
    """Playing-time seconds as the clock tau in [0, 1], for one stamp or an
    array of them."""
    return np.clip(stamps / (match_length_min * 60.0), 0.0, 1.0)


@dataclass(frozen=True)
class GoalEvent:
    timestamp_s: float
    team: Team


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


def replay_runs(seen: Sequence[int], goals: int) -> list[tuple[slice, slice]]:
    """Goal and snapshot index slices in replay order, for snapshots in (timestamp,
    goals) order that have seen ``seen[k]`` of ``goals`` goals: each run of snapshots
    that have seen the same goals follows the goals it counts, and the goals after
    the last snapshot come last, with no snapshots."""
    firsts = np.flatnonzero(np.diff(seen, prepend=-1)).tolist()  # each run's first snapshot
    upto, bounds = [*np.take(seen, firsts).tolist(), goals], [*firsts, len(seen), len(seen)]
    pairs = zip([0, *upto], upto, bounds, bounds[1:])
    return [(slice(a, b), slice(lo, hi)) for a, b, lo, hi in pairs]


def allowed_scores(events: Sequence[GoalEvent], stamps, home, away) -> tuple[np.ndarray, ...]:
    """Per snapshot scored (home, away) at ``stamps`` (-1 goals for no score),
    whether the goals allow that score there, and the (home, away) score after
    every goal at or before the stamp."""
    lo, hi = (np.array(c, dtype=np.intp) for c in goal_counts(events, stamps))
    path, seen = np.array(score_path(events)), home + away
    on_path = (path[np.clip(seen, 0, len(events))] == np.column_stack((home, away))).all(axis=1)
    return (home >= 0) & (lo <= seen) & (seen <= hi) & on_path, *path[hi].T


@dataclass(frozen=True)
class MatchTimeline:
    """Goals and snapshots of one match.  ``snapshots`` is always a
    :class:`~inplay.calibration.SnapshotColumns` view: objects are converted
    by :meth:`~inplay.calibration.SnapshotColumns.of` on every construction,
    ``dataclasses.replace`` included.  Construction raises ValueError at
    the first snapshot that has no score, has one its goals do not allow,
    has a clock other than its stamp's (:func:`clocks_of`) or does not follow
    the one before in strict (timestamp, goals) order, naming its timestamp."""

    match_id: str
    events: tuple[GoalEvent, ...]
    snapshots: SnapshotColumns
    match_length_min: float = DEFAULT_MATCH_MINUTES
    half_length_min: float = DEFAULT_HALF_MINUTES

    def __post_init__(self) -> None:
        length_s = self.match_length_min * 60.0
        for ev in self.events:
            if not (0.0 <= ev.timestamp_s <= length_s):
                raise ValueError(f"goal at {ev.timestamp_s}s is outside the match")
        object.__setattr__(self, "snapshots", s := SnapshotColumns.of(self.snapshots))
        ts, home, away, clocks = s.timestamps, s.home, s.away, s.clocks
        ok, seen = allowed_scores(self.events, ts, home, away)[0], home + away
        stamped = clocks_of(ts, self.match_length_min)
        later = (ts[1:] < ts[:-1]) | ((ts[1:] == ts[:-1]) & (seen[1:] <= seen[:-1]))
        for i in np.flatnonzero(~ok | (clocks != stamped) | np.append(False, later))[:1].tolist():
            t = float(ts[i])
            if home[i] < 0:
                raise ValueError(f"snapshot at {t}s has no score")
            if not ok[i]:
                (lo,), (hi,) = goal_counts(self.events, [t])
                raise ValueError(
                    f"snapshot at {t}s: score {(int(home[i]), int(away[i]))} does not follow "
                    f"the goals, which allow {score_path(self.events)[lo : hi + 1]}"
                )
            if clocks[i] != stamped[i]:
                raise ValueError(
                    f"snapshot at {t}s has clock {clocks[i]}, not its stamp's {stamped[i]}"
                )
            raise ValueError(f"snapshot at {t}s is out of (timestamp, goals) order")

    @property
    def half_clock(self) -> float:
        return self.half_length_min / self.match_length_min

    def ht_score(self) -> tuple[int, int]:
        """Score at the end of the first half: goals stamped at or before it."""
        _, (through,) = goal_counts(self.events, [self.half_length_min * 60.0])
        return score_path(self.events)[through]
