"""Match timeline: goal events plus quote snapshots on one playing clock.

Timestamps are playing-time seconds from kickoff (the half-time break is not
on the clock).  Snapshots at a goal's exact timestamp may appear both before
and after the goal; they are disambiguated by their score, which lets a
model-consistent replay observe the last pre-goal and first post-goal prices
at the same instant.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterator, Literal

from .calibration import QuoteSnapshot
from .contracts import Team

__all__ = ["GoalEvent", "MatchTimeline"]

log = logging.getLogger(__name__)

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


@dataclass(frozen=True)
class MatchTimeline:
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
        ts = [e.timestamp_s for e in self.events]
        if any(b < a for a, b in zip(ts, ts[1:])):
            raise ValueError("goal events must be ordered by timestamp")

    @property
    def half_clock(self) -> float:
        return self.half_length_min / self.match_length_min

    def ht_score(self) -> tuple[int, int]:
        """Score at the end of the first half."""
        half_s = self.half_length_min * 60.0
        h = sum(1 for e in self.events if e.timestamp_s <= half_s and e.team is Team.HOME)
        a = sum(1 for e in self.events if e.timestamp_s <= half_s and e.team is Team.AWAY)
        return h, a

    def records(self) -> Iterator[Record]:
        """Snapshots and goals merged in replay order.

        A snapshot ties with a goal timestamp-wise; its score decides whether
        it represents the market just before or just after the goal.
        """
        running = [0, 0]
        i = 0
        events = self.events

        def score_of(snap: QuoteSnapshot) -> tuple[int, int] | None:
            if snap.state is None:
                return None
            return snap.state.home_goals, snap.state.away_goals

        for snap in self.snapshots:
            while i < len(events) and events[i].timestamp_s < snap.timestamp_s:
                running[0 if events[i].team is Team.HOME else 1] += 1
                yield ("goal", events[i])
                i += 1
            score = score_of(snap)
            while (
                i < len(events)
                and events[i].timestamp_s == snap.timestamp_s
                and score is not None
                and tuple(running) != score
            ):
                running[0 if events[i].team is Team.HOME else 1] += 1
                yield ("goal", events[i])
                i += 1
            if score is not None and tuple(running) != score:
                log.warning(
                    "snapshot at %ss carries score %s but events imply %s",
                    snap.timestamp_s,
                    score,
                    tuple(running),
                )
            yield ("snapshot", snap)
        while i < len(events):
            running[0 if events[i].team is Team.HOME else 1] += 1
            yield ("goal", events[i])
            i += 1
