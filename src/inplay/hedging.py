"""Dynamic replication of a target bet with two hedging instruments.

The canonical instruments are the Next Goal pair, whose delta matrix has
determinant exp(-(lam_home+lam_away)(1-tau)) and therefore never degenerates
before the final whistle.  The replay keeps a strict self-financing ledger:
portfolio value only ever changes through instrument price moves and
settlement payouts, never through injected cash.

Between goals and half time only the clock and the intensities move, so
the replay cuts its snapshots there alone and takes each bet's deltas over
a segment from one ``pricing.segment_greeks`` call, one row per snapshot at
the latest intensities stamped by then.  The 2x2 weight solves run once
per replay, over every snapshot's deltas at once; only the ledger runs per
snapshot, on the timeline's columns, and the report keeps the steps as
columns.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from . import pricing
from .calibration import IntensitySeries, SnapshotColumns
from .contracts import Bet, BetKind, Intensities, Team
from .pricing import Greeks
from .timeline import MatchTimeline, clock_of, replay_order

__all__ = [
    "SingularHedgeError",
    "ReplicationWeights",
    "HedgeStep",
    "HedgeSteps",
    "GoalRecord",
    "HedgeReport",
    "next_goal_delta_matrix",
    "solve_replication_weights",
    "replay_hedge",
    "jump_scatter_stats",
]

_DET_TOL = 1e-12


class SingularHedgeError(ValueError):
    """The instruments' delta vectors are (numerically) linearly dependent."""


@dataclass(frozen=True)
class ReplicationWeights:
    """Holdings in the two instruments plus the bond (cash) position."""

    psi1: float
    psi2: float
    cash: float


@dataclass(frozen=True)
class HedgeStep:
    timestamp_s: float
    clock: float
    target_value: float
    portfolio_value: float
    psi1: float
    psi2: float
    cash: float
    z1: float
    z2: float
    flag: str = ""


class HedgeSteps(Sequence):
    """Steps as columns, one tuple per :class:`HedgeStep` field, named after
    it.  An integer index builds the :class:`HedgeStep`; a slice selects
    another view.  A view equals, and hashes as, the tuple of its steps."""

    __slots__ = tuple(f.name for f in fields(HedgeStep))

    def __init__(self, *columns):
        for name, column in zip(self.__slots__, columns, strict=True):
            setattr(self, name, tuple(column))

    def __len__(self) -> int:
        return len(self.timestamp_s)

    def __getitem__(self, i):
        cells = (getattr(self, name)[i] for name in self.__slots__)
        return HedgeSteps(*cells) if isinstance(i, slice) else HedgeStep(*cells)

    def __eq__(self, other):
        if isinstance(other, tuple):
            return tuple(self) == other
        same = (getattr(self, n) == getattr(other, n) for n in self.__slots__)
        return isinstance(other, HedgeSteps) and all(same)

    def __hash__(self) -> int:
        return hash(tuple(self))


@dataclass(frozen=True)
class GoalRecord:
    timestamp_s: float
    team: Team
    target_pre: float
    target_post: float
    portfolio_pre: float
    portfolio_post: float


@dataclass(frozen=True)
class HedgeReport:
    target: Bet
    instruments: tuple[Bet, Bet]
    steps: HedgeSteps
    goals: tuple[GoalRecord, ...]
    terminal_error: float
    jump_correlation: float | None

    def __post_init__(self) -> None:  # steps given as HedgeStep objects become columns
        if not isinstance(self.steps, HedgeSteps):
            columns = ([getattr(s, name) for s in self.steps] for name in HedgeSteps.__slots__)
            object.__setattr__(self, "steps", HedgeSteps(*columns))


def next_goal_delta_matrix(z1: float, z2: float) -> np.ndarray:
    """Delta matrix [[1-z1, -z2], [-z1, 1-z2]] of the Next Goal pair.

    Its determinant is 1 - z1 - z2, which under the model equals
    exp(-(lam_home+lam_away)(1-tau)) and is strictly positive before the end.
    """
    if not (0.0 <= z1 < 1.0 and 0.0 <= z2 < 1.0):
        raise ValueError("Next Goal values must lie in [0, 1)")
    if z1 + z2 >= 1.0:
        raise ValueError("degenerate Next Goal instruments: values sum to >= 1")
    return np.array([[1.0 - z1, -z2], [-z1, 1.0 - z2]])


def solve_replication_weights(
    target: Greeks | tuple[float, float],
    instrument_deltas: np.ndarray,
    target_value: float = 0.0,
    instrument_values: tuple[float, float] = (0.0, 0.0),
) -> ReplicationWeights:
    """Solve for holdings matching the target's jump on either goal.

    The columns of ``instrument_deltas`` are the per-instrument (home, away)
    deltas.  Cash is set so the portfolio is worth exactly the target value
    at the rebalance instant.
    """
    if isinstance(target, Greeks):
        d1, d2 = target.delta_home, target.delta_away
    else:
        d1, d2 = float(target[0]), float(target[1])
    (m00, m01), (m10, m11) = np.asarray(instrument_deltas, dtype=float).tolist()
    det = m00 * m11 - m01 * m10
    if abs(det) <= _DET_TOL:
        raise SingularHedgeError(
            "hedging instruments are linearly dependent: "
            f"|det| = {abs(det):.3e} <= {_DET_TOL}"
        )
    psi1, psi2 = (d1 * m11 - m01 * d2) / det, (m00 * d2 - d1 * m10) / det
    cash = target_value - psi1 * instrument_values[0] - psi2 * instrument_values[1]
    return ReplicationWeights(psi1, psi2, cash)


def _next_goal_payout(bet: Bet, scorer: Team) -> float | None:
    """What a Next Goal bet pays when ``scorer`` scores; None for other bets."""
    if bet.kind is BetKind.NEXT_GOAL_HOME:
        return 1.0 if scorer is Team.HOME else 0.0
    if bet.kind is BetKind.NEXT_GOAL_AWAY:
        return 1.0 if scorer is Team.AWAY else 0.0
    return None


def _first_mids(snaps: SnapshotColumns, bet: Bet) -> np.ndarray:
    """Per snapshot, the mid of the bet's first two-sided quote; NaN where none is."""
    table, out = snaps.table, np.full(len(snaps), np.nan)
    if bet not in table.bets:
        return out
    rows = np.flatnonzero(table.two_sided & (table.bet_ix == table.bets.index(bet)))
    # The first such row at or after each snapshot's start, if before its stop.
    first = np.append(rows, len(table.mid))[np.searchsorted(rows, snaps.starts)]
    found = first < snaps.stops
    out[found] = table.mid[first[found]]
    return out


def _segment_deltas(
    snaps: SnapshotColumns,
    bets: tuple[Bet, ...],
    at: np.ndarray,
    lam: np.ndarray,
    half_clock: float,
    ht_score: tuple[int, int] | None,
) -> np.ndarray:
    """Per snapshot, the bets' home deltas and their away deltas, shape
    (snapshots, 2, bets), at the snapshot's (home, away) row ``at`` of
    ``lam`` (NaN where ``at`` is -1: no intensities yet).

    A segment is a run of snapshots with one score, on one side of half
    time and with intensities at all of them or none; each bet's deltas
    over it are one ``pricing.segment_greeks`` call.
    """
    home, away, clocks = snaps.home, snaps.away, snaps.clocks
    key = np.column_stack((home, away, at >= 0, clocks >= half_clock))
    cuts = (np.flatnonzero((key[1:] != key[:-1]).any(axis=1)) + 1).tolist()
    out = np.full((len(snaps), 2, len(bets)), np.nan)  # (snapshot, team, bet)
    for lo, hi in zip([0, *cuts], [*cuts, len(snaps)]):
        if lo == hi or at[lo] < 0:
            continue
        score, rows = (int(home[lo]), int(away[lo])), lam[at[lo:hi]]
        for b, bet in enumerate(bets):
            d1, d2, _ = pricing.segment_greeks(
                bet, score, rows, clocks[lo:hi], half_clock, ht_score
            )
            out[lo:hi, 0, b], out[lo:hi, 1, b] = d1, d2
    return out


def _stack_weights(deltas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per snapshot of a (snapshots, 2, 3) delta stack, psi1, psi2 and whether the
    solve is singular, each as :func:`solve_replication_weights` computes it."""
    (d1, m00, m01), (d2, m10, m11) = deltas.transpose(1, 2, 0)
    det = m00 * m11 - m01 * m10
    with np.errstate(divide="ignore", invalid="ignore"):
        psi1, psi2 = (d1 * m11 - m01 * d2) / det, (m00 * d2 - d1 * m10) / det
    return psi1, psi2, np.abs(det) <= _DET_TOL


def replay_hedge(
    timeline: MatchTimeline,
    target: Bet,
    instruments: tuple[Bet, Bet],
    lam_source: Intensities | IntensitySeries,
) -> HedgeReport:
    """Replay a dynamic hedge of ``target`` across the timeline.

    At every snapshot the portfolio is marked from quoted mids (a bet's
    first two-sided quote) and rebalanced to the weights solving the 2x2
    jump-matching system, with deltas computed from the model at the
    supplied intensities.  Next Goal instruments settle at each goal (winner
    pays 1, loser 0, payout booked to cash) and are re-established at the
    next snapshot.  Steps where the solve is singular, quotes are missing,
    or no calibration stamped at or before the step exists yet are flagged
    and the position is carried unchanged; a step never uses intensities
    stamped after it.  Goals before the first usable snapshot are skipped.
    A goal's record closes on the marks of the next usable snapshot, or on
    the last marks when another goal or the end of the timeline comes first.

    A Next Goal *target* settles at the first goal; the replay ends there,
    with the realized payout as the final target value (post-goal quotes
    refer to a fresh contract, not the one being replicated).
    """
    if isinstance(lam_source, Intensities):
        lam_times, lam_values = [-math.inf], [lam_source]
    else:
        valid = lam_source.valid()
        if not valid:
            raise ValueError("intensity series has no valid points")
        lam_times = [p.timestamp_s for p in valid]
        lam_values = [p.result.intensities for p in valid]
    lam_rows = np.array([(v.home, v.away) for v in lam_values])
    bets = (target, *instruments)
    snaps = SnapshotColumns.of(timeline.snapshots)
    if len(snaps) and _next_goal_payout(target, Team.HOME) is not None:
        # The ledger stops at the first goal after the first snapshot.
        seen = snaps.home + snaps.away
        snaps = snaps[: np.searchsorted(seen, seen[0], side="right")]
    mids = np.column_stack([_first_mids(snaps, b) for b in bets])
    quoted = (~np.isnan(mids).any(axis=1)).tolist()
    mids = mids.tolist()
    half_clock = timeline.half_clock
    ht_score = timeline.ht_score() if any(b.kind is BetKind.HT_FT for b in bets) else None

    # The latest intensities stamped at or before each snapshot, -1 if none.
    at = np.searchsorted(lam_times, snaps.timestamps, side="right") - 1
    deltas = _segment_deltas(snaps, bets, at, lam_rows, half_clock, ht_score)
    psi1, psi2, singular = _stack_weights(deltas)
    flags = np.where(at < 0, "no intensity", np.where(singular, "singular", "")).tolist()
    psi1, psi2 = psi1.tolist(), psi2.tolist()
    times, clocks = snaps.timestamps.tolist(), snaps.clocks.tolist()

    rows: list[tuple] = []  # one per step, in HedgeStep's field order
    goals: list[GoalRecord] = []
    psi = [0.0, 0.0]
    cash = 0.0
    last_x: float | None = None  # target mid at the last usable snapshot
    last_z = (0.0, 0.0)
    pending: tuple[float, Team, float, float] | None = None  # goal awaiting its marks

    def mark(z: tuple[float, float]) -> float:
        return cash + psi[0] * z[0] + psi[1] * z[1]

    def close_goal(x_post: float, v_post: float) -> None:
        nonlocal pending
        if pending is not None:
            t, team, x_pre, v_pre = pending
            goals.append(GoalRecord(t, team, x_pre, x_post, v_pre, v_post))
            pending = None

    def add_step(t, clock, x, value, z, flag) -> None:
        rows.append((t, clock, x, value, psi[0], psi[1], cash, z[0], z[1], flag))

    for kind, k in replay_order((snaps.home + snaps.away).tolist(), len(timeline.events)):
        if kind == "goal":
            if last_x is None:
                continue
            ev = timeline.events[k]
            v_pre = mark(last_z)
            close_goal(last_x, v_pre)
            for i, inst in enumerate(instruments):
                payout = _next_goal_payout(inst, ev.team)
                if payout is not None:
                    cash += psi[i] * payout
                    psi[i] = 0.0
            pending = (ev.timestamp_s, ev.team, last_x, v_pre)
            x_post = _next_goal_payout(target, ev.team)
            if x_post is not None:
                # The replicated contract itself pays out and stops existing.
                v_post = mark(last_z)
                close_goal(x_post, v_post)
                t = ev.timestamp_s
                clock = clock_of(t, timeline.match_length_min)
                add_step(t, clock, x_post, v_post, last_z, "target settled")
                break
            continue

        if not quoted[k]:
            if last_x is None:
                raise ValueError("first snapshot must quote the target and both instruments")
            add_step(times[k], clocks[k], last_x, mark(last_z), last_z, "stale")
            continue

        x, z1, z2 = mids[k]
        z = (z1, z2)
        if last_x is None:
            cash = x  # fund the replication at the target's initial value
        value = mark(z)
        close_goal(x, value)

        flag = flags[k]
        if not flag:
            psi = [psi1[k], psi2[k]]
            cash = value - psi[0] * z1 - psi[1] * z2
        add_step(times[k], clocks[k], x, value, z, flag)
        last_x, last_z = x, z

    if not rows:
        raise ValueError("timeline contains no usable snapshots")
    close_goal(last_x, mark(last_z))
    steps = HedgeSteps(*zip(*rows))

    goals_t = tuple(goals)
    try:
        correlation, _ = jump_scatter_stats(
            HedgeReport(target, instruments, steps, goals_t, 0.0, None)
        )
    except ValueError:  # fewer than two goals, or no jump variance
        correlation = None
    return HedgeReport(
        target=target,
        instruments=instruments,
        steps=steps,
        goals=goals_t,
        terminal_error=abs(steps.portfolio_value[-1] - steps.target_value[-1]),
        jump_correlation=correlation,
    )


def jump_scatter_stats(
    reports: HedgeReport | list[HedgeReport],
) -> tuple[float, list[tuple[float, float]]]:
    """Pearson correlation of (target jump, portfolio jump) across goals.

    Accepts one report or several (to pool goals across target bets, as in
    a per-game diagnostic).
    """
    if isinstance(reports, HedgeReport):
        reports = [reports]
    pairs = [
        (g.target_post - g.target_pre, g.portfolio_post - g.portfolio_pre)
        for rep in reports
        for g in rep.goals
    ]
    if len(pairs) < 2:
        raise ValueError("need at least two goal records for a correlation")
    xs = np.array([p[0] for p in pairs])
    ys = np.array([p[1] for p in pairs])
    sx, sy = xs.std(), ys.std()
    if sx == 0.0 or sy == 0.0:
        raise ValueError("jump series has zero variance")
    corr = float(np.corrcoef(xs, ys)[0, 1])
    return corr, pairs
