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
goal, as array arithmetic over the snapshots in between, and the report
keeps the steps as columns.
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
from .timeline import MatchTimeline, clocks_of, replay_runs

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
    another view.  A view equals another view with equal columns, and
    hashes on its columns."""

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
        same = (getattr(self, n) == getattr(other, n) for n in self.__slots__)
        return isinstance(other, HedgeSteps) and all(same)

    def __hash__(self) -> int:
        return hash(tuple(getattr(self, n) for n in self.__slots__))


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
        target = (target.delta_home, target.delta_away)
    deltas = np.column_stack((target, np.asarray(instrument_deltas, dtype=float)))
    (psi1,), (psi2,), (det,) = (x.tolist() for x in _stack_weights(deltas[None]))
    if abs(det) <= _DET_TOL:
        raise SingularHedgeError(
            "hedging instruments are linearly dependent: "
            f"|det| = {abs(det):.3e} <= {_DET_TOL}"
        )
    cash = target_value - psi1 * instrument_values[0] - psi2 * instrument_values[1]
    return ReplicationWeights(psi1, psi2, cash)


def _next_goal_payout(bet: Bet, scorer: Team) -> float | None:
    """What a Next Goal bet pays when ``scorer`` scores; None for other bets."""
    if bet.kind is BetKind.NEXT_GOAL_HOME:
        return 1.0 if scorer is Team.HOME else 0.0
    if bet.kind is BetKind.NEXT_GOAL_AWAY:
        return 1.0 if scorer is Team.AWAY else 0.0
    return None


def _mids(snaps: SnapshotColumns, bet: Bet) -> np.ndarray:
    """Per snapshot, the mid of the bet's quote; NaN where it is not two-sided."""
    if bet not in snaps.bets:
        return np.full(len(snaps), np.nan)
    return snaps.mid[:, snaps.bets.index(bet)]


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
    """psi1, psi2 and the instruments' determinant per row of a (rows, 2, 3)
    stack of (home, away) deltas of the target and the two instruments:
    Cramer's rule for the 2x2 jump-matching system, singular where
    |det| <= ``_DET_TOL``."""
    (d1, m00, m01), (d2, m10, m11) = deltas.transpose(1, 2, 0)
    det = m00 * m11 - m01 * m10
    with np.errstate(divide="ignore", invalid="ignore"):
        psi1, psi2 = (d1 * m11 - m01 * d2) / det, (m00 * d2 - d1 * m10) / det
    return psi1, psi2, det


def _ledger(cash, psi, last, mids, weights, rebalance) -> np.ndarray:
    """One run of snapshots between goals, as HedgeStep's columns from
    target_value to z2, shape (7, snapshots).  The run opens holding ``cash``
    and ``psi``; ``last`` holds the (target, z1, z2) mids marked last.  A step
    marks its ``mids`` if they have no NaN and the last marks otherwise
    (stale), and takes its ``weights`` where it may ``rebalance``.  Only a
    rebalance moves cash, by +psi_old.z1 +psi_old.z2 -psi_new.z1 -psi_new.z2,
    and ``np.add.accumulate`` adds strictly left to right, so every mark and
    cash equals a per-step loop's bit for bit."""
    quoted = ~np.isnan(mids).any(axis=1)
    held = np.maximum.accumulate(np.where(quoted, np.arange(1, len(mids) + 1), 0))
    marks = np.vstack((last, mids))[held]
    r = np.flatnonzero(rebalance)
    psis, z = np.vstack((psi, weights[r])), marks[r, 1:]  # the weights held after each rebalance
    chain = np.column_stack((psis[:-1] * z, -(psis[1:] * z)))
    cashes = np.add.accumulate(np.append(cash, chain))[::4]
    after = np.cumsum(rebalance)
    before = after - rebalance
    value = cashes[before] + psis[before, 0] * marks[:, 1] + psis[before, 1] * marks[:, 2]
    return np.vstack((marks[:, 0], value, *psis[after].T, cashes[after], *marks[:, 1:].T))


def replay_hedge(
    timeline: MatchTimeline,
    target: Bet,
    instruments: tuple[Bet, Bet],
    lam_source: Intensities | IntensitySeries,
) -> HedgeReport:
    """Replay a dynamic hedge of ``target`` across the timeline.

    At every snapshot the portfolio is marked from quoted mids (each bet's
    quote, where it is two-sided) and rebalanced to the weights solving the 2x2
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
        lam_times, lam_rows = [-math.inf], np.array([[lam_source.home, lam_source.away]])
    else:
        valid = lam_source.valid()
        if not valid:
            raise ValueError("intensity series has no valid points")
        lam_times = [p.timestamp_s for p in valid]
        lam_rows = np.array([(p.result.intensities.home, p.result.intensities.away) for p in valid])
    bets = (target, *instruments)
    snaps = timeline.snapshots
    if len(snaps) and _next_goal_payout(target, Team.HOME) is not None:
        # The ledger stops at the first goal after the first snapshot.
        seen = snaps.home + snaps.away
        snaps = snaps[: np.searchsorted(seen, seen[0], side="right")]
    if not len(snaps):
        raise ValueError("timeline contains no usable snapshots")
    mids = np.column_stack([_mids(snaps, b) for b in bets])
    quoted = ~np.isnan(mids).any(axis=1)
    if not quoted[0]:
        raise ValueError("first snapshot must quote the target and both instruments")
    ht_score = timeline.ht_score() if any(b.kind is BetKind.HT_FT for b in bets) else None

    # The latest intensities stamped at or before each snapshot, -1 if none.
    at = np.searchsorted(lam_times, snaps.timestamps, side="right") - 1
    deltas = _segment_deltas(snaps, bets, at, lam_rows, timeline.half_clock, ht_score)
    psi1, psi2, det = _stack_weights(deltas)
    flags = np.where(at < 0, "no intensity", np.where(np.abs(det) <= _DET_TOL, "singular", ""))
    flags = np.where(quoted, flags, "stale")
    weights, rebalance = np.column_stack((psi1, psi2)), flags == ""

    columns = np.empty((7, len(snaps)))  # HedgeStep's fields from target_value to z2
    goals: list[GoalRecord] = []
    # Fund the replication at the target's initial value; ``last`` holds the
    # (target, z1, z2) mids marked last.
    cash, psi, last = mids[0, 0].item(), [0.0, 0.0], [math.nan] * 3
    pending: tuple[float, Team, float, float] | None = None  # goal awaiting its marks
    settled: tuple | None = None  # a Next Goal target's last step

    def mark() -> float:
        return cash + psi[0] * last[1] + psi[1] * last[2]

    def close_goal(x_post: float, v_post: float) -> None:
        nonlocal pending
        if pending is not None:
            t, team, x_pre, v_pre = pending
            goals.append(GoalRecord(t, team, x_pre, x_post, v_pre, v_post))
            pending = None

    for goals_in, run in replay_runs(snaps.home + snaps.away, len(timeline.events)):
        for ev in timeline.events[goals_in] if run.start else ():  # none before the first snapshot
            v_pre = mark()
            close_goal(last[0], v_pre)
            for i, inst in enumerate(instruments):
                payout = _next_goal_payout(inst, ev.team)
                if payout is not None:
                    cash += psi[i] * payout
                    psi[i] = 0.0
            pending = (ev.timestamp_s, ev.team, last[0], v_pre)
            x_post = _next_goal_payout(target, ev.team)
            if x_post is not None:
                # The replicated contract itself pays out and stops existing.
                close_goal(x_post, mark())
                clock = float(clocks_of(ev.timestamp_s, timeline.match_length_min))
                settled = (ev.timestamp_s, clock, x_post, mark(), *psi, cash, *last[1:])
                break
        if settled or run.start == run.stop:
            break
        columns[:, run] = _ledger(cash, psi, last, mids[run], weights[run], rebalance[run])
        for k in np.flatnonzero(quoted[run])[:1].tolist():  # the first usable snapshot
            close_goal(*columns[:2, run.start + k].tolist())
        last[0], _, psi[0], psi[1], cash, last[1], last[2] = columns[:, run.stop - 1].tolist()
    close_goal(last[0], mark())

    steps = [snaps.timestamps.tolist(), snaps.clocks.tolist(), *columns.tolist(), flags.tolist()]
    for column, cell in zip(steps, (*settled, "target settled") if settled else ()):
        column.append(cell)
    steps = HedgeSteps(*steps)
    try:
        correlation = _jump_stats(goals)[0]
    except ValueError:  # fewer than two goals, or no jump variance
        correlation = None
    error = abs(steps.portfolio_value[-1] - steps.target_value[-1])
    return HedgeReport(target, instruments, steps, tuple(goals), error, correlation)


def jump_scatter_stats(
    reports: HedgeReport | list[HedgeReport],
) -> tuple[float, list[tuple[float, float]]]:
    """Pearson correlation of (target jump, portfolio jump) across goals.

    Accepts one report or several (to pool goals across target bets, as in
    a per-game diagnostic).
    """
    if isinstance(reports, HedgeReport):
        reports = [reports]
    return _jump_stats([g for rep in reports for g in rep.goals])


def _jump_stats(goals: Sequence[GoalRecord]) -> tuple[float, list[tuple[float, float]]]:
    """The correlation and (target jump, portfolio jump) pairs of
    :func:`jump_scatter_stats` over ``goals``."""
    pairs = [(g.target_post - g.target_pre, g.portfolio_post - g.portfolio_pre) for g in goals]
    if len(pairs) < 2:
        raise ValueError("need at least two goal records for a correlation")
    xs, ys = np.array(pairs).T
    if xs.std() == 0.0 or ys.std() == 0.0:
        raise ValueError("jump series has zero variance")
    return float(np.corrcoef(xs, ys)[0, 1]), pairs
