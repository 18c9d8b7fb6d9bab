"""Dynamic replication of a target bet with two hedging instruments.

The canonical instruments are the Next Goal pair, whose delta matrix has
determinant exp(-(lam_home+lam_away)(1-tau)) and therefore never degenerates
before the final whistle.  The replay keeps a strict self-financing ledger:
portfolio value only ever changes through instrument price moves and
settlement payouts, never through injected cash.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from . import pricing
from .calibration import IntensitySeries
from .contracts import Bet, BetKind, Intensities, Team
from .pricing import Greeks
from .timeline import GoalEvent, MatchTimeline

__all__ = [
    "SingularHedgeError",
    "ReplicationWeights",
    "HedgeStep",
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
    steps: tuple[HedgeStep, ...]
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


def _solve_2x2(matrix: np.ndarray, rhs: tuple[float, float]) -> tuple[float, float]:
    m00, m01 = float(matrix[0, 0]), float(matrix[0, 1])
    m10, m11 = float(matrix[1, 0]), float(matrix[1, 1])
    det = m00 * m11 - m01 * m10
    if abs(det) <= _DET_TOL:
        raise SingularHedgeError(
            "hedging instruments are linearly dependent: "
            f"|det| = {abs(det):.3e} <= {_DET_TOL}"
        )
    d1, d2 = rhs
    return (d1 * m11 - m01 * d2) / det, (m00 * d2 - d1 * m10) / det


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
        rhs = (target.delta_home, target.delta_away)
    else:
        rhs = (float(target[0]), float(target[1]))
    psi1, psi2 = _solve_2x2(np.asarray(instrument_deltas, dtype=float), rhs)
    cash = target_value - psi1 * instrument_values[0] - psi2 * instrument_values[1]
    return ReplicationWeights(psi1, psi2, cash)


class _LambdaSource:
    def __init__(self, source: Intensities | IntensitySeries):
        if isinstance(source, Intensities):
            self._fixed = source
            self._times: list[float] = []
            self._values: list[Intensities] = []
        else:
            self._fixed = None
            valid = [p for p in source.points if p.result is not None]
            if not valid:
                raise ValueError("intensity series has no valid points")
            self._times = [p.timestamp_s for p in valid]
            self._values = [p.result.intensities for p in valid]

    def at(self, timestamp_s: float) -> Intensities | None:
        """The latest intensities stamped at or before the timestamp, if any."""
        if self._fixed is not None:
            return self._fixed
        idx = bisect_right(self._times, timestamp_s) - 1
        return self._values[idx] if idx >= 0 else None


def _mid_of(snapshot, bet: Bet) -> float | None:
    for q in snapshot.quotes:
        if q.bet == bet and q.two_sided:
            return q.value_mid
    return None


def replay_hedge(
    timeline: MatchTimeline,
    target: Bet,
    instruments: tuple[Bet, Bet],
    lam_source: Intensities | IntensitySeries,
) -> HedgeReport:
    """Replay a dynamic hedge of ``target`` across the timeline.

    At every snapshot the portfolio is marked from quoted mids and
    rebalanced to the weights solving the 2x2 jump-matching system, with
    deltas computed from the model at the supplied intensities.  Next Goal
    instruments settle at each goal (winner pays 1, loser 0, payout booked
    to cash) and are re-established at the next snapshot.  Steps where the
    solve is singular, quotes are missing, or no calibration stamped at or
    before the step exists yet are flagged and the position is carried
    unchanged; a step never uses intensities stamped after it.

    A Next Goal *target* settles at the first goal; the replay ends there,
    with the realized payout as the final target value (post-goal quotes
    refer to a fresh contract, not the one being replicated).
    """
    lam_at = _LambdaSource(lam_source)
    half_clock = timeline.half_clock
    needs_ht = [b.kind is BetKind.HT_FT for b in (target, *instruments)]
    ht_score = timeline.ht_score() if any(needs_ht) else None

    steps: list[HedgeStep] = []
    goals: list[GoalRecord] = []
    psi1 = psi2 = 0.0
    cash = 0.0
    initialized = False
    last_x: float | None = None
    last_z = (0.0, 0.0)
    pending: tuple[float, Team, float, float] | None = None

    def greeks_of(bet: Bet, state, lam) -> Greeks:
        ht = ht_score if bet.kind is BetKind.HT_FT and state.clock >= half_clock else None
        return pricing.greeks(bet, state, lam, half_clock, ht)

    for kind, record in timeline.records():
        if kind == "goal":
            ev: GoalEvent = record
            if not initialized:
                continue
            if pending is not None:
                # No snapshot between two goals: close the earlier record
                # against the stale marks and keep going.
                t0, team0, x_pre0, v_pre0 = pending
                v_now = cash + psi1 * last_z[0] + psi2 * last_z[1]
                goals.append(GoalRecord(t0, team0, x_pre0, last_x, v_pre0, v_now))
                pending = None
            x_pre = last_x
            v_pre = cash + psi1 * last_z[0] + psi2 * last_z[1]
            for idx, inst in enumerate(instruments):
                if inst.kind is BetKind.NEXT_GOAL_HOME:
                    payout = 1.0 if ev.team is Team.HOME else 0.0
                elif inst.kind is BetKind.NEXT_GOAL_AWAY:
                    payout = 1.0 if ev.team is Team.AWAY else 0.0
                else:
                    continue
                if idx == 0:
                    cash += psi1 * payout
                    psi1 = 0.0
                else:
                    cash += psi2 * payout
                    psi2 = 0.0
            if target.kind in (BetKind.NEXT_GOAL_HOME, BetKind.NEXT_GOAL_AWAY):
                # The replicated contract itself pays out and stops existing.
                won = (target.kind is BetKind.NEXT_GOAL_HOME) == (ev.team is Team.HOME)
                x_post = 1.0 if won else 0.0
                v_post = cash + psi1 * last_z[0] + psi2 * last_z[1]
                goals.append(
                    GoalRecord(ev.timestamp_s, ev.team, x_pre, x_post, v_pre, v_post)
                )
                steps.append(
                    HedgeStep(
                        ev.timestamp_s,
                        timeline.clock_of(ev.timestamp_s),
                        x_post,
                        v_post,
                        psi1,
                        psi2,
                        cash,
                        last_z[0],
                        last_z[1],
                        flag="target settled",
                    )
                )
                break
            pending = (ev.timestamp_s, ev.team, x_pre, v_pre)
            continue

        snap = record
        x = _mid_of(snap, target)
        z1 = _mid_of(snap, instruments[0])
        z2 = _mid_of(snap, instruments[1])
        if x is None or z1 is None or z2 is None:
            if not initialized:
                raise ValueError(
                    "first snapshot must quote the target and both instruments"
                )
            steps.append(
                HedgeStep(
                    snap.timestamp_s,
                    snap.state.clock,
                    last_x,
                    cash + psi1 * last_z[0] + psi2 * last_z[1],
                    psi1,
                    psi2,
                    cash,
                    last_z[0],
                    last_z[1],
                    flag="stale",
                )
            )
            continue

        if not initialized:
            cash = x  # fund the replication at the target's initial value
            initialized = True
        value = cash + psi1 * z1 + psi2 * z2

        if pending is not None:
            t0, team0, x_pre0, v_pre0 = pending
            goals.append(GoalRecord(t0, team0, x_pre0, x, v_pre0, value))
            pending = None

        lam = lam_at.at(snap.timestamp_s)
        flag = ""
        if lam is None:
            flag = "no intensity"
        else:
            try:
                tg = greeks_of(target, snap.state, lam)
                g1 = greeks_of(instruments[0], snap.state, lam)
                g2 = greeks_of(instruments[1], snap.state, lam)
                matrix = np.array(
                    [[g1.delta_home, g2.delta_home], [g1.delta_away, g2.delta_away]]
                )
                new1, new2 = _solve_2x2(matrix, (tg.delta_home, tg.delta_away))
                psi1, psi2 = new1, new2
                cash = value - psi1 * z1 - psi2 * z2
            except SingularHedgeError:
                flag = "singular"

        steps.append(
            HedgeStep(
                snap.timestamp_s,
                snap.state.clock,
                x,
                value,
                psi1,
                psi2,
                cash,
                z1,
                z2,
                flag=flag,
            )
        )
        last_x = x
        last_z = (z1, z2)

    if not steps:
        raise ValueError("timeline contains no usable snapshots")
    if pending is not None:
        t0, team0, x_pre0, v_pre0 = pending
        v_now = cash + psi1 * last_z[0] + psi2 * last_z[1]
        goals.append(GoalRecord(t0, team0, x_pre0, last_x, v_pre0, v_now))

    terminal_error = abs(steps[-1].portfolio_value - steps[-1].target_value)
    correlation: float | None = None
    if len(goals) >= 2:
        try:
            correlation, _ = jump_scatter_stats(
                HedgeReport(target, instruments, tuple(steps), tuple(goals), 0.0, None)
            )
        except ValueError:
            correlation = None
    return HedgeReport(
        target=target,
        instruments=instruments,
        steps=tuple(steps),
        goals=tuple(goals),
        terminal_error=terminal_error,
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
