"""Implied-intensity calibration against quote snapshots, held as one
:class:`SnapshotColumns` grid with a quote per (snapshot, bet) cell at most.

A snapshot is fitted by minimising the root-mean-square of its usable
quotes' mid-versus-model differences, each in units of that quote's half
bid-ask spread; usable quotes are two-sided European ones with a mid inside
:data:`MID_FILTER`.  The fit is a Levenberg-Marquardt solve on (log lam_home,
log lam_away) with the exact Jacobian dV/dlam_i = (1 - tau) * delta_i of a
:class:`~inplay.pricing.EuropeanBoard`.

A series is fitted in one batched solve.  Its snapshots share one board over
the bets any of them quotes usably, where weight 0 marks a bet a snapshot
has no usable quote on, and one loop fits them all: each evaluation prices every
still-active snapshot at once, whatever its score, and each step solves
their damped 2x2 normal equations in closed form, moves at most 1 in either
log intensity and is projected into :data:`LAMBDA_BOX`; damping, acceptance
and the box hold are per snapshot.  The first identifiable snapshot is
fitted alone from :data:`COLD_START`, and every later one starts from its
fit, so no start comes from a later snapshot.  :func:`calibrate_snapshot`
and :func:`objective` are the one-snapshot case.

A fit converges once the gradient vanishes, once the part of the residual
the Jacobian can still explain is below 1e-14 of the cost, or once a step
that could gain no more than the rounding error of comparing two costs,
8 eps sum |r_k| / half_k, fails to lower it: the test that holds at
quote-rounding level.  It is flagged unconverged if it ends with an
intensity held on the box, after 25 rejected steps in a row or at 100
evaluations.  Uncertainties come from inverting the normal matrix at the
fit, so they inherit the spreads' scale.  A snapshot is identifiable when the
condition number of its residual Jacobian at the start point, the one
:attr:`CalibrationResult.condition` reports at the fit, is below
:data:`CONDITION_MAX`: det = a c - b^2 rounds by about K eps a c over K
quotes, so from about 1/sqrt(K eps), 1e7 for K = 31, it reads like singular.
Scale-free tests (the angle between two rows, det / (a c)) pass a row or a
column that is only rounding noise; the condition number does not.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .contracts import Bet, Intensities, Quote, ScoreState
from . import pricing

__all__ = [
    "QuoteSnapshot",
    "SnapshotColumns",
    "CalibrationResult",
    "SeriesPoint",
    "IntensitySeries",
    "IdentifiabilityError",
    "objective",
    "calibrate_snapshot",
    "calibrate_series",
    "estimate_drift_vol",
]

log = logging.getLogger(__name__)

COLD_START = Intensities(1.3, 1.1)

# Quotes in effectively settled bets carry no information and break the
# spread weighting, so they are dropped from the residual.
MID_FILTER = (0.001, 0.999)

# Iterates stay inside this box: the score grid grows with the intensity,
# so an unbounded step can ask for a grid of arbitrary size.
LAMBDA_BOX = (1e-4, 50.0)

# Snapshots whose Jacobian at the start point is this ill-conditioned are gaps.
CONDITION_MAX = 1e6

_MAX_LOG_STEP = 1.0
_MAX_EVALUATIONS = 100
_GRAD_TOL = 1e-10
_EXPLAINED_TOL = 1e-14
_EPS = np.finfo(float).eps
_DAMPING_START = 1e-3
_DAMPING_MAX = 1e12


class IdentifiabilityError(ValueError):
    """Snapshot cannot pin down two intensities."""


@dataclass(frozen=True)
class QuoteSnapshot:
    """All quotes observed at one timestamp, with the score in effect."""

    timestamp_s: float
    state: ScoreState
    quotes: tuple[Quote, ...]


class SnapshotColumns(Sequence):
    """Snapshots as a grid, a row per snapshot and a column per bet of
    ``bets``: a bet has at most one quote in a snapshot.

    Per snapshot: timestamp, home and away goals (-1 for no score) and clock.
    Per cell: the ``back`` and ``lay`` decimals and the ``buy`` and ``sell``
    values, NaN where a side is absent; values default to ``1 / decimal``,
    the arithmetic of ``value_from_decimal``.  ``two_sided``, ``mid`` and
    ``spread`` per cell and ``european`` per column are derived once, with
    the arithmetic of :class:`Quote`, and views share them.  An integer index
    builds the :class:`QuoteSnapshot` and its :class:`Quote` objects, in
    column order; a slice or an index array selects a view of those rows.
    """

    _ROWS = ("timestamps", "home", "away", "clocks", "back", "lay", "buy", "sell", "two_sided",
             "mid", "spread")
    __slots__ = ("bets", "european", *_ROWS)

    def __init__(self, bets, timestamps, home, away, clocks, back, lay, buy=None, sell=None):
        self.bets: tuple[Bet, ...] = tuple(bets)
        self.european = np.array([b.european for b in self.bets], dtype=bool)
        self.timestamps, self.home, self.away, self.clocks = timestamps, home, away, clocks
        self.back = np.asarray(back, dtype=float)
        self.lay = np.asarray(lay, dtype=float)
        self.buy = 1.0 / self.back if buy is None else np.asarray(buy, dtype=float)
        self.sell = 1.0 / self.lay if sell is None else np.asarray(sell, dtype=float)
        self.two_sided = ~(np.isnan(self.buy) | np.isnan(self.sell))
        self.mid = 0.5 * (self.buy + self.sell)
        self.spread = np.abs(self.buy - self.sell)

    @classmethod
    def from_rows(cls, bets, timestamps, home, away, clocks, snap, col, *sides) -> SnapshotColumns:
        """The grid with quote row k in cell (``snap[k]``, ``col[k]``); ``sides``
        are the rows' back and lay decimals, then optionally their buy and
        sell values.  A cell given twice raises ValueError naming the bet and
        the snapshot's timestamp, the earliest first."""
        shape = (len(timestamps), len(bets))
        cell = np.asarray(snap, dtype=np.intp) * shape[1] + np.asarray(col, dtype=np.intp)
        for c in np.flatnonzero(np.bincount(cell, minlength=math.prod(shape)) > 1)[:1].tolist():
            i, j = divmod(c, shape[1])
            raise ValueError(f"{bets[j]} is quoted twice in the snapshot at {timestamps[i]:.15g}s")
        grids = np.full((len(sides), math.prod(shape)), np.nan)
        for grid, side in zip(grids, sides):  # a side at a time: lists convert one by one
            grid[cell] = side
        return cls(bets, timestamps, home, away, clocks, *grids.reshape(len(sides), *shape))

    @classmethod
    def of(cls, snapshots: Sequence[QuoteSnapshot]) -> SnapshotColumns:
        """``snapshots`` as a view: a view as it is, any other sequence
        converted, its bets in the order they first appear."""
        if isinstance(snapshots, SnapshotColumns):
            return snapshots
        index: dict[Bet, int] = {}
        snap, col, sides = [], [], ([], [], [], [])
        for i, s in enumerate(snapshots):
            for q in s.quotes:
                snap.append(i)
                col.append(index.setdefault(q.bet, len(index)))
                values = (q.back_decimal, q.lay_decimal, q.value_buy, q.value_sell)
                for side, v in zip(sides, values):
                    side.append(math.nan if v is None else v)
        states = [s.state for s in snapshots]
        return cls.from_rows(
            tuple(index),
            np.array([s.timestamp_s for s in snapshots], dtype=float),
            np.array([-1 if st is None else st.home_goals for st in states], dtype=np.intp),
            np.array([-1 if st is None else st.away_goals for st in states], dtype=np.intp),
            np.array([math.nan if st is None else st.clock for st in states], dtype=float),
            snap, col, *sides,
        )

    def __len__(self) -> int:
        return len(self.timestamps)

    def __getitem__(self, i):
        if not isinstance(i, (int, np.integer)):  # a view: nothing is derived again
            view = object.__new__(SnapshotColumns)
            view.bets, view.european = self.bets, self.european
            for name in self._ROWS:
                setattr(view, name, getattr(self, name)[i])
            return view
        i = range(len(self))[i]
        home, away = int(self.home[i]), int(self.away[i])
        state = ScoreState(home, away, float(self.clocks[i])) if home >= 0 else None
        cells = np.column_stack([getattr(self, n)[i] for n in ("back", "lay", "buy", "sell")])
        quotes = tuple(
            Quote(self.bets[j], *(None if math.isnan(c) else c for c in cells[j].tolist()))
            for j in np.flatnonzero(~np.isnan(cells).all(axis=1)).tolist()
        )
        return QuoteSnapshot(float(self.timestamps[i]), state, quotes)


@dataclass(frozen=True)
class CalibrationResult:
    """One snapshot's fit.

    ``residual`` is the rms residual in half-spread units, ``iterations``
    the number of board evaluations the solve made, ``condition`` the
    condition number of the residual Jacobian at the fit and
    ``truncation_bound`` the board's omitted probability mass there.
    """

    intensities: Intensities
    residual: float
    stderr_home: float
    stderr_away: float
    iterations: int
    converged: bool
    condition: float = math.nan
    truncation_bound: float = 0.0


@dataclass(frozen=True)
class SeriesPoint:
    """One calibration step; result is None where the step failed (a gap)."""

    timestamp_s: float
    result: CalibrationResult | None


@dataclass(frozen=True)
class IntensitySeries:
    points: tuple[SeriesPoint, ...]

    def __post_init__(self) -> None:
        ts = [p.timestamp_s for p in self.points]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("series timestamps must be strictly increasing")

    def valid(self) -> list[SeriesPoint]:
        return [p for p in self.points if p.result is not None]


class _Segment:
    """The usable quotes of a series' snapshots, on one board over the bets
    some snapshot quotes usably.  ``weight`` is 1 / half-spread on a quote
    and 0 off one, where ``mid`` is 0 and so is the residual.  No score or a
    zero spread raises, naming the earliest snapshot.  The solve holds only
    the per-snapshot cost, gradient and 2x2 normal blocks of :meth:`residuals`."""

    def __init__(self, snaps: SnapshotColumns):
        mid = snaps.mid
        usable = snaps.two_sided & snaps.european & (MID_FILTER[0] < mid) & (mid < MID_FILTER[1])
        unscored = np.flatnonzero(snaps.home < 0).tolist() + [len(snaps)]
        for i, j in np.argwhere(usable[: unscored[0]] & (snaps.spread[: unscored[0]] == 0.0))[:1]:
            raise ValueError(
                f"zero spread on quote for {snaps.bets[j]} in the snapshot at "
                f"{float(snaps.timestamps[i]):.15g}s"
            )
        if (i := unscored[0]) < len(snaps):
            raise ValueError(f"the snapshot at {float(snaps.timestamps[i]):.15g}s has no score")
        cols = np.flatnonzero(usable.any(axis=0))
        usable, spread = usable[:, cols], snaps.spread[:, cols]
        self.mid = np.where(usable, mid[:, cols], 0.0)
        self.weight = np.divide(2.0, spread, out=np.zeros_like(spread), where=usable)
        self.count = usable.sum(axis=1)
        self.board = pricing.EuropeanBoard([snaps.bets[j] for j in cols.tolist()])
        self.clocks, self.scores = snaps.clocks, np.column_stack((snaps.home, snaps.away))

    def residuals(self, idx: np.ndarray, lam: np.ndarray) -> tuple:
        """Per snapshot of ``idx`` at its row of ``lam``, for residuals r with
        Jacobian j in lam: the cost r.r, gradient j^T r, 2x2 normal matrix
        j^T j and sum |r_k| w_k; then the board's truncation bound."""
        w = self.weight[idx]
        fit = self.board.evaluate(lam, self.clocks[idx], self.scores[idx], w > 0.0)
        r = w * (self.mid[idx] - fit.values)
        j = np.multiply(fit.jacobian, -w[..., None], out=fit.jacobian)  # the largest array
        cost, l1 = np.einsum("sk,sk->s", r, r), np.einsum("sk,sk->s", np.abs(r), w)
        grad, normal = np.einsum("sk,ski->si", r, j), np.swapaxes(j, 1, 2) @ j
        return cost, grad, normal, l1, fit.truncation_bound


def _solve2(a, b, c, det, g) -> np.ndarray:
    """x with [[a, b], [b, c]] x = g, by Cramer's rule; NaN where det <= 0."""
    inv = np.divide(1.0, det, out=np.full_like(det, np.nan), where=det > 0.0)
    return np.column_stack(((c * g[:, 0] - b * g[:, 1]) * inv, (a * g[:, 1] - b * g[:, 0]) * inv))


def _uncertainty(normal: np.ndarray) -> tuple:
    """(stderr_home, stderr_away, condition) for a stack of normal matrices
    j^T j: the roots of diag((j^T j)^-1) and j's largest over its smallest
    singular value, inf where j^T j is singular."""
    a, b, c = normal[:, 0, 0], normal[:, 0, 1], normal[:, 1, 1]
    det = a * c - b * b
    ok = det > 0.0
    det = np.where(ok, det, 1.0)
    largest = 0.5 * (a + c) + np.hypot(0.5 * (a - c), b)  # eigenvalue of j^T j
    out = np.sqrt(c / det), np.sqrt(a / det), largest / np.sqrt(det)
    return tuple(np.where(ok, x, np.inf) for x in out)


def _solve(seg: _Segment, idx: np.ndarray, start: Intensities | None) -> list:
    """Fit snapshots ``idx`` of a series together, all from ``start`` (or
    :data:`COLD_START` for none or a zero); a result per snapshot, None
    where not identifiable."""
    if start is None or start.home <= 0.0 or start.away <= 0.0:
        start = COLD_START
    lo, hi = math.log(LAMBDA_BOX[0]), math.log(LAMBDA_BOX[1])
    u = np.clip(np.log(np.full((len(idx), 2), (start.home, start.away))), lo, hi)
    cost, grad, normal, l1, tail = seg.residuals(idx, np.exp(u))
    ok = _uncertainty(normal)[2] < CONDITION_MAX
    idx, u, cost, grad, normal, l1 = idx[ok], u[ok], cost[ok], grad[ok], normal[ok], l1[ok]
    n = len(idx)
    bound, damping = np.full(n, tail), np.full(n, _DAMPING_START)
    evaluations = np.ones(n, dtype=int)
    converged, active = np.zeros(n, dtype=bool), np.ones(n, dtype=bool)
    while active.any() and evaluations.max() < _MAX_EVALUATIONS:
        act = np.flatnonzero(active)
        lam = np.exp(u[act])
        g = grad[act] * lam  # in log lam: the chain rule scales by lam
        # A log intensity on the box whose descent direction leaves it is held
        # there: a zero row and column with 1 on the diagonal, so it never moves.
        held = ((u[act] <= lo) & (g > 0.0)) | ((u[act] >= hi) & (g < 0.0))
        free = ~held
        s = lam * free  # in log lam, N_ij scales by lam_i lam_j
        a, b, c = (normal[act, i, j] * (s[:, i] * s[:, j]) for i, j in ((0, 0), (0, 1), (1, 1)))
        a, c, g = np.where(held[:, 0], 1.0, a), np.where(held[:, 1], 1.0, c), g * free
        det = a * c - b * b
        # g^T N^-1 g: the most a full Gauss-Newton step could lower the cost.
        explained = np.einsum("si,si->s", g, _solve2(a, b, c, det, g))
        small = np.abs(g).max(axis=1) / seg.count[idx[act]] < _GRAD_TOL
        stop = small | (explained <= _EXPLAINED_TOL * cost[act])
        converged[act] = stop & free.all(axis=1)
        active[act[stop | held.all(axis=1)]] = False
        go = active[act]
        if not go.any():
            break
        act, g, explained, free = act[go], g[go], explained[go], free[go]
        a, b, c, det = a[go], b[go], c[go], det[go]
        # Board values are good to 2 eps (1.5 eps against the 80-bit oracle),
        # so two costs compare to within 2 * 2 * 2 eps sum |r_k| / half_k.
        rounding = 8.0 * _EPS * l1[act]
        da, dc = (damping[act] * np.maximum(x, np.finfo(float).tiny) for x in (a, c))
        # Damping adds to a determinant that only rounding makes negative.
        step = -_solve2(a + da, b, c + dc, np.maximum(det, 0.0) + a * dc + c * da + da * dc, g)
        step /= np.maximum(1.0, np.abs(step).max(axis=1) / _MAX_LOG_STEP)[:, None]
        u_new = np.clip(u[act] + step, lo, hi)
        cost_new, *blocks, tail = seg.residuals(idx[act], np.exp(u_new))
        evaluations[act] += 1
        better = cost_new < cost[act]
        take = act[better]
        u[take], cost[take], bound[take] = u_new[better], cost_new[better], tail
        grad[take], normal[take], l1[take] = (x[better] for x in blocks)
        damping[act] = np.where(better, damping[act] / 3.0, damping[act] * 4.0)
        flat = (explained <= rounding) & ~better
        converged[act] = flat & free.all(axis=1)
        active[act[flat | (damping[act] > _DAMPING_MAX)]] = False

    stderr_home, stderr_away, condition = _uncertainty(normal)
    residual = np.sqrt(cost / seg.count[idx])
    columns = (residual, stderr_home, stderr_away, evaluations, converged, condition, bound)
    fits = (
        CalibrationResult(Intensities(*lam), *rest)
        for lam, *rest in zip(np.exp(u).tolist(), *(x.tolist() for x in columns))
    )
    return [next(fits) if good else None for good in ok.tolist()]


def objective(lam: Intensities, snapshot: QuoteSnapshot) -> float:
    """Root mean square of spread-weighted mid-versus-model differences."""
    seg = _Segment(SnapshotColumns.of([snapshot]))
    if not seg.count[0]:
        raise ValueError("no usable quotes in snapshot")
    fit = seg.board.evaluate(np.array([[lam.home, lam.away]]), seg.clocks, seg.scores)
    r = seg.weight[0] * (seg.mid[0] - fit.values[0])
    # fsum is exactly rounded, so the value cannot depend on the quote order.
    return math.sqrt(math.fsum(r * r) / seg.count[0])


def calibrate_snapshot(
    snapshot: QuoteSnapshot, init: Intensities | None = None
) -> CalibrationResult:
    """Fit implied intensities to one snapshot, from ``init`` or
    :data:`COLD_START`.

    Raises :class:`IdentifiabilityError` when the quoted bets cannot pin
    down two parameters.  A solve that stops before its convergence tests
    pass, or that ends held on :data:`LAMBDA_BOX`, still returns its best
    point, flagged ``converged=False``.
    """
    (result,) = _solve(_Segment(SnapshotColumns.of([snapshot])), np.zeros(1, dtype=np.intp), init)
    if result is None:
        raise IdentifiabilityError(
            "intensities are not identifiable: the usable quotes' goal sensitivities "
            f"have a condition number of at least {CONDITION_MAX:g}"
        )
    return result


def calibrate_series(
    snapshots: Sequence[QuoteSnapshot], step_s: float
) -> IntensitySeries:
    """Calibrate a timeline on a fixed grid, every score in one batched solve.

    Snapshots are bucketed to floor(t/step)*step, keeping the latest one per
    bucket.  Buckets with no snapshot, or whose snapshot cannot identify two
    intensities, become gap points rather than aborting the series; any
    other error (a zero-spread quote, say) propagates.  The first
    identifiable kept snapshot is fitted alone from :data:`COLD_START`, and
    every later one, whatever its score, in one batched solve from that
    fit; rows share only the board's truncation caps.  Each point is logged
    at DEBUG with its status, evaluations, residual, condition number and
    truncation bound.
    """
    if not snapshots:
        raise ValueError("empty timeline")
    if not 1.0 <= step_s < math.inf:  # timestamps are whole seconds
        raise ValueError("step must be positive and finite, at least 1 s")
    view = SnapshotColumns.of(snapshots)
    ts = view.timestamps
    if (ts[1:] < ts[:-1]).any():
        raise ValueError("snapshots must be ordered by timestamp")

    buckets = {int(t // step_s): i for i, t in enumerate(ts.tolist())}  # the latest per bucket
    seg = _Segment(view[list(buckets.values())])
    fits: list[CalibrationResult | None] = [None] * len(buckets)
    for first in range(len(fits)):
        (fits[first],) = _solve(seg, np.array([first]), None)
        if fits[first] is not None:
            rest = np.arange(first + 1, len(fits))
            fits[first + 1 :] = _solve(seg, rest, fits[first].intensities)
            break

    fit_of = dict(zip(buckets, fits))
    span = range(min(buckets), max(buckets) + 1)
    points = tuple(SeriesPoint(i * step_s, fit_of.get(i)) for i in span)
    if log.isEnabledFor(logging.DEBUG):
        for i, p in zip(span, points):
            if (r := p.result) is None:
                why = "not identifiable" if i in buckets else "no snapshot"
                log.debug("series point at %.15gs: gap (%s)", p.timestamp_s, why)
            else:
                log.debug(
                    "series point at %.15gs: %s after %d evaluations, residual %.6g, "
                    "condition %.6g, truncation bound %.3g", p.timestamp_s,
                    "converged" if r.converged else "unconverged",
                    r.iterations, r.residual, r.condition, r.truncation_bound,
                )
    return IntensitySeries(points)


def estimate_drift_vol(
    series: IntensitySeries, match_length_min: float = 90.0
) -> tuple[float, float]:
    """Drift and volatility of log total intensity, per match and per
    sqrt-match.

    Uses increments between consecutive valid points; pairs touching a gap
    are skipped.  Needs at least 10 valid points.
    """
    # A gap, or a fit with no intensity, reads total 0 and is left out.
    total = [p.result.intensities.total if p.result else 0.0 for p in series.points]
    ok = np.greater(total, 0.0)
    if ok.sum() < 10:
        raise ValueError("need at least 10 valid series points")
    pairs = ok[1:] & ok[:-1]
    if pairs.sum() < 2:
        raise ValueError("need at least 2 consecutive valid pairs")
    d_tau = np.diff([p.timestamp_s for p in series.points])[pairs] / (match_length_min * 60.0)
    # math.log, not np.log: np.log can round an ulp apart, and a difference
    # of near-equal logs magnifies that (to 1.6e-11 of sigma at a 1 s step).
    d_ln = np.diff([math.log(t) if t > 0.0 else 0.0 for t in total])[pairs]
    return float(np.mean(d_ln / d_tau)), float(np.std(d_ln / np.sqrt(d_tau), ddof=1))
