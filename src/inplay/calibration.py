"""Implied-intensity calibration against quote snapshots.

A snapshot is fitted by minimising the root-mean-square of its usable
quotes' mid-versus-model differences, each in units of that quote's half
bid-ask spread; usable quotes are two-sided European ones with a mid inside
:data:`MID_FILTER`.  The fit is a Levenberg-Marquardt solve on (log lam_home,
log lam_away) with the exact Jacobian dV/dlam_i = (1 - tau) * delta_i of a
:class:`~inplay.pricing.EuropeanBoard`.

A series is fitted in one batched solve.  Its snapshots share one board over
the union of their bets, where weight 0 marks a bet a snapshot has no usable
quote on, and one loop fits them all: each evaluation prices every
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
    "QuoteTable",
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


class QuoteTable:
    """Quote rows as columns.

    ``bets`` holds the distinct bets and ``bet_ix`` indexes it, one entry
    per row.  The decimals and the buy and sell values are NaN where a side
    is absent; ``mid``, ``spread``, ``two_sided`` and ``european`` are
    derived per row with the same arithmetic as :class:`Quote`.  Values
    default to ``1 / decimal``, the arithmetic of ``value_from_decimal``.
    """

    def __init__(self, bets, bet_ix, back, lay, buy=None, sell=None):
        self.bets: tuple[Bet, ...] = tuple(bets)
        self.bet_ix = np.asarray(bet_ix, dtype=np.intp)
        self.back = np.asarray(back, dtype=float)
        self.lay = np.asarray(lay, dtype=float)
        self.buy = 1.0 / self.back if buy is None else np.asarray(buy, dtype=float)
        self.sell = 1.0 / self.lay if sell is None else np.asarray(sell, dtype=float)
        self.two_sided = ~(np.isnan(self.buy) | np.isnan(self.sell))
        self.mid = 0.5 * (self.buy + self.sell)
        self.spread = np.abs(self.buy - self.sell)
        self.european = np.array([b.european for b in self.bets], dtype=bool)[self.bet_ix]

    @classmethod
    def from_quotes(cls, quotes) -> QuoteTable:
        """The rows of a sequence of :class:`Quote` objects, in order."""
        index: dict[Bet, int] = {}
        ix, back, lay, buy, sell = [], [], [], [], []
        for q in quotes:
            ix.append(index.setdefault(q.bet, len(index)))
            for col, v in zip(
                (back, lay, buy, sell), (q.back_decimal, q.lay_decimal, q.value_buy, q.value_sell)
            ):
                col.append(math.nan if v is None else v)
        return cls(tuple(index), ix, back, lay, buy, sell)

    def quote(self, i: int) -> Quote:
        """Row ``i`` as a :class:`Quote`."""
        cells = (self.back[i], self.lay[i], self.buy[i], self.sell[i])
        back, lay, buy, sell = (None if math.isnan(c) else float(c) for c in cells)
        return Quote(self.bets[self.bet_ix[i]], back, lay, buy, sell)


@dataclass(frozen=True)
class QuoteSnapshot:
    """All quotes observed at one timestamp, with the score in effect."""

    timestamp_s: float
    state: ScoreState
    quotes: tuple[Quote, ...]


class SnapshotColumns(Sequence):
    """Snapshots as columns: each one's rows ``starts[i]:stops[i]`` of one
    :class:`QuoteTable`, timestamp, home and away goals (-1 for no score) and
    clock.  An integer index builds the :class:`QuoteSnapshot` and its
    :class:`Quote` objects; a slice or an index array selects another view."""

    __slots__ = ("table", "timestamps", "home", "away", "clocks", "starts", "stops")

    def __init__(self, table: QuoteTable, timestamps, home, away, clocks, starts, stops):
        self.table, self.timestamps, self.home, self.away = table, timestamps, home, away
        self.clocks, self.starts, self.stops = clocks, starts, stops

    @classmethod
    def of(cls, snapshots: Sequence[QuoteSnapshot]) -> SnapshotColumns:
        """``snapshots`` as a view: a view as it is, any other sequence
        converted, its quotes by :meth:`QuoteTable.from_quotes`."""
        if isinstance(snapshots, SnapshotColumns):
            return snapshots
        states = [s.state for s in snapshots]
        bounds = np.cumsum([0, *(len(s.quotes) for s in snapshots)], dtype=np.intp)
        return cls(
            QuoteTable.from_quotes([q for s in snapshots for q in s.quotes]),
            np.array([s.timestamp_s for s in snapshots], dtype=float),
            np.array([-1 if st is None else st.home_goals for st in states], dtype=np.intp),
            np.array([-1 if st is None else st.away_goals for st in states], dtype=np.intp),
            np.array([math.nan if st is None else st.clock for st in states], dtype=float),
            bounds[:-1], bounds[1:],
        )

    def __len__(self) -> int:
        return len(self.timestamps)

    def __getitem__(self, i):
        if not isinstance(i, (int, np.integer)):
            return SnapshotColumns(self.table, *(getattr(self, n)[i] for n in self.__slots__[1:]))
        i = range(len(self))[i]
        home, away = int(self.home[i]), int(self.away[i])
        state = ScoreState(home, away, float(self.clocks[i])) if home >= 0 else None
        quotes = tuple(map(self.table.quote, range(self.starts[i], self.stops[i])))
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
    """The usable quotes of a series' snapshots, on one board: a snapshot's
    k-th quote of a bet is in that bet's k-th column.  ``weight`` is 1 /
    half-spread on a quote and 0 off one, where ``mid`` is 0 and so is the
    residual.  No score or a zero spread raises, naming the earliest snapshot."""

    def __init__(self, snaps: SnapshotColumns):
        t, starts, stops = snaps.table, snaps.starts, snaps.stops
        lengths, nb = stops - starts, len(t.bets)
        rows = np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
        snap = np.repeat(np.arange(len(snaps)), lengths)
        mid = t.mid[rows]
        usable = t.two_sided[rows] & t.european[rows] & (MID_FILTER[0] < mid) & (mid < MID_FILTER[1])
        rows, snap = rows[usable], snap[usable]
        unscored = np.flatnonzero(snaps.home < 0).tolist() + [len(snaps)]
        for i in np.flatnonzero((t.spread[rows] == 0.0) & (snap < unscored[0]))[:1]:
            raise ValueError(
                f"zero spread on quote for {t.bets[t.bet_ix[rows[i]]]} in the snapshot at "
                f"{float(snaps.timestamps[snap[i]]):.15g}s"
            )
        if (i := unscored[0]) < len(snaps):
            raise ValueError(f"the snapshot at {float(snaps.timestamps[i]):.15g}s has no score")
        key = snap * nb + t.bet_ix[rows]
        order = np.argsort(key, kind="stable")
        repeat = np.empty_like(key)
        repeat[order] = np.arange(len(key)) - np.searchsorted(key[order], key[order])
        cols, col = np.unique(repeat * nb + t.bet_ix[rows], return_inverse=True)
        self.mid, self.weight = np.zeros((2, len(snaps), len(cols)))
        self.mid[snap, col], self.weight[snap, col] = t.mid[rows], 2.0 / t.spread[rows]
        self.count = (self.weight > 0.0).sum(axis=1)
        self.board = pricing.EuropeanBoard([t.bets[b] for b in cols % nb])
        self.clocks, self.scores = snaps.clocks, np.column_stack((snaps.home, snaps.away))

    @classmethod
    def of(cls, snapshot: QuoteSnapshot) -> _Segment:
        return cls(SnapshotColumns.of([snapshot]))

    def residuals(self, idx: np.ndarray, lam: np.ndarray) -> tuple:
        """Residuals of snapshots ``idx`` at ``lam`` (a row each), their
        Jacobian in lam, and the board's truncation bound."""
        w = self.weight[idx]
        fit = self.board.evaluate(lam, self.clocks[idx], self.scores[idx], w > 0.0)
        r = w * (self.mid[idx] - fit.values)
        return r, -w[..., None] * fit.jacobian, fit.truncation_bound


def _normal(j: np.ndarray) -> tuple:
    """(a, b, c, det) of [[a, b], [b, c]] = j^T j for a stack of j."""
    (a, b), (_, c) = np.moveaxis(np.swapaxes(j, 1, 2) @ j, 0, -1)
    return a, b, c, a * c - b * b


def _solve2(a, b, c, det, g) -> np.ndarray:
    """x with [[a, b], [b, c]] x = g, by Cramer's rule; NaN where det <= 0."""
    inv = np.divide(1.0, det, out=np.full_like(det, np.nan), where=det > 0.0)
    return np.column_stack(((c * g[:, 0] - b * g[:, 1]) * inv, (a * g[:, 1] - b * g[:, 0]) * inv))


def _uncertainty(jac: np.ndarray) -> tuple:
    """(stderr_home, stderr_away, condition) for a stack of residual
    Jacobians j: the roots of diag((j^T j)^-1) and j's largest over its
    smallest singular value, inf where j^T j is singular."""
    a, b, c, det = _normal(jac)
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
    r, jac, tail = seg.residuals(idx, np.exp(u))
    ok = _uncertainty(jac)[2] < CONDITION_MAX
    idx, u, r, jac = idx[ok], u[ok], r[ok], jac[ok]
    n = len(idx)
    cost = np.einsum("sk,sk->s", r, r)
    bound, damping = np.full(n, tail), np.full(n, _DAMPING_START)
    evaluations = np.ones(n, dtype=int)
    converged, active = np.zeros(n, dtype=bool), np.ones(n, dtype=bool)
    while active.any() and evaluations.max() < _MAX_EVALUATIONS:
        act = np.flatnonzero(active)
        ju = jac[act] * np.exp(u[act])[:, None, :]  # d(residual)/d(log lam)
        grad = np.einsum("sk,ski->si", r[act], ju)
        # A log intensity on the box whose descent direction leaves it is
        # held there: a zero column with 1 on the diagonal, so it never moves.
        held = ((u[act] <= lo) & (grad > 0.0)) | ((u[act] >= hi) & (grad < 0.0))
        free = ~held
        a, b, c, _ = _normal(ju * free[:, None, :])
        a, c, grad = np.where(held[:, 0], 1.0, a), np.where(held[:, 1], 1.0, c), grad * free
        det = a * c - b * b
        # g^T N^-1 g: the most a full Gauss-Newton step could lower the cost.
        explained = np.einsum("si,si->s", grad, _solve2(a, b, c, det, grad))
        small = np.abs(grad).max(axis=1) / seg.count[idx[act]] < _GRAD_TOL
        stop = small | (explained <= _EXPLAINED_TOL * cost[act])
        converged[act] = stop & free.all(axis=1)
        active[act[stop | held.all(axis=1)]] = False
        go = active[act]
        if not go.any():
            break
        act, grad, explained, free = act[go], grad[go], explained[go], free[go]
        a, b, c, det = a[go], b[go], c[go], det[go]
        # Board values are good to 2 eps (1.5 eps against the 80-bit oracle),
        # so two costs compare to within 2 * 2 * 2 eps sum |r_k| / half_k.
        rounding = 8.0 * _EPS * np.einsum("sk,sk->s", np.abs(r[act]), seg.weight[idx[act]])
        da, dc = (damping[act] * np.maximum(x, np.finfo(float).tiny) for x in (a, c))
        # Damping adds to a determinant that only rounding makes negative.
        step = -_solve2(a + da, b, c + dc, np.maximum(det, 0.0) + a * dc + c * da + da * dc, grad)
        step /= np.maximum(1.0, np.abs(step).max(axis=1) / _MAX_LOG_STEP)[:, None]
        u_new = np.clip(u[act] + step, lo, hi)
        r_new, jac_new, tail = seg.residuals(idx[act], np.exp(u_new))
        evaluations[act] += 1
        cost_new = np.einsum("sk,sk->s", r_new, r_new)
        better = cost_new < cost[act]
        take = act[better]
        u[take], r[take], jac[take] = u_new[better], r_new[better], jac_new[better]
        cost[take], bound[take] = cost_new[better], tail
        damping[act] = np.where(better, damping[act] / 3.0, damping[act] * 4.0)
        flat = (explained <= rounding) & ~better
        converged[act] = flat & free.all(axis=1)
        active[act[flat | (damping[act] > _DAMPING_MAX)]] = False

    stderr_home, stderr_away, condition = _uncertainty(jac)
    residual = np.sqrt(cost / seg.count[idx])
    columns = (residual, stderr_home, stderr_away, evaluations, converged, condition, bound)
    fits = (
        CalibrationResult(Intensities(*lam), *rest)
        for lam, *rest in zip(np.exp(u).tolist(), *(x.tolist() for x in columns))
    )
    return [next(fits) if good else None for good in ok.tolist()]


def objective(lam: Intensities, snapshot: QuoteSnapshot) -> float:
    """Root mean square of spread-weighted mid-versus-model differences."""
    seg = _Segment.of(snapshot)
    if not seg.count[0]:
        raise ValueError("no usable quotes in snapshot")
    r, _, _ = seg.residuals(np.zeros(1, dtype=np.intp), np.array([[lam.home, lam.away]]))
    # fsum is exactly rounded, so the value cannot depend on the quote order.
    return math.sqrt(math.fsum(r[0] * r[0]) / seg.count[0])


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
    (result,) = _solve(_Segment.of(snapshot), np.zeros(1, dtype=np.intp), init)
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
