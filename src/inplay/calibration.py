"""Implied-intensity calibration against quote snapshots.

A snapshot is fitted by minimising the root-mean-square of the mid-versus-
model differences, each measured in units of that quote's half bid-ask
spread.  All quoted bets are priced together on one
:class:`~inplay.pricing.EuropeanBoard`, which also returns the exact
intensity sensitivities dV/dlam_i = (1 - tau) * delta_i.  With that
Jacobian the fit is a Levenberg-Marquardt least-squares solve on
(log lam_home, log lam_away): each step solves the damped 2x2 normal
equations, moves at most 1 in either log intensity, and is projected into
:data:`LAMBDA_BOX`.  Identifiability is tested on the Jacobian rows at the
start point.  Parameter uncertainties come from inverting the normal
matrix at the fit, so they inherit the bid-ask spreads' scale.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .contracts import Bet, Intensities, Quote, ScoreState
from . import pricing

__all__ = [
    "QuoteTable",
    "QuoteRows",
    "QuoteSnapshot",
    "quote_columns",
    "CalibrationResult",
    "SeriesPoint",
    "IntensitySeries",
    "IdentifiabilityError",
    "objective",
    "calibrate_snapshot",
    "calibrate_series",
    "estimate_drift_vol",
]

COLD_START = Intensities(1.3, 1.1)

# Quotes in effectively settled bets carry no information and break the
# spread weighting, so they are dropped from the residual.
MID_FILTER = (0.001, 0.999)

# Iterates stay inside this box: the score grid grows with the intensity,
# so an unbounded step can ask for a grid of arbitrary size.
LAMBDA_BOX = (1e-4, 50.0)

_MAX_LOG_STEP = 1.0
_MAX_EVALUATIONS = 100
_GRAD_TOL = 1e-10
_EXPLAINED_TOL = 1e-14
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


class QuoteRows(Sequence):
    """Rows ``start:stop`` of a :class:`QuoteTable`: one snapshot's quotes.

    Its length costs nothing; indexing or iterating builds the
    :class:`Quote` objects on demand.
    """

    __slots__ = ("table", "start", "stop")

    def __init__(self, table: QuoteTable, start: int, stop: int):
        self.table, self.start, self.stop = table, start, stop

    def __len__(self) -> int:
        return self.stop - self.start

    def __getitem__(self, i):
        rows = range(self.start, self.stop)[i]
        if isinstance(rows, range):
            return tuple(map(self.table.quote, rows))
        return self.table.quote(rows)

    def __iter__(self):
        return map(self.table.quote, range(self.start, self.stop))


@dataclass(frozen=True)
class QuoteSnapshot:
    """All quotes observed at one timestamp, with the score in effect.

    ``quotes`` is a tuple of :class:`Quote` for a snapshot built by hand,
    or a :class:`QuoteRows` view for one read from a quotes file.
    """

    timestamp_s: float
    state: ScoreState
    quotes: Sequence[Quote]


def quote_columns(
    snapshots: Sequence[QuoteSnapshot],
) -> tuple[QuoteTable, np.ndarray, np.ndarray]:
    """The snapshots' quotes as one table, with each snapshot's start and stop rows.

    Snapshots read from one quotes file already share a table; any others
    are converted with :meth:`QuoteTable.from_quotes`.
    """
    views = [s.quotes for s in snapshots]
    if views and isinstance(views[0], QuoteRows):
        table = views[0].table
        if all(isinstance(v, QuoteRows) and v.table is table for v in views):
            return table, np.array([v.start for v in views]), np.array([v.stop for v in views])
    lengths = [len(v) for v in views]
    stops = np.cumsum(lengths, dtype=np.intp)
    return QuoteTable.from_quotes([q for v in views for q in v]), stops - lengths, stops


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


def _usable_rows(snapshot: QuoteSnapshot) -> tuple[QuoteTable, np.ndarray]:
    """The snapshot's table and the rows of its two-sided European quotes
    inside the mid filter; a zero spread among them is an error.  The board
    prices European bets only, and the solve leans on their identity
    dV/dlam_i = (1-tau) delta_i."""
    t, (start,), (stop,) = quote_columns([snapshot])
    mid = t.mid[start:stop]
    keep = (
        t.two_sided[start:stop]
        & t.european[start:stop]
        & (MID_FILTER[0] < mid)
        & (mid < MID_FILTER[1])
    )
    usable = start + np.flatnonzero(keep)
    flat = usable[t.spread[usable] == 0.0]
    if flat.size:
        bet = t.bets[t.bet_ix[flat[0]]]
        raise ValueError(
            f"zero spread on quote for {bet} in the snapshot at {snapshot.timestamp_s:.15g}s"
        )
    return t, usable


class _Residuals:
    """Mid-versus-model residuals of some table rows in half-spread units."""

    def __init__(self, table: QuoteTable, rows: np.ndarray, state: ScoreState):
        self.board = pricing.EuropeanBoard([table.bets[i] for i in table.bet_ix[rows]], state)
        self.mids = table.mid[rows]
        self.half = 0.5 * table.spread[rows]

    def __call__(
        self, lam: Intensities
    ) -> tuple[np.ndarray, np.ndarray, pricing.BoardValues]:
        """Residuals, their Jacobian in lam, and the board values behind them."""
        fit = self.board.evaluate(lam)
        r = (self.mids - fit.values) / self.half
        return r, -fit.jacobian / self.half[:, None], fit


def objective(lam: Intensities, snapshot: QuoteSnapshot) -> float:
    """Root mean square of spread-weighted mid-versus-model differences."""
    table, rows = _usable_rows(snapshot)
    if not len(rows):
        raise ValueError("no usable quotes in snapshot")
    r, _, _ = _Residuals(table, rows, snapshot.state)(lam)
    # fsum is exactly rounded, so the value cannot depend on the quote order.
    return math.sqrt(math.fsum(r * r) / len(r))


def _check_identifiable(bet_ix: np.ndarray, jacobian: np.ndarray) -> None:
    """Raise unless two quotes have non-parallel intensity sensitivities.

    ``bet_ix`` holds each quote's bet index and ``jacobian`` one
    (dV/dlam_home, dV/dlam_away) row per quote; two rows are parallel when
    their cross product is below 1e-9 of the product of their norms.
    """
    if len(bet_ix) < 2:
        raise IdentifiabilityError("need at least two usable quotes")
    if len(set(bet_ix.tolist())) < 2:
        raise IdentifiabilityError("need at least two distinct bet variants")
    a, b = jacobian[:, 0], jacobian[:, 1]
    cross = np.abs(np.multiply.outer(a, b) - np.multiply.outer(b, a))
    norms = np.hypot(a, b)
    scale = np.multiply.outer(norms, norms)
    if np.any((scale > 0.0) & (cross > 1e-9 * scale)):
        return
    raise IdentifiabilityError(
        "quoted bets have linearly dependent goal sensitivities; "
        "intensities are not identifiable"
    )


def calibrate_snapshot(
    snapshot: QuoteSnapshot, init: Intensities | None = None
) -> CalibrationResult:
    """Fit implied intensities to one snapshot.

    Raises :class:`IdentifiabilityError` when the quoted bets cannot pin
    down two parameters.  A solve that stops before its convergence tests
    pass, or that ends held on :data:`LAMBDA_BOX`, still returns its best
    point, flagged ``converged=False``.
    """
    table, rows = _usable_rows(snapshot)
    lam0 = init if init is not None else COLD_START
    if lam0.home <= 0.0 or lam0.away <= 0.0:
        lam0 = COLD_START
    residuals = _Residuals(table, rows, snapshot.state)

    def at(u: np.ndarray) -> Intensities:
        return Intensities(math.exp(u[0]), math.exp(u[1]))

    lo, hi = math.log(LAMBDA_BOX[0]), math.log(LAMBDA_BOX[1])
    u = np.clip([math.log(lam0.home), math.log(lam0.away)], lo, hi)
    r, jac, fit = residuals(at(u))
    _check_identifiable(table.bet_ix[rows], fit.jacobian)
    cost = float(r @ r)
    evaluations = 1
    damping = _DAMPING_START
    converged = False
    while evaluations < _MAX_EVALUATIONS:
        ju = jac * np.exp(u)  # d(residual)/d(log lam)
        grad = ju.T @ r
        # A log intensity on the box whose descent direction leaves it is
        # held there; the solve continues in the other one.
        held = ((u <= lo) & (grad > 0.0)) | ((u >= hi) & (grad < 0.0))
        if held.all():
            break
        free = ~held
        ju, grad = ju[:, free], grad[free]
        # Converged once the gradient vanishes (an exact fit) or the part of
        # the residual the Jacobian can still explain is at rounding level.
        explained = ju @ np.linalg.lstsq(ju, r, rcond=None)[0]
        if (
            float(np.max(np.abs(grad))) / len(rows) < _GRAD_TOL
            or float(explained @ explained) <= _EXPLAINED_TOL * cost
        ):
            converged = not held.any()
            break
        normal = ju.T @ ju
        scale = np.maximum(np.diag(normal), np.finfo(float).tiny)
        step = np.zeros(2)
        step[free] = np.linalg.solve(normal + damping * np.diag(scale), -grad)
        longest = float(np.max(np.abs(step)))
        if longest > _MAX_LOG_STEP:
            step *= _MAX_LOG_STEP / longest
        u_new = np.clip(u + step, lo, hi)
        r_new, jac_new, fit_new = residuals(at(u_new))
        evaluations += 1
        cost_new = float(r_new @ r_new)
        if cost_new < cost:
            u, r, jac, fit, cost = u_new, r_new, jac_new, fit_new, cost_new
            damping /= 3.0
        else:
            damping *= 4.0
            if damping > _DAMPING_MAX:
                break

    normal = jac.T @ jac
    try:
        cov = np.linalg.inv(normal)
        stderr_home = math.sqrt(max(cov[0, 0], 0.0))
        stderr_away = math.sqrt(max(cov[1, 1], 0.0))
    except np.linalg.LinAlgError:
        stderr_home = stderr_away = math.inf
    return CalibrationResult(
        intensities=at(u),
        residual=math.sqrt(cost / len(rows)),
        stderr_home=stderr_home,
        stderr_away=stderr_away,
        iterations=evaluations,
        converged=converged,
        condition=float(np.linalg.cond(jac)),
        truncation_bound=fit.truncation_bound,
    )


def calibrate_series(
    snapshots: list[QuoteSnapshot], step_s: float
) -> IntensitySeries:
    """Calibrate a timeline on a fixed grid, warm-starting each step.

    Snapshots are bucketed to floor(t/step)*step, keeping the latest one per
    bucket.  Buckets with no snapshot, or whose snapshot cannot identify two
    intensities, become gap points rather than aborting the series; any
    other error (a zero-spread quote, say) propagates.
    """
    if not snapshots:
        raise ValueError("empty timeline")
    if not 0.0 < step_s < math.inf:
        raise ValueError("step must be positive and finite")
    ts = [s.timestamp_s for s in snapshots]
    if any(b < a for a, b in zip(ts, ts[1:])):
        raise ValueError("snapshots must be ordered by timestamp")

    buckets: dict[int, QuoteSnapshot] = {}
    for snap in snapshots:
        buckets[int(snap.timestamp_s // step_s)] = snap

    points: list[SeriesPoint] = []
    warm: Intensities | None = None
    for idx in range(min(buckets), max(buckets) + 1):
        t = idx * step_s
        snap = buckets.get(idx)
        if snap is None:
            points.append(SeriesPoint(t, None))
            continue
        try:
            result = calibrate_snapshot(snap, init=warm)
        except IdentifiabilityError:
            points.append(SeriesPoint(t, None))
            continue
        warm = result.intensities
        points.append(SeriesPoint(t, result))
    return IntensitySeries(tuple(points))


def estimate_drift_vol(
    series: IntensitySeries, match_length_min: float = 90.0
) -> tuple[float, float]:
    """Drift and volatility of log total intensity, per match and per
    sqrt-match.

    Uses increments between consecutive valid points; pairs touching a gap
    are skipped.  Needs at least 10 valid points.
    """
    valid = [p for p in series.valid() if p.result.intensities.total > 0.0]
    if len(valid) < 10:
        raise ValueError("need at least 10 valid series points")
    unit = match_length_min * 60.0

    drifts = []
    scaled = []
    for a, b in zip(series.points, series.points[1:]):
        if a.result is None or b.result is None:
            continue
        tot_a, tot_b = a.result.intensities.total, b.result.intensities.total
        if tot_a <= 0.0 or tot_b <= 0.0:
            continue
        d_tau = (b.timestamp_s - a.timestamp_s) / unit
        if d_tau <= 0.0:
            continue
        d_ln = math.log(tot_b) - math.log(tot_a)
        drifts.append(d_ln / d_tau)
        scaled.append(d_ln / math.sqrt(d_tau))
    if len(drifts) < 2:
        raise ValueError("need at least 2 consecutive valid pairs")
    mu = float(np.mean(drifts))
    sigma = float(np.std(scaled, ddof=1))
    return mu, sigma
