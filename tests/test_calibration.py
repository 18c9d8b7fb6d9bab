"""Tests for implied-intensity calibration and the drift/vol estimator."""

import logging
import math

import numpy as np
import pytest

from inplay import calibration, io, pricing
from inplay.calibration import (
    CONDITION_MAX,
    LAMBDA_BOX,
    MID_FILTER,
    CalibrationResult,
    IdentifiabilityError,
    IntensitySeries,
    QuoteSnapshot,
    SeriesPoint,
    SnapshotColumns,
    calibrate_series,
    calibrate_snapshot,
    estimate_drift_vol,
    _Segment,
    _uncertainty,
    objective,
)
from inplay.contracts import (
    Bet,
    Intensities,
    MATCH_ODDS_AWAY,
    MATCH_ODDS_DRAW,
    MATCH_ODDS_HOME,
    Quote,
    ScoreState,
)
from inplay.synthetic import calibration_catalogue, make_model_timeline, make_snapshot

LAM_TRUE = Intensities(1.3, 0.7)
STATE = ScoreState(0, 0, 0.2)


def model_snapshot(noise=0.0, rng=None, spread=0.02, state=STATE, lam=LAM_TRUE, ts=1080.0):
    return make_snapshot(state, lam, timestamp_s=ts, spread=spread, noise=noise, rng=rng)


class TestObjective:
    def test_catalogue_has_31_bets(self):
        assert len(calibration_catalogue()) == 31

    def test_perfect_fit_is_zero(self):
        snap = model_snapshot()
        assert objective(LAM_TRUE, snap) == pytest.approx(0.0, abs=1e-13)

    def test_doubling_spreads_halves_the_objective(self):
        lam_off = Intensities(1.6, 0.9)
        narrow = model_snapshot(spread=0.02)
        wide = model_snapshot(spread=0.04)
        assert objective(lam_off, narrow) == pytest.approx(
            2.0 * objective(lam_off, wide), rel=1e-9
        )

    def test_one_quote_off_by_half_spread_is_unit(self):
        spread = 0.02
        mid = pricing.price(MATCH_ODDS_HOME, STATE, LAM_TRUE).value + spread / 2.0
        snap = QuoteSnapshot(
            0.0, STATE, (Quote.from_values(MATCH_ODDS_HOME, mid, spread),)
        )
        assert objective(LAM_TRUE, snap) == pytest.approx(1.0, rel=1e-12)

    def test_invariant_under_quote_reordering(self):
        snap = model_snapshot()
        reordered = QuoteSnapshot(snap.timestamp_s, snap.state, tuple(reversed(snap.quotes)))
        lam = Intensities(2.0, 1.5)
        assert objective(lam, snap) == objective(lam, reordered)

    def test_settled_quotes_are_filtered(self):
        locked = Quote.from_values(Bet.under(0.5), 0.9999, 0.02)
        snap = QuoteSnapshot(0.0, STATE, (locked,))
        assert _Segment(SnapshotColumns.of([snap])).count[0] == 0
        with pytest.raises(ValueError, match="no usable quotes"):
            objective(LAM_TRUE, snap)

    def test_an_empty_snapshot_has_no_usable_quotes(self):
        # A grid with no bet column: nothing to fit, nothing to identify.
        snap = QuoteSnapshot(0.0, STATE, ())
        with pytest.raises(ValueError, match="no usable quotes"):
            objective(LAM_TRUE, snap)
        with pytest.raises(IdentifiabilityError):
            calibrate_snapshot(snap)

    def test_zero_spread_is_an_error(self):
        q = Quote(MATCH_ODDS_HOME, value_buy=0.5, value_sell=0.5)
        snap = QuoteSnapshot(1080.0, STATE, (q,))
        with pytest.raises(
            ValueError, match="zero spread on quote for MATCH_ODDS_HOME in the snapshot at 1080s"
        ):
            objective(LAM_TRUE, snap)


class TestCalibrateSnapshot:
    def test_snapshot_without_a_score_is_an_error(self):
        snap = model_snapshot(ts=1080.0)
        snap = QuoteSnapshot(snap.timestamp_s, None, snap.quotes)
        with pytest.raises(ValueError, match="^the snapshot at 1080s has no score$"):
            calibrate_snapshot(snap)

    def test_round_trip_recovers_the_intensities(self):
        result = calibrate_snapshot(model_snapshot())
        assert result.converged
        assert result.intensities.home == pytest.approx(LAM_TRUE.home, abs=1e-6)
        assert result.intensities.away == pytest.approx(LAM_TRUE.away, abs=1e-6)
        assert result.residual < 1e-8
        assert result.iterations <= 20  # board evaluations from the cold start
        assert 1.0 <= result.condition < 1e3
        assert 0.0 <= result.truncation_bound < 1e-12

    def test_no_goal_after_3_2_bets_are_unidentifiable(self):
        # Both bets pay only if no further goal is scored, so their
        # intensity sensitivities are parallel.
        state = ScoreState(3, 2, 5340.0 / 5400.0)
        bets = [Bet.under(5.5), Bet.correct_score(3, 2)]
        snap = make_snapshot(state, LAM_TRUE, timestamp_s=5340.0, bets=bets)
        with pytest.raises(IdentifiabilityError):
            calibrate_snapshot(snap)

    def test_near_certain_over_lines_stay_inside_the_box(self):
        quotes = tuple(Quote.from_values(Bet.over(x + 0.5), 0.998, 0.02) for x in range(6))
        quotes += (
            Quote.from_values(MATCH_ODDS_HOME, 0.6, 0.02),
            Quote.from_values(MATCH_ODDS_AWAY, 0.35, 0.02),
        )
        result = calibrate_snapshot(QuoteSnapshot(0.0, ScoreState(0, 0, 0.0), quotes))
        assert result.iterations <= 30
        for lam in (result.intensities.home, result.intensities.away):
            assert LAMBDA_BOX[0] <= lam <= LAMBDA_BOX[1]

    def test_recovered_residual_never_beats_truth_materially(self):
        snap = model_snapshot(noise=0.25, rng=np.random.default_rng(42))
        result = calibrate_snapshot(snap)
        assert result.residual <= objective(LAM_TRUE, snap) + 1e-8

    def test_single_variant_is_unidentifiable(self):
        mid = pricing.price(MATCH_ODDS_DRAW, STATE, LAM_TRUE).value
        quotes = (Quote.from_values(MATCH_ODDS_DRAW, mid, 0.02),)
        with pytest.raises(IdentifiabilityError):
            calibrate_snapshot(QuoteSnapshot(0.0, STATE, quotes))
        # Repeating the quote adds no variant: it is a data error.
        with pytest.raises(ValueError, match="^MATCH_ODDS_DRAW is quoted twice in the snapshot"):
            calibrate_snapshot(QuoteSnapshot(0.0, STATE, quotes * 5))

    @pytest.mark.parametrize(
        "state, unders, seed",
        [(STATE, 5, None)] + [(ScoreState(1, 1, 900.0 / 5400.0), 4, s) for s in range(7, 12)],
    )
    def test_total_goal_bets_alone_are_unidentifiable(self, state, unders, seed):
        # Over/Under lines all have equal home and away deltas: the split
        # between the two intensities stays free.  At 1-1 the noisy quotes on
        # the settled lines add Jacobian rows of rounding noise only.
        bets = [Bet.under(x + 0.5) for x in range(unders)] + [Bet.over(x + 0.5) for x in range(3)]
        noise, rng = (0.0, None) if seed is None else (0.25, np.random.default_rng(seed))
        snap = make_snapshot(state, LAM_TRUE, timestamp_s=0.0, bets=bets, noise=noise, rng=rng)
        with pytest.raises(IdentifiabilityError):
            calibrate_snapshot(snap)

    def test_noise_recovery_within_three_stderr(self):
        hits = 0
        trials = 40
        for seed in range(trials):
            rng = np.random.default_rng(seed)
            snap = model_snapshot(noise=0.25, rng=rng)
            result = calibrate_snapshot(snap)
            ok_home = abs(result.intensities.home - LAM_TRUE.home) <= 3 * result.stderr_home
            ok_away = abs(result.intensities.away - LAM_TRUE.away) <= 3 * result.stderr_away
            hits += ok_home and ok_away
        assert hits >= 0.95 * trials

    def test_stderr_scales_with_spreads(self):
        narrow = calibrate_snapshot(model_snapshot(spread=0.02))
        wide = calibrate_snapshot(model_snapshot(spread=0.04))
        assert wide.stderr_home == pytest.approx(2 * narrow.stderr_home, rel=1e-4)
        assert wide.stderr_away == pytest.approx(2 * narrow.stderr_away, rel=1e-4)

    @pytest.mark.parametrize("lam", [(0.2, 0.2), (0.2, 4.0), (1.3, 0.7), (4.0, 4.0)])
    @pytest.mark.parametrize("score", [(0, 0), (1, 2), (3, 3)])
    @pytest.mark.parametrize("tau", [0.1, 0.5, 0.8])
    def test_recovery_grid(self, lam, score, tau):
        lam_ = Intensities(*lam)
        state = ScoreState(score[0], score[1], tau)
        snap = make_snapshot(state, lam_, timestamp_s=tau * 5400.0)
        result = calibrate_snapshot(snap)
        assert result.intensities.home == pytest.approx(lam_.home, abs=1e-6)
        assert result.intensities.away == pytest.approx(lam_.away, abs=1e-6)

    def test_warm_start_is_used(self):
        warm = calibrate_snapshot(model_snapshot(), init=LAM_TRUE)
        assert warm.intensities.home == pytest.approx(LAM_TRUE.home, abs=1e-8)


class TestCalibrateSeries:
    def test_flat_market_gives_flat_series(self):
        snaps = [model_snapshot(ts=60.0 * i, state=STATE.at_clock(0.01 * i)) for i in range(5)]
        series = calibrate_series(snaps, step_s=60.0)
        assert len(series.points) == 5
        for point in series.points:
            assert point.result is not None
            assert point.result.intensities.home == pytest.approx(LAM_TRUE.home, abs=1e-6)

    def test_growing_market_has_positive_drift(self):
        snaps = []
        for i in range(12):
            tau = 0.05 * i
            lam = Intensities(1.0 * math.exp(0.6 * tau), 0.8 * math.exp(0.6 * tau))
            snaps.append(model_snapshot(ts=270.0 * i, state=STATE.at_clock(tau), lam=lam))
        series = calibrate_series(snaps, step_s=270.0)
        mu, _sigma = estimate_drift_vol(series)
        assert mu > 0.0

    def test_missing_minute_becomes_a_gap(self):
        snaps = [
            model_snapshot(ts=0.0, state=STATE.at_clock(0.0)),
            model_snapshot(ts=60.0, state=STATE.at_clock(0.011)),
            model_snapshot(ts=180.0, state=STATE.at_clock(0.033)),
        ]
        series = calibrate_series(snaps, step_s=60.0)
        assert [p.timestamp_s for p in series.points] == [0.0, 60.0, 120.0, 180.0]
        assert series.points[2].result is None
        assert len(series.valid()) == 3

    def test_zero_spread_snapshot_raises(self):
        snaps = [model_snapshot(ts=0.0, state=STATE.at_clock(0.0))]
        bad = Quote(MATCH_ODDS_HOME, value_buy=0.5, value_sell=0.5)
        others = tuple(q for q in snaps[0].quotes if q.bet != MATCH_ODDS_HOME)
        snaps.append(QuoteSnapshot(60.0, STATE.at_clock(0.011), (bad,) + others))
        with pytest.raises(ValueError, match="zero spread"):
            calibrate_series(snaps, step_s=60.0)

    def test_snapshot_without_a_score_names_the_earliest(self):
        snaps = [model_snapshot(ts=0.0, state=STATE.at_clock(0.0))]
        snaps += [QuoteSnapshot(t, None, snaps[0].quotes) for t in (60.0, 120.0)]
        with pytest.raises(ValueError, match="^the snapshot at 60s has no score$"):
            calibrate_series(snaps, step_s=60.0)

    def test_empty_timeline_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            calibrate_series([], step_s=60.0)

    # A step under the timestamps' 1 s resolution would only add empty buckets.
    @pytest.mark.parametrize("step_s", [0.0, -60.0, math.nan, math.inf, 0.5])
    def test_step_must_be_positive_and_finite(self, step_s):
        snaps = [model_snapshot(ts=0.0, state=STATE.at_clock(0.0))]
        with pytest.raises(ValueError, match="step must be positive and finite"):
            calibrate_series(snaps, step_s=step_s)


def mixed_series_snapshots():
    """Snapshots one minute apart over three score segments: 0-0 with a
    snapshot missing a bet and one whose quotes put lam_away below the box,
    a one-snapshot 1-0 segment, and 1-1 opening with a totals-only snapshot."""
    rng = np.random.default_rng(7)

    def snap(minute, score, lam=LAM_TRUE, bets=None, noise=0.25):
        state = ScoreState(*score, minute / 90.0)
        return make_snapshot(state, lam, 60.0 * minute, bets=bets, noise=noise, rng=rng)

    catalogue = calibration_catalogue()
    totals = [Bet.under(x + 2.5) for x in range(4)] + [Bet.over(x + 2.5) for x in range(3)]
    return [
        snap(10, (0, 0)),
        snap(11, (0, 0), bets=catalogue[:3] + catalogue[4:]),
        snap(12, (0, 0), lam=Intensities(1.3, 1e-7), noise=0.0),
        snap(13, (0, 0)),
        snap(14, (1, 0)),
        snap(15, (1, 1), bets=totals),
        snap(16, (1, 1)),
        snap(17, (1, 1), lam=Intensities(1.5, 0.8)),
    ]


def assert_same_fit(got, want, rel=1e-9):
    assert got.intensities.home == pytest.approx(want.intensities.home, rel=rel)
    assert got.intensities.away == pytest.approx(want.intensities.away, rel=rel)
    for field in ("residual", "stderr_home", "stderr_away", "condition"):
        assert getattr(got, field) == pytest.approx(getattr(want, field), rel=rel), field
    assert (got.iterations, got.converged) == (want.iterations, want.converged)


class TestSegmentSolve:
    def test_each_point_is_its_own_one_snapshot_fit(self):
        snaps = mixed_series_snapshots()
        series = calibrate_series(snaps, step_s=60.0)
        assert [p.timestamp_s for p in series.points] == [s.timestamp_s for s in snaps]
        # The start rule, restated: the first identifiable snapshot starts
        # from COLD_START (init None), every later one, whatever its score,
        # from that first fit.
        first = None
        for snap, point in zip(snaps, series.points):
            if point.result is None:
                with pytest.raises(IdentifiabilityError):
                    calibrate_snapshot(snap, init=first)
                continue
            assert_same_fit(point.result, calibrate_snapshot(snap, init=first))
            first = first or point.result.intensities
        flags = [None if p.result is None else p.result.converged for p in series.points]
        assert flags == [True, True, False, True, True, None, True, True]
        held = series.points[2].result.intensities.away
        assert held == pytest.approx(LAMBDA_BOX[0], rel=1e-12)

    def test_a_series_makes_two_solves(self, monkeypatch):
        # The first identifiable snapshot alone, then every later one at once,
        # across the three score segments.
        calls = []
        solve = calibration._solve
        monkeypatch.setattr(calibration, "_solve", lambda *args: calls.append(args) or solve(*args))
        calibrate_series(mixed_series_snapshots(), step_s=60.0)
        assert [list(idx) for _, idx, _ in calls] == [[0], list(range(1, 8))]

    def test_no_point_depends_on_a_later_snapshot(self):
        snaps = mixed_series_snapshots()
        full = calibrate_series(snaps, step_s=60.0).points
        for k in range(1, len(snaps) + 1):
            head = calibrate_series(snaps[:k], step_s=60.0).points
            assert [p.timestamp_s for p in head] == [p.timestamp_s for p in full[:k]]
            for got, want in zip(head, full):
                assert (got.result is None) == (want.result is None), (k, got.timestamp_s)
                if got.result is not None:
                    assert_same_fit(got.result, want.result)

    def test_zero_spread_names_the_earliest_snapshot(self):
        snaps = mixed_series_snapshots()
        bad = Quote(MATCH_ODDS_HOME, value_buy=0.5, value_sell=0.5)
        for i in (6, 3):
            others = tuple(q for q in snaps[i].quotes if q.bet != MATCH_ODDS_HOME)
            snaps[i] = QuoteSnapshot(snaps[i].timestamp_s, snaps[i].state, others + (bad,))
        with pytest.raises(
            ValueError, match="^zero spread on quote for MATCH_ODDS_HOME in the snapshot at 780s$"
        ):
            calibrate_series(snaps, step_s=60.0)

    def test_exact_quotes_read_back_from_csv_converge(self, tmp_path):
        # Mids at 9 significant digits leave a residual at rounding level of
        # these narrow spreads; the fits must still stop as converged.
        tl = make_model_timeline(LAM_TRUE, goals=[], step_s=300.0, spread=0.002)
        io.write_quotes_csv(tl, tmp_path / "q.csv")
        io.write_events_csv([], tmp_path / "e.csv", tl.match_id)
        back = io.load_timeline(tmp_path / "q.csv", tmp_path / "e.csv")
        valid = calibrate_series(list(back.snapshots), step_s=300.0).valid()
        assert len(valid) == 18
        for point in valid:
            fit = point.result
            assert fit.converged and fit.iterations <= 11, point.timestamp_s
            assert fit.intensities.home == pytest.approx(LAM_TRUE.home, abs=1e-6)
            assert fit.intensities.away == pytest.approx(LAM_TRUE.away, abs=1e-6)

    def test_debug_log_has_one_record_per_point(self, caplog):
        snaps = mixed_series_snapshots()
        del snaps[3]  # a bucket without a snapshot
        with caplog.at_level(logging.DEBUG, logger="inplay.calibration"):
            series = calibrate_series(snaps, step_s=60.0)
        lines = [r.getMessage() for r in caplog.records if r.name == "inplay.calibration"]
        assert len(lines) == len(series.points) == 8
        assert lines[3] == "series point at 780s: gap (no snapshot)"
        assert lines[5] == "series point at 900s: gap (not identifiable)"
        fit = series.points[2].result
        assert lines[2] == (
            f"series point at 720s: unconverged after {fit.iterations} evaluations, "
            f"residual {fit.residual:.6g}, condition {fit.condition:.6g}, "
            f"truncation bound {fit.truncation_bound:.3g}"
        )
        assert lines[0].startswith("series point at 600s: converged after ")

    def test_logging_off_costs_one_check_per_series(self, monkeypatch):
        checks = []

        class Off:
            def isEnabledFor(self, level):
                checks.append(level)
                return False

            def debug(self, *args):
                raise AssertionError("a DEBUG record was made with logging off")

        monkeypatch.setattr(calibration, "log", Off())
        calibrate_series(mixed_series_snapshots(), step_s=60.0)
        assert checks == [logging.DEBUG]


class TestResidualBlocks:
    """``_Segment.residuals`` hands the solve per-snapshot blocks, never the
    (snapshot x bet) residuals or their Jacobian."""

    def test_blocks_equal_each_snapshots_own_residuals(self):
        # Two scores, and snapshots quoting 31, 16 and 12 bets on one union board.
        rng = np.random.default_rng(11)
        catalogue = calibration_catalogue()
        boards = [
            (ScoreState(0, 0, 0.2), catalogue),
            (ScoreState(0, 0, 0.3), catalogue[::2]),
            (ScoreState(1, 0, 0.5), catalogue[5:17]),
        ]
        snaps = [
            make_snapshot(state, LAM_TRUE, 5400.0 * state.clock, bets, noise=0.25, rng=rng)
            for state, bets in boards
        ]
        lam = np.array([[1.6, 0.9], [1.1, 0.6], [1.4, 1.2]])
        cost, grad, normal, l1, _ = _Segment(SnapshotColumns.of(snaps)).residuals(np.arange(3), lam)
        assert cost.shape == l1.shape == (3,) and grad.shape == (3, 2) and normal.shape == (3, 2, 2)
        for i, snap in enumerate(snaps):
            usable = [q for q in snap.quotes if MID_FILTER[0] < q.value_mid < MID_FILTER[1]]
            score = (snap.state.home_goals, snap.state.away_goals)
            board = pricing.EuropeanBoard([q.bet for q in usable])
            fit = board.evaluate(lam[i : i + 1], [snap.state.clock], score)
            w = np.array([2.0 / q.spread for q in usable])
            r = w * (np.array([q.value_mid for q in usable]) - fit.values[0])
            j = -w[:, None] * fit.jacobian[0]
            np.testing.assert_allclose(cost[i], r @ r, rtol=1e-12)
            np.testing.assert_allclose(grad[i], j.T @ r, rtol=1e-12)
            np.testing.assert_allclose(normal[i], j.T @ j, rtol=1e-12)
            np.testing.assert_allclose(l1[i], np.abs(r) @ w, rtol=1e-12)

    def test_a_fit_held_on_the_box_ends_unconverged_there(self):
        snap = model_snapshot(state=ScoreState(0, 0, 12 / 90), lam=Intensities(1.3, 1e-7))
        fit = calibrate_snapshot(snap)
        assert not fit.converged
        assert fit.intensities.away == pytest.approx(LAMBDA_BOX[0], rel=1e-12)
        assert fit.intensities.home == pytest.approx(1.3, rel=1e-4)


class TestUncertainty:
    def test_matches_numpy_linalg(self):
        rng = np.random.default_rng(3)
        jac = rng.normal(size=(50, 31, 2)) * rng.uniform(0.1, 10.0, size=(50, 1, 2))
        stderr_home, stderr_away, condition = _uncertainty(np.swapaxes(jac, 1, 2) @ jac)
        for j, se_h, se_a, cond in zip(jac, stderr_home, stderr_away, condition):
            cov = np.linalg.inv(j.T @ j)
            assert se_h == pytest.approx(math.sqrt(cov[0, 0]), rel=1e-12)
            assert se_a == pytest.approx(math.sqrt(cov[1, 1]), rel=1e-12)
            assert cond == pytest.approx(np.linalg.cond(j), rel=1e-12)

    @pytest.mark.parametrize(
        "rows", [[[1.0, 2.0], [2.0, 4.0], [-3.0, -6.0]], [[0.0, 1.0], [0.0, 3.0]], [[0.0, 0.0]]]
    )
    def test_singular_normal_matrix_reads_inf(self, rows):
        j = np.array(rows)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(j.T @ j)
        stderr_home, stderr_away, condition = _uncertainty((j.T @ j)[None])
        assert stderr_home[0] == stderr_away[0] == condition[0] == math.inf


class TestIdentifiabilityGate:
    """The gate :func:`calibrate_snapshot` and :func:`calibrate_series` apply
    to the normal matrix j^T j of the residual Jacobian j at the start point."""

    @staticmethod
    def passes(normal) -> bool:
        return bool(_uncertainty(normal[None])[2][0] < CONDITION_MAX)

    def test_parallel_rows_with_a_rounding_noise_row_fail(self):
        # A pairwise test scale-free per row passes this: the noise row is
        # far from parallel to the others.
        j = np.array([[1.0, 1.0], [0.5, 0.5], [-2.0, -2.0], [3e-17, -1e-17]])
        assert not self.passes(j.T @ j)

    def test_a_rounding_noise_column_fails(self):
        # det / (a c) is 0.56 here, far from 0: a test scale-free per column passes it.
        home = [0.3, -0.8, 1.2, 0.05, -0.4]
        away = [1e-17, 3e-17, -2e-17, 1e-17, -1e-17]
        j = np.column_stack((home, away))
        assert not self.passes(j.T @ j)

    def test_a_healthy_board_passes(self):
        snap = model_snapshot()
        seg = _Segment(SnapshotColumns.of([snap]))
        _, _, normal, _, _ = seg.residuals(np.zeros(1, dtype=np.intp), np.array([[1.3, 1.1]]))
        assert self.passes(normal[0])


def series_from_totals(totals, step_s=60.0):
    points = []
    for i, tot in enumerate(totals):
        lam = Intensities(tot / 2.0, tot / 2.0)
        points.append(
            SeriesPoint(
                i * step_s,
                CalibrationResult(lam, 0.0, 0.0, 0.0, 1, True),
            )
        )
    return IntensitySeries(tuple(points))


class TestDriftVol:
    def test_constant_series(self):
        series = series_from_totals([2.0] * 20)
        mu, sigma = estimate_drift_vol(series)
        assert mu == pytest.approx(0.0, abs=1e-12)
        assert sigma == pytest.approx(0.0, abs=1e-12)

    def test_noiseless_exponential_trend(self):
        taus = np.arange(91) / 90.0
        series = series_from_totals(np.exp(0.55 * taus))
        mu, sigma = estimate_drift_vol(series)
        assert mu == pytest.approx(0.55, abs=1e-9)
        assert sigma < 1e-9

    def test_seeded_random_walk_recovers_sigma(self):
        # d ln(total) = sigma dW on a one-minute grid over a 90-minute match.
        sigma_true = 0.5
        hits = 0
        seeds = 200
        for seed in range(seeds):
            rng = np.random.default_rng(seed)
            steps = rng.normal(0.0, sigma_true * math.sqrt(1 / 90.0), size=90)
            totals = 2.0 * np.exp(np.cumsum(np.concatenate([[0.0], steps])))
            _mu, sigma = estimate_drift_vol(series_from_totals(totals))
            hits += 0.4 <= sigma <= 0.6
        assert hits >= 0.9 * seeds

    def test_needs_ten_valid_points(self):
        with pytest.raises(ValueError, match="at least 10"):
            estimate_drift_vol(series_from_totals([2.0] * 9))

    def test_needs_two_consecutive_valid_pairs(self):
        # Ten valid points with a gap between every two: no increment to use.
        alternating = series_from_totals([2.0] * 20).points
        holed = [p if i % 2 == 0 else SeriesPoint(p.timestamp_s, None)
                 for i, p in enumerate(alternating)]
        with pytest.raises(ValueError, match="at least 2 consecutive valid pairs"):
            estimate_drift_vol(IntensitySeries(tuple(holed)))

    def test_gaps_skipped_pairwise(self):
        base = series_from_totals([2.0, 2.2, 2.4, 2.2, 2.0, 2.1, 2.3, 2.2, 2.4, 2.5, 2.6])
        holed = list(base.points)
        holed[5] = SeriesPoint(holed[5].timestamp_s, None)
        series = IntensitySeries(tuple(holed))
        mu, sigma = estimate_drift_vol(series)
        assert math.isfinite(mu) and math.isfinite(sigma)
