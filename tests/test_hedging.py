"""Tests for replication weights and the hedge replay ledger."""

import dataclasses
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from inplay import pricing
from inplay.calibration import (
    CalibrationResult,
    IntensitySeries,
    SeriesPoint,
    SnapshotColumns,
)

from inplay.contracts import (
    Bet,
    BetKind,
    Intensities,
    MATCH_ODDS_AWAY,
    MATCH_ODDS_HOME,
    NEXT_GOAL_AWAY,
    NEXT_GOAL_HOME,
    Outcome,
    Quote,
    ScoreState,
    Team,
)
from inplay.hedging import (
    _DET_TOL,
    _first_mids,
    _next_goal_payout,
    _segment_deltas,
    GoalRecord,
    HedgeReport,
    HedgeSteps,
    SingularHedgeError,
    _stack_weights,
    jump_scatter_stats,
    next_goal_delta_matrix,
    replay_hedge,
    solve_replication_weights,
)
from inplay.io import load_timeline, write_events_csv, write_quotes_csv
from inplay.pricing import greeks, price
from inplay.synthetic import make_model_timeline

LAM = Intensities(1.2, 0.8)
HEDGES = (NEXT_GOAL_HOME, NEXT_GOAL_AWAY)


def ng_values(state, lam):
    return (
        price(NEXT_GOAL_HOME, state, lam).value,
        price(NEXT_GOAL_AWAY, state, lam).value,
    )


class TestDeltaMatrix:
    def test_identity_in_the_final_second(self):
        assert np.array_equal(next_goal_delta_matrix(0.0, 0.0), np.eye(2))

    def test_determinant_is_one_minus_values(self):
        m = next_goal_delta_matrix(0.4, 0.3)
        assert np.linalg.det(m) == pytest.approx(0.3, abs=1e-15)

    def test_determinant_identity_from_model_values(self):
        for tau in (0.0, 0.3, 0.7, 0.99):
            for lam in (Intensities(1, 1), Intensities(2.5, 0.4), Intensities(0.2, 0.1)):
                state = ScoreState(1, 2, tau)
                z1, z2 = ng_values(state, lam)
                det = float(np.linalg.det(next_goal_delta_matrix(z1, z2)))
                assert det == pytest.approx(
                    math.exp(-lam.total * (1 - tau)), abs=1e-12
                )
                assert det > 0.0

    def test_degenerate_values_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            next_goal_delta_matrix(0.6, 0.4)
        with pytest.raises(ValueError):
            next_goal_delta_matrix(1.0, 0.0)


class TestSolveWeights:
    STATE = ScoreState(0, 0, 0.3)

    def test_delta_neutral_target(self):
        z1, z2 = ng_values(self.STATE, LAM)
        w = solve_replication_weights(
            (0.0, 0.0), next_goal_delta_matrix(z1, z2), target_value=0.25,
            instrument_values=(z1, z2),
        )
        assert w.psi1 == 0.0 and w.psi2 == 0.0
        assert w.cash == 0.25

    def test_self_replication(self):
        z1, z2 = ng_values(self.STATE, LAM)
        m = next_goal_delta_matrix(z1, z2)
        w = solve_replication_weights((1 - z1, -z1), m, target_value=z1, instrument_values=(z1, z2))
        assert w.psi1 == pytest.approx(1.0, abs=1e-12)
        assert w.psi2 == pytest.approx(0.0, abs=1e-12)
        assert w.cash == pytest.approx(0.0, abs=1e-12)

    def test_match_odds_solution_against_matrix_inverse(self):
        target = greeks(MATCH_ODDS_HOME, self.STATE, LAM)
        z1, z2 = ng_values(self.STATE, LAM)
        m = next_goal_delta_matrix(z1, z2)
        w = solve_replication_weights(target, m, 0.5, (z1, z2))
        expected = np.linalg.inv(m) @ np.array([target.delta_home, target.delta_away])
        assert w.psi1 == pytest.approx(expected[0], abs=1e-12)
        assert w.psi2 == pytest.approx(expected[1], abs=1e-12)
        # and the solution indeed reproduces both jump responses
        assert m @ np.array([w.psi1, w.psi2]) == pytest.approx(
            [target.delta_home, target.delta_away], abs=1e-14
        )

    def test_singular_matrix_names_the_problem(self):
        with pytest.raises(SingularHedgeError, match="linearly dependent"):
            solve_replication_weights((0.1, 0.2), np.array([[0.5, 0.5], [0.5, 0.5]]))

    def test_match_odds_instruments_degenerate_at_big_lead(self):
        # A 4-goal lead late in the game: both match-odds bets are nearly
        # settled and their delta vectors collapse.
        state = ScoreState(4, 0, 0.9)
        g_home = greeks(MATCH_ODDS_HOME, state, LAM)
        g_away = greeks(MATCH_ODDS_AWAY, state, LAM)
        matrix = np.array(
            [[g_home.delta_home, g_away.delta_home], [g_home.delta_away, g_away.delta_away]]
        )
        target = greeks(Bet.over(4.5), state, LAM)
        with pytest.raises(SingularHedgeError):
            solve_replication_weights(target, matrix)


class TestStackWeights:
    """The replay's one-pass weights against the scalar solve, bit for bit."""

    # Determinants on and around the singular bound, and exact zeros.
    DETS = [
        np.nextafter(_DET_TOL, 0.0), _DET_TOL, np.nextafter(_DET_TOL, 1.0),
        -np.nextafter(_DET_TOL, 0.0), -_DET_TOL, -np.nextafter(_DET_TOL, 1.0), 0.0, -0.0,
    ]

    @classmethod
    def stack(cls) -> np.ndarray:
        """(rows, team, (target, instrument 1, instrument 2)) deltas."""
        rng = np.random.default_rng(19)
        deltas = rng.normal(size=(300, 2, 3)) * 10.0 ** rng.uniform(-8, 2, size=(300, 1, 1))
        # m00 = 1 and m01 = 0 make det = m00 * m11 - m01 * m10 exactly m11.
        for row, det in zip(deltas, cls.DETS):
            row[0, 1], row[0, 2], row[1, 2] = 1.0, 0.0, det
        deltas[len(cls.DETS) : len(cls.DETS) + 4, 0, 0] = 0.0  # zero numerators
        deltas[-3] = np.nan  # before the first intensities
        deltas[-2, 1, 0] = np.nan  # one NaN target delta
        deltas[-1, 0, 2] = np.nan  # one NaN instrument delta
        return deltas

    def test_equal_to_the_scalar_solve_bit_for_bit(self):
        deltas = self.stack()
        psi1, psi2, det = _stack_weights(deltas)
        singular = np.abs(det) <= _DET_TOL
        raised = []
        for row, p1, p2 in zip(deltas.tolist(), psi1.tolist(), psi2.tolist()):
            (t1, a1, b1), (t2, a2, b2) = row
            try:
                w = solve_replication_weights((t1, t2), ((a1, b1), (a2, b2)))
            except SingularHedgeError:
                raised.append(True)
                continue
            raised.append(False)
            assert (p1.hex(), p2.hex()) == (w.psi1.hex(), w.psi2.hex())
        assert singular.tolist() == raised
        # The bound itself is singular, a NaN determinant is not, and tiny
        # random scales give singular rows of their own.
        assert singular[: len(self.DETS)].tolist() == [True, True, False] * 2 + [True, True]
        assert not singular[-3:].any()
        assert 10 < singular.sum() < len(singular) - 100


class TestReplay:
    def test_self_replication_is_exact(self):
        tl = make_model_timeline(
            LAM, goals=[(1800.0, Team.HOME)], step_s=300.0, bets=[*HEDGES]
        )
        rep = replay_hedge(tl, NEXT_GOAL_HOME, HEDGES, LAM)
        for step in rep.steps:
            assert step.portfolio_value == pytest.approx(step.target_value, abs=1e-12)
        assert rep.terminal_error <= 1e-12

    def test_goalless_fine_steps_track_within_tolerance(self):
        tl = make_model_timeline(
            LAM, goals=[], step_s=1.0, end_s=300.0,
            bets=[MATCH_ODDS_HOME, *HEDGES],
        )
        rep = replay_hedge(tl, MATCH_ODDS_HOME, HEDGES, LAM)
        worst = max(abs(s.portfolio_value - s.target_value) for s in rep.steps)
        assert worst <= 1e-6

    def test_halving_the_step_halves_the_terminal_error(self):
        errors = []
        for step in (60.0, 30.0):
            tl = make_model_timeline(
                LAM, goals=[], step_s=step, bets=[Bet.over(2.5), *HEDGES]
            )
            rep = replay_hedge(tl, Bet.over(2.5), HEDGES, LAM)
            errors.append(rep.terminal_error)
        assert errors[0] / errors[1] >= 2.0

    @pytest.mark.parametrize(
        "target", [MATCH_ODDS_HOME, Bet.over(2.5), Bet.correct_score(1, 1)], ids=str
    )
    def test_terminal_error_is_first_order_in_the_step(self, target):
        # The Next Goal pair replicates the target in continuous time, so with
        # rebalancing every dt the signed terminal error is c * dt + o(dt).
        goals = [(1200.0, Team.AWAY), (2700.0, Team.HOME), (4500.0, Team.HOME)]
        lam = Intensities(1.3, 0.7)
        per_second = []
        for step in (1.0, 2.0, 5.0, 10.0, 30.0, 60.0):
            tl = make_model_timeline(lam, goals=goals, step_s=step, bets=[target, *HEDGES])
            steps = replay_hedge(tl, target, HEDGES, lam).steps
            per_second.append((steps.portfolio_value[-1] - steps.target_value[-1]) / step)
        per_second = np.array(per_second)
        assert np.abs(per_second / per_second.mean() - 1.0).max() <= 0.05

    def test_goal_jumps_match_exactly(self):
        tl = make_model_timeline(
            LAM,
            goals=[(1200.0, Team.AWAY), (3000.0, Team.HOME)],
            step_s=60.0,
            bets=[MATCH_ODDS_HOME, *HEDGES],
        )
        rep = replay_hedge(tl, MATCH_ODDS_HOME, HEDGES, LAM)
        assert len(rep.goals) == 2
        for g in rep.goals:
            target_jump = g.target_post - g.target_pre
            hedge_jump = g.portfolio_post - g.portfolio_pre
            assert abs(target_jump - hedge_jump) <= 1e-10
        assert rep.jump_correlation == pytest.approx(1.0, abs=1e-9)

    def test_ledger_is_self_financing_between_rebalances(self):
        tl = make_model_timeline(
            LAM, goals=[(1500.0, Team.HOME)], step_s=120.0, bets=[MATCH_ODDS_AWAY, *HEDGES]
        )
        rep = replay_hedge(tl, MATCH_ODDS_AWAY, HEDGES, LAM)
        goal_times = {g.timestamp_s for g in rep.goals}
        for a, b in zip(rep.steps, rep.steps[1:]):
            if any(a.timestamp_s <= t <= b.timestamp_s for t in goal_times):
                continue  # settlement cash flows happen at goals
            change = b.portfolio_value - a.portfolio_value
            explained = a.psi1 * (b.z1 - a.z1) + a.psi2 * (b.z2 - a.z2)
            assert change == pytest.approx(explained, abs=1e-12)

    def test_singular_steps_flagged_and_carried(self):
        # Hedge with match odds instruments while home runs up a 4-goal lead.
        goals = [(600.0 * (i + 1), Team.HOME) for i in range(4)]
        tl = make_model_timeline(
            LAM,
            goals=goals,
            step_s=300.0,
            bets=[Bet.over(4.5), MATCH_ODDS_HOME, MATCH_ODDS_AWAY],
        )
        rep = replay_hedge(
            tl, Bet.over(4.5), (MATCH_ODDS_HOME, MATCH_ODDS_AWAY), LAM
        )
        flagged = [s for s in rep.steps if s.flag == "singular"]
        assert flagged, "late big-lead steps should have been flagged"
        # carried position: weights unchanged across a flagged step
        for before, after in zip(rep.steps, rep.steps[1:]):
            if after.flag == "singular":
                assert after.psi1 == before.psi1 and after.psi2 == before.psi2

    def test_calibrated_series_can_drive_the_deltas(self):
        from inplay.calibration import calibrate_series

        tl = make_model_timeline(
            LAM,
            goals=[(1800.0, Team.AWAY)],
            step_s=600.0,
            bets=[MATCH_ODDS_HOME, MATCH_ODDS_AWAY, Bet.under(2.5), Bet.under(1.5), *HEDGES],
        )
        series = calibrate_series(list(tl.snapshots), step_s=600.0)
        assert series.valid(), "model-consistent quotes should calibrate"
        rep = replay_hedge(tl, MATCH_ODDS_HOME, HEDGES, series)
        assert rep.terminal_error < 0.05
        for g in rep.goals:
            assert abs((g.target_post - g.target_pre) - (g.portfolio_post - g.portfolio_pre)) < 1e-6


    def test_fixed_intensities_equal_a_one_point_series_at_kickoff(self):
        lam = Intensities(1.3, 0.7)
        tl = make_model_timeline(
            lam,
            goals=[(1200.0, Team.AWAY), (3000.0, Team.HOME)],
            step_s=300.0,
            bets=[MATCH_ODDS_HOME, *HEDGES],
        )
        fit = CalibrationResult(lam, 0.0, 0.0, 0.0, 1, True)
        series = IntensitySeries((SeriesPoint(0.0, fit),))
        fixed = replay_hedge(tl, MATCH_ODDS_HOME, HEDGES, lam)
        assert fixed.steps == replay_hedge(tl, MATCH_ODDS_HOME, HEDGES, series).steps


def _with(tl, snapshots):
    return dataclasses.replace(tl, snapshots=tuple(snapshots))


def _without(tl, keep):
    """The timeline with only the snapshots ``keep(snapshot)`` accepts."""
    return _with(tl, (s for s in tl.snapshots if keep(s)))


def _dropping_quote(snap, bet):
    return dataclasses.replace(snap, quotes=tuple(q for q in snap.quotes if q.bet != bet))


def _step_at(rep, timestamp_s):
    (step,) = [s for s in rep.steps if s.timestamp_s == timestamp_s]
    return step


class TestLedgerBranches:
    """Ledger rules that model-consistent timelines never exercise."""

    BETS = [MATCH_ODDS_HOME, *HEDGES]

    def test_missing_quote_gives_a_stale_step_that_carries_everything(self):
        tl = make_model_timeline(LAM, goals=[], step_s=300.0, bets=self.BETS)
        snaps = list(tl.snapshots)
        snaps[4] = _dropping_quote(snaps[4], NEXT_GOAL_AWAY)
        rep = replay_hedge(_with(tl, snaps), MATCH_ODDS_HOME, HEDGES, LAM)
        before, stale, after = rep.steps[3:6]
        assert stale.flag == "stale" and not before.flag and not after.flag
        assert stale.timestamp_s == snaps[4].timestamp_s
        assert (stale.psi1, stale.psi2, stale.cash) == (before.psi1, before.psi2, before.cash)
        assert (stale.target_value, stale.z1, stale.z2) == (
            before.target_value, before.z1, before.z2,
        )
        mark = before.cash + before.psi1 * before.z1 + before.psi2 * before.z2
        assert stale.portfolio_value == mark
        # the next usable snapshot marks the carried position at its own mids
        assert after.portfolio_value == stale.cash + stale.psi1 * after.z1 + stale.psi2 * after.z2

    def test_two_goals_without_a_snapshot_close_the_first_on_stale_marks(self):
        tl = make_model_timeline(
            LAM, goals=[(1210.0, Team.HOME), (1250.0, Team.AWAY)], step_s=300.0, bets=self.BETS
        )
        rep = replay_hedge(
            _without(tl, lambda s: not 1210.0 <= s.timestamp_s <= 1250.0),
            MATCH_ODDS_HOME,
            HEDGES,
            LAM,
        )
        last, first_after = _step_at(rep, 1200.0), _step_at(rep, 1500.0)
        g1, g2 = rep.goals
        assert (g1.timestamp_s, g1.team, g2.timestamp_s, g2.team) == (
            1210.0, Team.HOME, 1250.0, Team.AWAY,
        )
        assert g1.target_pre == g1.target_post == last.target_value
        assert g1.portfolio_pre == last.cash + last.psi1 * last.z1 + last.psi2 * last.z2
        # the home goal pays the home Next Goal holding into cash
        assert g1.portfolio_post == last.cash + last.psi1
        assert (g2.target_pre, g2.portfolio_pre) == (g1.target_post, g1.portfolio_post)
        assert (g2.target_post, g2.portfolio_post) == (
            first_after.target_value, first_after.portfolio_value,
        )
        assert first_after.psi1 != 0.0  # re-established after the settlements

    def test_goal_before_the_first_usable_snapshot_is_skipped(self):
        tl = make_model_timeline(
            LAM, goals=[(600.0, Team.HOME), (2000.0, Team.AWAY)], step_s=300.0, bets=self.BETS
        )
        rep = replay_hedge(
            _without(tl, lambda s: s.timestamp_s >= 900.0), MATCH_ODDS_HOME, HEDGES, LAM
        )
        assert rep.steps[0].timestamp_s == 900.0
        assert rep.steps[0].portfolio_value == rep.steps[0].target_value
        assert [(g.timestamp_s, g.team) for g in rep.goals] == [(2000.0, Team.AWAY)]

    def test_next_goal_target_ends_the_replay_at_its_settlement(self):
        tl = make_model_timeline(
            LAM, goals=[(1800.0, Team.HOME), (3000.0, Team.AWAY)], step_s=300.0, bets=self.BETS
        )
        rep = replay_hedge(tl, NEXT_GOAL_AWAY, HEDGES, LAM)
        last = rep.steps[-1]
        assert last.flag == "target settled"
        assert (last.timestamp_s, last.clock, last.target_value) == (1800.0, 1800.0 / 5400.0, 0.0)
        assert [s for s in rep.steps if s.timestamp_s > 1800.0] == []
        (goal,) = rep.goals
        assert (goal.timestamp_s, goal.team, goal.target_post) == (1800.0, Team.HOME, 0.0)
        assert goal.portfolio_post == last.portfolio_value
        assert rep.terminal_error <= 1e-12

    def test_next_goal_target_takes_deltas_only_up_to_its_settlement(self):
        # European instruments make each delta row cost a pmf contraction.
        tl = make_model_timeline(
            LAM,
            goals=[(600.0, Team.HOME), (3000.0, Team.AWAY)],
            step_s=10.0,
            bets=[NEXT_GOAL_AWAY, MATCH_ODDS_HOME, MATCH_ODDS_AWAY],
        )
        instruments = (MATCH_ODDS_HOME, MATCH_ODDS_AWAY)
        rows = {}
        real = pricing.segment_greeks

        def spy(bet, score, lam, clocks, *args):
            rows[bet] = rows.get(bet, 0) + len(clocks)
            return real(bet, score, lam, clocks, *args)

        with mock.patch.object(pricing, "segment_greeks", spy):
            rep = replay_hedge(tl, NEXT_GOAL_AWAY, instruments, LAM)
        assert rep.steps[-1].flag == "target settled"
        assert set(rows) == {NEXT_GOAL_AWAY, *instruments}
        assert all(n <= len(rep.steps) for n in rows.values()), rows
        # The snapshots after the settlement never change the report.
        cut = _without(tl, lambda s: s.state.home_goals + s.state.away_goals == 0)
        assert rep == replay_hedge(cut, NEXT_GOAL_AWAY, instruments, LAM)

    def test_first_snapshot_without_a_quote_is_an_error(self):
        tl = make_model_timeline(LAM, goals=[], step_s=600.0, bets=self.BETS)
        snaps = list(tl.snapshots)
        snaps[0] = _dropping_quote(snaps[0], MATCH_ODDS_HOME)
        with pytest.raises(ValueError, match="first snapshot must quote"):
            replay_hedge(_with(tl, snaps), MATCH_ODDS_HOME, HEDGES, LAM)

    def test_a_bet_quoted_twice_uses_its_first_two_sided_quote(self):
        tl = make_model_timeline(LAM, goals=[], step_s=600.0, bets=self.BETS)
        snaps = list(tl.snapshots)
        one_sided = Quote(MATCH_ODDS_HOME, back_decimal=2.0, value_buy=0.5)
        first, second = Quote.from_values(MATCH_ODDS_HOME, 0.41, 0.02), Quote.from_values(
            MATCH_ODDS_HOME, 0.47, 0.02
        )
        snaps[2] = dataclasses.replace(
            snaps[2], quotes=(one_sided, first, *snaps[2].quotes, second)
        )
        rep = replay_hedge(_with(tl, snaps), MATCH_ODDS_HOME, HEDGES, LAM)
        assert rep.steps[2].target_value == first.value_mid
        assert rep.steps[2].target_value != snaps[2].quotes[2].value_mid


REPLAY_TIMELINE = make_model_timeline(
    LAM, goals=[(1500.0, Team.AWAY)], step_s=300.0, bets=[MATCH_ODDS_HOME, *HEDGES]
)


@settings(max_examples=40, deadline=None)
@given(
    minutes=st.lists(st.integers(0, 95), min_size=1, max_size=8, unique=True),
    gaps=st.lists(st.booleans(), min_size=8, max_size=8),
)
def test_no_step_reads_a_calibration_stamped_after_it(minutes, gaps):
    # Each series point's intensities encode its own stamp; the last point
    # is always valid so the series has one.
    minutes = sorted(minutes)
    points = []
    for i, m in enumerate(minutes):
        gap = gaps[i] and i < len(minutes) - 1
        lam = Intensities(1.0 + m / 1000.0, 0.8)
        points.append(
            SeriesPoint(60.0 * m, None if gap else CalibrationResult(lam, 0.0, 0.0, 0.0, 1, True))
        )
    series = IntensitySeries(tuple(points))
    stamp_of = {p.result.intensities: p.timestamp_s for p in series.valid()}

    seen = []
    real = pricing.segment_greeks

    def spy(bet, score, lam, clocks, *args):
        # One (home, away) intensity row per clock.
        seen.extend((t, Intensities(*row)) for t, row in zip(np.asarray(clocks) * 5400.0, lam))
        return real(bet, score, lam, clocks, *args)

    with mock.patch.object(pricing, "segment_greeks", spy):
        rep = replay_hedge(REPLAY_TIMELINE, MATCH_ODDS_HOME, HEDGES, series)
    first = series.valid()[0].timestamp_s
    # Deltas are taken whenever some step has intensities stamped by then.
    assert bool(seen) == any(s.timestamp_s >= first for s in REPLAY_TIMELINE.snapshots)
    for t, lam in seen:
        assert stamp_of[lam] <= t + 1e-6
    for step in rep.steps:
        assert (step.flag == "no intensity") == (step.timestamp_s < first)
        if step.flag:
            assert (step.psi1, step.psi2) == (0.0, 0.0)


SEGMENT_TARGETS = (MATCH_ODDS_HOME, Bet.ht_ft(Outcome.AWAY, Outcome.HOME))
SEGMENT_TIMELINES = [
    make_model_timeline(
        LAM,
        goals=[(1500.0, Team.AWAY), (2700.0, Team.HOME), (3900.0, Team.HOME)],
        step_s=150.0,
        bets=[target, *HEDGES],
    )
    for target in SEGMENT_TARGETS
]


@settings(max_examples=30, deadline=None)
@given(
    which=st.sampled_from([0, 1]),
    stamps=st.lists(
        st.one_of(st.integers(0, 5400), st.integers(0, 36).map(lambda i: 150 * i)),
        min_size=1,
        max_size=6,
        unique=True,
    ),
    lams=st.lists(
        st.tuples(st.floats(0.3, 3.5), st.floats(0.3, 3.5)), min_size=6, max_size=6
    ),
)
def test_series_points_inside_score_segments_set_each_steps_weights(which, stamps, lams):
    # Stamps fall between snapshots, on them and on goals, so score segments
    # are cut by series points; each step must still hedge with the scalar
    # greeks of its own state at the latest intensities stamped by then.
    target, tl = SEGMENT_TARGETS[which], SEGMENT_TIMELINES[which]
    points = tuple(
        SeriesPoint(float(t), CalibrationResult(Intensities(*lam), 0.0, 0.0, 0.0, 1, True))
        for t, lam in zip(sorted(stamps), lams)
    )
    rep = replay_hedge(tl, target, HEDGES, IntensitySeries(points))
    assert len(rep.steps) == len(tl.snapshots)
    for snap, step in zip(tl.snapshots, rep.steps):
        latest = [p for p in points if p.timestamp_s <= snap.timestamp_s]
        assert (step.flag == "no intensity") == (not latest)
        if step.flag:
            continue
        lam = latest[-1].result.intensities
        tg, g1, g2 = (
            greeks(b, snap.state, lam, tl.half_clock, tl.ht_score()) for b in (target, *HEDGES)
        )
        w = solve_replication_weights(
            tg, [[g1.delta_home, g2.delta_home], [g1.delta_away, g2.delta_away]]
        )
        assert abs(step.psi1 - w.psi1) <= 1e-12, snap.timestamp_s
        assert abs(step.psi2 - w.psi2) <= 1e-12, snap.timestamp_s


@pytest.mark.parametrize("which", [0, 1])
def test_calibrated_replay_takes_each_bets_deltas_once_per_score_segment(which):
    # A series point at every snapshot time: intensities change at each step,
    # yet only a goal or half time cuts the rows one segment_greeks call takes.
    target, tl = SEGMENT_TARGETS[which], SEGMENT_TIMELINES[which]
    stamps = sorted({s.timestamp_s for s in tl.snapshots})
    series = IntensitySeries(tuple(
        SeriesPoint(t, CalibrationResult(
            Intensities(1.0 + 0.1 * (i % 7), 0.5 + 0.05 * (i % 5)), 0.0, 0.0, 0.0, 1, True))
        for i, t in enumerate(stamps)
    ))
    calls = []
    real = pricing.segment_greeks

    def spy(bet, score, lam, clocks, *args):
        calls.append(bet)
        return real(bet, score, lam, clocks, *args)

    with mock.patch.object(pricing, "segment_greeks", spy):
        rep = replay_hedge(tl, target, HEDGES, series)
    keys = [
        (s.state.home_goals, s.state.away_goals, s.state.clock >= tl.half_clock)
        for s in tl.snapshots
    ]
    segments = 1 + sum(a != b for a, b in zip(keys, keys[1:]))
    assert len(calls) <= 3 * segments
    assert not any(step.flag for step in rep.steps)


def _reference_replay(tl, target, instruments, lam_source):
    """The replay's ledger as a loop over snapshots and goals, one at a time,
    on the replay's own weights and mids: (steps, goals)."""
    if isinstance(lam_source, Intensities):
        lam_times, lam_values = [-math.inf], [lam_source]
    else:
        lam_times = [p.timestamp_s for p in lam_source.valid()]
        lam_values = [p.result.intensities for p in lam_source.valid()]
    lam_rows = np.array([(v.home, v.away) for v in lam_values])
    bets = (target, *instruments)
    snaps = SnapshotColumns.of(tl.snapshots)
    if len(snaps) and _next_goal_payout(target, Team.HOME) is not None:
        seen = snaps.home + snaps.away
        snaps = snaps[: np.searchsorted(seen, seen[0], side="right")]
    mids = np.column_stack([_first_mids(snaps, b) for b in bets])
    quoted = (~np.isnan(mids).any(axis=1)).tolist()
    mids = mids.tolist()
    ht_score = tl.ht_score() if any(b.kind is BetKind.HT_FT for b in bets) else None
    at = np.searchsorted(lam_times, snaps.timestamps, side="right") - 1
    deltas = _segment_deltas(snaps, bets, at, lam_rows, tl.half_clock, ht_score)
    psi1, psi2, det = _stack_weights(deltas)
    singular = np.abs(det) <= _DET_TOL
    flags = np.where(at < 0, "no intensity", np.where(singular, "singular", "")).tolist()
    psi1, psi2 = psi1.tolist(), psi2.tolist()
    times, clocks = snaps.timestamps.tolist(), snaps.clocks.tolist()

    # Each snapshot follows the goals its score counts.
    order, done = [], 0
    for k, upto in enumerate([*(snaps.home + snaps.away).tolist(), len(tl.events)]):
        order += [("goal", j) for j in range(done, upto)]
        order += [("snapshot", k)] if k < len(snaps) else []
        done = upto

    rows, goals = [], []
    psi, cash = [0.0, 0.0], 0.0
    last_x, last_z = None, (0.0, 0.0)
    pending = None

    def mark(z):
        return cash + psi[0] * z[0] + psi[1] * z[1]

    def close_goal(x_post, v_post):
        nonlocal pending
        if pending is not None:
            t, team, x_pre, v_pre = pending
            goals.append(GoalRecord(t, team, x_pre, x_post, v_pre, v_post))
            pending = None

    def add_step(t, clock, x, value, z, flag):
        rows.append((t, clock, x, value, psi[0], psi[1], cash, z[0], z[1], flag))

    for kind, k in order:
        if kind == "goal":
            if last_x is None:
                continue
            ev = tl.events[k]
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
                v_post = mark(last_z)
                close_goal(x_post, v_post)
                add_step(ev.timestamp_s, ev.timestamp_s / 5400.0, x_post, v_post, last_z,
                         "target settled")
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
            cash = x
        value = mark(z)
        close_goal(x, value)
        if not flags[k]:
            psi = [psi1[k], psi2[k]]
            cash = value - psi[0] * z1 - psi[1] * z2
        add_step(times[k], clocks[k], x, value, z, flags[k])
        last_x, last_z = x, z
    if not rows:
        raise ValueError("timeline contains no usable snapshots")
    close_goal(last_x, mark(last_z))
    return HedgeSteps(*zip(*rows)), tuple(goals)


LEDGER_TARGETS = (
    MATCH_ODDS_HOME, NEXT_GOAL_AWAY, Bet.over(2.5), Bet.ht_ft(Outcome.DRAW, Outcome.HOME)
)
# The Next Goal pair; a match odds pair, singular at a big lead; and a pair
# that is singular once OVER 2.5 has settled.
LEDGER_PAIRS = (HEDGES, (MATCH_ODDS_HOME, MATCH_ODDS_AWAY), (MATCH_ODDS_HOME, Bet.over(2.5)))
GOAL_STAMPS = st.one_of(st.integers(0, 18).map(lambda i: 300.0 * i), st.integers(0, 5400))
TEAM = st.sampled_from([Team.HOME, Team.AWAY])


@settings(max_examples=60, deadline=None)
@given(
    target=st.sampled_from(LEDGER_TARGETS),
    pair=st.sampled_from(LEDGER_PAIRS),
    goals=st.lists(st.tuples(GOAL_STAMPS.map(float), TEAM), max_size=5),
    window=st.tuples(st.integers(0, 2400), st.integers(3000, 5400)),
    stale=st.lists(st.integers(1, 40), max_size=6),
    series=st.one_of(
        st.none(),
        st.lists(st.tuples(st.integers(0, 5400), st.floats(0.3, 3.0), st.floats(0.3, 3.0)),
                 min_size=1, max_size=4, unique_by=lambda p: p[0]),
    ),
)
# Stale and singular steps: a four-goal home lead against match odds.
@example(MATCH_ODDS_HOME, LEDGER_PAIRS[1], [(600.0 * i, Team.HOME) for i in (1, 2, 3, 4)],
         (0, 5400), [3, 9, 10, 20], None)
# "no intensity" steps: the series starts after the first snapshot.
@example(Bet.over(2.5), HEDGES, [(1500.0, Team.AWAY)], (0, 5400), [], [(1000, 1.4, 0.6)])
# Pre- and post-goal snapshots in one second; goals before the first
# snapshot and after the last.
@example(MATCH_ODDS_HOME, HEDGES, [(600.0, Team.HOME), (1200.0, Team.AWAY), (1200.0, Team.HOME),
                                   (4500.0, Team.AWAY)], (900, 3600), [2], None)
# A Next Goal target settles at the first goal after the first snapshot.
@example(NEXT_GOAL_AWAY, HEDGES, [(300.0, Team.HOME), (1800.0, Team.HOME)], (600, 5400), [1],
         [(0, 1.3, 0.7), (1200, 1.1, 0.9)])
def test_ledger_equals_the_per_step_loop(target, pair, goals, window, stale, series):
    bets = list(dict.fromkeys([target, *pair]))
    made = make_model_timeline(LAM, goals=goals, step_s=300.0, bets=bets)
    snaps = [s for s in made.snapshots if window[0] <= s.timestamp_s <= window[1]]
    for i in stale:  # drop one bet's quotes from a later snapshot
        if i < len(snaps):
            snaps[i] = _dropping_quote(snaps[i], bets[i % len(bets)])
    tl = _with(made, snaps)
    lam = LAM if series is None else IntensitySeries(tuple(
        SeriesPoint(float(t), CalibrationResult(Intensities(h, a), 0.0, 0.0, 0.0, 1, True))
        for t, h, a in sorted(series)
    ))
    try:
        want_steps, want_goals = _reference_replay(tl, target, pair, lam)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            replay_hedge(tl, target, pair, lam)
        return
    rep = replay_hedge(tl, target, pair, lam)
    for name in HedgeSteps.__slots__:
        got, want = getattr(rep.steps, name), getattr(want_steps, name)
        assert got == want and repr(got) == repr(want), name
    assert rep.goals == want_goals and repr(rep.goals) == repr(want_goals)
    assert rep.terminal_error == abs(want_steps.portfolio_value[-1] - want_steps.target_value[-1])


class TestJumpStats:
    def fake_report(self, pairs):
        goals = tuple(
            GoalRecord(60.0 * i, Team.HOME, 0.0, x, 0.0, y)
            for i, (x, y) in enumerate(pairs)
        )
        return HedgeReport(MATCH_ODDS_HOME, HEDGES, (), goals, 0.0, None)

    def test_perfectly_aligned_pairs(self):
        corr, pairs = jump_scatter_stats(self.fake_report([(0.1, 0.1), (-0.2, -0.2), (0.3, 0.3)]))
        assert corr == pytest.approx(1.0, abs=1e-12)
        assert len(pairs) == 3

    def test_anti_aligned_pairs(self):
        corr, _ = jump_scatter_stats(self.fake_report([(0.1, -0.1), (-0.2, 0.2), (0.3, -0.3)]))
        assert corr == pytest.approx(-1.0, abs=1e-12)

    def test_needs_two_goals(self):
        with pytest.raises(ValueError, match="two goal"):
            jump_scatter_stats(self.fake_report([(0.1, 0.1)]))

    def test_pools_across_reports(self):
        a = self.fake_report([(0.1, 0.1)])
        b = self.fake_report([(-0.2, -0.2)])
        corr, pairs = jump_scatter_stats([a, b])
        assert len(pairs) == 2
        assert corr == pytest.approx(1.0, abs=1e-12)


class TestLoadedAndTupleRoutesAgree:
    """A loaded timeline holds its snapshots as a column view; the same
    snapshots as a tuple go through the conversion route."""

    # Half time 0-1, full time 2-1, with two goals in one second.
    GOALS = [(1200.0, Team.AWAY), (3000.0, Team.HOME), (3000.0, Team.HOME)]
    SERIES = IntensitySeries(tuple(
        SeriesPoint(t, CalibrationResult(lam, 0.0, 0.0, 0.0, 1, True))
        for t, lam in ((0.0, LAM), (2400.0, Intensities(1.4, 0.6)), (3000.0, LAM))
    ))

    @staticmethod
    def _bits(rep):
        """Every number of a report, as exact reprs."""
        columns = [getattr(rep.steps, name) for name in HedgeSteps.__slots__]
        return repr((columns, rep.goals, rep.terminal_error, rep.jump_correlation))

    @pytest.mark.parametrize("lam_source", ["fixed", "series"])
    @pytest.mark.parametrize(
        "target", [MATCH_ODDS_HOME, Bet.ht_ft(Outcome.AWAY, Outcome.HOME), NEXT_GOAL_HOME]
    )
    def test_replays_are_identical(self, tmp_path, target, lam_source):
        bets = list(dict.fromkeys([target, *HEDGES]))
        made = make_model_timeline(LAM, goals=self.GOALS, step_s=60.0, bets=bets)
        write_quotes_csv(made, tmp_path / "q.csv")
        write_events_csv(list(made.events), tmp_path / "e.csv", made.match_id)
        loaded = load_timeline(tmp_path / "q.csv", tmp_path / "e.csv")
        as_tuple = dataclasses.replace(loaded, snapshots=tuple(loaded.snapshots))
        assert isinstance(loaded.snapshots, SnapshotColumns)
        assert list(loaded.snapshots) == list(as_tuple.snapshots)
        lam = LAM if lam_source == "fixed" else self.SERIES
        rep, other = (replay_hedge(tl, target, HEDGES, lam) for tl in (loaded, as_tuple))
        assert rep == other and self._bits(rep) == self._bits(other)
        if target == NEXT_GOAL_HOME:
            assert rep.steps[-1].flag == "target settled" and rep.steps[-1].timestamp_s == 1200.0

    def test_steps_equal_and_hash_as_views_of_equal_columns(self):
        bets = list(dict.fromkeys([MATCH_ODDS_HOME, *HEDGES]))
        made = make_model_timeline(LAM, goals=self.GOALS, step_s=600.0, bets=bets)
        rep = replay_hedge(made, MATCH_ODDS_HOME, HEDGES, LAM)
        copy = HedgeSteps(*zip(*map(dataclasses.astuple, rep.steps)))
        assert rep.steps == copy and copy == rep.steps and rep.steps == rep.steps[:]
        assert hash(rep.steps) == hash(copy) and hash(rep) == hash(rep)
        assert dataclasses.replace(rep, steps=copy) == rep
        assert rep.steps != rep.steps[:-1] and rep.steps != tuple(rep.steps)
