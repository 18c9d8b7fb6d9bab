"""Tests for the one rule that decides which goals a snapshot has seen."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from inplay.calibration import QuoteSnapshot, SnapshotColumns
from inplay.contracts import MATCH_ODDS_HOME, Intensities, ScoreState, Team
from inplay.io import load_timeline, write_events_csv, write_quotes_csv
from inplay.synthetic import make_model_timeline
from inplay.timeline import GoalEvent, MatchTimeline, goal_counts, replay_runs, score_path

HOME_AT_600 = (GoalEvent(600.0, Team.HOME),)


def _snap(t, score):
    state = None if score is None else ScoreState(*score, t / 5400.0)
    return QuoteSnapshot(t, state, ())


def _records(tl):
    """Snapshots and goals of ``tl`` in replay order, by the snapshots' goal counts."""
    snaps = SnapshotColumns.of(tl.snapshots)
    for goals, run in replay_runs(snaps.home + snaps.away, len(tl.events)):
        yield from (("goal", ev) for ev in tl.events[goals])
        yield from (("snapshot", tl.snapshots[k]) for k in range(run.start, run.stop))


def _timeline(events, *snaps, view=False):
    """A timeline of hand-built snapshots, as a tuple or as a column view."""
    snapshots = tuple(_snap(t, s) for t, s in snaps)
    if view:
        snapshots = SnapshotColumns.of(snapshots)
    return MatchTimeline("m", tuple(events), snapshots)


class TestHelpers:
    def test_score_path_counts_each_goal_once(self):
        events = [GoalEvent(0.0, Team.AWAY), GoalEvent(10.0, Team.HOME), GoalEvent(10.0, Team.HOME)]
        assert score_path(events) == [(0, 0), (0, 1), (1, 1), (2, 1)]

    def test_goal_counts_split_strictly_before_from_at_or_before(self):
        events = [GoalEvent(0.0, Team.AWAY), GoalEvent(10.0, Team.HOME), GoalEvent(10.0, Team.HOME)]
        assert goal_counts(events, [0.0, 5.0, 10.0, 11.0]) == ([0, 1, 1, 3], [1, 1, 3, 3])
        assert goal_counts([], [0.0, 5400.0]) == ([0, 0], [0, 0])

    def test_goal_counts_reject_unordered_events(self):
        events = [GoalEvent(10.0, Team.HOME), GoalEvent(5.0, Team.AWAY)]
        with pytest.raises(ValueError, match="must be ordered"):
            goal_counts(events, [0.0])


class TestMatchTimelineRejects:
    view = False  # the snapshots as a tuple

    def test_a_snapshot_without_a_score(self):
        with pytest.raises(ValueError, match=r"^snapshot at 300.0s has no score$"):
            _timeline((), (300.0, None), view=self.view)

    def test_a_home_score_when_the_only_goal_is_away(self):
        want = r"^snapshot at 900.0s: score \(1, 0\) does not follow the goals, which allow "
        want += r"\[\(0, 1\)\]$"
        with pytest.raises(ValueError, match=want):
            _timeline([GoalEvent(600.0, Team.AWAY)], (900.0, (1, 0)), view=self.view)

    def test_a_goal_counted_before_it_is_scored(self):
        with pytest.raises(ValueError, match=r"snapshot at 300.0s: score \(1, 0\) does not"):
            _timeline(HOME_AT_600, (300.0, (1, 0)), view=self.view)

    def test_a_post_goal_snapshot_listed_before_the_pre_goal_one(self):
        want = r"^snapshot at 600.0s is out of \(timestamp, goals\) order$"
        with pytest.raises(ValueError, match=want):
            _timeline(HOME_AT_600, (600.0, (1, 0)), (600.0, (0, 0)), view=self.view)

    def test_a_snapshot_stamped_before_its_predecessor(self):
        with pytest.raises(ValueError, match=r"snapshot at 300.0s is out of"):
            _timeline((), (600.0, (0, 0)), (300.0, (0, 0)), view=self.view)

    def test_a_snapshot_repeating_its_predecessors_stamp_and_score(self):
        # The writer would write both snapshots' quotes of a bet under one
        # (timestamp, score) key, which the reader rejects as quoted twice.
        with pytest.raises(ValueError, match=r"^snapshot at 600.0s is out of"):
            _timeline(HOME_AT_600, (600.0, (1, 0)), (600.0, (1, 0)), view=self.view)

    def test_a_clock_other_than_its_stamps(self):
        # 600 s is the clock 1/9 of a 90-minute match, not 0.9.
        snaps = (_snap(0.0, (0, 0)), QuoteSnapshot(600.0, ScoreState(0, 0, 0.9), ()))
        if self.view:
            snaps = SnapshotColumns.of(snaps)
        want = r"^snapshot at 600.0s has clock 0.9, not its stamp's 0.111"
        with pytest.raises(ValueError, match=want):
            MatchTimeline("m", (), snaps)

    def test_the_first_bad_snapshot_is_named(self):
        with pytest.raises(ValueError, match=r"snapshot at 60.0s: score \(0, 1\)"):
            _timeline(HOME_AT_600, (0.0, (0, 0)), (60.0, (0, 1)), (30.0, None), view=self.view)


class TestMatchTimelineViewRejects(TestMatchTimelineRejects):
    """The same snapshots as a column view give the same messages."""

    view = True


def test_a_model_timeline_with_one_clock_moved_is_rejected():
    # Pricing reads the snapshot's clock, while intensities, goals and the
    # half-time side go by its stamp: the two must agree.
    tl = make_model_timeline(Intensities(1.3, 0.7), [(1200.0, Team.AWAY)], step_s=300.0)
    snaps = list(tl.snapshots)
    assert snaps[2].timestamp_s == 600.0
    snaps[2] = dataclasses.replace(snaps[2], state=snaps[2].state.at_clock(0.9))
    with pytest.raises(ValueError, match=r"^snapshot at 600.0s has clock 0.9"):
        MatchTimeline(tl.match_id, tl.events, tuple(snaps))


def test_replay_order_puts_each_goal_between_the_snapshots_that_straddle_it():
    tl = _timeline(HOME_AT_600, (600.0, (0, 0)), (600.0, (1, 0)), (900.0, (1, 0)))
    kinds = [kind for kind, _ in _records(tl)]
    assert kinds == ["snapshot", "goal", "snapshot", "snapshot"]
    # Both same-second snapshots may stand alone: the goal goes where the score says.
    pre, post = (_timeline(HOME_AT_600, (600.0, score)) for score in ((0, 0), (1, 0)))
    assert [k for k, _ in _records(pre)] == ["snapshot", "goal"]
    assert [k for k, _ in _records(post)] == ["goal", "snapshot"]


def test_replay_runs_cut_at_each_goal_count_and_end_with_the_goals_after_the_last():
    runs = replay_runs([1, 1, 2, 4, 4, 4], 6)
    assert runs == [
        (slice(0, 1), slice(0, 2)),  # the goal before the first snapshot
        (slice(1, 2), slice(2, 3)),
        (slice(2, 4), slice(3, 6)),  # two goals between snapshots
        (slice(4, 6), slice(6, 6)),  # two goals after the last snapshot
    ]
    assert replay_runs([0, 0], 0) == [(slice(0, 0), slice(0, 2)), (slice(0, 0), slice(2, 2))]
    assert replay_runs([], 2) == [(slice(0, 2), slice(0, 0))]


def test_ht_score_counts_a_goal_stamped_on_the_half():
    events = [
        GoalEvent(2699.0, Team.AWAY), GoalEvent(2700.0, Team.HOME), GoalEvent(2701.0, Team.HOME)
    ]
    assert _timeline(events).ht_score() == (1, 1)


@pytest.mark.parametrize("step_s", [0.0, -60.0, float("nan"), float("inf")])
def test_model_timeline_step_must_be_positive_and_finite(step_s):
    with pytest.raises(ValueError, match="step_s must be positive and finite"):
        make_model_timeline(Intensities(1.3, 0.7), [(600.0, Team.HOME)], step_s=step_s)


@pytest.mark.parametrize("end_s", [-60.0, float("nan"), float("inf"), 6000.0])
def test_model_timeline_end_must_lie_inside_the_match(end_s):
    with pytest.raises(ValueError, match="^end_s must be finite and lie inside the match$"):
        make_model_timeline(Intensities(1.3, 0.7), [], step_s=60.0, end_s=end_s)


def _sequence(tl):
    return [
        (kind, rec) if kind == "goal" else (kind, rec.timestamp_s, rec.state)
        for kind, rec in _records(tl)
    ]


TEAMS = st.sampled_from([Team.HOME, Team.AWAY])


@settings(max_examples=25, deadline=None)
@given(
    burst_s=st.integers(0, 5400),
    burst=st.lists(TEAMS, min_size=2, max_size=3),
    others=st.lists(st.tuples(st.integers(0, 5400), TEAMS), max_size=3),
    kickoff=TEAMS,
    whistle=TEAMS,
    step_s=st.sampled_from([900.0, 1350.0, 2700.0]),
)
def test_written_and_reloaded_timeline_replays_the_same(
    tmp_path_factory, burst_s, burst, others, kickoff, whistle, step_s
):
    # Goals at kickoff, at the final whistle and several in one second.
    goals = [(0.0, kickoff), *((float(burst_s), t) for t in burst), (5400.0, whistle)]
    goals += [(float(t), team) for t, team in others]
    tl = make_model_timeline(Intensities(1.3, 0.7), goals, step_s=step_s, bets=[MATCH_ODDS_HOME])
    out = tmp_path_factory.mktemp("round_trip")
    write_quotes_csv(tl, out / "q.csv")
    write_events_csv(list(tl.events), out / "e.csv", match_id=tl.match_id)
    loaded = load_timeline(out / "q.csv", out / "e.csv")
    assert _sequence(loaded) == _sequence(tl)
    assert loaded.ht_score() == tl.ht_score()
    assert sum(kind == "goal" for kind, _ in _records(tl)) == len(goals)
