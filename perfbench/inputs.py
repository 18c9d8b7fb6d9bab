"""Seeded synthetic inputs for the benchmark workloads.

A workload seed picks one simulated 90-minute match: goal times come from
``oracle.simulate_paths`` at the workload intensities, rounded to whole
seconds, and quotes come from ``synthetic.make_model_timeline``.  The files
are written with the package's own CSV writers, so the CLI reads exactly
what a user would hand it.  The same seed always gives byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from inplay import io, oracle, pricing, synthetic
from inplay.calibration import QuoteSnapshot
from inplay.contracts import (
    NEXT_GOAL_AWAY,
    NEXT_GOAL_HOME,
    Bet,
    Intensities,
    Outcome,
    Quote,
    ScoreState,
    Team,
    format_bet,
    parse_bet,
)
from inplay.timeline import MatchTimeline

LAMBDA = Intensities(1.3, 0.7)
MATCH_S = 5400
HALF_S = 2700

# Seed 2 gives goals at 539, 1186, 1448 and 1863 s (first half) and 3581 s
# (second half), so goal settlement and the half-time switch are both on the
# path; half time is 2-2 and full time 3-2.
DEFAULT_SEED = 2

# Uniform mid noise in spread units, as in acceptance criterion 5.
CALIBRATION_NOISE = 0.25


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "calibrate" or "hedge-replay"
    step_s: float
    board: str  # "catalogue": 31 calibration bets + Next Goal pair; "htft": target + pair
    noise: float
    # Narrow each spread to fit inside [0, 1] so quotes stay two-sided in CSV.
    fit_spreads: bool
    # Distinct matches one run cycles through.  The cost of a command depends
    # on its match (goals settle bets and shrink the calibration board), so
    # cheap-to-generate workloads spread each run over several matches.
    matches: int


WORKLOADS = {
    w.name: w
    for w in (
        # Why each workload was chosen is recorded in README.md.
        Workload("calibrate_60s", "calibrate", 60.0, "catalogue", CALIBRATION_NOISE, False, 8),
        Workload("replay_1s", "hedge-replay", 1.0, "catalogue", 0.0, True, 1),
        Workload("replay_htft_1s", "hedge-replay", 1.0, "htft", 0.0, True, 4),
    )
}


def match_seeds(workload: Workload, seed: int) -> list[int]:
    """Seeds of the matches one run uses; the first is the run seed itself."""
    return [seed + 1000 * i for i in range(workload.matches)]


def _outcome(home: int, away: int) -> Outcome:
    if home > away:
        return Outcome.HOME
    if home < away:
        return Outcome.AWAY
    return Outcome.DRAW


def match_goals(seed: int) -> list:
    """Goal (second, team) pairs of the seeded match at the workload intensities."""
    path = oracle.simulate_paths(LAMBDA, ScoreState(0, 0, 0.0), 1, seed)[0]
    return [(float(round(t * MATCH_S)), team) for t, team in path.events]


def htft_target(goals: list) -> Bet:
    """HT_FT bet on the match's own half-time and full-time outcomes."""
    ht = [0, 0]
    ft = [0, 0]
    for t, team in goals:
        side = 0 if team is Team.HOME else 1
        ft[side] += 1
        if t <= HALF_S:
            ht[side] += 1
    return Bet.ht_ft(_outcome(*ht), _outcome(*ft))


def _perturb(timeline: MatchTimeline, noise: float, seed: int) -> MatchTimeline:
    rng = np.random.default_rng(seed)
    snapshots = []
    for snap in timeline.snapshots:
        quotes = tuple(
            Quote.from_values(
                q.bet, q.value_mid + float(rng.uniform(-noise, noise)) * q.spread, q.spread
            )
            for q in snap.quotes
        )
        snapshots.append(QuoteSnapshot(snap.timestamp_s, snap.state, quotes))
    return replace(timeline, snapshots=tuple(snapshots))


def _fit_spreads(timeline: MatchTimeline) -> MatchTimeline:
    """Narrow each quote's spread so both sides stay inside (0, 1).

    Decimal odds cannot carry a buy value above 1 or a sell value at or
    below 0, so with a constant spread every bet within half a spread of
    0 or 1 loses a side in the CSV.  The replay then carries its position
    unhedged ("stale") and a goal in that stretch breaks jump matching.
    The replay workloads measure hedging on live two-sided quotes, so their
    spreads shrink near the boundary; mids stay exact model values, and
    settled bets (exactly 0 or 1) keep their one-sided quote.
    """
    snapshots = []
    for snap in timeline.snapshots:
        quotes = []
        for q in snap.quotes:
            mid = q.value_mid
            spread = min(q.spread, 1.9 * mid, 1.9 * (1.0 - mid))
            quotes.append(Quote.from_values(q.bet, mid, spread) if spread > 0.0 else q)
        snapshots.append(QuoteSnapshot(snap.timestamp_s, snap.state, tuple(quotes)))
    return replace(timeline, snapshots=tuple(snapshots))


def _unidentifiable_buckets(
    timeline: MatchTimeline, exact: MatchTimeline, step_s: float
) -> list[int]:
    """Calibration buckets whose fitted snapshot cannot pin down two intensities.

    ``calibrate_series`` fits the latest snapshot of each bucket, using only
    two-sided European quotes with a mid inside (0.001, 0.999).  A gap is
    legitimate only where those quotes number fewer than two or all have
    parallel goal sensitivities under the generating model: at the final
    whistle every bet is settled, and in the last minutes the live quotes
    can all be totals-like.  The sensitivities are model jumps taken from
    the exact (noise-free) board, independent of the calibrator's own test.
    """
    latest: dict[int, tuple[QuoteSnapshot, QuoteSnapshot]] = {}
    for snap, clean in zip(timeline.snapshots, exact.snapshots):
        latest[int(snap.timestamp_s // step_s)] = (snap, clean)
    out = []
    for idx, (snap, clean) in sorted(latest.items()):
        state = clean.state
        deltas = []
        for q in snap.quotes:
            # As read back from the CSV: a side whose value leaves (0, 1] has no odds.
            if q.back_decimal is None or q.lay_decimal is None or not q.bet.european:
                continue
            if not 0.001 < 0.5 * (1.0 / q.back_decimal + 1.0 / q.lay_decimal) < 0.999:
                continue
            base = pricing.price(q.bet, state, LAMBDA).value
            deltas.append(
                tuple(
                    pricing.price(q.bet, state.with_goal(team), LAMBDA).value - base
                    for team in (Team.HOME, Team.AWAY)
                )
            )
        independent = any(
            abs(a[0] * b[1] - a[1] * b[0]) > 1e-6 * math.hypot(*a) * math.hypot(*b)
            for i, a in enumerate(deltas)
            for b in deltas[i + 1 :]
        )
        if not independent:
            out.append(idx)
    return out


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def generate(workload: Workload, seed: int, out_dir: Path) -> dict:
    """Write quotes.csv, events.csv and truth.json; return the truth record.

    The truth record is what the output checks compare against: the
    generating intensities, goals, snapshot and row counts, the target bet
    and the calibration buckets that may legitimately be gaps.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    goals = match_goals(seed)
    if workload.board == "htft":
        target = htft_target(goals)
        bets = [target, NEXT_GOAL_HOME, NEXT_GOAL_AWAY]
    else:
        target = parse_bet("MATCH_ODDS_HOME")
        bets = None  # calibration catalogue plus the Next Goal pair
    exact = synthetic.make_model_timeline(LAMBDA, goals, step_s=workload.step_s, bets=bets)
    timeline = exact
    if workload.noise > 0.0:
        timeline = _perturb(timeline, workload.noise, seed)
    if workload.fit_spreads:
        timeline = _fit_spreads(timeline)

    quotes_path = out_dir / "quotes.csv"
    events_path = out_dir / "events.csv"
    io.write_quotes_csv(timeline, quotes_path)
    io.write_events_csv(list(timeline.events), events_path, timeline.match_id)
    ht = timeline.ht_score()
    truth = {
        "workload": workload.name,
        "seed": seed,
        "lambda": [LAMBDA.home, LAMBDA.away],
        "goals": [[int(t), team.value] for t, team in goals],
        "ht_score": list(ht),
        "target": format_bet(target),
        "step_s": workload.step_s,
        "snapshots": len(timeline.snapshots),
        "quote_rows": sum(len(s.quotes) for s in timeline.snapshots),
        "quotes_bytes": quotes_path.stat().st_size,
        "buckets": [
            int(timeline.snapshots[0].timestamp_s // workload.step_s),
            int(timeline.snapshots[-1].timestamp_s // workload.step_s),
        ],
        "unidentifiable_buckets": (
            _unidentifiable_buckets(timeline, exact, workload.step_s)
            if workload.command == "calibrate"
            else []
        ),
        "quotes_sha256": _sha256(quotes_path),
        "events_sha256": _sha256(events_path),
    }
    (out_dir / "truth.json").write_text(json.dumps(truth, indent=1) + "\n", encoding="utf-8")
    return truth
