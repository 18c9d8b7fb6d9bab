"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are fixed here, not calibrated elsewhere.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from inplay.calibration import (
    CalibrationResult,
    IntensitySeries,
    SeriesPoint,
    calibrate_snapshot,
    estimate_drift_vol,
)
from inplay.cli import main as cli_main
from inplay.contracts import (
    Bet,
    EVEN_TOTAL,
    Intensities,
    MATCH_ODDS_AWAY,
    MATCH_ODDS_DRAW,
    MATCH_ODDS_HOME,
    NEXT_GOAL_AWAY,
    NEXT_GOAL_HOME,
    ODD_TOTAL,
    Outcome,
    ScoreState,
    Team,
    payoff,
)
from inplay.hedging import (
    SingularHedgeError,
    jump_scatter_stats,
    next_goal_delta_matrix,
    replay_hedge,
    solve_replication_weights,
)
from inplay.io import (
    load_timeline,
    write_events_csv,
    write_quotes_csv,
)
from inplay.oracle import enumerate_price, kolmogorov_residual, mc_price
from inplay.pricing import (
    greeks,
    intensity_sensitivity,
    price,
    price_closed_form,
    price_european,
)
from inplay.synthetic import calibration_catalogue, make_model_timeline, make_snapshot

LAMBDA_GRID = [0.1, 0.5, 1.0, 2.0, 5.0]
TAU_GRID = [0.0, 0.25, 0.5, 0.9]
SCORES = [(h, a) for h in range(5) for a in range(5)]

VARIANT_BETS = [
    MATCH_ODDS_HOME,
    MATCH_ODDS_AWAY,
    MATCH_ODDS_DRAW,
    Bet.correct_score(2, 1),
    Bet.correct_score(0, 0),
    Bet.over(2.5),
    Bet.under(2.5),
    ODD_TOTAL,
    EVEN_TOTAL,
    Bet.winning_margin(0),
    Bet.winning_margin(-2),
]


@contextmanager
def criterion(number: int, name: str):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"\n[criterion {number}] {name}: FAIL ({time.monotonic() - start:.1f}s)")
        raise
    print(f"\n[criterion {number}] {name}: PASS ({time.monotonic() - start:.1f}s)")


def grid_states():
    for l1 in LAMBDA_GRID:
        for l2 in LAMBDA_GRID:
            lam = Intensities(l1, l2)
            for score in SCORES:
                for tau in TAU_GRID:
                    yield ScoreState(score[0], score[1], tau), lam


def test_criterion_1_three_route_equivalence():
    with criterion(1, "closed form = double sum = extended-precision enumeration"):
        start = time.monotonic()
        cap = 60
        grids = {}
        for bet in VARIANT_BETS:
            for score in SCORES:
                grids[(bet, score)] = np.array(
                    [
                        [payoff(bet, score[0] + i, score[1] + j) for j in range(cap + 1)]
                        for i in range(cap + 1)
                    ],
                    dtype=float,
                )
        worst = 0.0
        for state, lam in grid_states():
            score = (state.home_goals, state.away_goals)
            for bet in VARIANT_BETS:
                a = price_closed_form(bet, state, lam).value
                b = price_european(bet, state, lam).value
                c = enumerate_price(grids[(bet, score)], state, lam, cap=cap)
                worst = max(worst, abs(a - b), abs(a - c), abs(b - c))
        elapsed = time.monotonic() - start
        assert worst <= 1e-10, f"worst three-route disagreement {worst:.2e}"
        assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"


def test_criterion_2_monte_carlo_consistency():
    with criterion(2, "Next Goal and HT/FT prices within 3 stderr of Monte Carlo"):
        start = time.monotonic()
        lam = Intensities(1.3, 0.7)
        state = ScoreState(1, 0, 0.2)
        n = 1_000_000
        targets = [
            (NEXT_GOAL_HOME, price(NEXT_GOAL_HOME, state, lam).value),
            (NEXT_GOAL_AWAY, price(NEXT_GOAL_AWAY, state, lam).value),
            (
                Bet.ht_ft(Outcome.HOME, Outcome.HOME),
                price(Bet.ht_ft(Outcome.HOME, Outcome.HOME), state, lam).value,
            ),
            (
                Bet.ht_ft(Outcome.DRAW, Outcome.HOME),
                price(Bet.ht_ft(Outcome.DRAW, Outcome.HOME), state, lam).value,
            ),
            (
                Bet.ht_ft(Outcome.AWAY, Outcome.AWAY),
                price(Bet.ht_ft(Outcome.AWAY, Outcome.AWAY), state, lam).value,
            ),
        ]
        for seed in (1, 2, 3):
            for bet, exact in targets:
                est, err = mc_price(bet, state, lam, n, seed=seed)
                assert abs(est - exact) <= 3 * err, (
                    f"{bet} seed={seed}: |{est:.6f} - {exact:.6f}| > 3*{err:.2e}"
                )
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"criterion 2 took {elapsed:.1f}s"


def test_criterion_3_normalisation_families():
    with criterion(3, "match odds / totals / parity / margin families sum to 1"):
        for state, lam in grid_states():
            trio = sum(
                price_closed_form(b, state, lam).value
                for b in (MATCH_ODDS_HOME, MATCH_ODDS_AWAY, MATCH_ODDS_DRAW)
            )
            assert abs(trio - 1.0) <= 1e-10
            for line in (0.5, 2.5, 5.5):
                pair = (
                    price_closed_form(Bet.over(line), state, lam).value
                    + price_closed_form(Bet.under(line), state, lam).value
                )
                assert abs(pair - 1.0) <= 1e-10
            parity = (
                price_closed_form(ODD_TOTAL, state, lam).value
                + price_closed_form(EVEN_TOTAL, state, lam).value
            )
            assert abs(parity - 1.0) <= 1e-10
            margins = sum(
                price_closed_form(Bet.winning_margin(k), state, lam).value
                for k in range(-30, 31)
            )
            assert abs(margins - 1.0) <= 1e-10


def test_criterion_4_forward_equation_and_sensitivities():
    with criterion(4, "Kolmogorov residual and intensity sensitivities"):
        h = 1e-5
        for state, lam in grid_states():
            if state.clock >= 1.0:
                continue
            for bet in VARIANT_BETS:
                residual = kolmogorov_residual(bet, state, lam)
                assert abs(residual) <= 1e-6, f"{bet} at {state}, {lam}: residual {residual:.2e}"
            # Sensitivity identity checked on a representative sub-family to
            # keep the finite-difference bumping affordable.
            for bet in (MATCH_ODDS_HOME, Bet.over(2.5), Bet.correct_score(2, 1)):
                s1, s2 = intensity_sensitivity(bet, state, lam)
                fd1 = (
                    price_european(bet, state, Intensities(lam.home + h, lam.away)).value
                    - price_european(bet, state, Intensities(max(lam.home - h, 0.0), lam.away)).value
                ) / (2 * h)
                fd2 = (
                    price_european(bet, state, Intensities(lam.home, lam.away + h)).value
                    - price_european(bet, state, Intensities(lam.home, max(lam.away - h, 0.0))).value
                ) / (2 * h)
                assert abs(s1 - fd1) <= 1e-6
                assert abs(s2 - fd2) <= 1e-6


def test_criterion_5_calibration_round_trip_and_noise_study():
    with criterion(5, "31-bet calibration round trip and 500-seed noise study"):
        start = time.monotonic()
        lam_true = Intensities(1.3, 0.7)
        state = ScoreState(0, 0, 0.2)
        assert len(calibration_catalogue()) == 31

        clean = make_snapshot(state, lam_true, timestamp_s=1080.0, spread=0.02)
        result = calibrate_snapshot(clean)
        assert abs(result.intensities.home - lam_true.home) <= 1e-6
        assert abs(result.intensities.away - lam_true.away) <= 1e-6
        assert result.residual < 1e-8

        hits = 0
        trials = 500
        for seed in range(trials):
            rng = np.random.default_rng(seed)
            snap = make_snapshot(
                state, lam_true, timestamp_s=1080.0, spread=0.02, noise=0.25, rng=rng
            )
            fit = calibrate_snapshot(snap)
            ok_home = abs(fit.intensities.home - lam_true.home) <= 3 * fit.stderr_home
            ok_away = abs(fit.intensities.away - lam_true.away) <= 3 * fit.stderr_away
            hits += ok_home and ok_away
        elapsed = time.monotonic() - start
        assert hits >= 0.95 * trials, f"only {hits}/{trials} noise trials recovered"
        assert elapsed < 300.0, f"criterion 5 took {elapsed:.1f}s"


def _series_from_totals(totals, step_s=60.0):
    points = tuple(
        SeriesPoint(
            i * step_s,
            CalibrationResult(Intensities(t / 2, t / 2), 0.0, 0.0, 0.0, 1, True),
        )
        for i, t in enumerate(totals)
    )
    return IntensitySeries(points)


def test_criterion_6_drift_vol_estimator():
    with criterion(6, "drift/vol estimator on exponential and random-walk fixtures"):
        taus = np.arange(91) / 90.0
        mu, sigma = estimate_drift_vol(_series_from_totals(np.exp(0.55 * taus)))
        assert abs(mu - 0.55) <= 1e-9
        assert sigma < 1e-9

        sigma_true = 0.51
        hits = 0
        seeds = 200
        for seed in range(seeds):
            rng = np.random.default_rng(seed)
            steps = rng.normal(0.0, sigma_true / math.sqrt(90.0), size=90)
            totals = 2.0 * np.exp(np.cumsum(np.concatenate([[0.0], steps])))
            _, sig = estimate_drift_vol(_series_from_totals(totals))
            hits += abs(sig - sigma_true) <= 0.12
        assert hits >= 0.9 * seeds, f"only {hits}/{seeds} random-walk fits in band"


def test_criterion_7_hedging_exactness():
    with criterion(7, "jump matching, 1s-rebalance tracking and jump correlation"):
        lam = Intensities(1.3, 0.7)
        goal_plan = [(1200.0, Team.AWAY), (2700.0, Team.HOME), (4500.0, Team.HOME)]
        targets = [
            MATCH_ODDS_HOME,
            MATCH_ODDS_AWAY,
            MATCH_ODDS_DRAW,
            Bet.over(2.5),
            Bet.under(1.5),
            Bet.correct_score(1, 1),
        ]
        reports = []
        for target in targets:
            tl = make_model_timeline(
                lam,
                goals=goal_plan,
                step_s=1.0,
                bets=[target, NEXT_GOAL_HOME, NEXT_GOAL_AWAY],
            )
            rep = replay_hedge(tl, target, (NEXT_GOAL_HOME, NEXT_GOAL_AWAY), lam)
            assert len(rep.goals) == len(goal_plan)
            for g in rep.goals:
                mismatch = abs(
                    (g.target_post - g.target_pre) - (g.portfolio_post - g.portfolio_pre)
                )
                assert mismatch <= 1e-10, f"{target}: jump mismatch {mismatch:.2e}"
            assert rep.terminal_error <= 1e-3, (
                f"{target}: terminal error {rep.terminal_error:.2e}"
            )
            reports.append(rep)
        corr, pairs = jump_scatter_stats(reports)
        assert len(pairs) == len(goal_plan) * len(targets)
        assert corr >= 0.999, f"pooled jump correlation {corr:.6f}"


def test_criterion_8_degeneracy_behaviour():
    with criterion(8, "match-odds hedge degeneracy and Next Goal determinant identity"):
        lam = Intensities(1.2, 0.8)
        state = ScoreState(4, 0, 0.9)
        g_home = greeks(MATCH_ODDS_HOME, state, lam)
        g_away = greeks(MATCH_ODDS_AWAY, state, lam)
        matrix = np.array(
            [[g_home.delta_home, g_away.delta_home], [g_home.delta_away, g_away.delta_away]]
        )
        with pytest.raises(SingularHedgeError):
            solve_replication_weights(greeks(Bet.over(4.5), state, lam), matrix)

        for tau in TAU_GRID + [0.99]:
            for l1 in LAMBDA_GRID:
                for l2 in LAMBDA_GRID:
                    lam_ = Intensities(l1, l2)
                    st = ScoreState(2, 1, tau)
                    z1 = price(NEXT_GOAL_HOME, st, lam_).value
                    z2 = price(NEXT_GOAL_AWAY, st, lam_).value
                    det = float(np.linalg.det(next_goal_delta_matrix(z1, z2)))
                    expected = math.exp(-lam_.total * (1 - tau))
                    assert abs(det - expected) <= 1e-12


def test_criterion_9_csv_round_trip_and_cli_exit_codes(tmp_path):
    with criterion(9, "CSV byte round-trip and CLI exit-code contract"):
        lam = Intensities(1.3, 0.7)
        tl = make_model_timeline(
            lam,
            goals=[(1200.0, Team.AWAY)],
            step_s=600.0,
            bets=[MATCH_ODDS_HOME, MATCH_ODDS_AWAY, Bet.under(2.5), NEXT_GOAL_HOME, NEXT_GOAL_AWAY],
        )
        quotes = tmp_path / "q.csv"
        events = tmp_path / "e.csv"
        write_quotes_csv(tl, quotes)
        write_events_csv(list(tl.events), events, match_id=tl.match_id)

        # golden byte round-trip: parse -> serialize reproduces the file
        tl2 = load_timeline(quotes, events)
        quotes2 = tmp_path / "q2.csv"
        write_quotes_csv(tl2, quotes2)
        assert quotes.read_bytes() == quotes2.read_bytes()
        events2 = tmp_path / "e2.csv"
        write_events_csv(list(tl2.events), events2, match_id=tl2.match_id)
        assert events.read_bytes() == events2.read_bytes()

        # exit code 0: success
        ok = cli_main(
            [
                "price",
                "--bet",
                "MATCH_ODDS_DRAW",
                "--score",
                "1:1",
                "--minute",
                "90",
                "--lambda-home",
                "1.2",
                "--lambda-away",
                "0.8",
            ]
        )
        assert ok == 0
        # exit code 1: usage
        assert cli_main(["price", "--bet", "NOT_A_BET", "--score", "0:0",
                         "--minute", "1", "--lambda-home", "1", "--lambda-away", "1"]) == 1
        # exit code 2: data
        assert (
            cli_main(
                [
                    "calibrate",
                    "--quotes",
                    str(tmp_path / "missing.csv"),
                    "--events",
                    str(events),
                    "--out",
                    str(tmp_path / "s.csv"),
                ]
            )
            == 2
        )
        # exit code 3: numerical failure (unidentifiable single-variant market)
        thin = make_model_timeline(lam, goals=[], step_s=600.0, bets=[MATCH_ODDS_HOME])
        tq = tmp_path / "thin_q.csv"
        te = tmp_path / "thin_e.csv"
        write_quotes_csv(thin, tq)
        write_events_csv([], te, match_id=thin.match_id)
        assert (
            cli_main(
                [
                    "calibrate",
                    "--quotes",
                    str(tq),
                    "--events",
                    str(te),
                    "--out",
                    str(tmp_path / "s2.csv"),
                ]
            )
            == 3
        )
