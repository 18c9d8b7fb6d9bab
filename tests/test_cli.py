"""Exit-code contract and output checks for the command line interface."""

import json
import logging
import re
import subprocess
import sys

import pytest

from inplay import calibration, hedging, oracle
from inplay.cli import main
from inplay.contracts import Intensities, MATCH_ODDS_DRAW, MATCH_ODDS_HOME, ScoreState, Team
from inplay.io import (
    parse_intensity_series_csv,
    write_events_csv,
    write_intensity_series_csv,
    write_quotes_csv,
)
from inplay.synthetic import make_model_timeline

LAM = Intensities(1.3, 0.7)


@pytest.fixture()
def fixture_files(tmp_path):
    tl = make_model_timeline(
        LAM,
        goals=[(1200.0, Team.AWAY), (3000.0, Team.HOME)],
        step_s=60.0,
        end_s=5400.0,
    )
    quotes = tmp_path / "quotes.csv"
    events = tmp_path / "events.csv"
    write_quotes_csv(tl, quotes)
    write_events_csv(list(tl.events), events, match_id=tl.match_id)
    return quotes, events


class TestPrice:
    def test_terminal_draw_is_one(self, capsys):
        code = main(
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
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == 1.0
        assert set(payload) == {
            "bet",
            "value",
            "truncation_bound",
            "delta_home",
            "delta_away",
            "theta",
        }

    def test_unknown_bet_token_is_usage_error(self, capsys):
        code = main(
            [
                "price",
                "--bet",
                "MATCH_ODDSX",
                "--score",
                "0:0",
                "--minute",
                "10",
                "--lambda-home",
                "1",
                "--lambda-away",
                "1",
            ]
        )
        assert code == 1

    @pytest.mark.parametrize("token", ["OVER_02_5", "WINNING_MARGIN_+1", "CORRECT_SCORE_+1_0"])
    def test_a_token_the_writer_never_writes_is_a_usage_error(self, token, capsys):
        argv = ["price", "--bet", token, "--score", "0:0", "--minute", "0",
                "--lambda-home", "1.3", "--lambda-away", "0.7"]
        assert main(argv) == 1
        assert "unrecognised bet token" in capsys.readouterr().err

    def test_the_bet_is_echoed_as_its_canonical_token(self, capsys):
        argv = ["price", "--bet", " under_2_5 ", "--score", "0:0", "--minute", "0",
                "--lambda-home", "1.3", "--lambda-away", "0.7"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["bet"] == "UNDER_2_5"

    def test_missing_argument_is_usage_error(self):
        assert main(["price", "--bet", "ODD"]) == 1

    def test_ht_ft_after_half_requires_score(self):
        args = [
            "price",
            "--bet",
            "HT_FT_HOME_DRAW",
            "--score",
            "1:0",
            "--minute",
            "60",
            "--lambda-home",
            "1",
            "--lambda-away",
            "1",
        ]
        assert main(args) == 1
        assert main(args + ["--ht-score", "1:0"]) == 0

    # Goals are never taken back: neither side of the half-time score may
    # exceed the current score.
    @pytest.mark.parametrize("ht_score, code", [("2:1", 1), ("1:2", 1), ("1:1", 0)])
    def test_ht_score_must_not_exceed_the_score(self, capsys, ht_score, code):
        args = ["price", "--bet", "HT_FT_HOME_HOME", "--score", "1:1", "--minute", "60",
                "--lambda-home", "1", "--lambda-away", "1", "--ht-score", ht_score]
        assert main(args) == code
        err = capsys.readouterr().err
        assert err.startswith("usage error: --ht-score") if code else err == ""

    # Before half time the half-time score is not known yet.
    @pytest.mark.parametrize("minute, code", [(30, 1), (44.9, 1), (45, 0), (60, 0)])
    def test_ht_score_before_half_time_is_a_usage_error(self, capsys, minute, code):
        args = ["price", "--bet", "HT_FT_HOME_HOME", "--score", "0:0", "--minute", str(minute),
                "--lambda-home", "1", "--lambda-away", "1"]
        assert main(args + ["--ht-score", "0:0"]) == code
        err = capsys.readouterr().err
        want = "usage error: --ht-score is known only from half time on\n"
        assert err == want if code else not err
        if code:  # without the flag the same bet prices
            assert main(args) == 0


class TestCalibrate:
    def test_round_trip_series_is_flat(self, fixture_files, tmp_path, capsys):
        quotes, events = fixture_files
        out = tmp_path / "series.csv"
        code = main(
            ["calibrate", "--quotes", str(quotes), "--events", str(events), "--out", str(out)]
        )
        assert code == 0
        series = parse_intensity_series_csv(out)
        valid = series.valid()
        assert len(valid) >= 80
        for point in valid:
            assert point.result.intensities.home == pytest.approx(LAM.home, abs=1e-5)
            assert point.result.intensities.away == pytest.approx(LAM.away, abs=1e-5)

    def test_missing_file_is_data_error(self, tmp_path):
        code = main(
            [
                "calibrate",
                "--quotes",
                str(tmp_path / "absent.csv"),
                "--events",
                str(tmp_path / "absent2.csv"),
                "--out",
                str(tmp_path / "out.csv"),
            ]
        )
        assert code == 2

    def test_unidentifiable_market_is_numerical_failure(self, tmp_path):
        tl = make_model_timeline(LAM, goals=[], step_s=600.0, bets=[MATCH_ODDS_HOME])
        quotes = tmp_path / "q.csv"
        events = tmp_path / "e.csv"
        write_quotes_csv(tl, quotes)
        write_events_csv([], events, match_id=tl.match_id)
        code = main(
            [
                "calibrate",
                "--quotes",
                str(quotes),
                "--events",
                str(events),
                "--out",
                str(tmp_path / "out.csv"),
            ]
        )
        assert code == 3

    def test_zero_spread_quote_is_data_error(self, tmp_path, capsys):
        bets = [MATCH_ODDS_HOME, MATCH_ODDS_DRAW]
        tl = make_model_timeline(LAM, goals=[], step_s=600.0, bets=bets)
        quotes = tmp_path / "q.csv"
        events = tmp_path / "e.csv"
        write_quotes_csv(tl, quotes)
        write_events_csv([], events, match_id=tl.match_id)
        # Lay the first quote at its back odds: a two-sided quote with no spread.
        lines = quotes.read_text(encoding="utf-8").splitlines()
        cells = lines[1].split(",")
        cells[5] = cells[4]
        lines[1] = ",".join(cells)
        quotes.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(
            [
                "calibrate",
                "--quotes",
                str(quotes),
                "--events",
                str(events),
                "--out",
                str(tmp_path / "out.csv"),
            ]
        )
        assert code == 2
        assert "zero spread on quote for MATCH_ODDS_HOME in the snapshot at 0s" in (
            capsys.readouterr().err
        )

    def test_quote_outside_the_match_is_data_error(self, fixture_files, tmp_path, capsys):
        quotes, events = fixture_files
        lines = quotes.read_text(encoding="utf-8").splitlines()
        cells = lines[1].split(",")
        cells[1] = "-30"
        lines[1] = ",".join(cells)
        quotes.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(
            ["calibrate", "--quotes", str(quotes), "--events", str(events),
             "--out", str(tmp_path / "out.csv")]
        )
        assert code == 2
        assert f"{quotes}:2: timestamp '-30' is outside the match" in capsys.readouterr().err

    def test_replaced_score_column_is_warned_not_fatal(
        self, same_second_goals, tmp_path, capsys, caplog
    ):
        quotes, events = same_second_goals
        with caplog.at_level(logging.WARNING, logger="inplay.io"):
            code = main(
                ["calibrate", "--quotes", str(quotes), "--events", str(events),
                 "--out", str(tmp_path / "out.csv")]
            )
        assert code == 0, capsys.readouterr().err
        assert "disagrees with events" in caplog.text

    @pytest.mark.parametrize("stamp", ["6000", "-5"])
    def test_goal_outside_the_match_is_data_error(
        self, fixture_files, tmp_path, capsys, caplog, stamp
    ):
        quotes, events = fixture_files
        lines = events.read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1].replace(",1200,", f",{stamp},")
        events.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(
            ["calibrate", "--quotes", str(quotes), "--events", str(events),
             "--out", str(tmp_path / "out.csv")]
        )
        assert code == 2
        assert f"{events}:2: goal at '{stamp}' is outside the match" in capsys.readouterr().err
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]

    @pytest.mark.parametrize("which", ["quotes", "events"])
    def test_undecodable_bytes_are_data_error_naming_the_file(
        self, fixture_files, tmp_path, capsys, which
    ):
        quotes, events = fixture_files
        bad = {"quotes": quotes, "events": events}[which]
        bad.write_bytes(bad.read_bytes() + b"g1,60,\xff\n")
        code = main(
            ["calibrate", "--quotes", str(quotes), "--events", str(events),
             "--out", str(tmp_path / "out.csv")]
        )
        assert code == 2
        err = capsys.readouterr().err
        # Decoding reads ahead of the row in hand, so no line is named.
        want = rf"data error: {re.escape(str(bad))}: 'utf-8' codec can't decode .*\n"
        assert re.fullmatch(want, err)


class TestHedgeReplay:
    def test_empty_events_file_is_data_error(self, fixture_files, tmp_path, capsys):
        quotes, events = fixture_files
        events.write_text("", encoding="utf-8")
        code = main(
            ["hedge-replay", "--quotes", str(quotes), "--events", str(events),
             "--target", "MATCH_ODDS_HOME", "--lambda-home", "1.3", "--lambda-away", "0.7",
             "--out-dir", str(tmp_path / "hedge")]
        )
        assert code == 2
        assert f"{events}: empty file, no header" in capsys.readouterr().err
        assert not (tmp_path / "hedge").exists()

    def test_events_of_another_match_are_data_error(self, fixture_files, tmp_path, capsys):
        quotes, events = fixture_files
        text = events.read_text(encoding="utf-8").splitlines(keepends=True)
        events.write_text(text[0] + "".join("g2" + line[line.index(","):] for line in text[1:]))
        code = main(
            ["hedge-replay", "--quotes", str(quotes), "--events", str(events),
             "--target", "MATCH_ODDS_HOME", "--lambda-home", "1.3", "--lambda-away", "0.7",
             "--out-dir", str(tmp_path / "hedge")]
        )
        assert code == 2
        assert f"{events}: match id 'g2', but the quotes are " in capsys.readouterr().err
        assert not (tmp_path / "hedge").exists()

    def test_model_consistent_replay_summary(self, fixture_files, tmp_path, capsys):
        quotes, events = fixture_files
        out_dir = tmp_path / "hedge"
        code = main(
            [
                "hedge-replay",
                "--quotes",
                str(quotes),
                "--events",
                str(events),
                "--target",
                "MATCH_ODDS_HOME",
                "--out-dir",
                str(out_dir),
                "--lambda-home",
                "1.3",
                "--lambda-away",
                "0.7",
            ]
        )
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["goals"] == 2
        assert summary["jump_correlation"] >= 0.999
        assert (out_dir / "steps.csv").exists()
        assert (out_dir / "goals.csv").exists()

    @staticmethod
    def _fixed_argv(fixture_files, target, out_dir):
        quotes, events = fixture_files
        return ["hedge-replay", "--quotes", str(quotes), "--events", str(events),
                "--target", target, "--lambda-home", "1.3", "--lambda-away", "0.7",
                "--out-dir", str(out_dir)]

    @pytest.mark.parametrize("target", ["MATCH_ODDS_HOME", "NEXT_GOAL_HOME"])
    def test_fixed_intensity_replay_builds_no_per_snapshot_objects(
        self, fixture_files, tmp_path, monkeypatch, target
    ):
        assert main(self._fixed_argv(fixture_files, target, tmp_path / "plain")) == 0

        def forbidden(*args, **kwargs):
            raise AssertionError("a per-snapshot object was built")

        monkeypatch.setattr(hedging, "HedgeStep", forbidden)
        monkeypatch.setattr(calibration, "QuoteSnapshot", forbidden)
        assert main(self._fixed_argv(fixture_files, target, tmp_path / "columns")) == 0
        for name in ("steps.csv", "goals.csv", "summary.json"):
            plain, columns = (tmp_path / d / name for d in ("plain", "columns"))
            assert columns.read_bytes() == plain.read_bytes(), name

    def test_next_goal_target_ends_on_its_settlement(self, fixture_files, tmp_path, capsys):
        out_dir = tmp_path / "hedge"
        assert main(self._fixed_argv(fixture_files, "NEXT_GOAL_HOME", out_dir)) == 0
        rows = (out_dir / "steps.csv").read_text(encoding="utf-8").splitlines()[1:]
        summary = json.loads((out_dir / "summary.json").read_text())
        assert rows[-1].endswith(",target settled")
        assert summary["steps"] == len(rows)
        # The fixture's first goal (AWAY at 1200 s) settles it: 21 one-minute snapshots.
        assert rows[-1].startswith("1200,") and len(rows) == 22

    def test_instrument_list_must_be_a_pair(self, fixture_files, tmp_path):
        quotes, events = fixture_files
        code = main(
            [
                "hedge-replay",
                "--quotes",
                str(quotes),
                "--events",
                str(events),
                "--target",
                "MATCH_ODDS_HOME",
                "--instruments",
                "NEXT_GOAL_HOME",
                "--out-dir",
                str(tmp_path / "h"),
            ]
        )
        assert code == 1

    def test_calibrated_replay_writes_report(self, fixture_files, tmp_path, capsys):
        quotes, events = fixture_files
        out_dir = tmp_path / "hedge"
        code = main(
            ["hedge-replay", "--quotes", str(quotes), "--events", str(events),
             "--target", "MATCH_ODDS_HOME", "--out-dir", str(out_dir)]
        )
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary == json.loads(capsys.readouterr().out)
        assert summary["goals"] == 2
        assert summary["jump_correlation"] >= 0.999

    def test_singular_instruments_are_numerical_failure(self, fixture_files, tmp_path, capsys):
        quotes, events = fixture_files
        code = main(
            ["hedge-replay", "--quotes", str(quotes), "--events", str(events),
             "--target", "MATCH_ODDS_HOME", "--instruments", "NEXT_GOAL_HOME,NEXT_GOAL_HOME",
             "--lambda-home", "1.3", "--lambda-away", "0.7", "--out-dir", str(tmp_path / "h")]
        )
        assert code == 3
        assert "every replay step was flagged" in capsys.readouterr().err
        assert not (tmp_path / "h").exists()

    def test_one_fixed_intensity_is_usage_error(self, fixture_files, tmp_path, capsys):
        quotes, events = fixture_files
        code = main(
            ["hedge-replay", "--quotes", str(quotes), "--events", str(events),
             "--target", "MATCH_ODDS_HOME", "--lambda-home", "1.3",
             "--out-dir", str(tmp_path / "h")]
        )
        assert code == 1
        assert "give both --lambda-home and --lambda-away" in capsys.readouterr().err


class TestSimulate:
    def test_deterministic_output(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            code = main(
                [
                    "simulate",
                    "--lambda-home",
                    "1.5",
                    "--lambda-away",
                    "0.9",
                    "--paths",
                    "500",
                    "--seed",
                    "42",
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().splitlines()[0]
        assert header == "path,home_goals,away_goals"

    def test_scores_come_without_building_paths(self, tmp_path, monkeypatch):
        # 140,000 paths are three batches; the rows are numbered across them.
        lam, n = Intensities(1.3, 0.7), 140_000
        paths = oracle.simulate_paths(lam, ScoreState(0, 0, 0.0), n, seed=1)
        want = ["path,home_goals,away_goals"]
        want += [f"{i},{p.home_goals},{p.away_goals}" for i, p in enumerate(paths)]

        def refuse(*args, **kwargs):
            raise AssertionError("simulate built path objects")

        monkeypatch.setattr(oracle, "simulate_paths", refuse)
        out = tmp_path / "s.csv"
        argv = ["simulate", "--lambda-home", "1.3", "--lambda-away", "0.7",
                "--paths", str(n), "--seed", "1", "--out", str(out)]
        assert main(argv) == 0
        assert out.read_text().splitlines() == want

    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        argv = ["simulate", "--lambda-home", "1.5", "--lambda-away", "0.9",
                "--paths", "5", "--seed", "-1", "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("usage error: --seed must be nonnegative")
        assert not out.exists()


class TestReport:
    def test_drift_vol_from_series(self, tmp_path, capsys):
        import numpy as np

        from inplay.calibration import CalibrationResult, IntensitySeries, SeriesPoint

        taus = np.arange(91) / 90.0
        points = tuple(
            SeriesPoint(
                i * 60.0,
                CalibrationResult(
                    Intensities(np.exp(0.55 * t) / 2, np.exp(0.55 * t) / 2),
                    0.0,
                    0.0,
                    0.0,
                    1,
                    True,
                ),
            )
            for i, t in enumerate(taus)
        )
        series_path = tmp_path / "series.csv"
        write_intensity_series_csv(IntensitySeries(points), series_path)
        out = tmp_path / "report.json"
        code = main(["report", "--series", str(series_path), "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["mu_per_match"] == pytest.approx(0.55, abs=1e-6)
        assert payload["sigma_per_sqrt_match"] < 1e-6

    def test_too_short_series_is_numerical_failure(self, tmp_path):
        from inplay.calibration import CalibrationResult, IntensitySeries, SeriesPoint

        points = tuple(
            SeriesPoint(i * 60.0, CalibrationResult(Intensities(1, 1), 0, 0, 0, 1, True))
            for i in range(5)
        )
        series_path = tmp_path / "short.csv"
        write_intensity_series_csv(IntensitySeries(points), series_path)
        code = main(["report", "--series", str(series_path), "--out", str(tmp_path / "r.json")])
        assert code == 3

    SERIES = (
        "timestamp_s,lambda_home,lambda_away,residual,stderr_home,stderr_away,converged\n"
        "0,1.3,0.7,0.25,0.01,0.02,true\n"
    )

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty file"),
            (SERIES + "60,1.3\n", ":3: expected 7 cells"),
            (SERIES + "60,1.3,0.x,0.25,0.01,0.02,true\n", ":3: .*'0.x'"),
            (SERIES + "nan,1.3,0.7,0.25,0.01,0.02,true\n", ":3: bad timestamp 'nan'"),
            (SERIES + "60,1.3,0.7,0.25,0.01,0.02,yes\n", ":3: converged must be .*'yes'"),
            (SERIES + "60,,junk,x,,,maybe\n", ":3: a gap row must leave every cell"),
            (SERIES + "60,1.3,0.7,0.25,-0.01,0.02,true\n", ":3: stderr_home must be nonnegative"),
            (SERIES + "0,1.3,0.7,0.25,0.01,0.02,true\n", ":3: timestamps must strictly increase"),
        ],
    )
    def test_malformed_series_is_data_error(self, tmp_path, capsys, text, message):
        series_path = tmp_path / "series.csv"
        series_path.write_text(text)
        code = main(["report", "--series", str(series_path), "--out", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert re.search(message, err)
        assert not (tmp_path / "r.json").exists()


@pytest.fixture(scope="module")
def argvs(tmp_path_factory):
    """A valid command line for each subcommand that takes a match length."""
    from inplay.calibration import CalibrationResult, IntensitySeries, SeriesPoint

    d = tmp_path_factory.mktemp("argvs")
    tl = make_model_timeline(LAM, goals=[(1200.0, Team.AWAY)], step_s=600.0)
    quotes, events, series = d / "quotes.csv", d / "events.csv", d / "series.csv"
    write_quotes_csv(tl, quotes)
    write_events_csv(list(tl.events), events, match_id=tl.match_id)
    fit = CalibrationResult(LAM, 0.0, 0.0, 0.0, 1, True)
    points = tuple(SeriesPoint(60.0 * i, fit) for i in range(12))
    write_intensity_series_csv(IntensitySeries(points), series)
    files = ["--quotes", str(quotes), "--events", str(events)]
    lam = ["--lambda-home", "1.3", "--lambda-away", "0.7"]
    return {
        "price": ["price", "--bet", "MATCH_ODDS_HOME", "--score", "0:0", "--minute", "0", *lam],
        "calibrate": ["calibrate", *files, "--out", str(d / "series_out.csv")],
        "hedge-replay": [
            "hedge-replay", *files, "--target", "MATCH_ODDS_HOME", *lam,
            "--out-dir", str(d / "hedge"),
        ],
        "report": ["report", "--series", str(series), "--out", str(d / "report.json")],
    }


class TestLengths:
    COMMANDS = ["price", "calibrate", "hedge-replay", "report"]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_default_lengths_run(self, argvs, capsys, command):
        assert main(argvs[command]) == 0

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("length", ["0", "-90", "nan", "inf"])
    def test_match_length_must_be_positive_and_finite(self, argvs, capsys, command, length):
        assert main(argvs[command] + ["--match-length", length]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: --match-length must be positive and finite")

    @pytest.mark.parametrize("command", COMMANDS[:3])
    @pytest.mark.parametrize("length", ["0", "-10", "90", "120", "nan"])
    def test_half_length_must_lie_inside_the_match(self, argvs, capsys, command, length):
        assert main(argvs[command] + ["--half-length", length]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: --half-length must lie strictly between")

    @pytest.mark.parametrize("command", ["calibrate", "hedge-replay"])
    @pytest.mark.parametrize("step", ["0", "inf", "nan", "0.5"])
    def test_calibration_step_must_be_positive_and_finite(self, argvs, capsys, command, step):
        assert main(argvs[command] + ["--step-s", step]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: --step-s must be positive and finite")


class TestIntensityFlags:
    @pytest.mark.parametrize("command", ["price", "hedge-replay", "simulate"])
    @pytest.mark.parametrize("side", ["home", "away"])
    @pytest.mark.parametrize("value", ["-1", "nan", "inf", "51"])
    def test_intensity_must_be_finite_and_nonnegative(
        self, argvs, tmp_path, capsys, command, side, value
    ):
        simulate = ["simulate", "--lambda-home", "1.3", "--lambda-away", "0.7",
                    "--paths", "5", "--seed", "1", "--out", str(tmp_path / "s.csv")]
        argv = {**argvs, "simulate": simulate}[command]
        at = argv.index(f"--lambda-{side}") + 1
        assert main([*argv[:at], value, *argv[at + 1 :]]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: --lambda-{side} must be finite and nonnegative")
        assert not (tmp_path / "s.csv").exists()

    def test_zero_intensity_is_accepted(self, argvs, capsys):
        assert main(argvs["price"] + ["--lambda-away", "0"]) == 0

    def test_intensity_at_the_calibration_box_is_accepted(self, argvs, capsys):
        assert main(argvs["price"] + ["--lambda-home", "50"]) == 0

    @pytest.mark.parametrize(
        "extra",
        [
            ["--target", "NOT_A_BET"],
            ["--instruments", "NEXT_GOAL_HOME"],
            ["--instruments", "NEXT_GOAL_HOME,NOT_A_BET"],
            ["--lambda-home", "1.3"],
            ["--lambda-home", "-1", "--lambda-away", "0.7"],
            ["--lambda-home", "1.3", "--lambda-away", "0.7", "--step-s", "60"],
        ],
    )
    def test_hedge_replay_checks_arguments_before_reading_files(self, tmp_path, capsys, extra):
        missing = str(tmp_path / "missing.csv")
        argv = ["hedge-replay", "--quotes", missing, "--events", missing,
                "--target", "MATCH_ODDS_HOME", "--out-dir", str(tmp_path / "h"), *extra]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("usage error:")


def test_console_entry_point_smoke():
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "inplay.cli",
            "price",
            "--bet",
            "UNDER_2_5",
            "--score",
            "0:0",
            "--minute",
            "0",
            "--lambda-home",
            "1.0",
            "--lambda-away",
            "1.0",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert 0.0 < payload["value"] < 1.0


def test_cli_import_leaves_out_scipy_optimize():
    # No scipy module at all: the package runs on numpy alone.
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, inplay.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

    # A None entry in sys.modules makes any `import scipy` raise ImportError.
    blocked = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; sys.modules['scipy'] = None; from inplay.cli import main; "
            "sys.exit(main(['price', '--bet', 'MATCH_ODDS_HOME', '--score', '0:0', "
            "'--minute', '0', '--lambda-home', '1.3', '--lambda-away', '0.7']))",
        ],
        capture_output=True,
        text=True,
    )
    assert blocked.returncode == 0, blocked.stderr
    assert 0.0 < json.loads(blocked.stdout)["value"] < 1.0


def test_bad_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 1
