"""Self-tests of the benchmark.

Run from the repository root:  python3 -m pytest -q perfbench
They write only under .bench_work/selftest and take about a minute.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import inputs  # noqa: E402
from inplay import cli  # noqa: E402

# This seed puts a goal on the half-time second (2700 s); the replay then
# prices the pre-goal snapshot with a half-time score that includes it.
HALF_TIME_GOAL_SEED = 5083
# With a constant 0.02 spread this match's HT_FT_HOME_HOME target is worth
# more than 0.99 once home leads 3-0, so its CSV quote loses the back side
# and the replay carries a stale hedge through the next goals.
STALE_TARGET_SEED = 3011


@pytest.fixture(scope="module")
def work():
    path = ROOT / ".bench_work" / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _replay(truth: dict, in_dir: Path, out_dir: Path) -> list[str]:
    return [
        "hedge-replay", "--quotes", str(in_dir / "quotes.csv"),
        "--events", str(in_dir / "events.csv"), "--target", truth["target"],
        "--lambda-home", str(truth["lambda"][0]), "--lambda-away", str(truth["lambda"][1]),
        "--out-dir", str(out_dir),
    ]


def _calibrate(in_dir: Path, out: Path) -> list[str]:
    return [
        "calibrate", "--quotes", str(in_dir / "quotes.csv"),
        "--events", str(in_dir / "events.csv"), "--step-s", "60", "--out", str(out),
    ]


@pytest.fixture(scope="module")
def calibrated(work):
    truth = inputs.generate(inputs.WORKLOADS["calibrate_60s"], inputs.DEFAULT_SEED, work / "cal")
    assert cli.main(_calibrate(work / "cal", work / "cal" / "series.csv")) == 0
    return truth, work / "cal" / "series.csv"


@pytest.fixture(scope="module")
def replayed(work):
    truth = inputs.generate(inputs.WORKLOADS["replay_htft_1s"], inputs.DEFAULT_SEED, work / "ht")
    assert cli.main(_replay(truth, work / "ht", work / "ht" / "out")) == 0
    return truth, work / "ht" / "out"


@pytest.mark.parametrize("name", sorted(inputs.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(work, name):
    workload = inputs.WORKLOADS[name]
    a = inputs.generate(workload, 11, work / name / "a")
    b = inputs.generate(workload, 11, work / name / "b")
    other = inputs.generate(workload, 12, work / name / "c")
    for f in ("quotes.csv", "events.csv", "truth.json"):
        assert (work / name / "a" / f).read_bytes() == (work / name / "b" / f).read_bytes()
    assert a == b
    assert other["quotes_sha256"] != a["quotes_sha256"]


def test_default_seed_has_goals_in_both_halves():
    goals = inputs.match_goals(inputs.DEFAULT_SEED)
    assert any(t < inputs.HALF_S for t, _ in goals)
    assert any(t > inputs.HALF_S for t, _ in goals)


def _rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _write_rows(path: Path, rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_series_check_passes_and_rejects_corruptions(work, calibrated):
    truth, series = calibrated
    assert checks.check_series(series, truth) == []
    rows = _rows(series)
    live = next(i for i, r in enumerate(rows[1:], 1) if r[1] != "")
    bad = work / "cal" / "bad.csv"

    corruptions = {
        "lambda far off": lambda rs: rs[live].__setitem__(1, "2.5"),
        "stderr too small": lambda rs: rs[live].__setitem__(4, "1e-9"),
        "live step turned into a gap": lambda rs: rs.__setitem__(
            live, [rs[live][0]] + [""] * 6
        ),
        "step dropped": lambda rs: rs.pop(live),
    }
    for label, corrupt in corruptions.items():
        rs = [list(r) for r in rows]
        corrupt(rs)
        _write_rows(bad, rs)
        assert checks.check_series(bad, truth), label


def test_replay_check_passes_and_rejects_corruptions(work, replayed):
    truth, out = replayed
    summary = json.loads((out / "summary.json").read_text())
    assert checks.check_replay(out, json.dumps(summary), truth) == []
    goals = _rows(out / "goals.csv")
    bad = work / "ht" / "bad"

    def with_summary(**changes):
        return lambda: (bad / "summary.json").write_text(json.dumps({**summary, **changes}))

    def with_goal_cell(col, delta):
        def apply():
            rs = [list(r) for r in goals]
            rs[1][col] = repr(float(rs[1][col]) + delta)
            _write_rows(bad / "goals.csv", rs)

        return apply

    corruptions = {
        "step count": with_summary(steps=summary["steps"] + 1),
        "goal count": with_summary(goals=summary["goals"] - 1),
        "terminal error": with_summary(terminal_error=0.01),
        "target": with_summary(target="MATCH_ODDS_DRAW"),
        "portfolio jump": with_goal_cell(5, 1e-6),
        "target jump": with_goal_cell(3, -1e-6),
        "goal row dropped": lambda: _write_rows(bad / "goals.csv", goals[:-1]),
    }
    for label, corrupt in corruptions.items():
        shutil.rmtree(bad, ignore_errors=True)
        shutil.copytree(out, bad)
        corrupt()
        assert checks.check_replay(bad, "", truth), label


def test_half_time_goal_fails_the_replay_check(work):
    """A goal on the half-time second shows as a failed check, not a re-seed."""
    truth = inputs.generate(
        inputs.WORKLOADS["replay_htft_1s"], HALF_TIME_GOAL_SEED, work / "ht2700"
    )
    assert [inputs.HALF_S, "AWAY"] in truth["goals"]
    out = work / "ht2700" / "out"
    assert cli.main(_replay(truth, work / "ht2700", out)) == 0
    fails = checks.check_replay(out, "", truth)
    assert any("terminal_error" in f for f in fails), fails


def test_constant_spread_board_fails_the_replay_check(work):
    """Why the replay boards fit their spreads: a one-sided target goes stale."""
    workload = dataclasses.replace(inputs.WORKLOADS["replay_htft_1s"], fit_spreads=False)
    truth = inputs.generate(workload, STALE_TARGET_SEED, work / "stale")
    out = work / "stale" / "out"
    assert cli.main(_replay(truth, work / "stale", out)) == 0
    fails = checks.check_replay(out, "", truth)
    assert any("target jump 0 " in f for f in fails), fails


def _child(report: Path, trace: int, argv: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "child.py"), str(report), str(trace), "0", "--", *argv]
    subprocess.run(cmd, cwd=ROOT, env=env, check=True, capture_output=True, timeout=170)
    return json.loads(report.read_text())


@pytest.mark.parametrize("name", ["calibrate_60s", "replay_htft_1s"])
def test_traced_and_untraced_outputs_are_byte_identical(work, name):
    in_dir = work / f"trace-{name}"
    truth = inputs.generate(inputs.WORKLOADS[name], inputs.DEFAULT_SEED, in_dir)
    outputs = []
    for trace in (0, 1):
        out = in_dir / f"out{trace}"
        out.mkdir()
        if name == "calibrate_60s":
            argv = _calibrate(in_dir, out / "series.csv")
        else:
            argv = _replay(truth, in_dir, out / "hedge")
        report = _child(in_dir / f"report{trace}.json", trace, argv)
        assert report["exit_code"] == 0
        assert ("spans" in report) == bool(trace)
        outputs.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
    assert outputs[0] and outputs[0] == outputs[1]


def test_refuses_to_run_without_the_sources(work):
    bare = work / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "calibrate_60s", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout == ""
