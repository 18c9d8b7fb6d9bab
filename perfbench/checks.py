"""Output checks for the benchmark's CLI commands.

Each check reads the files a command wrote with the standard ``csv`` and
``json`` modules, not with ``inplay``'s own parsers, and returns a list of
failure messages; an empty list means the output is correct.  A command
whose check fails counts as failed, exactly like a non-zero exit.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

# Acceptance criterion 7 bounds the terminal tracking error of a 1-second
# rebalanced Next Goal hedge.
TERMINAL_ERROR_MAX = 1e-3

# A fitted intensity may sit at most this many of its own reported standard
# errors from the generating value (acceptance criterion 5 uses 3).
STDERR_MULTIPLE = 3.0

# Quote and report values carry 9 significant digits, so a goal's target and
# portfolio jumps can only be compared to a few units in the 9th digit.
JUMP_DIGIT_UNITS = 10.0


def _unit_9th_digit(x: float) -> float:
    return 10.0 ** (math.floor(math.log10(abs(x))) - 8) if x != 0.0 else 1e-9


def check_series(series_path: Path, truth: dict) -> list[str]:
    """Calibration series: one row per step, fits consistent with the truth."""
    fails = []
    with open(series_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][:3] != ["timestamp_s", "lambda_home", "lambda_away"]:
        return [f"{series_path.name}: unexpected header {rows[:1]}"]
    step = truth["step_s"]
    buckets = truth["buckets"]
    want_ts = [int(b * step) for b in range(buckets[0], buckets[1] + 1)]
    got_ts = [float(r[0]) for r in rows[1:]]
    if got_ts != [float(t) for t in want_ts]:
        fails.append(f"series has {len(got_ts)} steps, want {len(want_ts)} at {step}s spacing")
        return fails
    lam = truth["lambda"]
    allowed_gaps = set(truth["unidentifiable_buckets"])
    for r in rows[1:]:
        bucket = int(float(r[0]) // step)
        if r[1] == "":
            if bucket not in allowed_gaps:
                fails.append(f"gap at {r[0]}s although its quotes identify both intensities")
            continue
        try:
            fit = [float(r[1]), float(r[2])]
            err = [float(r[4]), float(r[5])]
        except ValueError:
            fails.append(f"unparsable series row at {r[0]}s")
            continue
        for side, value, true, se in zip(("home", "away"), fit, lam, err):
            if not (se > 0.0) or abs(value - true) > STDERR_MULTIPLE * se:
                fails.append(
                    f"{r[0]}s: lambda_{side} {value} is not within "
                    f"{STDERR_MULTIPLE} x {se} of {true}"
                )
    return fails


def check_replay(out_dir: Path, stdout: str, truth: dict) -> list[str]:
    """Hedge replay: step/goal counts, jump matching and terminal error."""
    fails = []
    try:
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        with open(out_dir / "goals.csv", encoding="utf-8", newline="") as fh:
            goal_rows = list(csv.DictReader(fh))
    except (OSError, ValueError) as exc:
        return [f"replay output unreadable: {exc}"]
    if stdout.strip() and json.loads(stdout) != summary:
        fails.append("printed summary differs from summary.json")
    if summary.get("target") != truth["target"]:
        fails.append(f"target {summary.get('target')} != {truth['target']}")
    if summary.get("steps") != truth["snapshots"]:
        fails.append(f"steps {summary.get('steps')} != {truth['snapshots']} snapshots")
    if summary.get("goals") != len(truth["goals"]) or len(goal_rows) != len(truth["goals"]):
        fails.append(
            f"goals {summary.get('goals')}/{len(goal_rows)} rows != {len(truth['goals'])} events"
        )
    for row, (t, team) in zip(goal_rows, truth["goals"]):
        if (int(float(row["timestamp_s"])), row["team"]) != (t, team):
            fails.append(f"goal row {row['timestamp_s']} {row['team']} != event {t} {team}")
            continue
        vals = [float(row[k]) for k in ("target_pre", "target_post", "portfolio_pre", "portfolio_post")]
        d_target = vals[1] - vals[0]
        d_portfolio = vals[3] - vals[2]
        tol = JUMP_DIGIT_UNITS * _unit_9th_digit(max(abs(v) for v in vals))
        if not abs(d_target - d_portfolio) <= tol:
            fails.append(
                f"goal at {t}s: target jump {d_target:.9g} != portfolio jump "
                f"{d_portfolio:.9g} (tolerance {tol:.1e})"
            )
    err = summary.get("terminal_error")
    if not isinstance(err, (int, float)) or not err <= TERMINAL_ERROR_MAX:
        fails.append(f"terminal_error {err} > {TERMINAL_ERROR_MAX}")
    return fails
