"""Command line interface.

Subcommands: ``price``, ``calibrate``, ``hedge-replay``, ``simulate``,
``report``.  Exit codes: 0 success, 1 usage error, 2 data error, 3
numerical failure (for example a calibration that never converges).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import hedging, io, oracle, pricing
from .calibration import LAMBDA_BOX, calibrate_series, estimate_drift_vol
from .contracts import Bet, BetKind, Intensities, ScoreState, format_bet, parse_bet
from .timeline import DEFAULT_HALF_MINUTES, DEFAULT_MATCH_MINUTES

__all__ = ["main", "run"]


class UsageError(Exception):
    pass


class NumericalFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we own the codes
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="inplay", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("price", help="price one bet and print value plus greeks as JSON")
    p.add_argument("--bet", required=True, help="bet token, e.g. MATCH_ODDS_DRAW or UNDER_2_5")
    p.add_argument("--score", required=True, help="current score as H:A")
    p.add_argument("--minute", required=True, type=float, help="playing minute")
    p.add_argument("--lambda-home", required=True, type=float)
    p.add_argument("--lambda-away", required=True, type=float)
    p.add_argument("--match-length", type=float, default=DEFAULT_MATCH_MINUTES)
    p.add_argument("--half-length", type=float, default=DEFAULT_HALF_MINUTES)
    p.add_argument("--ht-score", help="half-time score H:A, needed for HT_FT bets after half time")

    c = sub.add_parser("calibrate", help="fit per-step implied intensities from quote files")
    c.add_argument("--quotes", required=True)
    c.add_argument("--events", required=True)
    c.add_argument("--step-s", type=float, default=60.0)
    c.add_argument("--out", required=True)
    c.add_argument("--match-length", type=float, default=DEFAULT_MATCH_MINUTES)
    c.add_argument("--half-length", type=float, default=DEFAULT_HALF_MINUTES)

    h = sub.add_parser("hedge-replay", help="replay a dynamic hedge across a quote timeline")
    h.add_argument("--quotes", required=True)
    h.add_argument("--events", required=True)
    h.add_argument("--target", required=True, help="bet token to replicate")
    h.add_argument(
        "--instruments",
        default="NEXT_GOAL_HOME,NEXT_GOAL_AWAY",
        help="comma-separated pair of hedging bet tokens",
    )
    h.add_argument("--out-dir", required=True)
    h.add_argument("--lambda-home", type=float, help="fixed intensity; omit to calibrate")
    h.add_argument("--lambda-away", type=float)
    h.add_argument("--step-s", type=float, help="calibration step (default 60) when not fixed")
    h.add_argument("--match-length", type=float, default=DEFAULT_MATCH_MINUTES)
    h.add_argument("--half-length", type=float, default=DEFAULT_HALF_MINUTES)

    s = sub.add_parser("simulate", help="simulate terminal scores to CSV")
    s.add_argument("--lambda-home", required=True, type=float)
    s.add_argument("--lambda-away", required=True, type=float)
    s.add_argument("--paths", required=True, type=int)
    s.add_argument("--seed", required=True, type=int)
    s.add_argument("--out", required=True)

    r = sub.add_parser("report", help="drift/vol estimates from an intensity series CSV")
    r.add_argument("--series", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--match-length", type=float, default=DEFAULT_MATCH_MINUTES)
    return parser


def _check_numbers(args) -> None:
    """Lengths, step and intensities within their ranges, where given.  The
    step is at least the timestamps' resolution of 1 s.  An intensity's cap
    is the calibrator's box: truncation grows with it."""
    match = getattr(args, "match_length", DEFAULT_MATCH_MINUTES)
    if not 0.0 < match < math.inf:
        raise UsageError("--match-length must be positive and finite")
    if getattr(args, "step_s", None) is not None and not 1.0 <= args.step_s < math.inf:
        raise UsageError("--step-s must be positive and finite, at least 1 s")
    if not 0.0 < getattr(args, "half_length", match / 2) < match:
        raise UsageError("--half-length must lie strictly between 0 and --match-length")
    for side in ("home", "away"):
        if not 0.0 <= (getattr(args, f"lambda_{side}", None) or 0.0) <= LAMBDA_BOX[1]:
            raise UsageError(
                f"--lambda-{side} must be finite and nonnegative, at most {LAMBDA_BOX[1]:g}"
            )


def _parse_score(text: str) -> tuple[int, int]:
    try:
        h, a = text.split(":")
        score = (int(h), int(a))
    except ValueError:
        raise UsageError(f"score must look like H:A, got {text!r}") from None
    if score[0] < 0 or score[1] < 0:
        raise UsageError("scores must be nonnegative")
    return score


def _parse_bet_arg(token: str) -> Bet:
    try:
        return parse_bet(token)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _cmd_price(args) -> int:
    bet = _parse_bet_arg(args.bet)
    score = _parse_score(args.score)
    if not (0.0 <= args.minute <= args.match_length):
        raise UsageError("minute must lie within the match length")
    clock = args.minute / args.match_length
    state = ScoreState(score[0], score[1], clock)
    lam = Intensities(args.lambda_home, args.lambda_away)
    half_clock = args.half_length / args.match_length
    ht_score = _parse_score(args.ht_score) if args.ht_score else None
    if bet.kind is BetKind.HT_FT and clock >= half_clock and ht_score is None:
        raise UsageError("HT_FT bets after half time require --ht-score")
    if ht_score is not None and clock < half_clock:
        raise UsageError("--ht-score is known only from half time on")
    if ht_score is not None and not (ht_score[0] <= score[0] and ht_score[1] <= score[1]):
        raise UsageError(f"--ht-score {args.ht_score} exceeds --score {args.score}")
    result = pricing.price(bet, state, lam, half_clock, ht_score)
    g = pricing.greeks(bet, state, lam, half_clock, ht_score)
    payload = {
        "bet": format_bet(bet),
        "value": result.value,
        "truncation_bound": result.truncation_bound,
        "delta_home": g.delta_home,
        "delta_away": g.delta_away,
        "theta": g.theta,
    }
    print(json.dumps(payload))
    return 0


def _cmd_calibrate(args) -> int:
    tl = io.load_timeline(args.quotes, args.events, args.match_length, args.half_length)
    series = calibrate_series(tl.snapshots, args.step_s)
    if not series.valid():
        raise NumericalFailure("no calibration step succeeded")
    io.write_intensity_series_csv(series, args.out)
    return 0


def _cmd_hedge_replay(args) -> int:
    target = _parse_bet_arg(args.target)
    tokens = [t for t in args.instruments.split(",") if t]
    if len(tokens) != 2:
        raise UsageError("--instruments wants exactly two comma-separated tokens")
    instruments = (_parse_bet_arg(tokens[0]), _parse_bet_arg(tokens[1]))
    if (args.lambda_home is None) != (args.lambda_away is None):
        raise UsageError("give both --lambda-home and --lambda-away or neither")
    if args.lambda_home is not None and args.step_s is not None:
        raise UsageError("--step-s applies only when calibrating; omit it with fixed intensities")
    tl = io.load_timeline(args.quotes, args.events, args.match_length, args.half_length)
    if args.lambda_home is not None:
        lam_source = Intensities(args.lambda_home, args.lambda_away)
    else:
        series = calibrate_series(tl.snapshots, args.step_s or 60.0)
        if not series.valid():
            raise NumericalFailure("calibration produced no usable intensities")
        lam_source = series
    report = hedging.replay_hedge(tl, target, instruments, lam_source)
    if all(report.steps.flag):
        raise NumericalFailure("every replay step was flagged")
    summary = io.write_hedge_report(report, args.out_dir)
    print(json.dumps(summary))
    return 0


def _cmd_simulate(args) -> int:
    if args.paths < 1:
        raise UsageError("--paths must be positive")
    if args.seed < 0:
        raise UsageError("--seed must be nonnegative")
    lam = Intensities(args.lambda_home, args.lambda_away)
    scores = oracle.terminal_scores(lam, ScoreState(0, 0, 0.0), args.paths, args.seed)
    io.write_terminal_scores_csv(scores, args.out)
    return 0


def _cmd_report(args) -> int:
    series = io.parse_intensity_series_csv(args.series)
    try:
        mu, sigma = estimate_drift_vol(series, args.match_length)
    except ValueError as exc:
        raise NumericalFailure(str(exc)) from None
    payload = {"mu_per_match": mu, "sigma_per_sqrt_match": sigma}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")
    print(json.dumps(payload))
    return 0


_COMMANDS = {
    "price": _cmd_price,
    "calibrate": _cmd_calibrate,
    "hedge-replay": _cmd_hedge_replay,
    "simulate": _cmd_simulate,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        _check_numbers(args)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
