"""CSV ingestion and report emission.

File conventions: UTF-8, LF line endings, '.' decimal separator, floats at 9
significant digits.  Timestamps are integer playing-time seconds from
kickoff (half-time break off the clock).  Every writer formats its rows as
LF-ended lines for one routine that writes them under the header.  No cell
is ever quoted, so the readers split each line at every comma: they read
LF, CRLF and CR line ends, and a ``"`` or NUL is an error naming its line.

Quotes CSV columns: ``match_id,timestamp_s,market,selection,back_decimal,
lay_decimal`` with two optional trailing columns ``home_goals,away_goals``.
An empty odds cell means that side is absent.  The reader accepts exactly
the (market, selection) pairs the writer writes, up to case and blanks:
parity bets whole under TOTAL_PARITY, other tokens split after the market.
Rows sharing a timestamp and score form one snapshot; same-second
snapshots run in the order of the goals their score counts, whatever the
file's row order.  Each accepted row goes to its snapshot's cell for its
bet in one :class:`~inplay.calibration.SnapshotColumns` grid, the cells the
writer writes from; a second accepted row for a cell is an error naming the
path, the bet and the second, and the writer never writes one.

Events CSV columns: ``match_id,timestamp_s,team,event`` with team HOME or
AWAY (case-insensitive) and event GOAL.  A file with only the header means
no goals.  Every reader rejects an empty file, a foreign header and a
malformed row in the same words, naming ``path:line``.
"""

from __future__ import annotations

import json
import logging
import math
from collections.abc import Sequence
from contextlib import contextmanager, suppress
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .calibration import (
    CalibrationResult,
    IntensitySeries,
    QuoteSnapshot,
    SeriesPoint,
    SnapshotColumns,
)
from .contracts import Bet, Intensities, Team, format_bet, parse_bet
from .hedging import HedgeReport
from .timeline import (
    DEFAULT_HALF_MINUTES,
    DEFAULT_MATCH_MINUTES,
    GoalEvent,
    MatchTimeline,
    allowed_scores,
    clocks_of,
)

__all__ = [
    "QUOTES_HEADER",
    "EVENTS_HEADER",
    "SERIES_HEADER",
    "fmt_float",
    "parse_quotes_csv",
    "parse_events_csv",
    "build_timeline",
    "load_timeline",
    "write_quotes_csv",
    "write_events_csv",
    "write_intensity_series_csv",
    "parse_intensity_series_csv",
    "write_hedge_report",
    "write_terminal_scores_csv",
]

log = logging.getLogger(__name__)

QUOTES_HEADER = ["match_id", "timestamp_s", "market", "selection", "back_decimal", "lay_decimal"]
SCORE_COLUMNS = ["home_goals", "away_goals"]
EVENTS_HEADER = ["match_id", "timestamp_s", "team", "event"]
SERIES_HEADER = [
    "timestamp_s",
    "lambda_home",
    "lambda_away",
    "residual",
    "stderr_home",
    "stderr_away",
    "converged",
]
STEPS_HEADER = [
    "timestamp_s",
    "target_value",
    "portfolio_value",
    "psi_1",
    "psi_2",
    "cash",
    "z_1",
    "z_2",
    "flag",
]
GOALS_HEADER = [
    "timestamp_s",
    "team",
    "target_pre",
    "target_post",
    "portfolio_pre",
    "portfolio_post",
]
SCORES_HEADER = ["path", "home_goals", "away_goals"]


def fmt_float(x: float) -> str:
    """Fixed 9-significant-digit representation, '.' separator."""
    return format(float(x), ".9g")


def _fmt_ts(t: float) -> str:
    return str(int(t)) if float(t).is_integer() else fmt_float(t)


def _write_csv(path, header: list[str], lines, match_id: str = "") -> None:
    """Write the header, then ``lines``, each a row already formatted and
    ended by LF; ``match_id`` must be a cell the readers read back."""
    if any(c in match_id for c in ',"\0\r\n'):
        raise ValueError(f"match id {match_id!r} holds a comma, quote, NUL or line break")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(lines)


# Characters read per block; every block is split into lines in one C call.
_BLOCK_CHARS = 1 << 14


def _lines(fh, path, error: type[ValueError]):
    """The lines of a universal-newline text file, a list per block read; a
    line holding a ``"`` or NUL raises ``error`` naming it, in file order."""
    line = 1
    # readline completes the block's last line, so no line spans two blocks.
    while block := fh.read(_BLOCK_CHARS) + fh.readline():
        lines = block.removesuffix("\n").split("\n")
        for i, s in enumerate(lines if '"' in block or "\0" in block else ()):
            if '"' in s or "\0" in s:
                yield lines[:i]
                raise error(f"{path}:{line + i}: a quote or NUL; cells are never quoted")
        line += len(lines)
        yield lines


@contextmanager
def _read_csv(path, headers: tuple[list[str], ...], error: type[ValueError] = ValueError):
    """Open a CSV file whose header is one of ``headers``; yield that header
    and the (line number, cells) pairs of the lines after it, each line split
    at every comma.  Each reader's row loop names ``path:line`` in its own
    errors; bytes that are not UTF-8 come out as ``error`` prefixed with
    ``path``."""
    with open(path, encoding="utf-8") as fh:
        try:
            lines = chain.from_iterable(_lines(fh, path, error))
            header = next(lines, None)
            if header is None:
                raise error(f"{path}: empty file, no header")
            header = header.split(",") if header else []
            if header not in headers:
                want = " or ".join(map(str, headers))
                raise error(f"{path}: unexpected header {header!r}; want {want}")
            yield header, enumerate(map(str.split, lines, repeat(",")), 2)
        except UnicodeError as exc:  # decoding reads ahead, so no line can be named
            raise error(f"{path}: {exc}") from None


def _width_message(header: list[str], row: list[str]) -> str:
    return f"expected {len(header)} cells, got {len(row)}"


def _number(cell: str, what: str) -> float:
    """A cell as a finite float; otherwise ValueError naming ``what`` and the cell."""
    try:
        x = float(cell)
        if math.isfinite(x):
            return x
    except ValueError:
        pass
    raise ValueError(f"bad {what} {cell!r}")


def _match_time(cell: str, what: str, length_s: float) -> float:
    """A timestamp cell within [0, length_s]; ``what`` opens the range error."""
    ts = _number(cell, "timestamp")
    if not 0.0 <= ts <= length_s:
        raise ValueError(f"{what} {cell!r} is outside the match (0 to {length_s:g} s)")
    return ts


def _bet_from_market_selection(market: str, selection: str) -> Bet:
    """The bet the writer writes as these cells, up to case and blanks."""
    cells = market.strip().upper(), selection.strip().upper()
    with suppress(ValueError):
        bet = parse_bet(cells[1] if cells[0] == "TOTAL_PARITY" else "_".join(cells))
        if _market_selection(bet) == cells:
            return bet
    raise ValueError(f"unknown selection {market!r}/{selection!r}")


# Market column of each bet token's prefix; parity bets go under TOTAL_PARITY.
_MARKETS = ("MATCH_ODDS", "CORRECT_SCORE", "OVER", "UNDER", "WINNING_MARGIN", "NEXT_GOAL", "HT_FT")


def _market_selection(bet: Bet) -> tuple[str, str]:
    token = format_bet(bet)
    for market in _MARKETS:
        if token.startswith(market + "_"):
            return market, token[len(market) + 1 :]
    return "TOTAL_PARITY", token


class QuotesParseError(ValueError):
    """Structural problem in a quotes file, with the offending line number."""


def parse_quotes_csv(
    path, match_length_min: float = DEFAULT_MATCH_MINUTES
) -> SnapshotColumns:
    """Parse a quotes CSV into timestamp-grouped snapshots.

    Rows with a decimal below 1 are rejected and logged; an unknown bet
    token, a timestamp outside the match and a negative score are errors
    carrying the line number.  Snapshots only get a score
    state here if the optional score columns are present; otherwise use
    :func:`build_timeline` to reconstruct scores from events.
    """
    return _parse_quotes(path, match_length_min)[1]


def _parse_quotes(
    path, match_length_min: float = DEFAULT_MATCH_MINUTES
) -> tuple[str, SnapshotColumns]:
    path = Path(path)
    length_s = match_length_min * 60.0
    # Accepted rows as columns, and flat (timestamp, home goals, away goals,
    # first row) entries, -1 goals for no score, one per run of consecutive
    # accepted rows that share a snapshot key (timestamp, score).
    bet_ix, backs, lays = [], [], []
    runs: list = []
    match_ids: set[str] = set()
    # A board repeats the same few tokens on every row: parse each once.
    tokens: dict[str, dict[str, int]] = {}
    bets: dict[Bet, int] = {}
    headers = (QUOTES_HEADER, QUOTES_HEADER + SCORE_COLUMNS)
    with _read_csv(path, headers, QuotesParseError) as (header, rows):
        has_scores, width = header == headers[1], len(header)
        # Rows of one snapshot share their id, timestamp and score cells, so
        # those are parsed, checked and looked up only when they change.
        match_id = ts_cell = home_cell = away_cell = None
        home, away, run = -1, -1, True
        for line, row in rows:
            try:
                if len(row) != width:
                    if row == [""]:  # a blank line
                        continue
                    raise ValueError(_width_message(header, row))
                cells = row if has_scores else (*row, None, None)  # no score cells: None
                row_id, ts_s, market, selection, back_s, lay_s, home_s, away_s = cells
                if row_id != match_id:
                    match_ids.add(row_id)
                    match_id = row_id
                if ts_s != ts_cell:
                    ts = _match_time(ts_s, "timestamp", length_s)
                    ts_cell, run = ts_s, True
                try:
                    ix = tokens[market][selection]
                except KeyError:
                    bet = _bet_from_market_selection(market, selection)
                    ix = tokens.setdefault(market, {})[selection] = bets.setdefault(bet, len(bets))
                # An empty side (NaN) passes as 1.0 unless both are empty; a row
                # that fails is checked again cell by cell, the back cell first.
                try:
                    back = float(back_s) if back_s else 1.0 if lay_s else math.nan
                    lay = float(lay_s) if lay_s else 1.0
                except ValueError:
                    back = math.nan
                if not (1.0 <= back < math.inf and 1.0 <= lay < math.inf):
                    back = _number(back_s, "back decimal") if back_s else math.nan
                    lay = _number(lay_s, "lay decimal") if lay_s else math.nan
                    why = "decimal odds below 1" if back < 1 or lay < 1 else "no odds on either side"
                    log.warning("%s:%d: %s, row rejected", path, line, why)
                    continue
                if home_s != home_cell or away_s != away_cell:
                    home = away = -1
                    with suppress(ValueError):
                        home, away = int(home_s), int(away_s)
                    if home < 0 or away < 0:
                        raise ValueError("bad score cells")
                    home_cell, away_cell, run = home_s, away_s, True
                if run:
                    run = False
                    runs += (ts, home, away, len(backs))
                bet_ix.append(ix)
                backs.append(back if back_s else math.nan)
                lays.append(lay if lay_s else math.nan)
            except ValueError as exc:
                raise QuotesParseError(f"{path}:{line}: {exc}") from None

    if not runs:
        raise QuotesParseError(f"{path}: no snapshots")
    if len(match_ids) > 1:
        raise QuotesParseError(f"{path}: multiple match ids {sorted(match_ids)}")

    # A key's runs join into one snapshot.  Same-second snapshots run in the
    # order of the goals their score counts, then of their first row.
    ts, home, away, firsts = (np.array(runs[i::4]) for i in range(4))
    # Sorted by key, a key's runs stay in file order: the first names the key.
    by = np.lexsort((away, home, ts))
    first = np.diff(np.stack((ts, home, away))[:, by], prepend=np.nan).any(axis=0)
    key_ix = by[first][np.cumsum(first) - 1][np.argsort(by)]
    by = np.lexsort((key_ix, home + away, ts))  # snapshot order, a key's runs together
    head = np.diff(key_ix[by], prepend=-1) != 0
    # A row's snapshot is the rank of its run's key in that order.
    rows = np.repeat((np.cumsum(head) - 1)[np.argsort(by)], np.diff(firsts, append=len(backs)))
    ts, home, away = ts[by[head]], home[by[head]], away[by[head]]
    try:
        snaps = SnapshotColumns.from_rows(
            tuple(bets), ts, home, away, clocks_of(ts, match_length_min), rows, bet_ix, backs, lays
        )
    except ValueError as exc:
        raise QuotesParseError(f"{path}: {exc}") from None
    return match_ids.pop(), snaps


def parse_events_csv(
    path, match_length_min: float = DEFAULT_MATCH_MINUTES
) -> list[GoalEvent]:
    """Parse an events CSV; an empty file raises ValueError, and so does a
    malformed row, a goal outside the match, a decreasing timestamp or a
    second match id, naming its line."""
    return _parse_events(path, match_length_min)[1]


def _parse_events(
    path, match_length_min: float = DEFAULT_MATCH_MINUTES
) -> tuple[str | None, list[GoalEvent]]:
    """The file's match id (None for a bare header) and its goals."""
    length_s = match_length_min * 60.0
    match_id = None
    events: list[GoalEvent] = []
    with _read_csv(path, (EVENTS_HEADER,)) as (header, rows):
        for line, row in rows:
            try:
                if len(row) != len(header):
                    if row == [""]:  # a blank line
                        continue
                    raise ValueError(_width_message(header, row))
                row_id, ts_s, team_s, event_s = row
                if events and row_id != match_id:
                    raise ValueError(f"match id {row_id!r} after {match_id!r}")
                match_id = row_id
                ts = _match_time(ts_s, "goal at", length_s)
                if events and ts < events[-1].timestamp_s:
                    raise ValueError("timestamps must not decrease")
                if event_s.strip().upper() != "GOAL":
                    raise ValueError(f"unknown event {event_s!r}")
                if (team := Team.__members__.get(team_s.strip().upper())) is None:
                    raise ValueError(f"unknown team {team_s!r}")
                events.append(GoalEvent(ts, team))
            except ValueError as exc:
                raise ValueError(f"{path}:{line}: {exc}") from None
    return match_id, events


def build_timeline(
    snapshots: Sequence[QuoteSnapshot],
    events: list[GoalEvent],
    match_id: str = "match",
    match_length_min: float = DEFAULT_MATCH_MINUTES,
    half_length_min: float = DEFAULT_HALF_MINUTES,
) -> MatchTimeline:
    """Assemble a timeline, reconstructing snapshot scores from the events.

    ``snapshots`` come in (timestamp, goals scored) order, as parsed.  One
    without a score gets the score after every goal at or before its stamp.
    One with a score the events allow there (:func:`~inplay.timeline.goal_counts`)
    keeps it; otherwise a warning names the timestamp, the reconstructed
    score wins for downstream pricing and the snapshots are sorted again by
    (timestamp, goals scored).  Snapshots whose keys then agree join into
    one, as if the file had carried the reconstructed score: a bet quoted in
    two of them raises ValueError naming it and the second.  Every clock is
    taken from its stamp.  The timeline's snapshots are a
    :class:`~inplay.calibration.SnapshotColumns` view of the quotes' grid, a
    new grid where snapshots joined.
    """
    given = SnapshotColumns.of(snapshots)
    ts, home, away = given.timestamps, given.home, given.away
    ok, home_after, away_after = allowed_scores(events, ts, home, away)
    replaced = ~ok & (home >= 0)
    for i in np.flatnonzero(replaced).tolist():
        score, after = (int(home[i]), int(away[i])), (int(home_after[i]), int(away_after[i]))
        log.warning(
            "snapshot at %ss: score column %s disagrees with events %s", float(ts[i]), score, after
        )
    home, away = np.where(ok, home, home_after), np.where(ok, away, away_after)
    clocks = clocks_of(ts, match_length_min)
    order = np.lexsort((home + away, ts)) if replaced.any() else slice(None)
    view = given[order]  # a new view of the same grid: its rows may change
    view.home, view.away, view.clocks = home[order], away[order], clocks[order]
    # After a replaced score two snapshots can share a key, (timestamp, goals),
    # which names the score as every score is on the goals' path: their cells
    # regroup into one snapshot.
    head = np.diff(np.stack((view.timestamps, view.home + view.away)), prepend=np.nan).any(axis=0)
    if replaced.any() and not head.all():
        sides = [getattr(view, name) for name in ("back", "lay", "buy", "sell")]
        snap, col = np.nonzero(~np.isnan(sides).all(axis=0))
        first = np.flatnonzero(head)
        view = SnapshotColumns.from_rows(
            view.bets, *(getattr(view, n)[first] for n in ("timestamps", "home", "away", "clocks")),
            (np.cumsum(head) - 1)[snap], col, *(side[snap, col] for side in sides),
        )
    return MatchTimeline(match_id, tuple(events), view, match_length_min, half_length_min)


def load_timeline(
    quotes_path,
    events_path,
    match_length_min: float = DEFAULT_MATCH_MINUTES,
    half_length_min: float = DEFAULT_HALF_MINUTES,
) -> MatchTimeline:
    match_id, snapshots = _parse_quotes(quotes_path, match_length_min)
    events_id, events = _parse_events(events_path, match_length_min)
    if events_id not in (None, match_id):
        raise ValueError(f"{events_path}: match id {events_id!r}, but the quotes are {match_id!r}")
    try:  # the parsed files are valid: only joined snapshots can fail
        return build_timeline(snapshots, events, match_id, match_length_min, half_length_min)
    except ValueError as exc:
        raise QuotesParseError(f"{quotes_path}: {exc}") from None


def write_quotes_csv(timeline: MatchTimeline, path) -> None:
    """Write every cell with a decimal on either side, with the score
    columns, snapshot by snapshot.  Within a snapshot the bets run in the
    order the file first names them, the column order the reader gives it."""
    s = timeline.snapshots
    bets = [",".join(_market_selection(bet)) for bet in s.bets]
    written = ~(np.isnan(s.back) & np.isnan(s.lay))
    order = np.argsort(written.argmax(axis=0), kind="stable")  # by first written snapshot
    i, j = np.nonzero(written[:, order])
    j = order[j]
    lines = (
        f"{timeline.match_id},{_fmt_ts(ts)},{bets[b]},{_odds(back)},{_odds(lay)},{home},{away}\n"
        for ts, home, away, b, back, lay in zip(
            *(c[i].tolist() for c in (s.timestamps, s.home, s.away)),
            j.tolist(), s.back[i, j].tolist(), s.lay[i, j].tolist(),
        )
    )
    _write_csv(path, QUOTES_HEADER + SCORE_COLUMNS, lines, timeline.match_id)


def _odds(decimal: float) -> str:
    return "" if math.isnan(decimal) else fmt_float(decimal)  # NaN: an absent side


def write_events_csv(events: list[GoalEvent], path, match_id: str) -> None:
    lines = (f"{match_id},{_fmt_ts(ev.timestamp_s)},{ev.team.value},GOAL\n" for ev in events)
    _write_csv(path, EVENTS_HEADER, lines, match_id)


def write_intensity_series_csv(series: IntensitySeries, path) -> None:
    """One row per step; gap steps leave every field after the timestamp empty."""

    def cells(r: CalibrationResult | None) -> str:
        if r is None:
            return ",,,,,"
        numbers = (r.intensities.home, r.intensities.away, r.residual, r.stderr_home, r.stderr_away)
        return ",".join([*map(fmt_float, numbers), "true" if r.converged else "false"])

    lines = (f"{_fmt_ts(p.timestamp_s)},{cells(p.result)}\n" for p in series.points)
    _write_csv(path, SERIES_HEADER, lines)


def parse_intensity_series_csv(path) -> IntensitySeries:
    """Parse a series CSV; a malformed file or a timestamp not above the one
    before it raises ValueError naming its line."""
    points: list[SeriesPoint] = []
    with _read_csv(path, (SERIES_HEADER,)) as (header, rows):
        for line, row in rows:
            try:
                if len(row) != len(header):
                    if row == [""]:  # a blank line
                        continue
                    raise ValueError(_width_message(header, row))
                ts = _number(row[0], "timestamp")
                if points and ts <= points[-1].timestamp_s:
                    raise ValueError("timestamps must strictly increase")
                result = None
                if row[1] == "":
                    if any(row[2:]):
                        raise ValueError("a gap row must leave every cell after the timestamp empty")
                else:
                    if row[6] not in ("true", "false"):
                        raise ValueError(f"converged must be true or false, got {row[6]!r}")
                    numbers = [*map(float, row[3:6])]  # residual and the two stderrs
                    # inf is what the writer emits for a singular fit; NaN is not >= 0.
                    for name, x in zip(SERIES_HEADER[3:6], numbers):
                        if not x >= 0.0:
                            raise ValueError(f"{name} must be nonnegative, got {x}")
                    lam = Intensities(float(row[1]), float(row[2]))
                    converged = row[6] == "true"
                    result = CalibrationResult(lam, *numbers, iterations=0, converged=converged)
                points.append(SeriesPoint(ts, result))
            except ValueError as exc:
                raise ValueError(f"{path}:{line}: {exc}") from None
    return IntensitySeries(tuple(points))


def write_hedge_report(report: HedgeReport, out_dir) -> dict:
    """Emit steps.csv, goals.csv and summary.json; returns the summary."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # One format per row: %.9g is fmt_float, and no flag needs CSV quoting.
    s = report.steps
    # Integral stamps print as integers (_fmt_ts), then in one C-level pass.
    integral = all(map(float.is_integer, map(float, s.timestamp_s)))
    stamps = s.timestamp_s if integral else map(_fmt_ts, s.timestamp_s)
    step_row = ("%d" if integral else "%s") + ",%.9g" * 7 + ",%s\n"
    numbers = (s.target_value, s.portfolio_value, s.psi1, s.psi2, s.cash, s.z1, s.z2)
    step_lines = map(step_row.__mod__, zip(stamps, *numbers, s.flag))
    _write_csv(out_dir / "steps.csv", STEPS_HEADER, step_lines)
    goal_row = "%s,%s" + ",%.9g" * 4 + "\n"
    goal_lines = (
        goal_row % (_fmt_ts(g.timestamp_s), g.team.value, g.target_pre, g.target_post,
                    g.portfolio_pre, g.portfolio_post)
        for g in report.goals
    )
    _write_csv(out_dir / "goals.csv", GOALS_HEADER, goal_lines)
    summary = {
        "target": format_bet(report.target),
        "instruments": [format_bet(b) for b in report.instruments],
        "steps": len(report.steps),
        "goals": len(report.goals),
        "terminal_error": report.terminal_error,
        "jump_correlation": report.jump_correlation,
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n", "utf-8", newline="")
    return summary


def write_terminal_scores_csv(batches, path) -> None:
    """One row per path, numbered across batches of (home, away) final goal
    arrays such as :func:`inplay.oracle.terminal_scores` yields."""
    scores = chain.from_iterable(zip(home.tolist(), away.tolist()) for home, away in batches)
    _write_csv(path, SCORES_HEADER, (f"{i},{h},{a}\n" for i, (h, a) in enumerate(scores)))
