"""Tests for CSV parsing, serialisation round-trips and timeline assembly."""

import csv
import dataclasses
import logging
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from inplay.calibration import (
    CalibrationResult,
    IntensitySeries,
    QuoteSnapshot,
    SeriesPoint,
    SnapshotColumns,
    _Segment,
)
from inplay.contracts import (
    MATCH_ODDS_AWAY,
    MATCH_ODDS_DRAW,
    MATCH_ODDS_HOME,
    NEXT_GOAL_AWAY,
    NEXT_GOAL_HOME,
    EVEN_TOTAL,
    ODD_TOTAL,
    Bet,
    Intensities,
    Outcome,
    Quote,
    ScoreState,
    Team,
)
from inplay import io as io_module
from inplay.hedging import GoalRecord, HedgeReport, HedgeStep, HedgeSteps, replay_hedge
from inplay.io import (
    EVENTS_HEADER,
    QUOTES_HEADER,
    SCORE_COLUMNS,
    SERIES_HEADER,
    load_timeline,
    QuotesParseError,
    build_timeline,
    fmt_float,
    parse_events_csv,
    parse_intensity_series_csv,
    parse_quotes_csv,
    write_events_csv,
    write_hedge_report,
    write_intensity_series_csv,
    write_quotes_csv,
    write_terminal_scores_csv,
)
from inplay.synthetic import make_model_timeline
from inplay.timeline import (
    GoalEvent,
    MatchTimeline,
    clocks_of,
    goal_counts,
    replay_runs,
    score_path,
)


QUOTES_EXAMPLE = """match_id,timestamp_s,market,selection,back_decimal,lay_decimal
g1,600,MATCH_ODDS,HOME,2.50,2.54
g1,600,MATCH_ODDS,DRAW,3.1,
g1,600,TOTAL_PARITY,ODD,1.9,2.0
g1,660,UNDER,2_5,1.8,1.85
"""

QUOTES_HEADER_LINE = ",".join(QUOTES_HEADER) + "\n"

SERIES_LINE = "timestamp_s,lambda_home,lambda_away,residual,stderr_home,stderr_away,converged\n"

EVENTS_EXAMPLE = """match_id,timestamp_s,team,event
g1,540,HOME,GOAL
g1,1675,away,GOAL
g1,1675,HOME,GOAL
"""


READERS = {
    "quotes": (parse_quotes_csv, QUOTES_HEADER, [QUOTES_HEADER, QUOTES_HEADER + SCORE_COLUMNS]),
    "events": (parse_events_csv, EVENTS_HEADER, [EVENTS_HEADER]),
    "series": (parse_intensity_series_csv, SERIES_HEADER, [SERIES_HEADER]),
}
BAD_STAMP_ROWS = {
    "quotes": "g1,abc,MATCH_ODDS,HOME,2.5,2.54",
    "events": "g1,abc,HOME,GOAL",
    "series": "abc,,,,,,",
}


@pytest.mark.parametrize("fmt", sorted(READERS))
@pytest.mark.parametrize("case", ["empty file", "foreign header", "short row", "bad timestamp"])
def test_every_reader_states_the_shared_rules_in_the_same_words(tmp_path, fmt, case):
    parse, header, headers = READERS[fmt]
    text, message = {
        "empty file": ("", "{f}: empty file, no header"),
        "foreign header": (
            "a,b\n",
            "{f}: unexpected header ['a', 'b']; want " + " or ".join(map(str, headers)),
        ),
        "short row": (
            ",".join(header) + "\n\nx\n",
            f"{{f}}:3: expected {len(header)} cells, got 1",
        ),
        "bad timestamp": (
            ",".join(header) + f"\n{BAD_STAMP_ROWS[fmt]}\n",
            "{f}:2: bad timestamp 'abc'",
        ),
    }[case]
    f = tmp_path / f"{fmt}.csv"
    f.write_text(text)
    with pytest.raises(ValueError) as excinfo:
        parse(f)
    assert str(excinfo.value) == message.format(f=f)
    assert isinstance(excinfo.value, QuotesParseError) == (fmt == "quotes")


GOOD_ROWS = {
    "quotes": "g1,600,MATCH_ODDS,HOME,2.5,2.54",
    "events": "g1,540,HOME,GOAL",
    "series": "0,1.3,0.7,0.25,0.01,0.02,true",
}


@pytest.mark.parametrize("fmt", sorted(READERS))
@pytest.mark.parametrize("case", ["quoted cell", "NUL byte", "over-long row"])
def test_a_quote_a_nul_or_an_over_long_row_names_its_line(tmp_path, fmt, case):
    # Cells are split at every comma and never unquoted, and no cell has a
    # size limit: a row of 200k characters is one cell of the wrong width.
    parse, header, _ = READERS[fmt]
    first, rest = GOOD_ROWS[fmt].split(",", 1)
    row, message = {
        "quoted cell": (f'"{first}",{rest}', "a quote or NUL; cells are never quoted"),
        "NUL byte": (f"{first}\0,{rest}", "a quote or NUL; cells are never quoted"),
        "over-long row": ("x" * 200_000, f"expected {len(header)} cells, got 1"),
    }[case]
    f = tmp_path / f"{fmt}.csv"
    f.write_text(",".join(header) + "\n\n" + row + "\n" + GOOD_ROWS[fmt] + "\n")
    with pytest.raises(ValueError) as excinfo:
        parse(f)
    assert str(excinfo.value) == f"{f}:3: {message}"
    assert isinstance(excinfo.value, QuotesParseError) == (fmt == "quotes")


class TestParseQuotes:
    def test_example_row_values(self, tmp_path):
        f = tmp_path / "q.csv"
        f.write_text(QUOTES_EXAMPLE)
        snaps = parse_quotes_csv(f)
        assert [s.timestamp_s for s in snaps] == [600.0, 660.0]
        quote = snaps[0].quotes[0]
        assert quote.bet == MATCH_ODDS_HOME
        assert quote.value_buy == pytest.approx(0.4)
        assert quote.value_sell == pytest.approx(0.39370078740157477)
        assert quote.value_mid == pytest.approx((0.4 + 0.39370078740157477) / 2)
        assert quote.spread > 0

    def test_one_sided_quote_kept_but_not_usable(self, tmp_path):
        f = tmp_path / "q.csv"
        f.write_text(QUOTES_EXAMPLE)
        snap = parse_quotes_csv(f)[0]
        draw = [q for q in snap.quotes if q.bet.kind.value == "MATCH_ODDS_DRAW"]
        assert len(draw) == 1 and not draw[0].two_sided
        filled = build_timeline([snap], [])
        assert draw[0].bet not in _Segment(SnapshotColumns.of([filled.snapshots[0]])).board.bets

    def test_empty_file_is_an_error(self, tmp_path):
        f = tmp_path / "q.csv"
        f.write_text("")
        with pytest.raises(QuotesParseError, match=f"{f}: empty file, no header"):
            parse_quotes_csv(f)
        f.write_text("match_id,timestamp_s,market,selection,back_decimal,lay_decimal\n")
        with pytest.raises(QuotesParseError, match="no snapshots"):
            parse_quotes_csv(f)

    def test_unknown_selection_carries_line_number(self, tmp_path):
        f = tmp_path / "q.csv"
        f.write_text(
            "match_id,timestamp_s,market,selection,back_decimal,lay_decimal\n"
            "g1,600,MATCH_ODDS,HOME,2.5,2.54\n"
            "g1,600,MATCH_ODDS,NOBODY,2.5,2.54\n"
        )
        with pytest.raises(QuotesParseError, match=":3"):
            parse_quotes_csv(f)

    @pytest.mark.parametrize(
        "market,selection",
        [("MATCH_ODDS", "UNDER_2_5"), ("CORRECT_SCORE", "OVER_3_5"), ("MATCH", "ODDS_HOME"),
         ("TOTAL_PARITY", "MATCH_ODDS_HOME"), ("UNDER", "02_5"), ("TOTAL_PARITY", "TOTAL_PARITY")],
    )
    def test_a_pair_the_writer_never_writes_is_an_unknown_selection(
        self, tmp_path, market, selection
    ):
        # Each cell pair is its bet's own (market, selection) or nothing: no
        # fallback to the bare selection under a foreign market.
        f = tmp_path / "q.csv"
        f.write_text(QUOTES_HEADER_LINE + f"g1,600,{market},{selection},2.5,2.54\n")
        with pytest.raises(QuotesParseError, match=r"q\.csv:2: unknown selection"):
            parse_quotes_csv(f)

    def test_case_and_blanks_around_the_cells_are_free(self, tmp_path):
        f = tmp_path / "q.csv"
        f.write_text(
            QUOTES_HEADER_LINE + "g1,600,match_odds,home,2.5,2.54\n"
            "g1,600, total_parity ,Odd ,1.9,2.0\ng1,600,Under, 2_5,1.8,1.85\n"
        )
        [snap] = parse_quotes_csv(f)
        assert [q.bet for q in snap.quotes] == [MATCH_ODDS_HOME, ODD_TOTAL, Bet.under(2.5)]

    def test_repeated_unknown_selection_raises_at_its_first_line(self, tmp_path):
        f = tmp_path / "q.csv"
        f.write_text(
            "match_id,timestamp_s,market,selection,back_decimal,lay_decimal\n"
            "g1,600,MATCH_ODDS,HOME,2.5,2.54\n"
            "g1,600,MATCH_ODDS,NOBODY,2.5,2.54\n"
            "g1,601,MATCH_ODDS,HOME,2.5,2.54\n"
            "g1,601,MATCH_ODDS,NOBODY,2.5,2.54\n"
        )
        with pytest.raises(QuotesParseError, match=r":3: unknown selection"):
            parse_quotes_csv(f)

    def test_each_token_parsed_once_per_file(self, tmp_path, monkeypatch):
        parsed = []
        real = io_module._bet_from_market_selection

        def counting(market, selection):
            parsed.append((market, selection))
            return real(market, selection)

        monkeypatch.setattr(io_module, "_bet_from_market_selection", counting)
        f = tmp_path / "q.csv"
        f.write_text(QUOTES_EXAMPLE + "g1,660,MATCH_ODDS,HOME,2.4,2.44\n")
        first = parse_quotes_csv(f)
        assert sorted(parsed) == sorted(
            [("MATCH_ODDS", "HOME"), ("MATCH_ODDS", "DRAW"), ("TOTAL_PARITY", "ODD"),
             ("UNDER", "2_5")]
        )
        # The memo belongs to one call: a second file parses its tokens afresh
        # and gives the same bets.
        g = tmp_path / "g.csv"
        g.write_text(QUOTES_EXAMPLE)
        parsed.clear()
        second = parse_quotes_csv(g)
        assert len(parsed) == 4
        assert [q.bet for q in second[0].quotes] == [q.bet for q in first[0].quotes]

    def test_sub_unit_decimal_rejected_and_logged(self, tmp_path, caplog):
        f = tmp_path / "q.csv"
        f.write_text(
            "match_id,timestamp_s,market,selection,back_decimal,lay_decimal\n"
            "g1,600,MATCH_ODDS,HOME,0.9,2.54\n"
            "g1,600,MATCH_ODDS,DRAW,3.1,3.2\n"
        )
        with caplog.at_level(logging.WARNING, logger="inplay.io"):
            snaps = parse_quotes_csv(f)
        assert "rejected" in caplog.text
        assert len(snaps[0].quotes) == 1

    def test_row_without_odds_dropped_with_its_line(self, tmp_path, caplog):
        f = tmp_path / "q.csv"
        f.write_text(
            "match_id,timestamp_s,market,selection,back_decimal,lay_decimal\n"
            "g1,600,MATCH_ODDS,HOME,2.5,2.54\n"
            "g1,600,MATCH_ODDS,DRAW,,\n"
        )
        with caplog.at_level(logging.WARNING, logger="inplay.io"):
            snaps = parse_quotes_csv(f)
        assert f"{f}:3: no odds on either side, row rejected" in caplog.text
        assert [q.bet for q in snaps[0].quotes] == [MATCH_ODDS_HOME]

    @pytest.mark.parametrize(
        "row, message",
        [
            ("g1,600,MATCH_ODDS,HOME,nan,2.54", r":3: bad back decimal 'nan'"),
            ("g1,600,MATCH_ODDS,HOME,2.5,inf", r":3: bad lay decimal 'inf'"),
            ("g1,600,MATCH_ODDS,HOME,2.5,abc", r":3: bad lay decimal 'abc'"),
            ("g1,inf,MATCH_ODDS,HOME,2.5,2.54", r":3: bad timestamp 'inf'"),
            ("g1,nan,MATCH_ODDS,HOME,2.5,2.54", r":3: bad timestamp 'nan'"),
            ("g1,600,MATCH_ODDS,HOME,2.5", r":3: expected 6 cells, got 5"),
            ("g1,-30,MATCH_ODDS,HOME,2.5,2.54", r":3: timestamp '-30' is outside the match"),
            ("g1,9000,MATCH_ODDS,HOME,2.5,2.54", r":3: timestamp '9000' is outside the match"),
        ],
    )
    def test_malformed_cell_names_its_line(self, tmp_path, row, message):
        f = tmp_path / "q.csv"
        f.write_text(
            "match_id,timestamp_s,market,selection,back_decimal,lay_decimal\n"
            f"g1,600,MATCH_ODDS,DRAW,3.1,3.2\n{row}\n"
        )
        with pytest.raises(QuotesParseError, match=message):
            parse_quotes_csv(f)

    @pytest.mark.parametrize(
        "odds, message",
        [
            # The back cell alone would reject the row, but the lay cell is malformed.
            ("0.5,abc", r":3: bad lay decimal 'abc'"),
            ("x,y", r":3: bad back decimal 'x'"),
            ("1e400,2.54", r":3: bad back decimal '1e400'"),
            ("2.5,-inf", r":3: bad lay decimal '-inf'"),
        ],
    )
    def test_a_malformed_odds_cell_is_an_error_before_any_rejection(
        self, tmp_path, caplog, odds, message
    ):
        f = tmp_path / "q.csv"
        f.write_text(
            "match_id,timestamp_s,market,selection,back_decimal,lay_decimal\n"
            f"g1,600,MATCH_ODDS,DRAW,3.1,3.2\ng1,600,MATCH_ODDS,HOME,{odds}\n"
        )
        with caplog.at_level(logging.WARNING, logger="inplay.io"):
            with pytest.raises(QuotesParseError, match=message):
                parse_quotes_csv(f)
        assert not caplog.records

    def test_padded_decimals_parse(self, tmp_path):
        f = tmp_path / "q.csv"
        f.write_text(
            "match_id,timestamp_s,market,selection,back_decimal,lay_decimal\n"
            "g1,600,MATCH_ODDS,HOME, 2.5,2.54 \n"
        )
        (quote,) = parse_quotes_csv(f)[0].quotes
        assert (quote.back_decimal, quote.lay_decimal) == (2.5, 2.54)

    @pytest.mark.parametrize("cells", ["-1,0", "0,-2", "1,x", "1.0,0"])
    def test_bad_score_cells_name_their_line(self, tmp_path, cells):
        f = tmp_path / "q.csv"
        f.write_text(
            "match_id,timestamp_s,market,selection,back_decimal,lay_decimal,home_goals,away_goals\n"
            "g1,600,MATCH_ODDS,HOME,2.5,2.54,0,0\n"
            f"g1,601,MATCH_ODDS,HOME,2.5,2.54,{cells}\n"
        )
        with pytest.raises(QuotesParseError, match=r"q\.csv:3: bad score cells"):
            parse_quotes_csv(f)

    def test_match_length_bounds_the_timestamps(self, tmp_path):
        f = tmp_path / "q.csv"
        f.write_text(
            "match_id,timestamp_s,market,selection,back_decimal,lay_decimal\n"
            "g1,0,MATCH_ODDS,HOME,2.5,2.54\n"
            "g1,600,MATCH_ODDS,HOME,2.5,2.54\n"
        )
        assert [s.timestamp_s for s in parse_quotes_csv(f, match_length_min=10)] == [0.0, 600.0]
        with pytest.raises(QuotesParseError, match=r":3: timestamp '600' is outside the match"):
            parse_quotes_csv(f, match_length_min=9.99)

    def test_rows_group_by_timestamp_and_score_in_file_order(self, tmp_path):
        f = tmp_path / "q.csv"
        f.write_text(
            "match_id,timestamp_s,market,selection,back_decimal,lay_decimal,home_goals,away_goals\n"
            "g1,660,UNDER,2_5,1.8,1.85,0,0\n"
            "g1,600,MATCH_ODDS,HOME,2.5,2.54,0,0\n"
            "g1,660,UNDER,3_5,1.3,1.35,1,0\n"
            "g1,600.0,MATCH_ODDS,DRAW,3.1,3.2,0,0\n"
            "g1,660,MATCH_ODDS,HOME,2.1,2.14,0,0\n"
        )
        snaps = parse_quotes_csv(f)
        assert [(s.timestamp_s, s.state.home_goals) for s in snaps] == [
            (600.0, 0), (660.0, 0), (660.0, 1)
        ]
        assert [[str(q.bet) for q in s.quotes] for s in snaps] == [
            ["MATCH_ODDS_HOME", "MATCH_ODDS_DRAW"], ["UNDER_2_5", "MATCH_ODDS_HOME"], ["UNDER_3_5"]
        ]

    def test_mixed_match_ids_rejected(self, tmp_path):
        f = tmp_path / "q.csv"
        f.write_text(
            "match_id,timestamp_s,market,selection,back_decimal,lay_decimal\n"
            "g1,600,MATCH_ODDS,HOME,2.5,2.54\n"
            "g2,600,MATCH_ODDS,HOME,2.5,2.54\n"
        )
        with pytest.raises(QuotesParseError, match="multiple match ids"):
            parse_quotes_csv(f)


def _reference_parse(path):
    """The quotes parser's rules, one row at a time: each cell parsed by
    ``_number`` on every row, each quote put in its snapshot key's cell for
    its bet, and the keys sorted by (timestamp, goals).  Returns the parse
    and the warnings it would log."""
    bets, cells, warnings = {}, {}, []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if not row:
                continue
            match_id, ts_s, market, selection, back_s, lay_s = row[:6]
            ts = io_module._match_time(ts_s, "timestamp", 5400.0)
            ix = bets.setdefault(io_module._bet_from_market_selection(market, selection), len(bets))
            back = io_module._number(back_s, "back decimal") if back_s else math.nan
            lay = io_module._number(lay_s, "lay decimal") if lay_s else math.nan
            if back < 1.0 or lay < 1.0:
                warnings.append(f"{path}:{reader.line_num}: decimal odds below 1, row rejected")
                continue
            if back_s == "" and lay_s == "":
                warnings.append(f"{path}:{reader.line_num}: no odds on either side, row rejected")
                continue
            score = (int(row[6]), int(row[7])) if len(row) == 8 else None
            assert ((ts, score), ix) not in cells  # the files quote a bet once per snapshot
            cells[(ts, score), ix] = back, lay
    keys = sorted(dict.fromkeys(key for key, _ in cells), key=lambda k: (k[0], sum(k[1] or ())))
    back, lay = np.full((2, len(keys), len(bets)), np.nan)
    for (key, ix), sides in cells.items():
        back[keys.index(key), ix], lay[keys.index(key), ix] = sides
    ts = np.array([k[0] for k in keys])
    home, away = np.array([k[1] or (-1, -1) for k in keys], dtype=np.intp).T
    columns = {
        "back": back,
        "lay": lay,
        "timestamps": ts,
        "home": home,
        "away": away,
        "clocks": clocks_of(ts, 90.0),
    }
    return match_id, tuple(bets), columns, warnings


_TOKENS = [("MATCH_ODDS", "HOME"), ("MATCH_ODDS", "DRAW"), ("TOTAL_PARITY", "ODD"), ("UNDER", "2_5")]
# Odds cells by what they make of a row; the first kinds are accepted.
_ODDS = {
    "two-sided": ["2.5,2.54", "1,1.02", "1.0,1.01", "17,18.5", "3.1,3.2"],
    "back only": ["2.5,", "1,"],
    "lay only": [",2.54", ",1.0"],
    "no odds": [","],
    "below 1": ["0.9,2.54", "2.5,0.5", "0,", ",0.99"],
}
_ODDS_ACCEPTED = ("two-sided", "back only", "lay only")


def _random_quotes_file(path, seed, scores):
    """A quotes file of random snapshot blocks; returns how often it wrote
    each case the parser must treat like the reference."""
    rng = np.random.default_rng(seed)
    cases = dict.fromkeys(
        ["blank line", *_ODDS, "key comes back", "600 and 600.0", "new second's first row rejected"]
        + ["same-second scores"] * scores, 0
    )
    lines = [",".join(QUOTES_HEADER + SCORE_COLUMNS * scores)]
    ts, home, away, seen, quoted = 600, 0, 0, [], set()
    for _ in range(60):
        move = rng.choice(["next second", "spelt with .0", "new score", "come back"])
        if move == "come back" and seen:
            ts, home, away = seen[rng.integers(len(seen))]
            cases["key comes back"] += 1
        elif move == "new score" and scores:
            home, away = (home + 1, away) if rng.random() < 0.5 else (home, away + 1)
            cases["same-second scores"] += 1
        elif move == "spelt with .0" and seen:
            cases["600 and 600.0"] += 1
        else:
            ts, move = ts + int(rng.integers(1, 3)), "next second"
        seen.append((ts, home, away))
        ts_cell = f"{ts}.0" if move == "spelt with .0" else str(ts)
        for k in range(int(rng.integers(1, 5))):
            kind = rng.choice(list(_ODDS))
            if k == 0 and move == "next second" and rng.random() < 0.3:
                kind = rng.choice(["no odds", "below 1"])
                cases["new second's first row rejected"] += 1
            market, selection = _TOKENS[rng.integers(len(_TOKENS))]
            if kind in _ODDS_ACCEPTED:
                # A bet is quoted at most once per snapshot; a repeat is rejected.
                if (ts, home, away, market, selection) in quoted:
                    kind = "below 1"
                quoted.add((ts, home, away, market, selection))
            cases[kind] += 1
            odds = rng.choice(_ODDS[kind])
            score = f",{home},{away}" if scores else ""
            lines.append(f"g1,{ts_cell},{market},{selection},{odds}{score}")
            if rng.random() < 0.05:
                lines.append("")
                cases["blank line"] += 1
    path.write_text("\n".join(lines) + "\n")
    return cases


class TestParserEquivalence:
    @pytest.mark.parametrize("scores", [False, True], ids=["no score columns", "score columns"])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_files_parse_as_the_reference(self, tmp_path, caplog, seed, scores):
        f = tmp_path / "q.csv"
        cases = _random_quotes_file(f, seed, scores)
        assert all(cases.values()), cases
        match_id, bets, want, warnings = _reference_parse(f)
        with caplog.at_level(logging.WARNING, logger="inplay.io"):
            got_id, snaps = io_module._parse_quotes(f)
        assert [r.getMessage() for r in caplog.records] == warnings
        assert (got_id, snaps.bets) == (match_id, bets)
        for name, column in want.items():
            got = getattr(snaps, name)
            assert got.dtype == column.dtype, name
            assert np.array_equal(got, column, equal_nan=True), name


def _csv_reader_parse_quotes(path, match_length_min=90.0):
    """The quotes parser as it was before the line splitter, whole: rows
    from ``csv.reader``, errors named by its ``line_num``, each run's key
    looked up in a dict.  The reference for :func:`io._parse_quotes` on
    files that hold no ``"`` or NUL."""
    path = Path(path)
    length_s = match_length_min * 60.0
    bet_ix, backs, lays, runs, match_ids, tokens, bets = [], [], [], [], set(), {}, {}
    headers = (QUOTES_HEADER, QUOTES_HEADER + SCORE_COLUMNS)
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise QuotesParseError(f"{path}: empty file, no header")
        if header not in headers:
            want = " or ".join(map(str, headers))
            raise QuotesParseError(f"{path}: unexpected header {header!r}; want {want}")
        has_scores, width = header == headers[1], len(header)
        match_id = ts_cell = home_cell = away_cell = None
        home, away, run = -1, -1, True
        try:
            for row in reader:
                if len(row) != width:
                    if not row:
                        continue
                    raise ValueError(io_module._width_message(header, row))
                cells = row if has_scores else (*row, None, None)
                row_id, ts_s, market, selection, back_s, lay_s, home_s, away_s = cells
                if row_id != match_id:
                    match_ids.add(row_id)
                    match_id = row_id
                if ts_s != ts_cell:
                    ts = io_module._match_time(ts_s, "timestamp", length_s)
                    ts_cell, run = ts_s, True
                try:
                    ix = tokens[market][selection]
                except KeyError:
                    bet = io_module._bet_from_market_selection(market, selection)
                    ix = tokens.setdefault(market, {})[selection] = bets.setdefault(bet, len(bets))
                try:
                    back = float(back_s) if back_s else 1.0 if lay_s else math.nan
                    lay = float(lay_s) if lay_s else 1.0
                except ValueError:
                    back = math.nan
                if not (1.0 <= back < math.inf and 1.0 <= lay < math.inf):
                    back = io_module._number(back_s, "back decimal") if back_s else math.nan
                    lay = io_module._number(lay_s, "lay decimal") if lay_s else math.nan
                    why = "decimal odds below 1" if back < 1 or lay < 1 else "no odds on either side"
                    io_module.log.warning("%s:%d: %s, row rejected", path, reader.line_num, why)
                    continue
                if home_s != home_cell or away_s != away_cell:
                    try:
                        home, away = int(home_s), int(away_s)
                        if home < 0 or away < 0:
                            raise ValueError
                    except ValueError:
                        raise ValueError("bad score cells") from None
                    home_cell, away_cell, run = home_s, away_s, True
                if run:
                    run = False
                    runs += (ts, home, away, len(backs))
                bet_ix.append(ix)
                backs.append(back if back_s else math.nan)
                lays.append(lay if lay_s else math.nan)
        except ValueError as exc:
            raise QuotesParseError(f"{path}:{reader.line_num}: {exc}") from None
    if not runs:
        raise QuotesParseError(f"{path}: no snapshots")
    if len(match_ids) > 1:
        raise QuotesParseError(f"{path}: multiple match ids {sorted(match_ids)}")
    # Each run's rows go to their key's cell for their bet; keys sort stably
    # by (timestamp, goals), so same-second keys keep their first row's order.
    ts, home, away, firsts = (runs[i::4] for i in range(4))
    keys = sorted(dict.fromkeys(zip(ts, home, away)), key=lambda k: (k[0], k[1] + k[2]))
    at, names = {k: i for i, k in enumerate(keys)}, tuple(bets)
    back, lay = np.full((2, len(keys), len(bets)), np.nan)
    seen, twice = set(), set()
    for key, lo, hi in zip(zip(ts, home, away), firsts, [*firsts[1:], len(backs)]):
        for row in range(lo, hi):
            cell = at[key], bet_ix[row]
            (twice if cell in seen else seen).add(cell)
            back[cell], lay[cell] = backs[row], lays[row]
    for i, j in sorted(twice)[:1]:
        raise QuotesParseError(
            f"{path}: {names[j]} is quoted twice in the snapshot at {keys[i][0]:.15g}s"
        )
    ts, home, away = (np.array(c) for c in zip(*keys))
    clocks = clocks_of(ts, match_length_min)
    return match_ids.pop(), SnapshotColumns(names, ts, home, away, clocks, back, lay)


def _columns(snaps):
    """Every array of a parsed SnapshotColumns, by name."""
    names = ("timestamps", "home", "away", "clocks", "back", "lay")
    return {name: getattr(snaps, name) for name in names}


def _parse_or_error(parse, path, caplog):
    """(result or error text, logged warnings) of one parse."""
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="inplay.io"):
        try:
            out = parse(path)
        except QuotesParseError as exc:
            out = str(exc)
    return out, [r.getMessage() for r in caplog.records]


# One data fault: the cell it replaces, or a row cut short, and its value.
_FAULTS = [
    (1, "abc"), (1, "-30"), (1, "9000"), (1, "nan"), (3, "NOBODY"), (4, "x"), (5, "inf"),
    (0, "g2"), (6, "-1"), (7, "x"), ("cut", None),
]


@st.composite
def _quotes_files(draw):
    """(text, line end) of a quotes file: runs of rows that keep their
    second, move on, score a goal in the same second or come back to an
    earlier key, with every kind of odds cells, blank lines and at most one
    fault."""
    scores = draw(st.booleans())
    lines = [",".join(QUOTES_HEADER + SCORE_COLUMNS * scores)]
    ts, home, away, seen = 600, 0, 0, []
    odds = [o for cells in _ODDS.values() for o in cells]
    for _ in range(draw(st.integers(1, 10))):
        move = draw(st.sampled_from(["next second", "goal", "come back", "spelt with .0"]))
        if move == "come back" and seen:
            ts, home, away = draw(st.sampled_from(seen))
        elif move == "goal":
            home, away = draw(st.sampled_from([(home + 1, away), (home, away + 1)]))
        elif move != "spelt with .0" or not seen:
            ts += draw(st.integers(1, 2))
        seen.append((ts, home, away))
        ts_cell = f"{ts}.0" if move == "spelt with .0" else str(ts)
        # A run quotes distinct bets; a key that comes back may quote one again.
        for market, selection in draw(st.lists(st.sampled_from(_TOKENS), min_size=1,
                                               max_size=4, unique=True)):
            score = f",{home},{away}" if scores else ""
            lines.append(f"g1,{ts_cell},{market},{selection},{draw(st.sampled_from(odds))}{score}")
            if draw(st.integers(0, 9)) == 0:
                lines.append("")
    fault = draw(st.none() | st.sampled_from([f for f in _FAULTS if scores or f[0] not in (6, 7)]))
    if fault is not None:
        at = draw(st.sampled_from([i for i, line in enumerate(lines) if i and line]))
        cells = lines[at].split(",")
        if fault[0] == "cut":
            cells.pop()
        else:
            cells[fault[0]] = fault[1]
        lines[at] = ",".join(cells)
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from([end, ""])), end


class TestLineSplitter:
    # _parse_or_error clears caplog before each parse.
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=_quotes_files())
    def test_files_parse_as_the_csv_reader_parser(self, tmp_path_factory, caplog, case):
        text, _ = case
        f = tmp_path_factory.mktemp("q") / "q.csv"
        f.write_bytes(text.encode())
        want, want_log = _parse_or_error(_csv_reader_parse_quotes, f, caplog)
        got, got_log = _parse_or_error(io_module._parse_quotes, f, caplog)
        assert got_log == want_log
        if isinstance(want, str):
            assert got == want
            return
        (want_id, want_snaps), (got_id, got_snaps) = want, got
        assert (got_id, got_snaps.bets) == (want_id, want_snaps.bets)
        wanted = _columns(want_snaps)
        for name, column in _columns(got_snaps).items():
            assert column.dtype == wanted[name].dtype, name
            assert np.array_equal(column, wanted[name], equal_nan=True), name

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_any_block_size_gives_the_same_columns(self, tmp_path, monkeypatch, block, end):
        f = tmp_path / "q.csv"
        _random_quotes_file(f, 3, True)
        f.write_bytes(f.read_text().replace("\n", end).encode())
        want_id, want = io_module._parse_quotes(f)
        monkeypatch.setattr(io_module, "_BLOCK_CHARS", block)
        got_id, got = io_module._parse_quotes(f)
        assert (got_id, got.bets) == (want_id, want.bets)
        wanted = _columns(want)
        for name, column in _columns(got).items():
            assert np.array_equal(column, wanted[name], equal_nan=True), name
        # A quote deep in the file is named at its line whatever the block.
        lines = f.read_text().splitlines()
        lines[40] = lines[40].replace("g1", '"g1"')
        f.write_bytes(end.join(lines).encode())
        with pytest.raises(QuotesParseError, match=rf"^{f}:41: a quote or NUL"):
            io_module._parse_quotes(f)


class TestParseEvents:
    def test_events_and_case_insensitive_team(self, tmp_path):
        f = tmp_path / "e.csv"
        f.write_text(EVENTS_EXAMPLE)
        events = parse_events_csv(f)
        assert len(events) == 3
        assert events[1].team is Team.AWAY
        # final score from counts
        assert sum(1 for e in events if e.team is Team.HOME) == 2

    def test_unknown_event_token(self, tmp_path):
        f = tmp_path / "e.csv"
        f.write_text("match_id,timestamp_s,team,event\ng1,10,HOME,CORNER\n")
        with pytest.raises(ValueError, match="unknown event"):
            parse_events_csv(f)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("g1,abc,HOME,GOAL", r":3: bad timestamp 'abc'"),
            ("g1,inf,HOME,GOAL", r":3: bad timestamp 'inf'"),
            ("g1,nan,HOME,GOAL", r":3: bad timestamp 'nan'"),
            ("g1,-5,HOME,GOAL", r":3: goal at '-5' is outside the match \(0 to 5400 s\)"),
            ("g1,5401,HOME,GOAL", r":3: goal at '5401' is outside the match"),
            ("g1,6000,HOME,GOAL", r":3: goal at '6000' is outside the match"),
            ("g1,100,HOME", r":3: expected 4 cells, got 3"),
            ("g1,100,HOME,GOAL,x", r":3: expected 4 cells, got 5"),
        ],
    )
    def test_malformed_row_names_its_line(self, tmp_path, row, message):
        f = tmp_path / "e.csv"
        f.write_text(f"match_id,timestamp_s,team,event\ng1,10,HOME,GOAL\n{row}\n")
        with pytest.raises(ValueError, match=message):
            parse_events_csv(f)

    def test_non_monotone_timestamps(self, tmp_path):
        f = tmp_path / "e.csv"
        f.write_text(
            "match_id,timestamp_s,team,event\ng1,100,HOME,GOAL\ng1,50,AWAY,GOAL\n"
        )
        with pytest.raises(ValueError, match="must not decrease"):
            parse_events_csv(f)

    def test_second_match_id_names_its_line(self, tmp_path):
        f = tmp_path / "e.csv"
        f.write_text("match_id,timestamp_s,team,event\ng1,10,HOME,GOAL\ng2,20,AWAY,GOAL\n")
        with pytest.raises(ValueError, match=r"e\.csv:3: match id 'g2' after 'g1'"):
            parse_events_csv(f)

    def test_empty_file_is_an_error_but_a_bare_header_means_no_goals(self, tmp_path):
        f = tmp_path / "e.csv"
        f.write_text("")
        with pytest.raises(ValueError, match=f"{f}: empty file, no header"):
            parse_events_csv(f)
        f.write_text("match_id,timestamp_s,team,event\n")
        assert parse_events_csv(f) == []

    def test_match_length_sets_the_range(self, tmp_path):
        f = tmp_path / "e.csv"
        f.write_text("match_id,timestamp_s,team,event\ng1,0,HOME,GOAL\ng1,4800,AWAY,GOAL\n")
        assert [e.timestamp_s for e in parse_events_csv(f, 80.0)] == [0.0, 4800.0]
        with pytest.raises(ValueError, match=r":3: .*outside the match \(0 to 4200 s\)"):
            parse_events_csv(f, 70.0)


class TestBuildTimeline:
    def test_states_reconstructed_from_events(self, tmp_path):
        fq = tmp_path / "q.csv"
        fq.write_text(QUOTES_EXAMPLE)
        fe = tmp_path / "e.csv"
        fe.write_text(EVENTS_EXAMPLE)
        tl = build_timeline(parse_quotes_csv(fq), parse_events_csv(fe))
        assert tl.snapshots[0].state == ScoreState(1, 0, 600 / 5400)
        assert tl.ht_score() == (2, 1)

    def test_load_rejects_events_of_another_match(self, tmp_path):
        fq, fe = tmp_path / "q.csv", tmp_path / "e.csv"
        fq.write_text(QUOTES_EXAMPLE)
        fe.write_text(EVENTS_EXAMPLE.replace("g1,", "g2,"))
        with pytest.raises(ValueError, match=r"e\.csv: match id 'g2', but the quotes are 'g1'"):
            load_timeline(fq, fe)
        fe.write_text("match_id,timestamp_s,team,event\n")
        assert load_timeline(fq, fe).events == ()

    def test_score_mismatch_warned(self, caplog):
        snap_quotes = make_model_timeline(
            Intensities(1, 1), goals=[], step_s=5400.0, bets=[MATCH_ODDS_HOME]
        ).snapshots[0]
        wrong_state = ScoreState(3, 3, snap_quotes.state.clock)
        from inplay.calibration import QuoteSnapshot

        bad = QuoteSnapshot(snap_quotes.timestamp_s, wrong_state, snap_quotes.quotes)
        with caplog.at_level(logging.WARNING, logger="inplay.io"):
            tl = build_timeline([bad], [])
        assert "disagrees" in caplog.text
        assert tl.snapshots[0].state.home_goals == 0

    def test_replaced_score_is_sorted_among_its_second(self, same_second_goals, caplog):
        # The 0-1 group is not on the HOME-then-AWAY path, becomes 1-1 and
        # must then follow the 1-0 group.
        with caplog.at_level(logging.WARNING, logger="inplay.io"):
            tl = load_timeline(*same_second_goals)
        assert "score column (0, 1) disagrees with events (1, 1)" in caplog.text
        scores = [(s.state.home_goals, s.state.away_goals) for s in tl.snapshots]
        assert scores == [(0, 0), (1, 0), (1, 1)]
        assert [round(s.quotes[0].back_decimal, 2) for s in tl.snapshots] == [2.5, 1.5, 2.0]

    @staticmethod
    def _rebuilt(snapshots, events, match_length_min=90.0):
        """(timestamp, state, quotes) per snapshot with every state made anew
        and the whole list sorted, the reference for build_timeline."""
        path = score_path(events)
        stamps = [s.timestamp_s for s in snapshots]
        rows = []
        for snap, lo, hi in zip(snapshots, *goal_counts(events, stamps)):
            st = snap.state
            score = None if st is None else (st.home_goals, st.away_goals)
            score = score if score in path[lo : hi + 1] else path[hi]
            clock = float(clocks_of(snap.timestamp_s, match_length_min))
            rows.append((snap.timestamp_s, ScoreState(*score, clock), snap.quotes))
        return sorted(rows, key=lambda r: (r[0], r[1].home_goals + r[1].away_goals))

    @staticmethod
    def _files(tmp_path, scores=True):
        tl = make_model_timeline(
            Intensities(1.3, 0.7), goals=[(1200.0, Team.AWAY), (1200.0, Team.HOME)],
            step_s=300.0, bets=[MATCH_ODDS_HOME, NEXT_GOAL_HOME],
        )
        quotes, events = tmp_path / "q.csv", tmp_path / "e.csv"
        write_quotes_csv(tl, quotes)
        write_events_csv(list(tl.events), events, match_id=tl.match_id)
        if not scores:
            # Without scores a second is one snapshot, so the goals' second
            # keeps its last (post-goal) row of each bet.
            rows = {tuple(line.split(",")[1:4]): line for line in quotes.read_text().splitlines()}
            quotes.write_text("".join(",".join(row.split(",")[:6]) + "\n" for row in rows.values()))
        return quotes, events

    @pytest.mark.parametrize("source", ["scores", "no scores", "same second"])
    def test_same_timeline_as_rebuilding_every_snapshot(
        self, tmp_path, same_second_goals, source
    ):
        if source == "same second":
            quotes, events = same_second_goals
        else:
            quotes, events = self._files(tmp_path, scores=source == "scores")
        parsed, goals = parse_quotes_csv(quotes), parse_events_csv(events)
        for length in (90.0, 100.0):
            tl = build_timeline(parsed, goals, match_length_min=length)
            got = [(s.timestamp_s, s.state, s.quotes) for s in tl.snapshots]
            assert got == self._rebuilt(parsed, goals, length)

    def test_allowed_scores_come_back_as_the_parsed_snapshots(self, tmp_path):
        quotes, events = self._files(tmp_path)
        parsed, goals = parse_quotes_csv(quotes), parse_events_csv(events)
        built = build_timeline(parsed, goals).snapshots
        assert [(s.timestamp_s, s.state) for s in built] == [(s.timestamp_s, s.state) for s in parsed]
        # The view shares the parsed grid, derived columns included.
        assert built.bets is parsed.bets
        for name in ("back", "lay", "buy", "sell", "two_sided", "mid", "spread"):
            assert np.shares_memory(getattr(built, name), getattr(parsed, name)), name
            assert np.array_equal(getattr(built, name), getattr(parsed, name), equal_nan=True)
        # Another match length restamps every clock but kickoff's.
        longer = build_timeline(parsed, goals, match_length_min=100.0).snapshots
        assert [a.state == b.state for a, b in zip(longer, parsed)] == [
            s.timestamp_s == 0.0 for s in parsed
        ]

    def test_replaced_score_leaves_the_other_snapshots_as_parsed(
        self, same_second_goals, caplog
    ):
        quotes, events = same_second_goals
        parsed = parse_quotes_csv(quotes)  # 0-0, 0-1, 1-0
        with caplog.at_level(logging.WARNING, logger="inplay.io"):
            tl = build_timeline(parsed, parse_events_csv(events))
        assert "score column (0, 1) disagrees with events (1, 1)" in caplog.text
        first, second, replaced = tl.snapshots
        assert first == parsed[0] and second == parsed[2]
        view = tl.snapshots
        assert view.bets is parsed.bets
        for name in ("back", "lay", "mid"):
            assert np.array_equal(getattr(view, name)[2], getattr(parsed, name)[1], equal_nan=True)
        assert replaced.state == ScoreState(1, 1, 600 / 5400)

    @staticmethod
    def _joined_files(tmp_path, post_goal_bets):
        """Quotes at 600 s under 0-0 and, for ``post_goal_bets`` (market,
        selection cells), under 1-0, with the only goal at 610 s: the 1-0
        rows become 0-0."""
        header = ",".join(QUOTES_HEADER + SCORE_COLUMNS)
        rows = [f"m,600,NEXT_GOAL,{s},2.0,1.9,0,0" for s in ("HOME", "AWAY")]
        rows += [f"m,600,{bet},2.5,2.4,1,0" for bet in post_goal_bets]
        rows += ["m,700,MATCH_ODDS,HOME,1.6,1.55,1,0"]
        quotes, events = tmp_path / "q.csv", tmp_path / "e.csv"
        quotes.write_text("\n".join([header, *rows]) + "\n")
        events.write_text("match_id,timestamp_s,team,event\nm,610,HOME,GOAL\n")
        return quotes, events

    def test_joined_snapshots_quoting_one_bet_twice_name_the_file(self, tmp_path, caplog):
        quotes, events = self._joined_files(tmp_path, ["MATCH_ODDS,HOME", "NEXT_GOAL,AWAY"])
        with caplog.at_level(logging.WARNING, logger="inplay.io"):
            with pytest.raises(
                QuotesParseError, match=f"^{re.escape(str(quotes))}: "
                "NEXT_GOAL_AWAY is quoted twice in the snapshot at 600s$"
            ):
                load_timeline(quotes, events)
        assert "score column (1, 0) disagrees with events (0, 0)" in caplog.text

    def test_joined_snapshots_quoting_disjoint_bets_read_as_one(self, tmp_path):
        quotes, events = self._joined_files(tmp_path, ["MATCH_ODDS,HOME", "MATCH_ODDS,DRAW"])
        tl = load_timeline(quotes, events)
        carried = tmp_path / "carried.csv"  # the reconstructed score in the file
        carried.write_text(quotes.read_text().replace(",2.5,2.4,1,0", ",2.5,2.4,0,0"))
        want = load_timeline(carried, events).snapshots
        assert list(tl.snapshots) == list(want) and len(want) == 2
        assert tl.snapshots[0].state == ScoreState(0, 0, 600 / 5400)
        assert len(tl.snapshots[0].quotes) == 4
        report = replay_hedge(
            tl, MATCH_ODDS_HOME, (NEXT_GOAL_HOME, NEXT_GOAL_AWAY), Intensities(1.3, 0.7)
        )
        assert [s.timestamp_s for s in report.steps] == [600.0, 700.0]

    def test_pre_and_post_goal_snapshots_interleave_with_events(self):
        lam = Intensities(1.1, 0.9)
        tl = make_model_timeline(
            lam, goals=[(600.0, Team.HOME)], step_s=600.0, bets=[MATCH_ODDS_HOME]
        )
        seen = [s.state.home_goals + s.state.away_goals for s in tl.snapshots]
        sequence = []
        for goals, run in replay_runs(seen, len(tl.events)):
            sequence += [("goal", ev.timestamp_s) for ev in tl.events[goals]]
            sequence += [("snapshot", s.timestamp_s) for s in tl.snapshots[run]]
        # pre snapshot at 600, then the goal, then the post snapshot at 600
        i = sequence.index(("goal", 600.0))
        assert sequence[i - 1] == ("snapshot", 600.0)
        assert sequence[i + 1] == ("snapshot", 600.0)

    def test_same_second_snapshots_follow_their_score_not_the_row_order(self, tmp_path):
        bets = [MATCH_ODDS_HOME, NEXT_GOAL_HOME, NEXT_GOAL_AWAY]
        tl = make_model_timeline(
            Intensities(1.3, 0.7), goals=[(600.0, Team.HOME)], step_s=300.0, bets=bets
        )
        fq, fe = tmp_path / "q.csv", tmp_path / "e.csv"
        write_quotes_csv(tl, fq)
        write_events_csv(list(tl.events), fe, match_id=tl.match_id)
        header, *rows = fq.read_text().splitlines()
        pre = [r for r in rows if r.startswith("synthetic,600,") and r.endswith(",0,0")]
        post = [r for r in rows if r.startswith("synthetic,600,") and r.endswith(",1,0")]
        assert len(pre) == len(post) == len(bets)
        swapped = tmp_path / "swapped.csv"
        at = rows.index(pre[0])
        rows[at : at + 2 * len(bets)] = post + pre
        swapped.write_text("\n".join([header, *rows]) + "\n")
        reports = []
        for quotes in (fq, swapped):
            tl = load_timeline(quotes, fe)
            report = replay_hedge(tl, MATCH_ODDS_HOME, tuple(bets[1:]), Intensities(1.3, 0.7))
            out = tmp_path / quotes.stem
            write_hedge_report(report, out)
            names = ("steps.csv", "goals.csv", "summary.json")
            reports.append([(out / name).read_bytes() for name in names])
        assert swapped.read_bytes() != fq.read_bytes()
        assert reports[0] == reports[1]


class TestRoundTrips:
    def test_quotes_round_trip_byte_identical(self, tmp_path):
        lam = Intensities(1.3, 0.7)
        tl = make_model_timeline(
            lam,
            goals=[(1200.0, Team.AWAY)],
            step_s=600.0,
            bets=[MATCH_ODDS_HOME, Bet.under(2.5), Bet.correct_score(1, 1), ODD_TOTAL, EVEN_TOTAL],
        )
        f1 = tmp_path / "a.csv"
        fe = tmp_path / "e.csv"
        write_quotes_csv(tl, f1)
        write_events_csv(list(tl.events), fe, match_id=tl.match_id)
        assert ",TOTAL_PARITY,ODD," in f1.read_text() and ",TOTAL_PARITY,EVEN," in f1.read_text()
        tl2 = load_timeline(f1, fe)
        assert tl2.match_id == tl.match_id
        for a, b in zip(tl.snapshots, tl2.snapshots, strict=True):
            assert [q.bet for q in a.quotes] == [q.bet for q in b.quotes]
        f2 = tmp_path / "b.csv"
        write_quotes_csv(tl2, f2)
        assert f1.read_bytes() == f2.read_bytes()

    def test_events_round_trip(self, tmp_path):
        events = [GoalEvent(540.0, Team.HOME), GoalEvent(1675.0, Team.AWAY)]
        f1 = tmp_path / "e.csv"
        write_events_csv(events, f1, match_id="g1")
        parsed = parse_events_csv(f1)
        assert parsed == events
        f2 = tmp_path / "e2.csv"
        write_events_csv(parsed, f2, match_id="g1")
        assert f1.read_bytes() == f2.read_bytes()

    @pytest.mark.parametrize("match_id", ["g,1", 'g"1', "g\x001", "g\r1", "g\n1"])
    def test_a_match_id_the_readers_cannot_read_back_is_not_written(self, tmp_path, match_id):
        tl = make_model_timeline(Intensities(1.3, 0.7), goals=[], step_s=600.0)
        tl = dataclasses.replace(tl, match_id=match_id)
        quotes, events = tmp_path / "q.csv", tmp_path / "e.csv"
        with pytest.raises(ValueError, match="holds a comma, quote, NUL or line break"):
            write_quotes_csv(tl, quotes)
        with pytest.raises(ValueError, match="holds a comma, quote, NUL or line break"):
            write_events_csv([GoalEvent(540.0, Team.HOME)], events, match_id)
        assert not quotes.exists() and not events.exists()

    def test_events_golden_bytes(self, tmp_path):
        f = tmp_path / "e.csv"
        write_events_csv([GoalEvent(540.0, Team.HOME)], f, match_id="g1")
        assert f.read_text() == "match_id,timestamp_s,team,event\ng1,540,HOME,GOAL\n"

    def test_series_round_trip_with_gaps(self, tmp_path):
        points = (
            SeriesPoint(0.0, CalibrationResult(Intensities(1.3, 0.7), 0.25, 0.01, 0.02, 31, True)),
            SeriesPoint(60.0, None),
            SeriesPoint(120.0, CalibrationResult(Intensities(1.5, 0.6), 1.5, 0.03, 0.04, 40, False)),
        )
        series = IntensitySeries(points)
        f1 = tmp_path / "s.csv"
        write_intensity_series_csv(series, f1)
        back = parse_intensity_series_csv(f1)
        assert back.points[1].result is None
        assert back.points[0].result.intensities == Intensities(1.3, 0.7)
        assert back.points[2].result.converged is False
        f2 = tmp_path / "s2.csv"
        write_intensity_series_csv(back, f2)
        assert f1.read_bytes() == f2.read_bytes()

    def test_series_round_trip_keeps_a_singular_fits_infinite_stderr(self, tmp_path):
        fit = CalibrationResult(Intensities(1.3, 0.7), 0.25, math.inf, math.inf, 31, False)
        f1 = tmp_path / "s.csv"
        write_intensity_series_csv(IntensitySeries((SeriesPoint(0.0, fit),)), f1)
        assert f1.read_text().splitlines()[1] == "0,1.3,0.7,0.25,inf,inf,false"
        back = parse_intensity_series_csv(f1)
        assert (back.points[0].result.stderr_home, back.points[0].result.stderr_away) == (
            math.inf, math.inf,
        )
        f2 = tmp_path / "s2.csv"
        write_intensity_series_csv(back, f2)
        assert f1.read_bytes() == f2.read_bytes()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty file"),
            (SERIES_LINE + "0,1.3,0.7,0.25,0.01,0.02\n", r":2: expected 7 cells, got 6"),
            (SERIES_LINE + "0,1.3,0.7,0.25,0.01,0.02,true\n60,1.3,x,0,0,0,true\n", r":3: .*'x'"),
            (SERIES_LINE + "\nzero,,,,,,\n", r":3: .*'zero'"),
            (SERIES_LINE + "0,nan,0.7,0.25,0.01,0.02,true\n", r":2: home intensity must be finite"),
            (SERIES_LINE + "nan,1.3,0.7,0.25,0.01,0.02,true\n", r":2: bad timestamp 'nan'"),
            (SERIES_LINE + "0,,,,,,\ninf,,,,,,\n", r":3: bad timestamp 'inf'"),
            (SERIES_LINE + "-inf,1.3,0.7,0.25,0.01,0.02,false\n", r":2: bad timestamp '-inf'"),
            (SERIES_LINE + "0,1.3,0.7,0.25,0.01,0.02,yes\n", r":2: converged must be .*'yes'"),
            (SERIES_LINE + "0,1.3,0.7,0.25,0.01,0.02,TRUE\n", r":2: converged must be .*'TRUE'"),
            (SERIES_LINE + "0,1.3,0.7,0.25,0.01,0.02,\n", r":2: converged must be .*''"),
            (SERIES_LINE + "0,,junk,x,,,maybe\n", r":2: a gap row must leave every cell"),
            (SERIES_LINE + "0,,,,,,false\n", r":2: a gap row must leave every cell"),
            (SERIES_LINE + "0,,,,,0.02,\n", r":2: a gap row must leave every cell"),
            (SERIES_LINE + "0,1.3,0.7,nan,0.01,0.02,true\n", r":2: residual must be nonneg.* got nan"),
            (SERIES_LINE + "0,1.3,0.7,-5,0.01,0.02,true\n", r":2: residual .* got -5.0$"),
            (SERIES_LINE + "0,1.3,0.7,-inf,0.01,0.02,true\n", r":2: residual .* got -inf$"),
            (SERIES_LINE + "0,1.3,0.7,0.25,nan,0.02,true\n", r":2: stderr_home .* got nan"),
            (SERIES_LINE + "0,1.3,0.7,0.25,0.01,NaN,true\n", r":2: stderr_away .* got nan"),
            (SERIES_LINE + "0,1.3,0.7,0.25,-0.01,0.02,true\n", r":2: stderr_home .* got -0.01"),
            (SERIES_LINE + "0,1.3,0.7,0.25,0.01,-inf,true\n", r":2: stderr_away must be nonneg"),
            (SERIES_LINE + "60,,,,,,\n0,,,,,,\n", r":3: timestamps must strictly increase"),
            (SERIES_LINE + "0,,,,,,\n60,,,,,,\n\n60,,,,,,\n", r":5: timestamps must strictly"),
        ],
    )
    def test_malformed_series_names_its_line(self, tmp_path, text, message):
        f = tmp_path / "s.csv"
        f.write_text(text)
        with pytest.raises(ValueError, match=message):
            parse_intensity_series_csv(f)

    def test_series_golden_bytes(self, tmp_path):
        series = IntensitySeries(
            (SeriesPoint(0.0, CalibrationResult(Intensities(1.3, 0.7), 0.25, 0.01, 0.02, 31, True)),)
        )
        f = tmp_path / "s.csv"
        write_intensity_series_csv(series, f)
        assert f.read_text() == (
            "timestamp_s,lambda_home,lambda_away,residual,stderr_home,stderr_away,converged\n"
            "0,1.3,0.7,0.25,0.01,0.02,true\n"
        )

    def test_float_formatting_is_nine_significant_digits(self):
        assert fmt_float(0.39370078740157477) == "0.393700787"
        assert fmt_float(2.5) == "2.5"
        assert fmt_float(1.0 / 3.0) == "0.333333333"

    def test_terminal_scores_csv(self, tmp_path):
        f = tmp_path / "t.csv"
        # Rows are numbered across batches.
        batches = [(np.array([2, 1]), np.array([1, 3])), (np.array([0]), np.array([0]))]
        write_terminal_scores_csv(batches, f)
        assert f.read_text() == "path,home_goals,away_goals\n0,2,1\n1,1,3\n2,0,0\n"

    def test_hedge_report_files(self, tmp_path):
        from inplay.contracts import NEXT_GOAL_AWAY, NEXT_GOAL_HOME
        from inplay.hedging import replay_hedge

        lam = Intensities(1.2, 0.8)
        tl = make_model_timeline(
            lam,
            goals=[(1200.0, Team.AWAY), (3000.0, Team.HOME)],
            step_s=300.0,
            bets=[MATCH_ODDS_HOME, NEXT_GOAL_HOME, NEXT_GOAL_AWAY],
        )
        rep = replay_hedge(tl, MATCH_ODDS_HOME, (NEXT_GOAL_HOME, NEXT_GOAL_AWAY), lam)
        summary = write_hedge_report(rep, tmp_path / "out")
        assert (tmp_path / "out" / "steps.csv").exists()
        assert (tmp_path / "out" / "goals.csv").exists()
        assert (tmp_path / "out" / "summary.json").exists()
        assert summary["goals"] == 2
        assert summary["jump_correlation"] == pytest.approx(1.0, abs=1e-9)

    def test_hedge_report_rows_match_the_csv_writer(self, tmp_path):
        stamps = [0.0, 1234.5, 5400.0, 0.25, 1e-7, 2700.0, 999.999999999, 3.0, 60.0]
        self._rows_match_the_csv_writer(tmp_path, stamps)

    def test_integral_stamps_print_as_the_csv_writer_does(self, tmp_path):
        # Every stamp integral, as on a replay of whole seconds: one format
        # pass prints them, as ints where they are ints.
        stamps = [0.0, 1234.0, 5400.0, -0.0, 1e15, 2700.0, 7, 3.0, 60.0]
        self._rows_match_the_csv_writer(tmp_path, stamps)

    @staticmethod
    def _rows_match_the_csv_writer(tmp_path, stamps):
        floats = [math.inf, -math.inf, math.nan, -0.0, 0.0, 1e-300, 1.5e12, 0.1 + 0.2, -2.5]
        flags = ["", "stale", "singular", "no intensity", "target settled"]
        steps = tuple(
            HedgeStep(t, t / 5400.0, *(floats[i:] + floats[:i])[:7], flags[i % len(flags)])
            for i, t in enumerate(stamps)
        )
        goals = tuple(
            GoalRecord(t, team, *(floats[i:] + floats[:i])[:4])
            for i, (t, team) in enumerate(zip(stamps, [Team.HOME, Team.AWAY] * 5))
        )
        columns = HedgeSteps(*zip(*map(dataclasses.astuple, steps)))
        report = HedgeReport(MATCH_ODDS_HOME, (NEXT_GOAL_HOME, NEXT_GOAL_AWAY), columns, goals,
                             0.0, None)
        write_hedge_report(report, tmp_path / "out")

        def ts(t):
            return str(int(t)) if float(t).is_integer() else fmt_float(t)

        def reference(name, header, rows):
            with open(tmp_path / name, "w", encoding="utf-8", newline="") as fh:
                w = csv.writer(fh, lineterminator="\n")
                w.writerow(header.split(","))
                w.writerows(rows)
            return (tmp_path / name).read_bytes()

        want_steps = reference(
            "steps.csv",
            "timestamp_s,target_value,portfolio_value,psi_1,psi_2,cash,z_1,z_2,flag",
            [
                [ts(s.timestamp_s)]
                + [fmt_float(x) for x in dataclasses.astuple(s)[2:9]]
                + [s.flag]
                for s in steps
            ],
        )
        want_goals = reference(
            "goals.csv",
            "timestamp_s,team,target_pre,target_post,portfolio_pre,portfolio_post",
            [
                [ts(g.timestamp_s), g.team.value]
                + [fmt_float(x) for x in (g.target_pre, g.target_post, g.portfolio_pre,
                                          g.portfolio_post)]
                for g in goals
            ],
        )
        assert (tmp_path / "out" / "steps.csv").read_bytes() == want_steps
        assert (tmp_path / "out" / "goals.csv").read_bytes() == want_goals
        assert b"nan" in want_steps and b"-inf" in want_steps and b",-0," in want_steps

        # The other four writers, on cells from the same stamps and floats.
        bets = [MATCH_ODDS_HOME, Bet.over(2.5), Bet.correct_score(1, 0), ODD_TOTAL,
                Bet.winning_margin(-2), Bet.ht_ft(Outcome.DRAW, Outcome.HOME), NEXT_GOAL_AWAY]
        odds = [None if math.isnan(x) else x for x in floats]  # an absent side is NaN
        order = sorted(set(stamps))
        snaps = tuple(
            QuoteSnapshot(t, ScoreState(0, 0, float(clocks_of(t, 90.0))), tuple(
                Quote(bets[(k + j) % len(bets)], odds[(k + j) % 9], odds[(k + 2 * j) % 9])
                for j in range(k % 4)
            ))
            for k, t in enumerate(order)
        )
        events = [GoalEvent(t, team) for t, team in zip(order, [Team.AWAY, Team.HOME] * 5)]
        tl = MatchTimeline("g-1", (), snaps)
        write_quotes_csv(tl, tmp_path / "out" / "quotes.csv")
        write_events_csv(events, tmp_path / "out" / "events.csv", "g-1")
        fits = [
            None if k % 3 == 1 else CalibrationResult(
                Intensities((0.1 + 0.2) * k, 1e-300), *(floats[k:] + floats[:k])[:3],
                iterations=k, converged=k % 2 == 0,
            )
            for k in range(len(order))
        ]
        write_intensity_series_csv(
            IntensitySeries(tuple(map(SeriesPoint, order, fits))), tmp_path / "out" / "series.csv"
        )
        scores = [(np.array([2, 0, 11]), np.array([1, 3, 0])), (np.array([7]), np.array([9]))]
        write_terminal_scores_csv(scores, tmp_path / "out" / "scores.csv")

        def cell(x):
            return "" if x is None else fmt_float(x)

        # A quote is written if it has a decimal; in a snapshot, by the first
        # snapshot writing its bet, then by its bet's first appearance.
        def has_decimal(q):
            return q.back_decimal is not None or q.lay_decimal is not None

        column = list(dict.fromkeys(q.bet for s in snaps for q in s.quotes))
        first: dict = {}
        for k, s in enumerate(snaps):
            for q in filter(has_decimal, s.quotes):
                first.setdefault(q.bet, k)

        want = {
            "quotes.csv": reference(
                "quotes.csv", ",".join(QUOTES_HEADER + SCORE_COLUMNS),
                [
                    ["g-1", ts(s.timestamp_s), *io_module._market_selection(q.bet),
                     cell(q.back_decimal), cell(q.lay_decimal), s.state.home_goals,
                     s.state.away_goals]
                    for s in snaps
                    for q in sorted(filter(has_decimal, s.quotes),
                                    key=lambda q: (first[q.bet], column.index(q.bet)))
                ],
            ),
            "events.csv": reference(
                "events.csv", ",".join(EVENTS_HEADER),
                [["g-1", ts(e.timestamp_s), e.team.value, "GOAL"] for e in events],
            ),
            "series.csv": reference(
                "series.csv", ",".join(SERIES_HEADER),
                [
                    [ts(t)] + ([""] * 6 if r is None else [
                        *map(fmt_float, (r.intensities.home, r.intensities.away, r.residual,
                                         r.stderr_home, r.stderr_away)),
                        "true" if r.converged else "false",
                    ])
                    for t, r in zip(order, fits)
                ],
            ),
            "scores.csv": reference(
                "scores.csv", "path,home_goals,away_goals",
                [(0, 2, 1), (1, 0, 3), (2, 11, 0), (3, 7, 9)],
            ),
        }
        for name, data in want.items():
            assert (tmp_path / "out" / name).read_bytes() == data, name
        assert b",," in want["quotes.csv"] and b",,,,,," in want["series.csv"]


def _decimal_as_written(x):
    return None if x is None else float(fmt_float(x))


class TestQuoteColumns:
    """A loaded timeline's columns against the Quote route on the same rows."""

    BETS = [MATCH_ODDS_HOME, Bet.under(2.5), NEXT_GOAL_HOME, NEXT_GOAL_AWAY]

    @pytest.fixture()
    def source(self):
        """A model timeline with a pre/post-goal pair at 600 s, a one-sided
        quote and a sub-unit row."""
        tl = make_model_timeline(
            Intensities(1.3, 0.7), goals=[(600.0, Team.HOME)], step_s=300.0, bets=self.BETS,
            end_s=1200.0,
        )
        snaps = list(tl.snapshots)
        one_sided = Quote.from_decimals(MATCH_ODDS_DRAW, 3.1, None)
        sub_unit = Quote(MATCH_ODDS_AWAY, back_decimal=0.9, lay_decimal=1.2)
        snaps[1] = QuoteSnapshot(
            snaps[1].timestamp_s, snaps[1].state, (one_sided, *snaps[1].quotes, sub_unit)
        )
        return dataclasses.replace(tl, snapshots=tuple(snaps)), sub_unit

    @staticmethod
    def _assert_rows_match(view, i, expected):
        """Each cell of a loaded view's snapshot ``i`` equals the Quote route
        on the written decimals, and its other cells are empty."""
        expected = sorted(expected, key=lambda q: view.bets.index(q.bet))
        quotes = view[i].quotes
        assert len(quotes) == len(expected)
        for got, src in zip(quotes, expected):
            want = Quote.from_decimals(
                src.bet, _decimal_as_written(src.back_decimal), _decimal_as_written(src.lay_decimal)
            )
            assert got == want
            j = view.bets.index(want.bet)
            assert bool(view.two_sided[i, j]) == want.two_sided
            for col, value in (
                (view.buy, want.value_buy),
                (view.sell, want.value_sell),
                (view.mid, want.value_mid),
                (view.spread, want.spread),
            ):
                assert (np.isnan(col[i, j]) and value is None) or col[i, j] == value
            if src.value_buy is not None and src.value_sell is not None:
                assert got.value_mid == pytest.approx(src.value_mid, rel=1e-8)

    def test_round_trip_matches_the_quote_route(self, source, tmp_path, caplog):
        tl, sub_unit = source
        quotes, events = tmp_path / "q.csv", tmp_path / "e.csv"
        write_quotes_csv(tl, quotes)
        write_events_csv(list(tl.events), events, match_id=tl.match_id)
        with caplog.at_level(logging.WARNING, logger="inplay.io"):
            loaded = load_timeline(quotes, events)
        assert "decimal odds below 1, row rejected" in caplog.text
        assert [s.timestamp_s for s in loaded.snapshots] == [s.timestamp_s for s in tl.snapshots]
        assert loaded.snapshots[2].timestamp_s == loaded.snapshots[3].timestamp_s == 600.0
        view = loaded.snapshots
        for i, (got, src) in enumerate(zip(view, tl.snapshots)):
            assert got.state == src.state
            self._assert_rows_match(view, i, [q for q in src.quotes if q != sub_unit])
        written = len(quotes.read_text().splitlines()) - 1
        assert (~(np.isnan(view.back) & np.isnan(view.lay))).sum() == written - 1

    def test_a_bet_quoted_twice_in_a_snapshot_is_an_error(self, source, tmp_path):
        tl, _ = source
        snaps = list(tl.snapshots)
        twice = Quote.from_decimals(MATCH_ODDS_HOME, 2.0, 2.1)
        snaps[1] = QuoteSnapshot(snaps[1].timestamp_s, snaps[1].state, (*snaps[1].quotes, twice))
        with pytest.raises(
            ValueError, match="^MATCH_ODDS_HOME is quoted twice in the snapshot at 300s$"
        ):
            dataclasses.replace(tl, snapshots=tuple(snaps))
        # In a file: a second row with the same second, score and bet.
        quotes, events = tmp_path / "q.csv", tmp_path / "e.csv"
        write_quotes_csv(tl, quotes)
        write_events_csv(list(tl.events), events, match_id=tl.match_id)
        lines = quotes.read_text().splitlines()
        row = next(line for line in lines if line.startswith("synthetic,300,MATCH_ODDS,HOME,"))
        quotes.write_text("\n".join([*lines, row]) + "\n")
        want = "MATCH_ODDS_HOME is quoted twice in the snapshot at 300s"
        with pytest.raises(QuotesParseError, match=f"^{re.escape(str(quotes))}: {want}$"):
            load_timeline(quotes, events)

    def test_file_without_score_columns(self, source, tmp_path):
        tl, sub_unit = source
        quotes, events = tmp_path / "q.csv", tmp_path / "e.csv"
        write_quotes_csv(tl, quotes)
        lines = quotes.read_text().splitlines()
        quotes.write_text("".join(",".join(line.split(",")[:6]) + "\n" for line in lines))
        write_events_csv(list(tl.events), events, match_id=tl.match_id)
        # Without scores the pre- and post-goal rows at 600 s are one
        # snapshot's, which then quotes each bet twice.
        want = "MATCH_ODDS_HOME is quoted twice in the snapshot at 600s"
        with pytest.raises(QuotesParseError, match=f"^{re.escape(str(quotes))}: {want}$"):
            load_timeline(quotes, events)
        # Without the pre-goal rows, 600 s is one snapshot in the post-goal state.
        kept = [s for s in lines if not (s.startswith("synthetic,600,") and s.endswith(",0,0"))]
        quotes.write_text("".join(",".join(line.split(",")[:6]) + "\n" for line in kept))
        loaded = load_timeline(quotes, events)
        groups: dict[float, list] = {}
        for snap in tl.snapshots:
            groups[snap.timestamp_s] = [snap]  # the last snapshot of each second
        assert [s.timestamp_s for s in loaded.snapshots] == list(groups)
        for i, (got, group) in enumerate(zip(loaded.snapshots, groups.values())):
            assert got.state == group[-1].state
            expected = [q for s in group for q in s.quotes if q != sub_unit]
            self._assert_rows_match(loaded.snapshots, i, expected)

    def test_timeline_from_objects_has_the_columns_of_its_csv(self, tmp_path):
        # Decimals at the written 9 digits, so the file holds them exactly.
        tl = make_model_timeline(
            Intensities(1.3, 0.7), goals=[(600.0, Team.HOME), (600.0, Team.AWAY)],
            step_s=300.0, bets=self.BETS + [Bet.ht_ft(Outcome.HOME, Outcome.DRAW)], end_s=3000.0,
        )
        snaps = tuple(
            QuoteSnapshot(s.timestamp_s, s.state, tuple(
                Quote.from_decimals(
                    q.bet, _decimal_as_written(q.back_decimal), _decimal_as_written(q.lay_decimal)
                )
                for q in s.quotes
            ))
            for s in tl.snapshots
        )
        rebuilt = dataclasses.replace(tl, snapshots=snaps)
        built = rebuilt.snapshots
        assert isinstance(built, SnapshotColumns)
        quotes, events = tmp_path / "q.csv", tmp_path / "e.csv"
        write_quotes_csv(rebuilt, quotes)
        write_events_csv(list(tl.events), events, match_id=tl.match_id)
        loaded = load_timeline(quotes, events).snapshots
        for name in ("timestamps", "home", "away", "clocks"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(built, name), name)
        assert loaded.bets == built.bets
        for name in ("back", "lay", "buy", "sell", "mid", "spread", "two_sided", "european"):
            got, want = getattr(loaded, name), getattr(built, name)
            np.testing.assert_array_equal(got, want, name)
        assert np.isnan(built.lay).any()  # a one-sided quote

    def test_load_and_replay_build_no_quote(self, tmp_path, monkeypatch):
        from inplay.hedging import replay_hedge

        lam = Intensities(1.3, 0.7)
        tl = make_model_timeline(
            lam, goals=[(300.0, Team.AWAY)], step_s=1.0, end_s=600.0,
            bets=[MATCH_ODDS_HOME, NEXT_GOAL_HOME, NEXT_GOAL_AWAY],
        )
        quotes, events = tmp_path / "q.csv", tmp_path / "e.csv"
        write_quotes_csv(tl, quotes)
        write_events_csv(list(tl.events), events, match_id=tl.match_id)
        built = []
        real_init = Quote.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(Quote, "__init__", counting_init)
        loaded = load_timeline(quotes, events)
        rep = replay_hedge(loaded, MATCH_ODDS_HOME, (NEXT_GOAL_HOME, NEXT_GOAL_AWAY), lam)
        view = loaded.snapshots
        assert (~(np.isnan(view.back) & np.isnan(view.lay))).sum(axis=1).tolist() == [3] * len(
            tl.snapshots
        )
        assert built == []
        assert len(rep.steps) == len(tl.snapshots) and not any(s.flag for s in rep.steps)
        assert view[0].quotes[-1].bet == NEXT_GOAL_AWAY
        assert len(built) == 3


_SPARSE_BETS = [
    MATCH_ODDS_HOME, MATCH_ODDS_DRAW, Bet.under(2.5), Bet.correct_score(1, 0), ODD_TOTAL,
    NEXT_GOAL_HOME, NEXT_GOAL_AWAY, Bet.ht_ft(Outcome.HOME, Outcome.DRAW),
    Bet.ht_ft(Outcome.DRAW, Outcome.AWAY),
]
_DECIMALS = st.floats(1.0, 200.0)


@st.composite
def _sparse_quote(draw, bet):
    """One quote of ``bet``: two-sided or one-sided decimals, or values
    centred on a mid near 0 or 1, where a side's value leaves (0, 1] and has
    no decimal (a buy value above 1, say)."""
    kind = draw(st.sampled_from(["two-sided", "back only", "lay only", "values"]))
    if kind == "values":
        mid = draw(st.floats(-0.05, 0.05) | st.floats(0.9, 1.2))
        return Quote.from_values(bet, mid, draw(st.floats(0.001, 0.2)))
    back = draw(_DECIMALS) if kind != "lay only" else None
    return Quote.from_decimals(bet, back, draw(_DECIMALS) if kind != "back only" else None)


@st.composite
def _sparse_timelines(draw):
    """A model timeline's snapshots, goal seconds' pairs included, each
    quoting some bets of a board in any order."""
    goals = draw(st.lists(
        st.tuples(st.integers(1, 8).map(lambda k: 600.0 * k), st.sampled_from(Team)), max_size=3
    ))
    tl = make_model_timeline(Intensities(1.3, 0.7), goals, step_s=1200.0, bets=[MATCH_ODDS_HOME])
    snaps = []
    for s in tl.snapshots:
        bets = draw(st.lists(st.sampled_from(_SPARSE_BETS), min_size=1, unique=True))
        quotes = tuple(draw(_sparse_quote(b)) for b in bets)
        snaps.append(QuoteSnapshot(s.timestamp_s, s.state, quotes))
    return dataclasses.replace(tl, snapshots=tuple(snaps)), snaps


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_sparse_timelines())
def test_sparse_boards_round_trip(tmp_path_factory, case):
    tl, snaps = case
    view = SnapshotColumns.of(snaps)
    for i, s in enumerate(snaps):
        assert set(view[i].quotes) == set(s.quotes)
        assert [q.bet for q in view[i].quotes] == sorted(
            (q.bet for q in s.quotes), key=view.bets.index
        )
    d = tmp_path_factory.mktemp("sparse")
    write_quotes_csv(tl, d / "a.csv")
    write_events_csv(list(tl.events), d / "e.csv", tl.match_id)
    if len((d / "a.csv").read_text().splitlines()) == 1:
        return  # no quote has a decimal: there is no file to read back
    write_quotes_csv(load_timeline(d / "a.csv", d / "e.csv"), d / "b.csv")
    assert (d / "a.csv").read_bytes() == (d / "b.csv").read_bytes()
