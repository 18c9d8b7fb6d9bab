"""Bet contract catalogue, payoff table and odds conversions.

``_PARAMETERS`` and ``_PAYOFFS`` are the one per-kind tables of typed
parameter fields and of European payoffs.  The double-sum pricer, board
masks, HT/FT legs and Monte Carlo all read payoffs through :func:`payoff_grid`;
``pricing.price_closed_form`` never does, and so cross-checks it.

All types are immutable value objects, freely shareable across threads.
:func:`parse_bet` accepts exactly the tokens :func:`format_bet` writes, such
as ``MATCH_ODDS_HOME``, ``UNDER_2_5``, ``CORRECT_SCORE_2_1``, ``ODD`` and
``HT_FT_HOME_DRAW``, in any case.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from enum import Enum
from numbers import Integral


class Outcome(Enum):
    HOME = "HOME"
    DRAW = "DRAW"
    AWAY = "AWAY"


class Team(Enum):
    HOME = "HOME"
    AWAY = "AWAY"


class BetKind(Enum):
    MATCH_ODDS_HOME = "MATCH_ODDS_HOME"
    MATCH_ODDS_AWAY = "MATCH_ODDS_AWAY"
    MATCH_ODDS_DRAW = "MATCH_ODDS_DRAW"
    CORRECT_SCORE = "CORRECT_SCORE"
    OVER = "OVER"
    UNDER = "UNDER"
    ODD = "ODD"
    EVEN = "EVEN"
    WINNING_MARGIN = "WINNING_MARGIN"
    NEXT_GOAL_HOME = "NEXT_GOAL_HOME"
    NEXT_GOAL_AWAY = "NEXT_GOAL_AWAY"
    HT_FT = "HT_FT"


# Each kind's parameter fields and their exact types; other kinds take none.
_PARAMETERS = {
    BetKind.CORRECT_SCORE: {"score": tuple},
    BetKind.OVER: {"line": float},
    BetKind.UNDER: {"line": float},
    BetKind.WINNING_MARGIN: {"margin": int},
    BetKind.HT_FT: {"half_time": Outcome, "full_time": Outcome},
}


class NonEuropeanBetError(ValueError):
    """Raised when a path-dependent bet reaches a European-only code path."""


@dataclass(frozen=True)
class Bet:
    """One bet contract.  Parameter fields are only set for the kinds
    that use them (score for CORRECT_SCORE, line for OVER/UNDER, ...)."""

    kind: BetKind
    score: tuple[int, int] | None = None
    line: float | None = None
    margin: int | None = None
    half_time: Outcome | None = None
    full_time: Outcome | None = None

    def __post_init__(self) -> None:
        needs = _PARAMETERS.get(self.kind, {})
        for name in ("score", "line", "margin", "half_time", "full_time"):
            value = getattr(self, name)
            if (value is None) is (name in needs):
                verb = "needs" if name in needs else "takes no"
                raise ValueError(f"{self.kind.value} {verb} {name}")
            if value is not None and type(value) is not needs[name]:
                raise ValueError(f"{name} must be {needs[name].__name__}, got {value!r}")
        if self.score is not None and [*map(type, self.score)] != [int, int]:
            raise ValueError(f"score must be two ints, got {self.score!r}")
        if self.score is not None and min(self.score) < 0:
            raise ValueError("CORRECT_SCORE goals must be nonnegative")
        if self.line is not None and not (self.line >= 0.5 and self.line % 1 == 0.5):
            raise ValueError(f"line must be X.5 with X >= 0, got {self.line}")

    @property
    def european(self) -> bool:
        return self.kind in _PAYOFFS

    # Factories for the parametrised kinds.
    @staticmethod
    def correct_score(home: int, away: int) -> "Bet":
        return Bet(BetKind.CORRECT_SCORE, score=(int(home), int(away)))

    @staticmethod
    def over(line: float) -> "Bet":
        return Bet(BetKind.OVER, line=float(line))

    @staticmethod
    def under(line: float) -> "Bet":
        return Bet(BetKind.UNDER, line=float(line))

    @staticmethod
    def winning_margin(margin: int) -> "Bet":
        return Bet(BetKind.WINNING_MARGIN, margin=int(margin))

    @staticmethod
    def ht_ft(half_time: Outcome, full_time: Outcome) -> "Bet":
        return Bet(BetKind.HT_FT, half_time=half_time, full_time=full_time)

    def __str__(self) -> str:
        return format_bet(self)


MATCH_ODDS_HOME = Bet(BetKind.MATCH_ODDS_HOME)
MATCH_ODDS_AWAY = Bet(BetKind.MATCH_ODDS_AWAY)
MATCH_ODDS_DRAW = Bet(BetKind.MATCH_ODDS_DRAW)
ODD_TOTAL = Bet(BetKind.ODD)
EVEN_TOTAL = Bet(BetKind.EVEN)
NEXT_GOAL_HOME = Bet(BetKind.NEXT_GOAL_HOME)
NEXT_GOAL_AWAY = Bet(BetKind.NEXT_GOAL_AWAY)


# The HT/FT legs: the match odds bet each half-time or full-time outcome is.
MATCH_ODDS_FOR = {
    Outcome.HOME: MATCH_ODDS_HOME,
    Outcome.DRAW: MATCH_ODDS_DRAW,
    Outcome.AWAY: MATCH_ODDS_AWAY,
}

# The one table of European payoffs: each kind's rule on final scores h, a.
_PAYOFFS = {
    BetKind.MATCH_ODDS_HOME: lambda bet, h, a: h > a,
    BetKind.MATCH_ODDS_AWAY: lambda bet, h, a: h < a,
    BetKind.MATCH_ODDS_DRAW: lambda bet, h, a: h == a,
    BetKind.CORRECT_SCORE: lambda bet, h, a: (h == bet.score[0]) & (a == bet.score[1]),
    BetKind.OVER: lambda bet, h, a: h + a > bet.line,
    BetKind.UNDER: lambda bet, h, a: h + a <= bet.line,
    BetKind.ODD: lambda bet, h, a: (h + a) % 2 == 1,
    BetKind.EVEN: lambda bet, h, a: (h + a) % 2 == 0,
    BetKind.WINNING_MARGIN: lambda bet, h, a: h - a == bet.margin,
}


def payoff_grid(bet: Bet, home, away):
    """Whether a European bet pays 1, elementwise on final scores given as
    ints or broadcastable integer arrays.  Unlike :func:`payoff` it does not
    check the scores.  Path-dependent bets raise :class:`NonEuropeanBetError`.
    """
    rule = _PAYOFFS.get(bet.kind)
    if rule is None:
        raise NonEuropeanBetError(f"{format_bet(bet)} is not a European payoff")
    return rule(bet, home, away)


def payoff(bet: Bet, final_home: int, final_away: int) -> int:
    """Terminal payoff of a European bet given the final score.

    Path-dependent bets (Next Goal, HT/FT) have no payoff function of the
    final score alone and raise :class:`NonEuropeanBetError`.
    """
    if final_home < 0 or final_away < 0:
        raise ValueError("final scores must be nonnegative")
    return int(payoff_grid(bet, final_home, final_away))


def format_bet(bet: Bet) -> str:
    """Canonical text token for a bet."""
    k = bet.kind
    if k is BetKind.CORRECT_SCORE:
        return f"CORRECT_SCORE_{bet.score[0]}_{bet.score[1]}"
    if k in (BetKind.OVER, BetKind.UNDER):
        return f"{k.value}_{int(bet.line - 0.5)}_5"
    if k is BetKind.WINNING_MARGIN:
        return f"WINNING_MARGIN_{bet.margin}"
    if k is BetKind.HT_FT:
        return f"HT_FT_{bet.half_time.value}_{bet.full_time.value}"
    return k.value


def _parse_token(tok: str) -> Bet:
    if tok in BetKind.__members__ and BetKind[tok] not in _PARAMETERS:
        return Bet(BetKind[tok])
    if tok.startswith("CORRECT_SCORE_"):
        h, a = tok[len("CORRECT_SCORE_"):].split("_")
        return Bet.correct_score(int(h), int(a))
    if tok.startswith("OVER_") or tok.startswith("UNDER_"):
        kind, base, _ = tok.split("_")
        return Bet(BetKind(kind), line=int(base) + 0.5)
    if tok.startswith("WINNING_MARGIN_"):
        return Bet.winning_margin(int(tok[len("WINNING_MARGIN_"):]))
    if tok.startswith("HT_FT_"):
        ht, ft = tok[len("HT_FT_"):].split("_")
        return Bet.ht_ft(Outcome(ht), Outcome(ft))
    raise ValueError(tok)


def parse_bet(token: str) -> Bet:
    """The bet :func:`format_bet` writes as ``token``, up to case and
    surrounding blanks: any other spelling of a number raises ValueError."""
    tok = token.strip().upper()
    with suppress(ValueError, OverflowError):
        bet = _parse_token(tok)
        if format_bet(bet) == tok:
            return bet
    raise ValueError(f"unrecognised bet token {token!r}")


def value_from_decimal(d: float) -> float:
    """Bet value implied by decimal odds: 1/d."""
    d = float(d)
    if not math.isfinite(d) or d < 1.0:
        raise ValueError(f"decimal odds below 1 are arbitrageable, got {d!r}")
    return 1.0 / d


def value_from_fractional(f: float) -> float:
    """Bet value implied by fractional odds: 1/(f+1)."""
    f = float(f)
    if not math.isfinite(f) or f < 0.0:
        raise ValueError(f"fractional odds must be nonnegative, got {f!r}")
    return 1.0 / (f + 1.0)


@dataclass(frozen=True)
class ScoreState:
    """Current score and match clock, the state every pricer conditions on.

    The clock runs over [0, 1] as the played fraction of regulation time;
    ingestion converts minutes by dividing by the configured match length.
    """

    home_goals: int
    away_goals: int
    clock: float

    def __post_init__(self) -> None:
        for name in ("home_goals", "away_goals"):
            goals = getattr(self, name)
            if type(goals) is not int and (type(goals) is bool or not isinstance(goals, Integral)):
                raise ValueError(f"{name} must be a whole number of goals, got {goals!r}")
        if self.home_goals < 0 or self.away_goals < 0:
            raise ValueError("goals must be nonnegative")
        if not (0.0 <= self.clock <= 1.0) or not math.isfinite(self.clock):
            raise ValueError(f"clock must lie in [0, 1], got {self.clock!r}")

    def with_goal(self, team: Team, clock: float | None = None) -> "ScoreState":
        clock = self.clock if clock is None else clock
        if team is Team.HOME:
            return ScoreState(self.home_goals + 1, self.away_goals, clock)
        return ScoreState(self.home_goals, self.away_goals + 1, clock)

    def at_clock(self, clock: float) -> "ScoreState":
        return ScoreState(self.home_goals, self.away_goals, clock)


@dataclass(frozen=True)
class Intensities:
    """Risk-neutral goal intensities per match (per regulation time unit)."""

    home: float
    away: float

    def __post_init__(self) -> None:
        for name, lam in (("home", self.home), ("away", self.away)):
            if not math.isfinite(lam) or lam < 0.0:
                raise ValueError(f"{name} intensity must be finite and >= 0, got {lam!r}")

    @property
    def total(self) -> float:
        return self.home + self.away


@dataclass(frozen=True)
class Quote:
    """Back/lay odds for one bet at one timestamp, with derived values.

    Backing buys the payout, so the back value is the buy price; laying
    sells it.  Mid and spread are only defined when both sides are present,
    and only such quotes enter calibration.
    """

    bet: Bet
    back_decimal: float | None = None
    lay_decimal: float | None = None
    value_buy: float | None = None
    value_sell: float | None = None

    @staticmethod
    def from_decimals(bet: Bet, back: float | None, lay: float | None) -> "Quote":
        buy = value_from_decimal(back) if back is not None else None
        sell = value_from_decimal(lay) if lay is not None else None
        return Quote(bet, back_decimal=back, lay_decimal=lay, value_buy=buy, value_sell=sell)

    @staticmethod
    def from_values(bet: Bet, mid: float, spread: float) -> "Quote":
        """Synthetic two-sided quote centred on a model value."""
        if spread <= 0.0:
            raise ValueError("spread must be positive")
        buy = mid + spread / 2.0
        sell = mid - spread / 2.0
        back = 1.0 / buy if 0.0 < buy <= 1.0 else None
        lay = 1.0 / sell if 0.0 < sell <= 1.0 else None
        return Quote(bet, back_decimal=back, lay_decimal=lay, value_buy=buy, value_sell=sell)

    @property
    def two_sided(self) -> bool:
        return self.value_buy is not None and self.value_sell is not None

    @property
    def value_mid(self) -> float | None:
        if not self.two_sided:
            return None
        return 0.5 * (self.value_buy + self.value_sell)

    @property
    def spread(self) -> float | None:
        if not self.two_sided:
            return None
        return abs(self.value_buy - self.value_sell)
