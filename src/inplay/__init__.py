"""Pricing, calibration and hedging of in-play football bets.

Scores are modelled as two independent Poisson processes with constant
intensities; bet values are risk-neutral expectations of their payoffs.
The package exposes:

* closed-form and double-sum pricers for the standard bet catalogue,
  including Next Goal and Half Time / Full Time contracts;
* goal-jump deltas, time drift and the forward-equation identity linking
  them;
* spread-weighted least-squares calibration of implied intensities to
  quote snapshots, plus drift/vol estimation of the log total intensity;
* dynamic replication of any bet with two linearly independent hedging
  instruments and a self-financing replay ledger;
* CSV ingestion/emission and a CLI (see ``inplay.cli``).

``inplay.oracle`` holds independent verification engines (simulation,
Monte Carlo, extended-precision enumeration, finite-difference theta and
the forward-equation residual built on it) used by the test suite; the
production pricers never call into it.
"""

from .contracts import (
    Bet,
    BetKind,
    EVEN_TOTAL,
    Intensities,
    MATCH_ODDS_AWAY,
    MATCH_ODDS_DRAW,
    MATCH_ODDS_HOME,
    NEXT_GOAL_AWAY,
    NEXT_GOAL_HOME,
    NonEuropeanBetError,
    ODD_TOTAL,
    Outcome,
    Quote,
    ScoreState,
    Team,
    format_bet,
    parse_bet,
    payoff,
    value_from_decimal,
    value_from_fractional,
)
from .pricing import (
    Greeks,
    PriceResult,
    greeks,
    intensity_sensitivity,
    price,
    price_closed_form,
    price_european,
    price_ht_ft,
    price_next_goal,
    static_replication,
)
from .calibration import (
    CalibrationResult,
    IdentifiabilityError,
    IntensitySeries,
    QuoteSnapshot,
    SeriesPoint,
    calibrate_series,
    calibrate_snapshot,
    estimate_drift_vol,
    objective,
)
from .hedging import (
    GoalRecord,
    HedgeReport,
    HedgeStep,
    ReplicationWeights,
    SingularHedgeError,
    jump_scatter_stats,
    next_goal_delta_matrix,
    replay_hedge,
    solve_replication_weights,
)
from .oracle import kolmogorov_residual
from .timeline import GoalEvent, MatchTimeline

__version__ = "0.1.0"

__all__ = [
    "Bet",
    "BetKind",
    "CalibrationResult",
    "EVEN_TOTAL",
    "GoalEvent",
    "GoalRecord",
    "Greeks",
    "HedgeReport",
    "HedgeStep",
    "IdentifiabilityError",
    "Intensities",
    "IntensitySeries",
    "MATCH_ODDS_AWAY",
    "MATCH_ODDS_DRAW",
    "MATCH_ODDS_HOME",
    "MatchTimeline",
    "NEXT_GOAL_AWAY",
    "NEXT_GOAL_HOME",
    "NonEuropeanBetError",
    "ODD_TOTAL",
    "Outcome",
    "PriceResult",
    "Quote",
    "QuoteSnapshot",
    "ReplicationWeights",
    "ScoreState",
    "SeriesPoint",
    "SingularHedgeError",
    "Team",
    "calibrate_series",
    "calibrate_snapshot",
    "estimate_drift_vol",
    "format_bet",
    "greeks",
    "intensity_sensitivity",
    "jump_scatter_stats",
    "kolmogorov_residual",
    "next_goal_delta_matrix",
    "objective",
    "parse_bet",
    "payoff",
    "price",
    "price_closed_form",
    "price_european",
    "price_ht_ft",
    "price_next_goal",
    "replay_hedge",
    "solve_replication_weights",
    "static_replication",
    "value_from_decimal",
    "value_from_fractional",
]
