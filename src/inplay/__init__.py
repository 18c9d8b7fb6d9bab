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

The package root re-exports only the names of the README quick start and
the demos; everything else is imported from its module.
"""

from .contracts import (
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
)
from .pricing import greeks, intensity_sensitivity, price, price_european
from .calibration import calibrate_snapshot, estimate_drift_vol
from .hedging import (
    SingularHedgeError,
    jump_scatter_stats,
    replay_hedge,
    solve_replication_weights,
)
from .oracle import kolmogorov_residual

__version__ = "0.1.0"

__all__ = [
    "Bet",
    "EVEN_TOTAL",
    "Intensities",
    "MATCH_ODDS_AWAY",
    "MATCH_ODDS_DRAW",
    "MATCH_ODDS_HOME",
    "NEXT_GOAL_AWAY",
    "NEXT_GOAL_HOME",
    "ODD_TOTAL",
    "Outcome",
    "ScoreState",
    "SingularHedgeError",
    "Team",
    "calibrate_snapshot",
    "estimate_drift_vol",
    "greeks",
    "intensity_sensitivity",
    "jump_scatter_stats",
    "kolmogorov_residual",
    "price",
    "price_european",
    "replay_hedge",
    "solve_replication_weights",
]
