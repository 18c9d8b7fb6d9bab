"""Back out implied intensities from a quote board, then study their path.

A snapshot of 31 quotes (match odds, totals, correct scores) is fitted with
just two parameters by minimising the rms mid-versus-model distance in
half-spread units.  On a synthetic board manufactured from the model the
fit recovers the truth to machine-level accuracy; with noise, the reported
standard errors cover the truth.  A per-minute series of fits then yields
drift and volatility estimates of the log total intensity.
"""

import numpy as np

from inplay import Intensities, ScoreState, calibrate_snapshot, estimate_drift_vol
from inplay.calibration import calibrate_series
from inplay.synthetic import make_snapshot

lam_true = Intensities(1.3, 0.7)
state = ScoreState(0, 0, clock=0.2)

print("Round trip: quotes priced at lam =", (lam_true.home, lam_true.away))
snap = make_snapshot(state, lam_true, timestamp_s=1080.0, spread=0.02)
fit = calibrate_snapshot(snap)
print(f"  recovered lam  = ({fit.intensities.home:.9f}, {fit.intensities.away:.9f})")
print(f"  residual       = {fit.residual:.2e} half-spreads")
print(f"  converged      = {fit.converged} after {fit.iterations} board evaluations")

print("\nWith mids jittered by a quarter of the spread:")
rng = np.random.default_rng(7)
noisy = make_snapshot(state, lam_true, timestamp_s=1080.0, spread=0.02, noise=0.25, rng=rng)
fit_n = calibrate_snapshot(noisy)
print(
    f"  recovered lam  = ({fit_n.intensities.home:.4f}, {fit_n.intensities.away:.4f})"
    f"  +- ({fit_n.stderr_home:.4f}, {fit_n.stderr_away:.4f})"
)
print(f"  residual       = {fit_n.residual:.3f} half-spreads")

print("\nA drifting market, calibrated minute by minute:")
snapshots = []
rng = np.random.default_rng(11)
for minute in range(0, 90, 5):
    tau = minute / 90
    growth = np.exp(0.55 * tau)
    lam_t = Intensities(1.3 * growth, 0.7 * growth)
    snapshots.append(
        make_snapshot(
            ScoreState(0, 0, tau),
            lam_t,
            timestamp_s=minute * 60.0,
            spread=0.02,
            noise=0.1,
            rng=rng,
        )
    )
series = calibrate_series(snapshots, step_s=300.0)
for point in series.points[::6]:
    r = point.result
    print(
        f"  t={point.timestamp_s:6.0f}s  lam=({r.intensities.home:.3f}, {r.intensities.away:.3f})"
        f"  residual={r.residual:.3f}"
    )
mu, sigma = estimate_drift_vol(series)
print(f"\n  drift of log total intensity: {mu:+.3f} per match (built in: +0.55)")
print(f"  volatility:                   {sigma:.3f} per sqrt-match")
