"""Goal-jump deltas, time drift, and the identity that ties them together.

A bet's two deltas are the value changes if home or away scored right now;
theta is the drift between goals.  For European bets the three satisfy
theta = -(lam_home * delta_home + lam_away * delta_away), which is why a
goal-jump-neutral book also carries no time decay.  ``greeks`` uses that
identity for theta; the residual column checks it against an independent
finite-difference theta.  Intensity sensitivities come for free:
dV/dlam_i = (1 - clock) * delta_i.
"""

from inplay import (
    Bet,
    Intensities,
    MATCH_ODDS_HOME,
    ScoreState,
    greeks,
    intensity_sensitivity,
    kolmogorov_residual,
    price_european,
)

lam = Intensities(1.2, 0.8)
state = ScoreState(1, 0, clock=0.4)

print("State: 1-0 at 40% of the match, intensities", (lam.home, lam.away))
print("-" * 72)
print(f"{'bet':22s} {'value':>9s} {'d_home':>9s} {'d_away':>9s} {'theta':>9s} {'residual':>10s}")
for bet in (
    MATCH_ODDS_HOME,
    Bet.under(2.5),
    Bet.correct_score(1, 0),
    Bet.winning_margin(1),
):
    v = price_european(bet, state, lam).value
    g = greeks(bet, state, lam)
    resid = kolmogorov_residual(bet, state, lam)
    print(
        f"{str(bet):22s} {v:9.5f} {g.delta_home:+9.5f} {g.delta_away:+9.5f}"
        f" {g.theta:+9.5f} {resid:+10.2e}"
    )
print("\ntheta above is exact: greeks computes it as -(lam_home*d_home + lam_away*d_away).")
print("residual = theta_fd + lam_home*d_home + lam_away*d_away, where theta_fd is the")
print("oracle's clock-bumped derivative; it is zero up to finite-difference noise for")
print("every European bet.")

print("\nIntensity sensitivities versus a brute-force bump:")
bet = Bet.under(2.5)
s_home, s_away = intensity_sensitivity(bet, state, lam)
h = 1e-5
fd = (
    price_european(bet, state, Intensities(lam.home + h, lam.away)).value
    - price_european(bet, state, Intensities(lam.home - h, lam.away)).value
) / (2 * h)
print(f"  {bet}: (1-clock)*delta_home = {s_home:+.8f}, bumped = {fd:+.8f}")

print("\nTime value melts as the clock runs out (Under 2.5 from 1-0):")
for minute in (40, 60, 75, 85, 90):
    st = ScoreState(1, 0, minute / 90)
    print(f"  minute {minute:2d}: value = {price_european(bet, st, lam).value:.5f}")
