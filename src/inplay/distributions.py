"""Numerically stable elementary distributions used by the pricers.

Everything here is a pure function of scalars (or small integer ranges) and is
safe to call concurrently.  Probabilities are clamped to [0, 1] after
computation so 1e-16 scale rounding never leaks into downstream
normalisation checks.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import gammainc, gammaincc, gammaln, ive, logsumexp

__all__ = [
    "poisson_pmf",
    "poisson_tail",
    "poisson_pmf_vector",
    "cap_for_tail",
    "bessel_i",
    "skellam_pmf",
    "skellam_pmf_range",
]

# Ascending-series truncation for the modified Bessel function.
_BESSEL_REL_TOL = 1e-16
_BESSEL_MAX_TERMS = 10_000

# Switch between the direct factorial evaluation and log-space.
_DIRECT_LIMIT = 30


def _check_mean(mean: float, name: str = "mean") -> float:
    mean = float(mean)
    if not math.isfinite(mean) or mean < 0.0:
        raise ValueError(f"{name} must be finite and nonnegative, got {mean!r}")
    return mean


def _clamp01(x: float) -> float:
    if x < 0.0:
        return 0.0
    if x > 1.0:
        return 1.0
    return x


def _poisson_pmf_direct(n: int, mean: float) -> float:
    """exp(-m) m^n / n!, for small n and mean only."""
    return math.exp(-mean) * mean**n / math.factorial(n)


def _poisson_pmf_log(n: int, mean: float) -> float:
    """Log-space evaluation, stable for large n or mean."""
    if mean == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(n * math.log(mean) - math.lgamma(n + 1) - mean)


def poisson_pmf(n: int, mean: float) -> float:
    """P[N = n] for N Poisson with the given mean.

    Returns exactly 0.0 for negative n (the convention used throughout the
    pricing formulas, where a team cannot "unscore").
    """
    mean = _check_mean(mean)
    n = int(n)
    if n < 0:
        return 0.0
    if mean == 0.0:
        return 1.0 if n == 0 else 0.0
    if n <= _DIRECT_LIMIT and mean <= _DIRECT_LIMIT:
        p = _poisson_pmf_direct(n, mean)
    else:
        p = _poisson_pmf_log(n, mean)
    return _clamp01(p)


def poisson_tail(n: int, mean: float) -> float:
    """P[N > n] for N Poisson with the given mean.

    Evaluated through the regularised lower incomplete gamma function, which
    keeps full relative accuracy in both tails (unlike 1 - sum of pmf terms).
    """
    mean = _check_mean(mean)
    n = int(n)
    if n < 0:
        return 1.0
    if mean == 0.0:
        return 0.0
    return _clamp01(float(gammainc(n + 1, mean)))


def _poisson_cdf(n: int, mean: float) -> float:
    """P[N <= n]; complementary route to poisson_tail."""
    mean = _check_mean(mean)
    n = int(n)
    if n < 0:
        return 0.0
    if mean == 0.0:
        return 1.0
    return _clamp01(float(gammaincc(n + 1, mean)))


@lru_cache(maxsize=4096)
def poisson_pmf_vector(mean: float, cap: int) -> np.ndarray:
    """pmf values for n = 0 .. cap as a read-only array."""
    mean = _check_mean(mean)
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    if mean == 0.0:
        out = np.zeros(cap + 1)
        out[0] = 1.0
    else:
        k = np.arange(cap + 1)
        out = np.exp(k * math.log(mean) - gammaln(k + 1) - mean)
        np.clip(out, 0.0, 1.0, out=out)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=4096)
def cap_for_tail(mean: float, tol: float = 1e-13, floor: int = 25) -> int:
    """Smallest n with poisson_tail(n, mean) < tol, never below the floor."""
    mean = _check_mean(mean)
    n = int(floor)
    while poisson_tail(n, mean) >= tol:
        n += 1
    return n


def bessel_i(order: int, z: float) -> float:
    """Modified Bessel function of the first kind, integer order >= 0.

    Ascending series sum_m (z/2)^(2m+order) / (m! (m+order)!), accumulated
    until a term falls below 1e-16 of the partial sum.
    """
    order = int(order)
    if order < 0:
        raise ValueError("order must be a nonnegative integer")
    z = float(z)
    if not math.isfinite(z) or z < 0.0:
        raise ValueError(f"z must be finite and nonnegative, got {z!r}")
    if z == 0.0:
        return 1.0 if order == 0 else 0.0

    half = z / 2.0
    # Leading term (z/2)^order / order!, in log space to dodge pow overflow.
    term = math.exp(order * math.log(half) - math.lgamma(order + 1))
    total = term
    q = half * half
    for m in range(1, _BESSEL_MAX_TERMS + 1):
        term *= q / (m * (m + order))
        total += term
        if term < _BESSEL_REL_TOL * total:
            return total
    raise ValueError(f"Bessel series did not converge for order={order}, z={z}")


def skellam_pmf(k: int, mean1: float, mean2: float) -> float:
    """P[N1 - N2 = k] for independent Poisson N1, N2.

    Closed form exp(-(m1+m2)) (m1/m2)^(k/2) I_|k|(2 sqrt(m1 m2)).  A zero
    mean on either side degenerates to a shifted one-sided Poisson pmf (the
    limit of the closed form, which itself divides by the vanishing mean).
    """
    mean1 = _check_mean(mean1, "mean1")
    mean2 = _check_mean(mean2, "mean2")
    k = int(k)
    if mean1 == 0.0 and mean2 == 0.0:
        return 1.0 if k == 0 else 0.0
    if mean2 == 0.0:
        return poisson_pmf(k, mean1)
    if mean1 == 0.0:
        return poisson_pmf(-k, mean2)

    z = 2.0 * math.sqrt(mean1 * mean2)
    bess = bessel_i(abs(k), z)
    if bess <= 0.0:
        return 0.0
    log_p = -(mean1 + mean2) + 0.5 * k * (math.log(mean1) - math.log(mean2)) + math.log(bess)
    return _clamp01(math.exp(log_p))


def _log_bessel_series(orders: np.ndarray, log_half: float) -> np.ndarray:
    """log I_nu(z) for each order nu, with log(z/2) given, by the ascending
    series folded into a logsumexp over its terms (no overflow anywhere)."""
    n_terms = 40
    while True:
        m = np.arange(n_terms)[:, None]
        nu = orders[None, :]
        log_terms = (2 * m + nu) * log_half - gammaln(m + 1) - gammaln(m + nu + 1)
        log_bessel = logsumexp(log_terms, axis=0)
        # Converged once the last term is negligible against the total.
        if np.all(log_terms[-1, :] < log_bessel - 40.0):
            return log_bessel
        n_terms *= 2
        if n_terms > _BESSEL_MAX_TERMS:
            raise ValueError("Bessel series did not converge in range evaluation")


def skellam_pmf_range(k_lo: int, k_hi: int, mean1: float, mean2: float) -> np.ndarray:
    """Vectorised skellam_pmf for k = k_lo .. k_hi inclusive.

    Works in log space so large intensity ratios cannot overflow:
    log p = z - (m1+m2) + (k/2) log(m1/m2) + log ive(|k|, z), with the
    exponentially scaled Bessel function ive(nu, z) = I_nu(z) e^-z.  Orders
    where ive underflows to 0 (high order, small z) take the log-space
    ascending series instead.
    """
    mean1 = _check_mean(mean1, "mean1")
    mean2 = _check_mean(mean2, "mean2")
    k_lo, k_hi = int(k_lo), int(k_hi)
    if k_hi < k_lo:
        raise ValueError("k_hi must be >= k_lo")
    ks = np.arange(k_lo, k_hi + 1)

    if mean1 == 0.0 and mean2 == 0.0:
        return (ks == 0).astype(float)
    if mean2 == 0.0:
        return np.array([poisson_pmf(int(k), mean1) for k in ks])
    if mean1 == 0.0:
        return np.array([poisson_pmf(int(-k), mean2) for k in ks])

    z = 2.0 * math.sqrt(mean1 * mean2)
    orders = np.abs(ks)
    scaled = ive(orders, z)
    # log I_nu(z) - z: the scaled Bessel function where it did not underflow
    # to 0 (ive flushes to 0 below ~1e-305 rather than going subnormal).
    ok = scaled > 0.0
    log_scaled = np.empty(len(ks))
    log_scaled[ok] = np.log(scaled[ok])
    if not ok.all():
        log_half = 0.5 * (math.log(mean1) + math.log(mean2))  # log(z/2)
        log_scaled[~ok] = _log_bessel_series(orders[~ok], log_half) - z

    log_p = (z - (mean1 + mean2)) + 0.5 * ks * math.log(mean1 / mean2) + log_scaled
    return np.clip(np.exp(log_p), 0.0, 1.0)
