"""Poisson and Skellam distributions used by the pricers, on numpy alone.

Each quantity has one route:

* the Poisson pmf is exp(n log m - log n! - m), with log n! read from a
  table of ``math.lgamma`` values that grows on demand; a pmf vector is a
  cached row of the pmf matrix;
* a Poisson tail sums the side away from the mode as positive pmf terms, so
  both tails keep relative accuracy, and returns the side holding the mode
  as 1 minus that sum; ``cap_for_tail`` bisects that tail for a truncation
  cap and returns the cap with its tail, the bound a pricer reports;
* the Skellam law of N1 - N2 comes from its own three-term recurrence,
  k p_k = m1 p_(k-1) - m2 p_(k+1): Miller's backward recurrence for the
  ratios p_k/p_(k-1), summed as logs and normalised to total 1, so nothing
  cancels, overflows or underflows.

Everything here is a pure function of scalars (or small integer ranges, or
one array of means for the pmf matrix) and is safe to call concurrently.
Probabilities are clamped to [0, 1] after computation so 1e-16 scale
rounding never leaks into downstream normalisation checks.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache

import numpy as np

__all__ = [
    "poisson_pmf",
    "poisson_tail",
    "poisson_pmf_vector",
    "poisson_pmf_matrix",
    "cap_for_tail",
    "skellam_pmf",
    "skellam_pmf_range",
]

# log n! for n = 0 .. len - 1; replaced by a longer table when a cap outgrows it.
_log_factorial_table = np.zeros(1)


def _check_mean(mean: float, name: str = "mean") -> float:
    mean = float(mean)
    if not math.isfinite(mean) or mean < 0.0:
        raise ValueError(f"{name} must be finite and nonnegative, got {mean!r}")
    return mean


def _clamp01(x: float) -> float:
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


def _log_factorials(top: int) -> np.ndarray:
    """log n! for n = 0 .. top.

    The table is replaced by one reference assignment and each call slices
    the table it read, so concurrent callers need no lock.
    """
    global _log_factorial_table
    table = _log_factorial_table
    if len(table) <= top:
        table = np.array([math.lgamma(n + 1.0) for n in range(2 * top + 1)])
        _log_factorial_table = table
    return table[: top + 1]


def _pmf(n, log_n_factorial, mean):
    """exp(n log m - log n! - m) for a positive mean, or a column of them:
    the one Poisson pmf."""
    # A scalar mean takes math.log, far cheaper per call than np.log.
    log_mean = np.log(mean) if isinstance(mean, np.ndarray) else math.log(mean)
    return np.exp(n * log_mean - log_n_factorial - mean)


def _pmf_range(lo: int, hi: int, mean: float) -> np.ndarray:
    """The pmf at n = lo .. hi, for 0 <= lo and a positive mean."""
    return _pmf(np.arange(lo, hi + 1), _log_factorials(hi)[lo:], mean)


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
    # math.lgamma gives the table's value without growing it to n.
    return _clamp01(float(_pmf(n, math.lgamma(n + 1.0), mean)))


def _poisson_sides(n: int, mean: float) -> tuple[float, float]:
    """(P[N <= n], P[N > n]): the side away from the mode floor(mean) is a
    sum of pmf terms, the side holding it is 1 minus that sum."""
    mean = _check_mean(mean)
    n = int(n)
    if n < 0:
        return 0.0, 1.0
    if mean == 0.0:
        return 1.0, 0.0
    # Either sum is at most about 0.63, so 1 minus it needs no clamping.
    if n < int(mean):
        below = float(_pmf_range(0, n, mean).sum())
        return below, 1.0 - below
    # Term ratios m/k fall below 1 past the mode; 40 + 10 sqrt(m) terms leave
    # a remainder far below 1e-16 of the sum.
    above = float(_pmf_range(n + 1, n + 40 + int(10.0 * math.sqrt(mean)), mean).sum())
    return 1.0 - above, above


def poisson_tail(n: int, mean: float) -> float:
    """P[N > n] for N Poisson with the given mean, to full relative accuracy."""
    return _poisson_sides(n, mean)[1]


@lru_cache(maxsize=4096)
def poisson_pmf_vector(mean: float, cap: int) -> np.ndarray:
    """pmf values for n = 0 .. cap: a read-only row of :func:`poisson_pmf_matrix`."""
    out = poisson_pmf_matrix([_check_mean(mean)], cap)[0]
    out.flags.writeable = False
    return out


def poisson_pmf_matrix(means, cap: int) -> np.ndarray:
    """pmf values for n = 0 .. cap, one row per mean: a (len(means), cap + 1)
    array.  A zero mean's row is exactly e_0, with no log(0) taken."""
    means = np.asarray(means, dtype=float)
    if means.ndim != 1 or not (np.isfinite(means) & (means >= 0.0)).all():
        raise ValueError("means must be a 1-d array of finite nonnegative values")
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    dead = means == 0.0
    out = _pmf(np.arange(cap + 1), _log_factorials(cap), np.where(dead, 1.0, means)[:, None])
    np.minimum(out, 1.0, out=out)
    if dead.any():
        out[dead] = 0.0
        out[dead, 0] = 1.0
    return out


@lru_cache(maxsize=4096)
def cap_for_tail(mean: float, tol: float = 1e-13, floor: int = 25) -> tuple[int, float]:
    """(cap, poisson_tail(cap, mean)) for the smallest cap, never below the
    floor, with that tail below tol: the tail is the bound a pricer reports."""
    floor = int(floor)
    tail = poisson_tail(floor, mean)
    if tail < tol:
        return floor, tail
    # The Chernoff bound P[N >= m + x] <= exp(-x^2 / (2 (m + x/3))) puts the
    # tail past `top` below tol * e^-40, so the cap lies in (floor, top]:
    # bisect there for the first tail below tol.
    log_ratio = 40.0 - math.log(tol)
    x = log_ratio / 3.0 + math.sqrt(log_ratio**2 / 9.0 + 2.0 * log_ratio * mean)
    caps = range(floor + 1, max(floor + 1, math.ceil(mean + x)) + 1)
    cap = caps[bisect_left(caps, True, key=lambda n: poisson_tail(n, mean) < tol)]
    return cap, poisson_tail(cap, mean)


def skellam_pmf_range(k_lo: int, k_hi: int, mean1: float, mean2: float) -> np.ndarray:
    """P[N1 - N2 = k] for k = k_lo .. k_hi inclusive, N1 and N2 independent
    Poisson.

    The pmf obeys k p_k = m1 p_(k-1) - m2 p_(k+1), so for k >= 1 the ratio
    p_k/p_(k-1) is m1/d_k with d_k = k + m2 p_(k+1)/p_k = k + m1 m2/d_(k+1),
    and p_-k/p_(-k+1) is m2/d_k.  The d_k run down from d_(n+1) = inf at an
    order n past the range and the mass (Miller's recurrence); the summed
    logs of the ratios give log(p_k/p_0), and the pmf's sum fixes p_0.  No
    term is negative, so nothing cancels, and a zero mean's side is exactly
    0.
    """
    mean1 = _check_mean(mean1, "mean1")
    mean2 = _check_mean(mean2, "mean2")
    k_lo, k_hi = int(k_lo), int(k_hi)
    if k_hi < k_lo:
        raise ValueError("k_hi must be >= k_lo")
    # n lies past the range and the mass, far enough for the start's error to die out.
    total, product = mean1 + mean2, mean1 * mean2
    n = max(k_hi, -k_lo, int(total)) + 8 + int(9.0 * math.sqrt(total))
    d = math.inf
    log_d = np.log([d := k + product / d for k in range(n, 0, -1)][::-1])  # d_k >= k
    log_means = [math.log(m) if m else -math.inf for m in (mean2, mean1)]
    # Rows k = -1 .. -n and k = 1 .. n.
    log_q = np.add.accumulate(np.subtract.outer(log_means, log_d), axis=1)
    log_p = np.concatenate((log_q[0, ::-1], [0.0], log_q[1]))  # k = -n .. n
    p = np.exp(log_p - log_p.max())
    return np.minimum(p[k_lo + n : k_hi + n + 1] / p.sum(), 1.0)


def skellam_pmf(k: int, mean1: float, mean2: float) -> float:
    """P[N1 - N2 = k]: the one entry k of :func:`skellam_pmf_range`."""
    return float(skellam_pmf_range(k, k, mean1, mean2)[0])
