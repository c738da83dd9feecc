"""Hardy-Littlewood singular series and predicted counts."""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from ._sieve import _fold_windows, _window_primes
from .errors import CapacityError
from .tuples import IntegerTuple, diameter, is_admissible, residue_coverage

DEFAULT_PRIME_CUTOFF = 10**6


class SingularSeriesEstimate(NamedTuple):
    value: float
    k: int
    prime_cutoff: int
    tail_magnitude: float  # heuristic bound on |log| of the omitted tail product
    admissible: bool


def _tail_magnitude(k: int, cutoff: int) -> float:
    # For p > cutoff each log-factor is ~ -(k^2 - k)/(2 p^2); summing over
    # primes via the density 1/log t gives the integral estimate below.
    # Heuristic only; the data model makes no rigor claim.
    return (k * k - k) / (2.0 * cutoff * math.log(cutoff))


def singular_series(H: IntegerTuple, prime_cutoff: int | None = None) -> SingularSeriesEstimate:
    """Partial Hardy-Littlewood product prod (1 - v_p/p) / (1 - 1/p)^k
    over primes p <= prime_cutoff, accumulated in log space: one
    _fold_windows pass over the windows to the cutoff that sums each
    window's log terms, so it holds no table of the primes up to the
    cutoff. The window sums are added in window order, so the value does
    not depend on how many runs the pass is split into. The cutoff defaults to
    DEFAULT_PRIME_CUTOFF, or k or diameter + 1 where either is larger.

    Exactly 0 (and admissible = False) when some v_p = p; CapacityError past the largest float.
    """
    k = len(H)
    d = diameter(H)
    if prime_cutoff is None:
        prime_cutoff = max(DEFAULT_PRIME_CUTOFF, k, d + 1)
    if prime_cutoff < 2 or prime_cutoff < k or prime_cutoff < d + 1:
        raise ValueError(
            f"prime_cutoff {prime_cutoff} must be >= 2, >= k = {k} "
            f"and >= diameter + 1 = {d + 1}"
        )
    tail = _tail_magnitude(k, prime_cutoff)
    if not is_admissible(H):
        return SingularSeriesEstimate(0.0, k, prime_cutoff, tail, False)

    def fold(_, windows) -> list[float]:
        sums = []
        for start, flags in windows:
            primes = _window_primes(start, flags, prime_cutoff).astype(np.float64)
            small = primes[: np.searchsorted(primes, d, side="right")]
            head = [-residue_coverage(H, int(p)) / p for p in small]  # -v_p / p
            k_logs = k * np.log1p(-1.0 / primes)
            # for p > diameter(H) the elements are distinct mod p, so v_p = k
            log_terms = np.divide(-float(k), primes, out=primes)
            log_terms[: len(head)] = head
            np.log1p(log_terms, out=log_terms)
            log_terms -= k_logs
            sums.append(float(np.sum(log_terms)))
        return sums

    total = 0.0
    for sums in _fold_windows(fold, prime_cutoff):
        for window_sum in sums:  # in window order; sum() compensates from Python 3.12
            total += window_sum
    try:
        value = math.exp(total)
    except OverflowError:
        raise CapacityError(f"singular series e^{total:.6g} exceeds the float range") from None
    return SingularSeriesEstimate(value, k, prime_cutoff, tail, True)


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The 20-point Gauss-Legendre nodes and weights, made on first use."""
    from numpy.polynomial.legendre import leggauss

    return leggauss(20)


def log_power_integral(k: int, x: float) -> float:
    """int_2^x dt / (log t)^k for x > 2.

    Substituting u = log t gives int_{log 2}^{log x} e^u u^-k du, which is
    smooth on that range; 20-point Gauss-Legendre on unit-width panels in u
    evaluates it to about 1e-14 relative error (against mpmath, k = 1..8,
    x up to 1e12).
    """
    width = math.log1p((x - 2.0) / 2.0)  # log x - log 2, without cancellation
    edges = np.append(np.arange(0.0, width, 1.0), width)
    half = np.diff(edges)[:, None] / 2
    nodes, weights = _gauss_legendre()
    u = math.log(2.0) + edges[:-1, None] + half * (nodes + 1)
    return float(np.sum(half * weights * np.exp(u) * u ** -k))


def hl_predictions(H: IntegerTuple, xs) -> list[tuple[float, float]]:
    """Predicted counts of n < x with n + H entirely prime, as (ratio form,
    integral form) for each x in xs.

    The ratio form is G * x / (log x)^k; the integral form is
    G * int_2^x dt/(log t)^k, asymptotically equivalent but far closer at
    desk scale. G is singular_series(H) at its default cutoff, computed
    once for all of xs. Both forms are 0 for a non-admissible H; raises
    CapacityError when (log x)^k exceeds the float range.
    """
    xs = [float(c) for c in xs]
    if any(x <= 2 for x in xs):
        raise ValueError(f"x must exceed 2, got {min(xs)}")
    if not xs:
        return []
    k = len(H)
    g = singular_series(H).value
    if g == 0.0:
        return [(0.0, 0.0)] * len(xs)
    try:
        return [(g * x / math.log(x) ** k, g * log_power_integral(k, x)) for x in xs]
    except OverflowError:
        raise CapacityError(f"(log x)^{k} exceeds the float range") from None
