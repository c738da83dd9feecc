"""Hardy-Littlewood singular series and the k_m / y_m table."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from ._sieve import prime_windows
from .primes import largest_prime_leq
from .tuples import IntegerTuple, diameter, is_admissible, residue_coverage

DEFAULT_PRIME_CUTOFF = 10**6

# Lowest known tuple lengths guaranteeing m primes among n + H, plus the
# conditional m = 2 entry under Elliott-Halberstam.
_KM_UNCONDITIONAL = ((2, 50), (3, 35265), (4, 1624545), (5, 73807570), (6, 3340375663))
_KM_CONDITIONAL = ((2, 5),)

_GL_NODES, _GL_WEIGHTS = leggauss(20)


@dataclass(frozen=True)
class SingularSeriesEstimate:
    value: float
    k: int
    prime_cutoff: int
    tail_magnitude: float  # heuristic bound on |log| of the omitted tail product
    admissible: bool


@dataclass(frozen=True)
class KmEntry:
    m: int
    k_m: int
    y_m: int
    conditional: bool


def default_prime_cutoff(H: IntegerTuple) -> int:
    """DEFAULT_PRIME_CUTOFF, or k or diameter + 1 where either is larger."""
    return max(DEFAULT_PRIME_CUTOFF, len(H), diameter(H) + 1)


def _tail_magnitude(k: int, cutoff: int) -> float:
    # For p > cutoff each log-factor is ~ -(k^2 - k)/(2 p^2); summing over
    # primes via the density 1/log t gives the integral estimate below.
    # Heuristic only; the data model makes no rigor claim.
    return (k * k - k) / (2.0 * cutoff * math.log(cutoff))


def singular_series(H: IntegerTuple, prime_cutoff: int) -> SingularSeriesEstimate:
    """Partial Hardy-Littlewood product prod (1 - v_p/p) / (1 - 1/p)^k
    over primes p <= prime_cutoff, accumulated in log space: one pass over
    prime_windows(prime_cutoff) that adds up each window's log terms, so
    it holds no table of the primes up to the cutoff.

    Exactly 0 (and admissible = False) when some v_p = p.
    """
    k = len(H)
    d = diameter(H)
    if prime_cutoff < 2 or prime_cutoff < k or prime_cutoff < d + 1:
        raise ValueError(
            f"prime_cutoff {prime_cutoff} must be >= 2, >= k = {k} "
            f"and >= diameter + 1 = {d + 1}"
        )
    tail = _tail_magnitude(k, prime_cutoff)
    if not is_admissible(H):
        return SingularSeriesEstimate(0.0, k, prime_cutoff, tail, False)
    total = 0.0
    for lo, flags in prime_windows(prime_cutoff):
        primes = (np.flatnonzero(flags) + lo).astype(np.float64)
        small = primes[: np.searchsorted(primes, d, side="right")]
        head = [-residue_coverage(H, int(p)) / p for p in small]  # -v_p / p
        k_logs = k * np.log1p(-1.0 / primes)
        # for p > diameter(H) the elements are distinct mod p, so v_p = k
        log_terms = np.divide(-float(k), primes, out=primes)
        log_terms[: len(head)] = head
        np.log1p(log_terms, out=log_terms)
        log_terms -= k_logs
        total += float(np.sum(log_terms))
    value = float(math.exp(total))
    return SingularSeriesEstimate(value, k, prime_cutoff, tail, True)


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
    u = math.log(2.0) + edges[:-1, None] + half * (_GL_NODES + 1)
    return float(np.sum(half * _GL_WEIGHTS * np.exp(u) * u ** -k))


@lru_cache(maxsize=128)
def _cached_series_value(elements: tuple[int, ...], prime_cutoff: int) -> float:
    return singular_series(IntegerTuple(elements), prime_cutoff).value


def hl_prediction(H: IntegerTuple, x: float, mode: str = "integral-form") -> float:
    """Predicted count of n < x with n + H entirely prime.

    ratio-form is G * x / (log x)^k; integral-form is G * int_2^x dt/(log t)^k,
    asymptotically equivalent but far closer at desk scale. G is the singular
    series over the primes up to default_prime_cutoff(H).
    """
    if x <= 2:
        raise ValueError(f"x must exceed 2, got {x}")
    if mode not in ("ratio-form", "integral-form"):
        raise ValueError(f"unknown mode {mode!r}")
    k = len(H)
    g = _cached_series_value(H.canonical().elements, default_prime_cutoff(H))
    if g == 0.0:
        return 0.0
    if mode == "ratio-form":
        return g * x / math.log(x) ** k
    return g * log_power_integral(k, x)


def km_table() -> list[KmEntry]:
    """The tabulated k_m values with their derived prime bounds y_m."""
    entries = [
        KmEntry(m, k, largest_prime_leq(k), conditional=False)
        for m, k in _KM_UNCONDITIONAL
    ]
    entries.extend(
        KmEntry(m, k, largest_prime_leq(k), conditional=True)
        for m, k in _KM_CONDITIONAL
    )
    return entries
