"""Smoothness predicates and smooth-number enumeration.

An integer is y-smooth when its largest prime factor is at most y;
1 is vacuously y-smooth for every y.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import CapacityError, FactorBudgetError
from .primes import DETERMINISTIC_LIMIT, _primes_upto, is_prime, mem_budget

DEFAULT_TRIAL_LIMIT = 1_000_000
# Peak bytes per element of smooth_numbers_up_to's result: a 32-byte int
# above 2^30, its list slot with over-allocation, and the sort's scratch.
# tracemalloc reads 44-45 at bounds 10^6 to 10^10 (CPython 3.11, x86-64).
SMOOTH_BYTES_PER_ELEMENT = 48


@dataclass(frozen=True)
class SmoothnessCertificate:
    """Full factorization of n witnessing its largest prime factor."""

    n: int
    factors: tuple[tuple[int, int], ...]  # (prime, exponent), primes ascending
    largest_prime_factor: int | None  # None iff n == 1
    probabilistic: bool = False  # True when a base was only MR-probable (>= 2^64)


@dataclass(frozen=True)
class SmoothnessCheck:
    smooth: bool
    certificate: SmoothnessCertificate | None  # attached when smooth
    cofactor: int | None  # surviving rough part when not smooth

    def __bool__(self) -> bool:
        return self.smooth


def _trial_divide(n: int, bound: int) -> tuple[int, list[tuple[int, int]], bool]:
    """Divide n by each candidate d while d <= bound and d * d <= the
    remaining cofactor. A composite d never divides, as its prime factors
    are smaller and already divided out.

    Returns the cofactor, the factors found, as (prime, exponent) with the
    primes ascending, and whether the cofactor is proven 1 or prime.
    """
    m = n
    factors: list[tuple[int, int]] = []
    # 2, 3, then 6j - 1 and 6j + 1: every prime, and few composites
    wheel = itertools.accumulate(itertools.cycle((2, 4)), initial=5)
    for d in itertools.chain((2, 3), wheel):
        if d > bound or d * d > m:
            break
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        if e:
            factors.append((d, e))
    return m, factors, d * d > m


def factorize(n: int, trial_limit: int = DEFAULT_TRIAL_LIMIT) -> SmoothnessCertificate:
    """Factor n by trial division.

    Raises FactorBudgetError when a composite residual survives with no
    prime factor <= trial_limit.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    m, factors, proven = _trial_divide(n, trial_limit)
    if not proven and not is_prime(m):
        raise FactorBudgetError(n, m, trial_limit)
    if m > 1:
        factors.append((m, 1))
    lpf = factors[-1][0] if factors else None
    return SmoothnessCertificate(n, tuple(factors), lpf, not proven and m >= DETERMINISTIC_LIMIT)


def is_smooth(n: int, y: int) -> SmoothnessCheck:
    """Membership test for the y-smooth integers, by trial division up to
    min(y, sqrt(n)).

    Never factors the rough cofactor of a failing input.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if y < 2:
        raise ValueError(f"y must be at least 2, got {y}")
    m, factors, _ = _trial_divide(n, y)
    # An unproven cofactor has only prime factors above y; a proven one
    # is 1 or prime.
    if m > y:
        return SmoothnessCheck(False, None, m)
    if m > 1:
        factors.append((m, 1))
    lpf = factors[-1][0] if factors else None
    return SmoothnessCheck(True, SmoothnessCertificate(n, tuple(factors), lpf), None)


def smooth_numbers_up_to(y: int, bound: int) -> list[int]:
    """All y-smooth integers in [1, bound], ascending."""
    if y < 2:
        raise ValueError(f"y must be at least 2, got {y}")
    if bound < 1:
        raise ValueError(f"bound must be positive, got {bound}")
    cap = mem_budget() // SMOOTH_BYTES_PER_ELEMENT
    primes = _primes_upto(min(y, bound))
    out = [1]
    # Depth-first over factorizations by increasing prime: every smooth
    # number is reached once, and each node stops at its first prime that
    # overshoots, so the work is linear in the output. A node w whose
    # largest prime p has w * p > bound cannot extend by a larger prime and
    # is not pushed.
    stack = [(1, 0)]
    while stack:
        v, start = stack.pop()
        for i in range(start, len(primes)):
            p = primes[i]
            w = v * p
            if w > bound:
                break
            while w <= bound:
                out.append(w)
                if w * p <= bound:
                    stack.append((w, i + 1))
                w *= p
        if len(out) > cap:
            raise CapacityError(f"smooth enumeration exceeds {cap} elements")
    out.sort()
    return out
