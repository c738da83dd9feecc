"""Smoothness predicates and smooth-number enumeration.

An integer is y-smooth when its largest prime factor is at most y;
1 is vacuously y-smooth for every y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import CapacityError, FactorBudgetError
from .primes import DETERMINISTIC_LIMIT, is_prime, mem_budget, sieve_primes

DEFAULT_TRIAL_LIMIT = 1_000_000


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


@lru_cache(maxsize=256)
def _primes_leq(y: int) -> tuple[int, ...]:
    return sieve_primes(y).primes


def factorize(n: int, trial_limit: int = DEFAULT_TRIAL_LIMIT) -> SmoothnessCertificate:
    """Factor n by trial division.

    Raises FactorBudgetError when a composite residual survives with no
    prime factor <= trial_limit.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    m = n
    factors: list[tuple[int, int]] = []

    def strip(p: int) -> None:
        nonlocal m
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            factors.append((p, e))

    strip(2)
    strip(3)
    d = 5
    while d * d <= m and d <= trial_limit:
        strip(d)
        strip(d + 2)
        d += 6
    probabilistic = False
    if m > 1:
        if d * d > m:
            factors.append((m, 1))  # no factor <= sqrt(m): residual is prime
        elif is_prime(m):
            factors.append((m, 1))
            probabilistic = m >= DETERMINISTIC_LIMIT
        else:
            raise FactorBudgetError(n, m, trial_limit)
    lpf = factors[-1][0] if factors else None
    return SmoothnessCertificate(n, tuple(factors), lpf, probabilistic)


def is_smooth(n: int, y: int) -> SmoothnessCheck:
    """Membership test for the y-smooth integers, by repeated division.

    Never factors the rough cofactor of a failing input.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if y < 2:
        raise ValueError(f"y must be at least 2, got {y}")
    m = n
    factors: list[tuple[int, int]] = []
    for p in _primes_leq(y):
        if p * p > m:
            break
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            factors.append((p, e))
    if 1 < m <= y:
        # residual has no factor <= min(sqrt, y) below it, hence prime
        factors.append((m, 1))
        m = 1
    if m != 1:
        return SmoothnessCheck(False, None, m)
    lpf = factors[-1][0] if factors else None
    return SmoothnessCheck(True, SmoothnessCertificate(n, tuple(factors), lpf), None)


def smooth_numbers_up_to(y: int, bound: int) -> list[int]:
    """All y-smooth integers in [1, bound], ascending."""
    if y < 2:
        raise ValueError(f"y must be at least 2, got {y}")
    if bound < 1:
        raise ValueError(f"bound must be positive, got {bound}")
    cap = mem_budget() // 8
    primes = _primes_leq(y)
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
