"""Prime generation, primality testing, primorials, largest-prime-below queries."""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._sieve import prime_flags

# is_prime is exact below this bound (fixed witness set); probabilistic above.
DETERMINISTIC_LIMIT = 1 << 64
DEFAULT_MR_ROUNDS = 40

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Sufficient witness set for all n < 2^64 (miller-rabin.appspot.com).
_WITNESSES_64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)


@dataclass(frozen=True)
class PrimeTable:
    """All primes in [2, limit], ascending. Immutable and shareable."""

    limit: int
    primes: tuple[int, ...]

    def __contains__(self, n: int) -> bool:
        if not 2 <= n <= self.limit:
            return False
        i = bisect.bisect_left(self.primes, n)
        return i < len(self.primes) and self.primes[i] == n


def sieve_primes(limit: int) -> PrimeTable:
    """All primes up to `limit` inclusive, from the package's one sieve."""
    return PrimeTable(limit, tuple(np.flatnonzero(prime_flags(limit)).tolist()))


@lru_cache(maxsize=256)
def _primes_upto(limit: int) -> tuple[int, ...]:
    """The package's one cache of prime lists, for the small limits of
    primorials, smoothness checks and admissibility."""
    return sieve_primes(limit).primes


def _mr_composite_witness(n: int, a: int, d: int, s: int) -> bool:
    a %= n
    if a == 0:
        return False
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int, rounds: int = DEFAULT_MR_ROUNDS) -> bool:
    """Miller-Rabin primality test.

    Exact for n < 2^64; for larger n the answer is probabilistic with
    `rounds` pseudo-random bases (seeded by n, so calls are reproducible).
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n < DETERMINISTIC_LIMIT:
        bases = _WITNESSES_64
    else:
        rng = random.Random(n)
        bases = [rng.randrange(2, n - 1) for _ in range(rounds)]
    return not any(_mr_composite_witness(n, a, d, s) for a in bases)


def primorial(k: int) -> int:
    """Product of all primes <= k; 1 when no such prime exists."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    return math.prod(_primes_upto(k)) if k >= 2 else 1


def largest_prime_leq(k: int) -> int:
    """The maximal prime <= k. Requires k >= 2."""
    if k < 2:
        raise ValueError(f"no prime <= {k}")
    if k == 2:
        return 2
    n = k if k % 2 else k - 1
    while not is_prime(n):
        n -= 2
    return n
