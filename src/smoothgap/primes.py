"""Prime lists, primality testing, primorials, largest-prime-below queries,
and the allocation budget that bounds the package's tables."""

from __future__ import annotations

import itertools
import math
import os
import random

from .errors import CapacityError

# is_prime is exact below this bound (fixed witness set); probabilistic above.
DETERMINISTIC_LIMIT = 1 << 64
# Miller-Rabin bases tried at or above DETERMINISTIC_LIMIT.
MR_ROUNDS = 40

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Sufficient witness set for all n < 2^64 (miller-rabin.appspot.com).
_WITNESSES_64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)

_DEFAULT_MEM_BUDGET = 4_000_000_000
# Peak bytes per prime of _primes_upto's tuple under tracemalloc, its ints and
# the list it is built from: 47.0-48.9 from 10^4 to 3e7, CPython 3.11, 64-bit.
_BYTES_PER_PRIME = 49


def mem_budget() -> int:
    """Allocation budget in bytes, overridable via SMOOTHGAP_MEM_BUDGET (a positive integer)."""
    raw = os.environ.get("SMOOTHGAP_MEM_BUDGET")
    if raw is None:
        return _DEFAULT_MEM_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget < 1:
        raise ValueError(f"SMOOTHGAP_MEM_BUDGET must be a positive integer of bytes, got {raw!r}")
    return budget


def check_budget(size: int, what: str) -> None:
    """Raise CapacityError when what, of size bytes, does not fit mem_budget()."""
    if size > mem_budget():
        raise CapacityError(f"{what} need {size} bytes, over budget {mem_budget()}")


def _primes_upto(limit: int) -> tuple[int, ...]:
    """All primes up to limit inclusive, ascending: the base primes of the
    sieve and the small limits of primorials, smoothness checks and
    admissibility. An odd-only bytearray sieve, flags[i] for 2i + 1, whose
    (limit + 1) // 2 bytes must fit mem_budget() with the tuple, charged at
    Rosser and Schoenfeld's pi(x) < 1.25506 x / ln x primes."""
    if limit < 0:
        raise ValueError(f"limit must be non-negative, got {limit}")
    size = (limit + 1) // 2
    most = 1.25506 * limit / math.log(limit) if limit > 1 else 0  # primes in the tuple
    check_budget(size + int(_BYTES_PER_PRIME * most), f"prime flags and tuple to {limit}")
    flags = bytearray(b"\x01") * size
    flags[:1] = b"\x00"  # 1
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if flags[i]:
            p = 2 * i + 1
            first = p * p // 2
            flags[first::p] = bytes(len(range(first, size, p)))
    odd = itertools.compress(itertools.count(1, 2), flags)
    return (2, *odd) if limit >= 2 else ()


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


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test.

    Exact for n < 2^64; for larger n the answer is probabilistic with
    MR_ROUNDS pseudo-random bases (seeded by n, so calls are reproducible).
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
        bases = [rng.randrange(2, n - 1) for _ in range(MR_ROUNDS)]
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
