"""Smoothness predicates and smooth-number enumeration.

An integer is y-smooth when its largest prime factor is at most y;
1 is vacuously y-smooth for every y.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .errors import CapacityError
from .primes import _primes_upto, is_prime, mem_budget

# Peak bytes per element of smooth_numbers_up_to's result: a 32-byte int
# above 2^30, its list slot with over-allocation, and the sort's scratch.
# tracemalloc reads 44-45 at bounds 10^6 to 10^10 (CPython 3.11, x86-64).
SMOOTH_BYTES_PER_ELEMENT = 48
# Trial divisor past which is_smooth tests its cofactor for primality: by
# then the loop has run some 22,000 steps, which a Miller-Rabin test does
# not outweigh.
PRIME_TEST_FROM = 1 << 16


class SmoothnessCheck(NamedTuple):
    smooth: bool
    cofactor: int | None  # surviving rough part when not smooth

    def __bool__(self) -> bool:
        return self.smooth


def is_smooth(n: int, y: int) -> SmoothnessCheck:
    """Membership test for the y-smooth integers, by trial division up to
    min(y, sqrt(n)), stopping once the cofactor is <= y, or once it is a
    prime above y: tested when the divisor first passes PRIME_TEST_FROM and
    after each later division.

    Never factors the rough cofactor of a failing input. Above 2^64 the
    primality test is probabilistic (error below 4^-40), and so is a
    verdict that stops on it.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if y < 2:
        raise ValueError(f"y must be at least 2, got {y}")
    m = n
    # 2, 3, then 6j - 1 and 6j + 1: every prime, and few composites. A
    # composite d never divides, as its prime factors are smaller and
    # already divided out.
    wheel = itertools.accumulate(itertools.cycle((2, 4)), initial=5)
    tested = None  # the cofactor last found composite
    for d in itertools.chain((2, 3), wheel):
        # A cofactor <= y has only prime factors <= y. Past d > y it has
        # only prime factors above y; past d * d > m it is 1 or prime.
        if m <= y or d > y or d * d > m:
            break
        if d > PRIME_TEST_FROM and m != tested:
            if is_prime(m):  # a prime above y: the rough cofactor
                break
            tested = m
        while m % d == 0:
            m //= d
    return SmoothnessCheck(False, m) if m > y else SmoothnessCheck(True, None)


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
