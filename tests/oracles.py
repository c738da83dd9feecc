"""Independent brute-force oracles. Nothing here may call into smoothgap;
everything is naive trial division, exhaustive enumeration, or plain loops."""

from __future__ import annotations

import functools
import itertools
import math


def trial_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def trial_primes(limit: int) -> list[int]:
    return [n for n in range(2, limit + 1) if trial_is_prime(n)]


def simple_sieve(limit: int) -> bytearray:
    """flags[n] == 1 iff n prime, n in [0, limit]."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return flags


@functools.lru_cache(maxsize=None)
def largest_prime_factor(n: int) -> int | None:
    if n < 2:
        return None
    best = None
    d = 2
    while d * d <= n:
        while n % d == 0:
            best = d
            n //= d
        d += 1
    if n > 1:
        best = n
    return best


def brute_is_smooth(n: int, y: int) -> bool:
    lpf = largest_prime_factor(n)
    return lpf is None or lpf <= y


def brute_rough_part(n: int, y: int) -> int:
    """n with every prime factor <= y divided out."""
    rough = 1
    d = 2
    while d * d <= n:
        while n % d == 0:
            if d > y:
                rough *= d
            n //= d
        d += 1
    if n > y:  # n is now 1 or prime
        rough *= n
    return rough


def brute_obstruction(elements, prime_bound: int) -> int | None:
    """The smallest prime up to prime_bound whose residue classes the
    elements all cover, or None. Checks every prime, not just p <= k."""
    for p in trial_primes(prime_bound):
        if len({h % p for h in elements}) == p:
            return p
    return None


def brute_difference_smooth(elements, y: int) -> bool:
    return all(
        brute_is_smooth(b - a, y)
        for a, b in itertools.combinations(elements, 2)
    )


def brute_min_diameter(k: int, max_d: int, smooth_y: int | None = None):
    """Exhaustive minimal-diameter search over canonical tuples.

    Returns (diameter, lex-smallest tuple) or None if nothing exists with
    diameter <= max_d.
    """
    for d in range(k - 1, max_d + 1):
        for middle in itertools.combinations(range(1, d), k - 2):
            elements = (0,) + middle + (d,)
            if smooth_y is not None and not brute_difference_smooth(elements, smooth_y):
                continue
            if brute_obstruction(elements, d + k) is None:
                return d, elements
    return None


def brute_fixed_diameter(k: int, d: int, smooth_y: int | None = None):
    """The lex-smallest middles (h_1, ..., h_{k-2}), 0 < h_1 < ... < h_{k-2} < d,
    that make (0, h_1, ..., h_{k-2}, d) admissible, and difference
    smooth_y-smooth if smooth_y is given; None if there are none.

    Walks the middles depth first in lex order and drops a prefix that
    fails: every sub-tuple of a passing tuple passes too.
    """
    def passes(elements):
        if smooth_y is not None and not brute_difference_smooth(elements, smooth_y):
            return False
        return brute_obstruction(elements, d + k) is None

    def walk(middle):
        if len(middle) == k - 2:
            return middle
        for v in range(middle[-1] + 1 if middle else 1, d):
            if passes((0, *middle, v, d)):
                found = walk(middle + (v,))
                if found is not None:
                    return found
        return None

    return walk(()) if passes((0, d)) else None


def brute_pair_count(x: int, y: int, include_gap_one: bool = True) -> int:
    primes = trial_primes(x)
    count = 0
    for q, p in itertools.combinations(primes, 2):
        gap = p - q
        if gap == 1 and not include_gap_one:
            continue
        if brute_is_smooth(gap, y):
            count += 1
    return count


def brute_pairs(x: int, y: int, include_gap_one: bool = True) -> list:
    """Every pair (q, p) of primes q < p <= x with a y-smooth gap, ordered
    by p, then q."""
    primes = trial_primes(x)
    pairs = [
        (q, p)
        for q, p in itertools.combinations(primes, 2)
        if (p - q > 1 or include_gap_one) and brute_is_smooth(p - q, y)
    ]
    return sorted(pairs, key=lambda pair: (pair[1], pair[0]))


def brute_consecutive_pairs(x: int, y: int, include_gap_one: bool = True) -> list:
    primes = trial_primes(x)
    pairs = []
    for q, p in zip(primes, primes[1:]):
        gap = p - q
        if gap == 1 and not include_gap_one:
            continue
        if brute_is_smooth(gap, y):
            pairs.append((q, p))
    return pairs


def brute_consecutive_count(x: int, y: int, include_gap_one: bool = True) -> int:
    return len(brute_consecutive_pairs(x, y, include_gap_one))


def brute_translate_count(x: int, elements) -> int:
    flags = simple_sieve(x + max(elements))
    return sum(
        1
        for n in range(1, x)
        if all(flags[n + h] for h in elements)
    )


def sieve_translate_count(x: int, elements) -> int:
    """Bytearray-sieve translate counter, for scales where the all-n loop
    with trial division is too slow. Independent of the package's sieves."""
    els = sorted(h - min(elements) for h in elements)
    top = x - 1 + max(els)
    flags = bytearray([1]) * (top + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(top) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, top + 1, p)))
    primes = list(itertools.compress(range(top + 1), flags))
    prime_set = set(primes)
    # els[0] == 0, so any hit n is itself prime
    return sum(
        1
        for p in primes
        if p < x and all((p + h) in prime_set for h in els[1:])
    )


def direct_singular_series(elements, cutoff: int) -> float:
    """Plain running-product Hardy-Littlewood partial product."""
    k = len(elements)
    flags = simple_sieve(cutoff)
    value = 1.0
    for p in range(2, cutoff + 1):
        if not flags[p]:
            continue
        v = len({h % p for h in elements})
        value *= (1.0 - v / p) / (1.0 - 1.0 / p) ** k
    return value
