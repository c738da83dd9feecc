"""Independent reference values for the benchmark's output checks.

Nothing here imports smoothgap. Primes come from an odd-only numpy sieve
that checks itself against published counts, ordered pair counts from an
autocorrelation of the prime indicator (a different method from the
program's per-gap loop), and the Hardy-Littlewood integral from mpmath.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

# pi(10^e) and the number of twin-prime pairs (p, p + 2) below 10^e
# (OEIS A006880 and A007508).
PRIME_COUNTS = {10**6: 78_498, 10**7: 664_579, 10**8: 5_761_455}
TWIN_COUNTS = {10**6: 8_169, 10**7: 58_980, 10**8: 440_312}

# Minimal diameters H(k) of admissible k-tuples (OEIS A008407; Polymath8b,
# "Variants of the Selberg sieve, and bounded intervals containing many
# primes", 2014, for k = 50).
KNOWN_MIN_DIAMETER = {
    2: 2, 3: 6, 4: 8, 5: 12, 6: 16, 7: 20, 8: 26, 9: 30, 10: 32,
    11: 36, 12: 42, 18: 70, 50: 246,
}

# Published k_m (fewest tuple elements guaranteeing m primes among n + H):
# Polymath8b unconditionally, and k_2 = 5 under Elliott-Halberstam.
KM_UNCONDITIONAL = ((2, 50), (3, 35265), (4, 1624545), (5, 73807570), (6, 3340375663))
KM_CONDITIONAL = ((2, 5),)

# Relative tolerance on every Hardy-Littlewood float the program prints:
# ten significant digits of the twelve it shows.
HL_RTOL = 1e-10


class OracleError(Exception):
    """The reference itself failed a self-check; no comparison is possible."""


class Primes:
    """Primality of every integer in [0, limit], from an odd-only sieve."""

    def __init__(self, limit: int):
        limit = max(limit, 10**6 + 2)  # the self-check counts twins up to 10^6 + 1
        self.limit = limit
        odd = np.ones(limit // 2 + 1, dtype=bool)  # odd[i] is 2i + 1
        odd[0] = False
        for i in range(1, (math.isqrt(limit) - 1) // 2 + 1):
            if odd[i]:
                p = 2 * i + 1
                odd[p * p // 2 :: p] = False
        if limit % 2 == 0:
            odd[-1] = False  # 2i + 1 = limit + 1 lies outside the range
        self.odd = odd
        self._self_check()

    def _self_check(self) -> None:
        for n, want in PRIME_COUNTS.items():
            if n <= self.limit and self.pi(n) != want:
                raise OracleError(f"oracle sieve gives pi({n}) = {self.pi(n)}, not {want}")
        for n, want in TWIN_COUNTS.items():
            if n <= self.limit:
                got = self.count_translates((0, 2), [n])[0]
                if got != want:
                    raise OracleError(f"oracle sieve gives {got} twin pairs below {n}, not {want}")

    def pi(self, n: int) -> int:
        return int(np.count_nonzero(self.odd[: (n + 1) // 2])) + (n >= 2)

    def primes_upto(self, n: int) -> np.ndarray:
        odd = np.flatnonzero(self.odd[: (n + 1) // 2]) * 2 + 1
        return np.concatenate(([2], odd)) if n >= 2 else odd[:0]

    def is_prime(self, n: int) -> bool:
        if n <= self.limit:
            return n == 2 or (n % 2 == 1 and bool(self.odd[n // 2]))
        if n % 2 == 0:
            return False
        root = math.isqrt(n)
        if root > self.limit:
            raise OracleError(f"{n} is beyond the oracle's trial-division range")
        return not np.any(n % self.primes_upto(root) == 0)

    def _translate_hits(self, H, x: int) -> list[np.ndarray]:
        # n is odd: an even n would make every n + h even (H has even
        # differences), so at most one element could be prime.
        if any((h - H[0]) % 2 for h in H) or len(H) < 2 or H[0] != 0:
            raise OracleError(f"oracle takes canonical tuples with even differences, not {H}")
        n_odd = x // 2  # odd n = 2i + 1 < x
        if H[-1] // 2 + n_odd > len(self.odd):
            raise OracleError(f"translates to {x} need primes past {self.limit}")
        return [self.odd[h // 2 : h // 2 + n_odd] for h in H]

    def count_translates(self, H, checkpoints, at_least: int | None = None):
        """Number of n < c with n + h prime for every h (or for at least
        `at_least` of them), for each checkpoint c."""
        x = max(checkpoints)
        rows = self._translate_hits(H, x)
        if at_least is None:
            hits = np.logical_and.reduce(rows)
        else:
            if at_least < 2:
                raise OracleError("at-least counts below 2 include even n")
            hits = np.add.reduce([r.astype(np.int8) for r in rows]) >= at_least
        return [int(np.count_nonzero(hits[: c // 2])) for c in checkpoints]

    def first_translates(self, H, x: int, limit: int) -> list[int]:
        hits = np.logical_and.reduce(self._translate_hits(H, x))
        return [int(i) * 2 + 1 for i in np.flatnonzero(hits)[:limit]]


def rough_part(n: int, y: int) -> int:
    """n with every prime factor <= y divided out."""
    for p in range(2, y + 1):
        if all(p % q for q in range(2, math.isqrt(p) + 1)):
            while n % p == 0:
                n //= p
    return n


def smooth_flags(y: int, bound: int) -> np.ndarray:
    """s[n] true iff n in [1, bound] is y-smooth, by dividing out prime powers."""
    rest = np.arange(bound + 1, dtype=np.int64)
    for p in range(2, y + 1):
        if rough_part(p, p - 1) == p:  # p is prime
            q = p
            while q <= bound:
                rest[::q] //= p
                q *= p
    flags = rest == 1
    flags[0] = False
    return flags


def ordered_pair_counts(primes: Primes, y: int, checkpoints, include_gap_one: bool):
    """Ordered prime pairs q < p <= c with p - q y-smooth, per checkpoint,
    read off the autocorrelation of the prime indicator."""
    x = max(checkpoints)
    smooth = smooth_flags(y, x)
    if not include_gap_one:
        smooth[1] = False
    out = []
    for c in checkpoints:
        indicator = np.zeros(c + 1)
        indicator[primes.primes_upto(c)] = 1.0
        size = 1 << (2 * (c + 1) - 1).bit_length()
        spectrum = np.fft.rfft(indicator, size)
        lags = np.fft.irfft(spectrum * np.conj(spectrum), size)[: c + 1]
        exact = np.rint(lags)
        margin = float(np.max(np.abs(lags - exact)))
        if margin >= 0.25:
            raise OracleError(f"autocorrelation roundoff {margin} at c = {c}")
        out.append(int(exact[smooth[: c + 1]].sum()))
    return out


def first_ordered_pairs(primes: Primes, y: int, include_gap_one: bool, limit: int):
    """The first `limit` pairs (q, p), ordered by p then q."""
    smallest_gap = 1 if include_gap_one else 2
    ps = [int(p) for p in primes.primes_upto(10**5)]
    out = []
    for i, p in enumerate(ps):
        for q in ps[:i]:
            if p - q >= smallest_gap and rough_part(p - q, y) == 1:
                out.append((q, p))
                if len(out) == limit:
                    return out
    raise OracleError("not enough pairs below 10^5")


def consecutive_pairs(primes: Primes, y: int, checkpoints, include_gap_one: bool, limit: int):
    """Counts of adjacent primes (q, p), p <= c, with y-smooth gap, and the
    first `limit` such pairs."""
    ps = primes.primes_upto(max(checkpoints))
    gaps = np.diff(ps)
    smooth = smooth_flags(y, int(gaps.max()))
    if not include_gap_one:
        smooth[1] = False
    mask = smooth[gaps]
    upper = ps[1:][mask]
    counts = [int(np.searchsorted(upper, c, side="right")) for c in checkpoints]
    first = [(int(q), int(p)) for q, p in zip(ps[:-1][mask][:limit], upper[:limit])]
    return counts, first


def coverage(H, p: int) -> int:
    return len({h % p for h in H})


def admissibility(H) -> tuple[bool, int | None]:
    """(admissible, smallest prime whose residues H covers completely)."""
    for p in range(2, len(H) + 1):
        if rough_part(p, p - 1) == p and coverage(H, p) == p:
            return False, p
    return True, None


def singular_series(primes: Primes, H, cutoff: int) -> float:
    """prod over p <= cutoff of (1 - v_p / p) / (1 - 1 / p)^k, H admissible."""
    k = len(H)
    ps = primes.primes_upto(cutoff).astype(np.float64)
    v = np.full(ps.shape, float(k))
    for i, p in enumerate(ps[ps <= H[-1] - H[0]]):
        v[i] = coverage(H, int(p))
    terms = np.log1p(-v / ps) - k * np.log1p(-1.0 / ps)
    return math.exp(math.fsum(terms.tolist()))


def hl_integral(k: int, x: float) -> float:
    """int_2^x dt / log(t)^k, split at powers of ten."""
    with mpmath.workdps(30):
        points = [2] + [10**e for e in range(1, int(math.log10(x)) + 1) if 10**e < x] + [x]
        return float(mpmath.quad(lambda t: mpmath.log(t) ** -k, points))


def close(got, want: float, rtol: float = HL_RTOL) -> bool:
    return got is not None and abs(got - want) <= rtol * abs(want)
