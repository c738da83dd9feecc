"""Desk-scale empirical scans: smooth-gap pair counts, consecutive-pair
counts, and prime tuple-translate counts with Hardy-Littlewood predictions."""

from __future__ import annotations

import bisect
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._sieve import SCAN_LIMIT, mem_budget, prime_flags
from .constants import hl_prediction
from .errors import CapacityError
from .smoothness import is_smooth, smooth_numbers_up_to
from .tuples import IntegerTuple, diameter, is_admissible

MAX_WITNESSES = 100

# Peak RSS growth of one numpy rfft/irfft autocorrelation, in bytes per
# transform point: the float input, the spectrum, the output and pocketfft's
# scratch buffers (tracemalloc sees only half, as the scratch bypasses
# numpy's allocator).
FFT_BYTES_PER_POINT = 32
# Largest tolerated distance of an autocorrelation value from an integer.
FFT_ROUNDOFF_GUARD = 0.25
# Time of one point-times-log2-length step of the FFT autocorrelation over
# one byte of the per-gap AND-and-count, measured with numpy 2 on x86-64
# (about 4 ns against 0.17 ns).
FFT_COST_PER_BYTE = 24
# Bytes of the flag table that the per-gap kernel ANDs in one numpy call.
PER_GAP_BLOCK = 1 << 20

MODE_PAIRS = "pairs"
MODE_CONSECUTIVE = "consecutive-pairs"
MODE_TRANSLATES = "tuple-translates"
_PAIR_MODES = (MODE_PAIRS, MODE_CONSECUTIVE)


@dataclass(frozen=True)
class ScanRequest:
    x_max: int
    mode: str
    y: int | None = None  # smoothness bound, pair modes only
    tuple: IntegerTuple | None = None  # translate mode only
    checkpoints: tuple[int, ...] = ()
    include_gap_one: bool = True
    min_prime_count: int | None = None  # optional at-least-m census, translate mode

    def __post_init__(self):
        if self.x_max < 1:
            raise ValueError(f"x_max must be positive, got {self.x_max}")
        if self.x_max > SCAN_LIMIT:
            raise CapacityError(
                f"x_max {self.x_max} exceeds the desk-scale guard {SCAN_LIMIT}"
            )
        if self.mode in _PAIR_MODES:
            if self.y is None or self.tuple is not None:
                raise ValueError(f"mode {self.mode!r} takes y and no tuple")
            if self.y < 2:
                raise ValueError(f"y must be at least 2, got {self.y}")
            if self.min_prime_count is not None:
                raise ValueError(
                    f"min_prime_count (--at-least) applies to {MODE_TRANSLATES!r} "
                    f"mode only, not {self.mode!r}"
                )
        elif self.mode == MODE_TRANSLATES:
            if self.tuple is None or self.y is not None:
                raise ValueError(f"mode {self.mode!r} takes a tuple and no y (--y)")
            if not self.include_gap_one:
                raise ValueError(
                    "include_gap_one=False (--exclude-gap-one) applies to the "
                    f"pair modes only, not {self.mode!r}"
                )
        else:
            raise ValueError(f"unknown mode {self.mode!r}")
        cps = self.checkpoints or (self.x_max,)
        if min(cps) < 1:
            raise ValueError(f"checkpoints must be positive: {cps}")
        if any(a >= b for a, b in zip(cps, cps[1:])):
            raise ValueError(f"checkpoints must be ascending: {cps}")
        if cps[-1] != self.x_max:
            raise ValueError("last checkpoint must equal x_max")
        object.__setattr__(self, "checkpoints", tuple(int(c) for c in cps))


@dataclass(frozen=True)
class CheckpointRecord:
    checkpoint: int
    count: int
    hl_ratio_prediction: float | None = None
    hl_integral_prediction: float | None = None
    ratio: float | None = None  # count / integral prediction
    at_least_m_count: int | None = None


@dataclass(frozen=True)
class ScanReport:
    request: ScanRequest
    records: tuple[CheckpointRecord, ...]
    witnesses: tuple[tuple[int, ...], ...] = field(default_factory=tuple)


def _gap_values(req: ScanRequest, limit: int) -> list[int]:
    start = 1 if req.include_gap_one else 2
    return [s for s in smooth_numbers_up_to(req.y, limit) if s >= start]


def _counts_from_positions(positions: np.ndarray, checkpoints, strict: bool):
    side = "left" if strict else "right"
    return np.searchsorted(positions, np.asarray(checkpoints), side=side)


def _fft_length(n: int) -> int:
    """Power-of-two transform length for the linear autocorrelation of n
    points: at least 2n - 1, so no lag wraps round. 0 when n < 2, where
    there is no nonzero lag."""
    return 1 << (2 * n - 2).bit_length() if n >= 2 else 0


def _autocorrelation_sum(indicator: np.ndarray, lags: np.ndarray) -> int:
    """Sum over the given lags j >= 1 of #{t : indicator[t] and indicator[t + j]},
    exactly, from one FFT autocorrelation."""
    if not len(lags):
        return 0
    size = _fft_length(len(indicator))
    spectrum = np.fft.rfft(indicator, size)
    np.multiply(spectrum, spectrum.conj(), out=spectrum)
    values = np.fft.irfft(spectrum, size)[lags]
    counts = np.rint(values)
    roundoff = float(np.max(np.abs(values - counts)))
    if roundoff >= FFT_ROUNDOFF_GUARD:
        raise FloatingPointError(
            f"autocorrelation of length {size} is {roundoff} away from an integer"
        )
    return int(counts.astype(np.int64).sum())


def _fft_pair_counts(flags: np.ndarray, gaps: list[int], checkpoints) -> list[int]:
    """Pair counts at each checkpoint from one FFT autocorrelation of the
    odd-only prime indicator per checkpoint prefix (index t stands for
    2t + 1): the even gaps 2j are lag j. A pair with an odd gap s has
    q = 2, so those are the pairs (2, 2 + s)."""
    gap_array = np.asarray(gaps, dtype=np.int64)
    even_lags = gap_array[gap_array % 2 == 0] // 2
    odd_gaps = gap_array[gap_array % 2 == 1]
    counts = []
    for c in checkpoints:
        indicator = flags[1 : c + 1 : 2]
        count = _autocorrelation_sum(indicator, even_lags[even_lags < len(indicator)])
        count += int(np.count_nonzero(flags[2 + odd_gaps[odd_gaps <= c - 2]]))
        counts.append(count)
    return counts


def _per_gap_pair_counts(
    flags: np.ndarray, gaps: list[int], checkpoints, threads: int = 1
) -> list[int]:
    """Pair counts at each checkpoint from one AND of the flag table with
    itself shifted by s, per gap s, in PER_GAP_BLOCK-byte blocks: O(x) per
    gap and one block buffer per worker thread beyond the flag table."""
    edges = [c + 1 for c in checkpoints]

    def count_gap(s: int) -> np.ndarray:
        buf = np.empty(min(PER_GAP_BLOCK, len(flags)), dtype=bool)
        counts = np.zeros(len(edges), dtype=np.int64)
        total, lo = 0, s
        for i, hi in enumerate(edges):
            for a in range(lo, hi, len(buf)):
                b = min(a + len(buf), hi)
                both = np.logical_and(flags[a:b], flags[a - s : b - s], out=buf[: b - a])
                total += int(np.count_nonzero(both))
            lo = max(lo, hi)
            counts[i] = total
        return counts

    if threads <= 1:
        partials = [count_gap(s) for s in gaps]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(count_gap, gaps))
    return [int(n) for n in sum(partials, np.zeros(len(edges), dtype=np.int64))]


def _fft_is_cheaper(x: int, gaps: list[int], checkpoints) -> bool:
    """Whether the FFT kernel fits mem_budget() and its estimated time is
    below the per-gap kernel's."""
    largest = _fft_length((x + 1) // 2)
    if x + 1 + FFT_BYTES_PER_POINT * largest > mem_budget():
        return False
    sizes = [_fft_length((c + 1) // 2) for c in checkpoints]
    fft_cost = FFT_COST_PER_BYTE * sum(n * n.bit_length() for n in sizes)
    return fft_cost < sum(x + 1 - s for s in gaps)


def count_smooth_gap_pairs(req: ScanRequest, threads: int = 1) -> ScanReport:
    """Ordered pairs of primes p > q with p <= checkpoint and p - q y-smooth.

    Two exact kernels, chosen per request by estimated time within the
    memory budget; both give the same counts.

    _fft_pair_counts: one transform of length _fft_length((c + 1) // 2), in
    [c, 2c), per checkpoint c, O(c log c) each. That totals about 1.1 times
    the largest transform for checkpoints a factor of 10 apart, and up to
    len(checkpoints) times it when many checkpoints sit near x. It needs
    FFT_BYTES_PER_POINT bytes per point of the largest transform besides
    the (x + 1)-byte flag table, so under the default 4 GB budget it runs
    only for x <= 2^26 = 67,108,864. It reads no `threads`.

    _per_gap_pair_counts: O(x) per smooth gap, O(x * Psi(x, y)) in all, on
    `threads` worker threads, in no memory beyond the flag table and a
    block buffer per thread. It takes the requests the transform does not
    fit, so pairs mode is bounded in x only by the flag table (x + 1 <=
    mem_budget()), and those with few smooth gaps, such as y = 2 or 3.
    """
    if req.mode != MODE_PAIRS:
        raise ValueError(f"expected mode {MODE_PAIRS!r}")
    x = req.x_max
    gaps = _gap_values(req, x - 2) if x > 2 else []
    flags = prime_flags(x)
    if _fft_is_cheaper(x, gaps, req.checkpoints):
        counts = _fft_pair_counts(flags, gaps, req.checkpoints)
    else:
        counts = _per_gap_pair_counts(flags, gaps, req.checkpoints, threads)
    records = tuple(CheckpointRecord(c, n) for c, n in zip(req.checkpoints, counts))
    return ScanReport(req, records, _pair_witnesses(flags, gaps))


def count_consecutive_smooth_gap_pairs(req: ScanRequest) -> ScanReport:
    """Adjacent prime pairs (q, next prime) <= checkpoint with y-smooth gap."""
    if req.mode != MODE_CONSECUTIVE:
        raise ValueError(f"expected mode {MODE_CONSECUTIVE!r}")
    primes = np.flatnonzero(prime_flags(req.x_max))
    gaps = np.diff(primes)
    smooth_gap = np.zeros(int(gaps.max(initial=0)) + 1, dtype=bool)
    for g in np.unique(gaps).tolist():
        smooth_gap[g] = (g > 1 or req.include_gap_one) and bool(is_smooth(g, req.y))
    mask = smooth_gap[gaps]
    upper = primes[1:][mask]  # pair counted once the larger member is in range
    records = tuple(
        CheckpointRecord(int(c), int(n))
        for c, n in zip(
            req.checkpoints, _counts_from_positions(upper, req.checkpoints, strict=False)
        )
    )
    witnesses = tuple(
        (int(q), int(p))
        for q, p in zip(primes[:-1][mask][:MAX_WITNESSES], upper[:MAX_WITNESSES])
    )
    return ScanReport(req, records, witnesses)


def count_tuple_translates(req: ScanRequest) -> ScanReport:
    """Integers n < checkpoint with n + h prime for every h in the tuple,
    with Hardy-Littlewood predictions in ratio and integral form."""
    if req.mode != MODE_TRANSLATES:
        raise ValueError(f"expected mode {MODE_TRANSLATES!r}")
    H = req.tuple.canonical()
    x = req.x_max
    flags = prime_flags(x - 1 + diameter(H))
    ok = np.ones(max(x - 1, 0), dtype=bool)  # index i covers n = i + 1
    for h in H:
        ok &= flags[1 + h : x + h]
    hits = np.flatnonzero(ok) + 1
    counts = _counts_from_positions(hits, req.checkpoints, strict=True)
    at_least = None
    if req.min_prime_count is not None:
        tallies = np.zeros(max(x - 1, 0), dtype=np.int16)
        for h in H:
            tallies += flags[1 + h : x + h]
        at_least_hits = np.flatnonzero(tallies >= req.min_prime_count) + 1
        at_least = _counts_from_positions(at_least_hits, req.checkpoints, strict=True)
    admissible = bool(is_admissible(H))
    records = []
    for i, c in enumerate(req.checkpoints):
        ratio_pred = integral_pred = ratio = None
        if c > 2:
            if admissible:
                ratio_pred = hl_prediction(H, float(c), "ratio-form")
                integral_pred = hl_prediction(H, float(c), "integral-form")
            else:
                ratio_pred = integral_pred = 0.0
            if integral_pred > 0:
                ratio = float(counts[i]) / integral_pred
        records.append(
            CheckpointRecord(
                int(c),
                int(counts[i]),
                ratio_pred,
                integral_pred,
                ratio,
                None if at_least is None else int(at_least[i]),
            )
        )
    witnesses = tuple((int(n),) for n in hits[:MAX_WITNESSES])
    return ScanReport(req, tuple(records), witnesses)


def run_scan(req: ScanRequest, threads: int = 1) -> ScanReport:
    """Run the request's mode; `threads` reaches only the per-gap pairs kernel."""
    if req.mode == MODE_PAIRS:
        return count_smooth_gap_pairs(req, threads)
    if req.mode == MODE_CONSECUTIVE:
        return count_consecutive_smooth_gap_pairs(req)
    return count_tuple_translates(req)


def _pair_witnesses(flags: np.ndarray, gaps: list[int]):
    """Earliest pairs (q, p) ordered by p then q ascending, capped."""
    out = []
    for p in np.flatnonzero(flags):
        p = int(p)
        hi = bisect.bisect_right(gaps, p - 2)
        for s in gaps[hi - 1 :: -1] if hi else ():  # descending gap: ascending q
            q = p - s
            if flags[q]:
                out.append((q, p))
                if len(out) == MAX_WITNESSES:
                    return tuple(out)
    return tuple(out)
