"""Desk-scale empirical scans: smooth-gap pair counts, consecutive-pair
counts, and prime tuple-translate counts with Hardy-Littlewood predictions."""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import _sieve
from ._sieve import SCAN_LIMIT, mem_budget, prime_flags, prime_windows
from .constants import hl_prediction
from .errors import CapacityError
from .smoothness import smooth_numbers_up_to
from .tuples import IntegerTuple, diameter

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
                raise ValueError(f"mode {self.mode!r} takes y and no tuple (--tuple-file)")
            if self.y < 2:
                raise ValueError(f"y must be at least 2, got {self.y}")
            if self.min_prime_count is not None:
                raise ValueError(
                    f"min_prime_count (--at-least) applies to {MODE_TRANSLATES!r} "
                    f"mode only, not {self.mode!r}"
                )
        elif self.mode == MODE_TRANSLATES:
            if self.tuple is None or self.y is not None:
                raise ValueError(
                    f"mode {self.mode!r} takes a tuple (--tuple-file) and no y (--y)"
                )
            m = self.min_prime_count
            if m is not None and not 1 <= m <= len(self.tuple):
                raise ValueError(
                    f"min_prime_count (--at-least) must be in 1..{len(self.tuple)}, got {m}"
                )
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


def _gap_values(req: ScanRequest, limit: int) -> np.ndarray:
    """The y-smooth gaps in [1, limit] ([2, limit] without gap one), ascending."""
    gaps = np.array(smooth_numbers_up_to(req.y, limit), dtype=np.int64)
    return gaps if req.include_gap_one else gaps[1:]


def _translate_counts(windows, H, ends, m: int | None, first: int):
    """For each of the ascending ends e, the count of n in [1, e) with n + h
    prime for every h in H, and the count of n with at least m of them prime
    (the same count when m is None or len(H)); and the first `first` n of
    the first kind. H ascends from 0.

    windows yields ascending, abutting (lo, flags) with flags[i] true iff
    lo + i is prime; each covers the n in [lo, lo + len(flags) - max(H)),
    and together they must cover the n below ends[-1]. Each window is
    split at the ends inside it; each piece ANDs the shifted slices of
    flags into one buffer and counts it. Only the at-least census fills a
    tally per piece, in the narrowest unsigned dtype that holds len(H).
    Nothing it allocates grows with the ends."""
    census = m is not None and m < len(H)
    top, reach = ends[-1], H[-1]
    buf = np.empty(0, dtype=bool)
    counts, at_least, hits = [], [], []
    total, enough, i = 0, 0, 0  # ends[:i] are recorded
    for lo, flags in windows:
        a, stop = max(lo, 1), min(lo + len(flags) - reach, top)
        while a < stop:
            while ends[i] <= a:
                counts.append(total)
                at_least.append(enough if census else total)
                i += 1
            b = min(ends[i], stop)
            if len(buf) < b - a:
                buf = np.empty(b - a, dtype=bool)
            both = flags[a - lo : b - lo]
            for h in H[1:]:
                both = np.logical_and(both, flags[a - lo + h : b - lo + h], out=buf[: b - a])
            total += int(np.count_nonzero(both))
            if len(hits) < first:
                hits += (np.flatnonzero(both)[: first - len(hits)] + a).tolist()
            if census:
                tally = np.zeros(b - a, dtype=np.min_scalar_type(len(H)))
                for h in H:
                    tally += flags[a - lo + h : b - lo + h]
                enough += int(np.count_nonzero(tally >= m))
            a = b
    counts += [total] * (len(ends) - i)
    at_least += [enough if census else total] * (len(ends) - i)
    return counts, at_least, hits


def _fft_length(n: int) -> int:
    """Power-of-two transform length for the linear autocorrelation of n
    points: at least 2n - 1, so no lag wraps round. 0 when n < 2, where
    there is no nonzero lag."""
    return 1 << (2 * n - 2).bit_length() if n >= 2 else 0


def _autocorrelation_sum(indicator: np.ndarray, lags: np.ndarray) -> int:
    """Sum over the given lags j >= 1 of #{t : indicator[t] and indicator[t + j]},
    exactly, from one FFT autocorrelation. Lags past the indicator add 0."""
    lags = lags[lags < len(indicator)]
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


def _fft_pair_counts(flags: np.ndarray, gaps: np.ndarray, checkpoints) -> list[int]:
    """Pair counts at each checkpoint over the even gaps, from one FFT
    autocorrelation of the odd-only prime indicator per checkpoint prefix
    (index t stands for 2t + 1): the even gap 2j is lag j."""
    lags = gaps // 2
    return [_autocorrelation_sum(flags[1 : c + 1 : 2], lags) for c in checkpoints]


def _per_gap_pair_counts(flags: np.ndarray, gaps: np.ndarray, checkpoints) -> list[int]:
    """Pair counts at each checkpoint from the windowed kernel once per gap
    s, with H = (0, s) and ends c - s + 1: the pairs (q, q + s) with
    q + s <= c. Its windows are views flags[a : a + WINDOW + s] of the one
    table. The gaps are spread over one thread per CPU: O(x) per gap and
    one window buffer per thread beyond the flag table."""

    def count_gap(s: int) -> list[int]:
        step = _sieve.WINDOW
        windows = ((a, flags[a : a + step + s]) for a in range(0, len(flags) - s, step))
        return _translate_counts(windows, (0, s), [c - s + 1 for c in checkpoints], None, 0)[0]

    with ThreadPoolExecutor(max_workers=_cpu_count()) as pool:
        partials = list(pool.map(count_gap, gaps))
    return [int(n) for n in sum(partials, np.zeros(len(checkpoints), dtype=np.int64))]


def _fft_is_cheaper(x: int, gaps: np.ndarray, checkpoints) -> bool:
    """Whether the FFT kernel fits mem_budget() and its estimated time is
    below the per-gap kernel's over the same gaps."""
    largest = _fft_length((x + 1) // 2)
    if x + 1 + FFT_BYTES_PER_POINT * largest > mem_budget():
        return False
    sizes = [_fft_length((c + 1) // 2) for c in checkpoints]
    fft_cost = FFT_COST_PER_BYTE * sum(n * n.bit_length() for n in sizes)
    return fft_cost < len(gaps) * (x + 1) - int(gaps.sum())


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def count_smooth_gap_pairs(req: ScanRequest) -> ScanReport:
    """Ordered pairs of primes p > q with p <= checkpoint and p - q y-smooth.

    An odd gap s pairs only (2, 2 + s), so odd gaps are counted here by one
    lookup per checkpoint. The even gaps go to one of two exact kernels,
    chosen per request by estimated time within the memory budget.

    _fft_pair_counts: one transform of length _fft_length((c + 1) // 2), in
    [c, 2c), per checkpoint c, O(c log c) each. That totals about 1.1 times
    the largest transform for checkpoints a factor of 10 apart, and up to
    len(checkpoints) times it when many checkpoints sit near x. It needs
    FFT_BYTES_PER_POINT bytes per point of the largest transform besides
    the (x + 1)-byte flag table, so under the default 4 GB budget it runs
    only for x <= 2^26 = 67,108,864.

    _per_gap_pair_counts: O(x) per even smooth gap, O(x * Psi(x, y)) in
    all, on one worker thread per CPU the process may run on, in no memory
    beyond the flag table and a block buffer per thread. It takes the
    requests the transform does not fit, so pairs mode is bounded in x
    only by the flag table (x + 1 <= mem_budget()), and those with few
    smooth gaps, such as y = 2 or 3.
    """
    if req.mode != MODE_PAIRS:
        raise ValueError(f"expected mode {MODE_PAIRS!r}")
    x = req.x_max
    flags = prime_flags(x)  # over budget fails here, before the gaps are enumerated
    gaps = _gap_values(req, x - 2) if x > 2 else np.empty(0, dtype=np.int64)
    odd, even = gaps[gaps % 2 == 1], gaps[gaps % 2 == 0]
    fft = _fft_is_cheaper(x, even, req.checkpoints)
    counts = (_fft_pair_counts if fft else _per_gap_pair_counts)(flags, even, req.checkpoints)
    records = tuple(
        CheckpointRecord(c, n + int(np.count_nonzero(flags[2 + odd[odd <= c - 2]])))
        for c, n in zip(req.checkpoints, counts)
    )
    return ScanReport(req, records, _pair_witnesses(flags, gaps))


def count_consecutive_smooth_gap_pairs(req: ScanRequest) -> ScanReport:
    """Adjacent prime pairs (q, next prime) <= checkpoint with y-smooth gap.

    One pass over prime_windows(x) that carries the last prime across
    windows: each window's primes, after the carried one, give its gaps.
    The smooth-gap lookup grows when a larger gap appears, each window adds
    its pairs to the checkpoint counts by one searchsorted, and the first
    MAX_WITNESSES pairs are kept, so nothing held grows with x."""
    if req.mode != MODE_CONSECUTIVE:
        raise ValueError(f"expected mode {MODE_CONSECUTIVE!r}")
    smooth_gap = np.zeros(1, dtype=bool)  # indexed by gap, grown to the widest so far
    counts = np.zeros(len(req.checkpoints), dtype=np.int64)
    witnesses = []
    carried = np.empty(0, dtype=np.int64)  # the last prime so far, once there is one
    for lo, flags in prime_windows(req.x_max):
        primes = np.concatenate((carried, np.flatnonzero(flags) + lo))
        gaps = np.diff(primes)
        widest = int(gaps.max(initial=0))
        if widest >= len(smooth_gap):
            smooth_gap = np.zeros(widest + 1, dtype=bool)
            smooth_gap[_gap_values(req, widest)] = True
        hit = smooth_gap[gaps]
        upper = primes[1:][hit]  # pair counted once the larger member is in range
        counts += np.searchsorted(upper, req.checkpoints, side="right")
        room = MAX_WITNESSES - len(witnesses)
        if room > 0:
            witnesses += zip(primes[:-1][hit][:room].tolist(), upper[:room].tolist())
        carried = primes[-1:]
    records = tuple(CheckpointRecord(c, int(n)) for c, n in zip(req.checkpoints, counts))
    return ScanReport(req, records, tuple(witnesses))


def count_tuple_translates(req: ScanRequest) -> ScanReport:
    """Integers n in [1, checkpoint) with n + h prime for every h of the
    tuple translated to start at 0, so (5, 7) counts as (0, 2) does, with
    Hardy-Littlewood predictions in ratio and integral form.

    With --at-least m, also the n with at least m of the n + h prime. One
    pass of the windowed kernel over prime_windows(x - 1 + diameter) with
    an overlap of the diameter: nothing it holds grows with x."""
    if req.mode != MODE_TRANSLATES:
        raise ValueError(f"expected mode {MODE_TRANSLATES!r}")
    H = req.tuple.canonical()
    m = req.min_prime_count
    d = diameter(H)
    counts, at_least, hits = _translate_counts(
        prime_windows(req.x_max - 1 + d, d), H.elements, req.checkpoints, m, MAX_WITNESSES
    )
    records = []
    for c, count, enough in zip(req.checkpoints, counts, at_least):
        ratio_pred = integral_pred = ratio = None
        if c > 2:
            ratio_pred = hl_prediction(H, float(c), "ratio-form")
            integral_pred = hl_prediction(H, float(c), "integral-form")
            if integral_pred > 0:
                ratio = count / integral_pred
        at_least_m = None if m is None else enough
        records.append(CheckpointRecord(c, count, ratio_pred, integral_pred, ratio, at_least_m))
    return ScanReport(req, tuple(records), tuple((n,) for n in hits))


def run_scan(req: ScanRequest) -> ScanReport:
    """Run the request's mode."""
    if req.mode == MODE_PAIRS:
        return count_smooth_gap_pairs(req)
    if req.mode == MODE_CONSECUTIVE:
        return count_consecutive_smooth_gap_pairs(req)
    return count_tuple_translates(req)


def _pair_witnesses(flags: np.ndarray, gaps: np.ndarray):
    """Earliest pairs (q, p) ordered by p then q ascending, capped."""
    out = []
    for p in itertools.compress(itertools.count(), flags):
        hi = np.searchsorted(gaps, p - 2, side="right")
        for s in gaps[:hi][::-1].tolist():  # descending gap: ascending q
            q = p - s
            if flags[q]:
                out.append((q, p))
                if len(out) == MAX_WITNESSES:
                    return tuple(out)
    return tuple(out)
