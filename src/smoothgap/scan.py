"""Desk-scale empirical scans: smooth-gap pair counts, consecutive-pair
counts, and prime tuple-translate counts with Hardy-Littlewood predictions."""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from . import _sieve
from ._sieve import SCAN_LIMIT, _fold_windows, _window_primes, prime_flags
from .errors import CapacityError
from .primes import check_budget, is_prime, largest_prime_leq, mem_budget
from .smoothness import smooth_numbers_up_to
from .tuples import IntegerTuple

MAX_WITNESSES = 100

# Peak RSS growth of the wheel's two transforms and two inverses, in bytes
# per transform point, by ru_maxrss (tracemalloc misses pocketfft's scratch):
# 40.0 at 1.7e6 to 5e7 points with numpy 2 on x86-64 (43 at 1.35e5).
FFT_BYTES_PER_POINT = 40
# Largest tolerated distance of a correlation value from an integer.
FFT_ROUNDOFF_GUARD = 0.25
# Time of one point-times-log2-length step of the wheel's four transforms over
# one table byte of the per-gap AND-and-count, one CPU, numpy 2, x86-64, at
# x = 2^24 and 10^8: about 8 ns against 0.15 ns, the median of 16 ratios (27-65).
FFT_COST_PER_BYTE = 52

MODE_PAIRS = "pairs"
MODE_CONSECUTIVE = "consecutive-pairs"
MODE_TRANSLATES = "tuple-translates"
_PAIR_MODES = (MODE_PAIRS, MODE_CONSECUTIVE)


class _ScanFields(NamedTuple):
    x_max: int
    mode: str
    y: int | None = None  # smoothness bound, pair modes only
    tuple: IntegerTuple | None = None  # translate mode only
    checkpoints: tuple[int, ...] = ()
    include_gap_one: bool = True
    min_prime_count: int | None = None  # optional at-least-m census, translate mode


class ScanRequest(_ScanFields):
    """A scan's parameters, checked when made: which fields its mode takes,
    and ascending checkpoints ending at x_max (x_max alone by default)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
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
            raise ValueError(
                f"unknown mode {self.mode!r}; expected {MODE_PAIRS!r}, "
                f"{MODE_CONSECUTIVE!r} or {MODE_TRANSLATES!r}"
            )
        cps = self.checkpoints or (self.x_max,)
        if min(cps) < 1:
            raise ValueError(f"checkpoints must be positive: {cps}")
        if any(a >= b for a, b in zip(cps, cps[1:])):
            raise ValueError(f"checkpoints must be ascending: {cps}")
        if cps[-1] != self.x_max:
            raise ValueError("last checkpoint must equal x_max")
        return super().__new__(cls, **{**self._asdict(), "checkpoints": tuple(int(c) for c in cps)})

    @classmethod
    def _make(cls, iterable) -> ScanRequest:
        return cls(*iterable)  # NamedTuple's _replace calls _make, so it checks too


class CheckpointRecord(NamedTuple):
    checkpoint: int
    count: int
    hl_ratio_prediction: float | None = None
    hl_integral_prediction: float | None = None
    ratio: float | None = None  # count / integral prediction
    at_least_m_count: int | None = None


class ScanReport(NamedTuple):
    request: ScanRequest
    records: tuple[CheckpointRecord, ...]
    witnesses: tuple[tuple[int, ...], ...] = ()


def _gap_values(req: ScanRequest, limit: int) -> np.ndarray:
    """The y-smooth gaps in [1, limit] ([2, limit] without gap one), ascending."""
    first = 1 if req.include_gap_one else 2
    if req.y < limit:
        return np.array(smooth_numbers_up_to(req.y, limit), dtype=np.int64)[first - 1 :]
    check_budget(8 * (limit + 1 - first), f"the smooth gaps to {limit}")  # every gap: no list
    return np.arange(first, limit + 1, dtype=np.int64)


def _translate_counts(windows, shifts, ends, m: int | None, first: int):
    """For each of the ascending ends e, the count of flag indices j in
    [1, e) with flag j + s set for every s in shifts, and the count of j
    with at least m of them set (the same count when m is None or
    len(shifts)); and the first `first` j of the first kind. shifts ascend.

    windows yields ascending, abutting (start, flags) with flags[i] the
    flag of index start + i, the shape of a run of _fold_windows(fold,
    limit, shifts[-1]) and of views of a prime_flags table; each covers the
    j in [start, start + len(flags) - shifts[-1]), and together they must
    cover the j below ends[-1]. Each window is split at the ends inside it;
    each piece ANDs the shifted slices of flags into one buffer and counts
    it. Only the at-least census adds a tally per piece, in the narrowest
    unsigned dtype that holds len(shifts). Nothing it allocates grows with
    the ends."""
    census = m is not None and m < len(shifts)
    top, reach = ends[-1], shifts[-1]
    buf = np.empty(0, dtype=bool)
    counts, at_least, hits = [], [], []
    total, enough, i = 0, 0, 0  # ends[:i] are recorded
    for start, flags in windows:
        a, stop = max(start, 1), min(start + len(flags) - reach, top)
        while a < stop:
            while ends[i] <= a:
                counts.append(total)
                at_least.append(enough if census else total)
                i += 1
            b = min(ends[i], stop)
            if len(buf) < b - a:
                buf = np.empty(b - a, dtype=bool)
            both = flags[a - start + shifts[0] : b - start + shifts[0]]
            for s in shifts[1:]:
                both = np.logical_and(both, flags[a - start + s : b - start + s], out=buf[: b - a])
            total += int(np.count_nonzero(both))
            if len(hits) < first:
                hits += (np.flatnonzero(both)[: first - len(hits)] + a).tolist()
            if census:
                ones = flags.view(np.uint8)  # adds without a cast from bool
                tally = np.zeros(b - a, dtype=np.min_scalar_type(len(shifts)))
                for s in shifts:
                    tally += ones[a - start + s : b - start + s]
                enough += int(np.count_nonzero(tally >= m))
            a = b
    counts += [total] * (len(ends) - i)
    at_least += [enough if census else total] * (len(ends) - i)
    return counts, at_least, hits


def _fft_length(n: int) -> int:
    """Least even 2^a 3^b 5^c >= 2n - 1, over each odd part 3^b 5^c times
    the least 2^a >= 2 that reaches it: a length pocketfft transforms fast,
    at which no lag of a linear correlation of n points wraps round. 0 when n < 2."""
    need = 2 * n - 1
    odds = (3**b * 5**c for b in range(need.bit_length()) for c in range(need.bit_length()))
    return min(odd << max(1, (-(-need // odd) - 1).bit_length()) for odd in odds) if n > 1 else 0


def _wheel_sum(u: np.ndarray, v: np.ndarray, auto, ahead, behind) -> int:
    """Sum of the autocorrelations of u and of v at the lags auto and of the
    correlation #{t : u[t] and v[t + j]} at j in ahead and j = -k for k in
    behind, exactly. len(v) <= len(u); lags of len(u) or more add 0."""
    size = _fft_length(len(u))
    if not size:
        return 0
    auto, ahead, behind = (lags[lags < len(u)] for lags in (auto, ahead, behind))
    spectrum = np.fft.rfft(u, size)
    power = spectrum.real**2  # |U|^2 + |V|^2, real: no complex temporaries
    power += spectrum.imag**2
    cross = np.fft.rfft(v, size)
    power += cross.real**2
    power += cross.imag**2
    cross *= np.conjugate(spectrum, out=spectrum)  # conj(U) V, in place
    del spectrum
    values = np.fft.irfft(cross, size)
    del cross
    values = np.concatenate((values[ahead], values[size - behind]))  # frees the inverse
    values = np.concatenate((values, np.fft.irfft(power, size)[auto]))
    counts = np.rint(values)
    roundoff = float(np.max(np.abs(values - counts), initial=0.0))
    if roundoff >= FFT_ROUNDOFF_GUARD:
        raise FloatingPointError(f"correlation of length {size} is {roundoff} away from an integer")
    return int(counts.astype(np.int64).sum())


def _fft_pair_counts(table: np.ndarray, gaps: np.ndarray, checkpoints) -> list[int]:
    """Pair counts at each checkpoint c over the even gaps: q = 3 by one
    lookup, and a prime q >= 5, 6m + 1 or 6m + 5, from u and v, the flags
    3m and 3m + 2 of the odd table up to c. A gap s = 0 mod 6 is lag s / 6 of
    both autocorrelations; the correlation of u with v holds s = 4 mod 6
    (q = 1, p = 5) at lag (s - 4) / 6 and s = 2 (q = 5, p = 1) at -(s + 4) / 6."""
    reach = gaps[gaps + 3 < 2 * len(table)]  # 3 + s within the table
    threes = reach[table[(reach + 3) // 2]]  # the even gaps s with 3 + s prime
    lags = (gaps[gaps % 6 == 0] // 6, gaps[gaps % 6 == 4] // 6, gaps[gaps % 6 == 2] // 6 + 1)
    return [
        _wheel_sum(table[: (c + 1) // 2 : 3], table[2 : (c + 1) // 2 : 3], *lags)
        + int(np.searchsorted(threes, c - 3, side="right"))
        for c in checkpoints
    ]


def _per_gap_pair_counts(table: np.ndarray, gaps: np.ndarray, checkpoints) -> list[int]:
    """Pair counts at each checkpoint from the windowed kernel once per even
    gap s, with shifts (0, s / 2) and ends at the odd integers below
    c - s + 1: the pairs (q, q + s) with q + s <= c. Its windows are views
    table[a : a + WINDOW + s / 2] of the odd table: O(x) per gap. The gaps
    are dealt round-robin to the runs of _sieve._fold, as many as
    _sieve._run_count makes of each gap's pass counted as the table's full
    windows, and no more than the gaps: a table under one window forks
    nothing."""

    def count_gaps(run: np.ndarray) -> np.ndarray:
        counts = np.zeros(len(checkpoints), dtype=np.int64)
        for s in run.tolist():
            r, step = s // 2, _sieve.WINDOW
            windows = ((a, table[a : a + step + r]) for a in range(0, len(table) - r, step))
            ends = [(c - s + 1) // 2 for c in checkpoints]
            counts += _translate_counts(windows, (0, r), ends, None, 0)[0]
        return counts

    windows = len(gaps) * (len(table) // _sieve.WINDOW)  # full windows over all the gaps
    runs = max(1, min(_sieve._run_count(windows), len(gaps)))
    return [int(n) for n in sum(_sieve._fold(count_gaps, [gaps[i::runs] for i in range(runs)]))]


def _fft_is_cheaper(x: int, gaps: np.ndarray, checkpoints) -> bool:
    """Whether the FFT kernel fits mem_budget() beside the odd table and its
    estimated time is below the per-gap kernel's over the same even gaps,
    which reads (x + 1 - s) / 2 table bytes per gap s."""
    sizes = [_fft_length(((c + 1) // 2 + 2) // 3) for c in checkpoints]  # len(u) at c
    if (x + 1) // 2 + FFT_BYTES_PER_POINT * sizes[-1] > mem_budget():
        return False
    fft_cost = FFT_COST_PER_BYTE * sum(n * n.bit_length() for n in sizes)
    return fft_cost < (len(gaps) * (x + 1) - int(gaps.sum())) // 2


def count_smooth_gap_pairs(req: ScanRequest) -> ScanReport:
    """Ordered pairs of primes p > q with p <= checkpoint and p - q y-smooth.

    Both kernels read the odd table of prime_flags(x), (x + 1) / 2 bytes.
    An odd gap s pairs only (2, 2 + s), and 2 is never a flag, so odd gaps
    are counted here, from one lookup of the partners of 2. The even gaps go
    to one of two exact kernels, chosen per request by estimated time within
    the memory budget.

    _fft_pair_counts: per checkpoint c, q = 3 by lookup and the primes
    6m +- 1 from two transforms and two inverses of about c / 3 points (the
    _fft_length of a class's c / 6 flags), O(c log c). That totals about 1.1
    times the largest for checkpoints a factor of 10 apart, and up to
    len(checkpoints) times it when many sit near x. It needs
    FFT_BYTES_PER_POINT bytes per point of the largest besides the table, so
    under the default 4 GB budget it runs only for x <= 288,000,000.

    _per_gap_pair_counts: O(x) per even smooth gap, O(x * Psi(x, y)) in
    all, in forked runs of gaps, one per CPU the process may run on at most
    and none for a table under one window, in no memory beyond the table
    they share and a block buffer per run. It takes the requests the
    transform does not fit, so pairs mode is bounded in x only by the table
    ((x + 1) / 2 <= mem_budget()), and those with few smooth gaps, such as
    y = 2 or 3.
    """
    if req.mode != MODE_PAIRS:
        raise ValueError(f"expected mode {MODE_PAIRS!r}")
    x = req.x_max
    table = prime_flags(x)  # over budget fails here, before the gaps are enumerated
    gaps = _gap_values(req, x - 2) if x > 2 else np.empty(0, dtype=np.int64)
    odd, even = gaps[gaps % 2 == 1], gaps[gaps % 2 == 0]
    twos = odd[table[(2 + odd) // 2]]  # the odd gaps s with 2 + s prime
    fft = _fft_is_cheaper(x, even, req.checkpoints)
    counts = (_fft_pair_counts if fft else _per_gap_pair_counts)(table, even, req.checkpoints)
    records = tuple(
        CheckpointRecord(c, n + int(np.searchsorted(twos, c - 2, side="right")))
        for c, n in zip(req.checkpoints, counts)
    )
    return ScanReport(req, records, _pair_witnesses(table, even, twos))


def count_consecutive_smooth_gap_pairs(req: ScanRequest) -> ScanReport:
    """Adjacent prime pairs (q, next prime) <= checkpoint with y-smooth gap.

    A _fold_windows pass over the windows to x that carries the last prime
    across windows: each window's primes, after the carried one, give its
    gaps, and a run after the first carries the largest prime below it from
    the start. The smooth-gap lookup grows when a larger gap appears, each
    window adds its pairs to the checkpoint counts by one searchsorted, and
    the first MAX_WITNESSES pairs are kept, so nothing held grows with x.
    A pair is counted in the run of its larger member; the runs' counts add
    up and their witnesses join in window order."""
    if req.mode != MODE_CONSECUTIVE:
        raise ValueError(f"expected mode {MODE_CONSECUTIVE!r}")

    def fold(first: int, windows):
        smooth_gap = np.zeros(1, dtype=bool)  # indexed by gap, grown to the widest so far
        counts = np.zeros(len(req.checkpoints), dtype=np.int64)
        witnesses = []
        # the last prime so far, once there is one: below the run's first integer 2 * first + 1
        carried = np.array([largest_prime_leq(2 * first - 1)] if first else [], dtype=np.int64)
        for start, flags in windows:
            primes = np.concatenate((carried, _window_primes(start, flags, req.x_max)))
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
        return counts, witnesses

    runs = _fold_windows(fold, req.x_max)
    counts = sum(n for n, _ in runs)
    witnesses = [pair for _, pairs in runs for pair in pairs][:MAX_WITNESSES]
    records = tuple(CheckpointRecord(c, int(n)) for c, n in zip(req.checkpoints, counts))
    return ScanReport(req, records, tuple(witnesses))


def count_tuple_translates(req: ScanRequest) -> ScanReport:
    """Integers n in [1, checkpoint) with n + h prime for every h of the
    tuple translated to start at 0, so (5, 7) counts as (0, 2) does, with
    Hardy-Littlewood predictions in ratio and integral form.

    With --at-least m, also the n with at least m of the n + h prime.

    For n >= 3 an even n + h is composite, so the windowed kernel reads the
    odd flags in two classes: odd n, where only the even h can give a
    prime (shift h / 2), and even n, where only the odd h can, as
    (n - 1) + (h + 1) (shift (h + 1) / 2). An admissible tuple, and any
    tuple of one element, is all even, so it counts odd n only; a tuple
    with an odd h has every n + h prime only at n <= 2, and its census adds
    the two classes. n = 1 and 2 are checked directly. Each class that can
    reach the count asked for is one pass of the kernel over the windows of
    _fold_windows(fold, x - 1 + 2r, r), which are keyed by flag index as
    the kernel reads them and reach r = max(shifts) flags ahead, at most
    (diameter + 1) / 2: nothing it holds grows with x. _fold_windows splits
    each pass into runs, whose counts add up and whose witnesses join in
    window order. The ends and the witnesses turn flag indices into
    integers by // 2 and 2j + 1."""
    if req.mode != MODE_TRANSLATES:
        raise ValueError(f"expected mode {MODE_TRANSLATES!r}")
    from .constants import hl_predictions  # the pair modes never predict

    H = req.tuple.canonical()
    k, m = len(H), req.min_prime_count
    need = k if m is None else m
    small = sum(c <= 2 for c in req.checkpoints)  # no prediction below x = 3
    predictions = [(None, None)] * small + hl_predictions(H, req.checkpoints[small:])
    direct = [(n, sum(is_prime(n + h) for h in H)) for n in (1, 2) if n < req.x_max]
    counts = [sum(t == k for n, t in direct if n < c) for c in req.checkpoints]
    at_least = [sum(t >= need for n, t in direct if n < c) for c in req.checkpoints]
    hits = [n for n, t in direct if t == k]
    classes = (
        (0, [h // 2 for h in H if h % 2 == 0]),  # odd n
        (1, [(h + 1) // 2 for h in H if h % 2]),  # even n, indexed as n - 1
    )
    for offset, shifts in classes:
        if len(shifts) < need:
            continue  # no n of this class has that many n + h prime
        ends = [(c - offset) // 2 for c in req.checkpoints]
        room = MAX_WITNESSES - len(hits)
        runs = _fold_windows(
            lambda _, windows: _translate_counts(windows, shifts, ends, m, room),
            req.x_max - 1 + 2 * shifts[-1],
            shifts[-1],
        )
        for full, enough, found in runs:
            at_least = [a + b for a, b in zip(at_least, enough)]
            if len(shifts) == k:  # the odd n of an all-even tuple
                counts = [a + b for a, b in zip(counts, full)]
                hits += [2 * j + 1 for j in found[: MAX_WITNESSES - len(hits)]]
    records = []
    rows = zip(req.checkpoints, counts, at_least, predictions)
    for c, count, enough, (ratio_pred, integral_pred) in rows:
        ratio = count / integral_pred if integral_pred else None
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


def _pair_witnesses(table: np.ndarray, even: np.ndarray, twos: np.ndarray):
    """Earliest pairs (q, p) ordered by p then q ascending, capped: (2, 2 + s)
    for s in twos, then the odd q = p - s for the even gaps s."""
    out = []
    k = 0  # the pairs (2, 2 + s) for s in twos[:k] are out
    for p in itertools.compress(itertools.count(1, 2), table):  # 2i + 1 for flag i
        if k < len(twos) and twos[k] + 2 == p:
            out.append((2, p))
            k += 1
        qs = p - even[: np.searchsorted(even, p - 3, side="right")][::-1]  # ascending q >= 3
        out += [(q, p) for q in qs[table[qs // 2]].tolist()]
        if len(out) >= MAX_WITNESSES:
            return tuple(out[:MAX_WITNESSES])
    return tuple(out)
