import bisect
import functools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from smoothgap.cli import scan_report_json
from smoothgap.constants import singular_series
from smoothgap.errors import CapacityError
from smoothgap._sieve import WINDOW, _fold_windows, prime_flags
from smoothgap.scan import (
    FFT_BYTES_PER_GAP,
    FFT_BYTES_PER_POINT,
    MAX_WITNESSES,
    ScanRequest,
    _fft_is_cheaper,
    _fft_length,
    _fft_pair_counts,
    _gap_values,
    _per_gap_pair_counts,
    _translate_counts,
    count_consecutive_smooth_gap_pairs,
    count_smooth_gap_pairs,
    count_tuple_translates,
    run_scan,
)
from smoothgap.tuples import IntegerTuple, construct_consecutive_prime_tuple, diameter

from tests.oracles import (
    brute_consecutive_count,
    brute_consecutive_pairs,
    brute_is_smooth,
    brute_pair_count,
    brute_pairs,
    brute_translate_count,
    simple_sieve,
    trial_primes,
)


def test_request_validation():
    with pytest.raises(ValueError):
        ScanRequest(x_max=10, mode="pairs")  # missing y
    with pytest.raises(ValueError):
        ScanRequest(x_max=10, mode="tuple-translates", y=2)
    with pytest.raises(ValueError):
        ScanRequest(x_max=10, mode="pairs", y=2, checkpoints=(5, 7))
    with pytest.raises(ValueError):
        ScanRequest(x_max=10, mode="pairs", y=2, checkpoints=(7, 5, 10))
    with pytest.raises(ValueError):
        ScanRequest(x_max=10, mode="no-such-mode", y=2)
    with pytest.raises(CapacityError):
        ScanRequest(x_max=10**12 + 1, mode="pairs", y=2)


def test_request_rejects_ignored_fields():
    with pytest.raises(ValueError):
        ScanRequest(x_max=10, mode="pairs", y=2, min_prime_count=2)
    with pytest.raises(ValueError):
        ScanRequest(x_max=10, mode="consecutive-pairs", y=2, min_prime_count=2)
    with pytest.raises(ValueError):
        ScanRequest(
            x_max=10, mode="tuple-translates", tuple=IntegerTuple((0, 2)),
            include_gap_one=False,
        )
    for checkpoints in ((0, 10), (-3, 10)):
        with pytest.raises(ValueError):
            ScanRequest(x_max=10, mode="pairs", y=2, checkpoints=checkpoints)
    for m in (0, -4, 3):
        with pytest.raises(ValueError):
            ScanRequest(
                x_max=10, mode="tuple-translates", tuple=IntegerTuple((0, 2)),
                min_prime_count=m,
            )
    for m in (1, 2):
        ScanRequest(
            x_max=10, mode="tuple-translates", tuple=IntegerTuple((0, 2)),
            min_prime_count=m,
        )


def test_scan_records_are_immutable():
    req = ScanRequest(10, "pairs", y=2, checkpoints=[np.int64(5), 10])
    assert req.checkpoints == (5, 10) and all(type(c) is int for c in req.checkpoints)
    report = run_scan(req)
    for record, name in ((report, "records"), (report, "witnesses"), (req, "y")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        req.extra = 1
    assert req._replace(y=3) == ScanRequest(10, "pairs", y=3, checkpoints=(5, 10))
    with pytest.raises(ValueError):
        req._replace(y=1)


def test_scan_request_made_from_a_row_is_checked():
    with pytest.raises(ValueError):
        ScanRequest._make((10, "pairs", 1, None, (7, 3), True, None))
    row = (10, "pairs", 2, None, (5, 10), True, None)
    assert ScanRequest._make(row) == ScanRequest(10, "pairs", y=2, checkpoints=(5, 10))
    assert type(ScanRequest._make(row)) is ScanRequest


def test_pairs_hand_examples():
    assert run_scan(ScanRequest(10, "pairs", y=2)).records[0].count == 4
    assert (
        run_scan(ScanRequest(10, "pairs", y=2, include_gap_one=False)).records[0].count
        == 3
    )
    assert run_scan(ScanRequest(10, "pairs", y=47)).records[0].count == 6


def test_consecutive_hand_examples():
    assert run_scan(ScanRequest(10, "consecutive-pairs", y=2)).records[0].count == 3
    assert (
        run_scan(
            ScanRequest(10, "consecutive-pairs", y=2, include_gap_one=False)
        ).records[0].count
        == 2
    )
    assert run_scan(ScanRequest(100, "consecutive-pairs", y=2)).records[
        0
    ].count == brute_consecutive_count(100, 2)


@pytest.mark.parametrize("y", [2, 3, 5, 47])
@pytest.mark.parametrize("gap_one", [True, False])
def test_pairs_match_oracle(y, gap_one):
    req = ScanRequest(2000, "pairs", y=y, include_gap_one=gap_one)
    report = count_smooth_gap_pairs(req)
    assert report.records[0].count == brute_pair_count(2000, y, gap_one)
    # more than MAX_WITNESSES pairs: the witnesses stop at the cap
    assert report.witnesses == tuple(brute_pairs(2000, y, gap_one)[:MAX_WITNESSES])


def test_fft_length_is_the_least_even_5_smooth_length():
    def five_smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    assert [_fft_length(n) for n in (0, 1)] == [0, 0]
    for n in range(2, 2000):
        size = 2 * n - 1
        while size % 2 or not five_smooth(size):
            size += 1
        assert _fft_length(n) == size
    # larger n, where the least length may be a power of two
    assert _fft_length(166_667) == 337_500 == 2**2 * 3**3 * 5**5
    assert _fft_length(16_666_667) == 2**25
    # 10^6 and 10^8: class 1 of the wheel holds the n flags of 30m + 1 up to
    # x, about x / 30, transformed at _fft_length(n + 1)
    assert _fft_length(33_335) == 67_500 == 2**2 * 3**3 * 5**4
    assert _fft_length(3_333_335) == 6_718_464 == 2**10 * 3**8


def test_fft_cliff_is_510_million_under_the_default_budget(monkeypatch):
    # at x = 510,183,330 class 1 holds the 17,006,111 flags of 30m + 1 <= x,
    # and 2^6 * 3^12 = 34,012,224 points is the least even 5-smooth length
    # >= 2 * 17,006,112 - 1; one integer more adds a flag to class 1 and needs
    # 2^11 * 3^3 * 5^4 = 34,560,000 points, over the 4e9 bytes
    monkeypatch.delenv("SMOOTHGAP_MEM_BUDGET", raising=False)
    x = 510_183_330
    gaps = np.arange(2, 20000, 2)
    assert ((x + 1) // 2, (x + 2) // 2) == (15 * 17_006_111, 15 * 17_006_111 + 1)
    assert _fft_length(17_006_112) == 34_012_224 == 2**6 * 3**12
    assert _fft_length(17_006_113) == 34_560_000 == 2**11 * 3**3 * 5**4
    gap_bytes = FFT_BYTES_PER_GAP * len(gaps)
    assert (x + 1) // 2 + FFT_BYTES_PER_POINT * 34_012_224 + gap_bytes <= 4 * 10**9
    assert (x + 2) // 2 + FFT_BYTES_PER_POINT * 34_560_000 + gap_bytes > 4 * 10**9
    assert _fft_is_cheaper(x, gaps, (x,))
    assert not _fft_is_cheaper(x + 1, gaps, (x + 1,))


def test_fft_fit_counts_the_even_gaps(monkeypatch):
    # y >= x hands the FFT every even gap below x, 49,999 of them at 10^5: the
    # odd table and the transform of class 1's 3,334 flags fit a budget too
    # small for them with the gaps
    x = 10**5
    gaps = np.arange(2, x - 1, 2)
    fit = (x + 1) // 2 + FFT_BYTES_PER_POINT * _fft_length(3_335)
    monkeypatch.setenv("SMOOTHGAP_MEM_BUDGET", str(fit + FFT_BYTES_PER_GAP * len(gaps)))
    assert _fft_is_cheaper(x, gaps, (x,))
    monkeypatch.setenv("SMOOTHGAP_MEM_BUDGET", str(fit + FFT_BYTES_PER_GAP * len(gaps) - 1))
    assert not _fft_is_cheaper(x, gaps, (x,))
    monkeypatch.setenv("SMOOTHGAP_MEM_BUDGET", str(fit + 8 * len(gaps)))  # the gaps' own int64s
    assert not _fft_is_cheaper(x, gaps, (x,))


KERNEL_CHOICES = [
    (10**8, 47, 1, True),
    (2 * 10**8, 47, 1, True),
    (10**8, 3, 1, False),
    # the per-gap kernel's estimate is divided among its runs, one per CPU
    (10**8, 5, 1, True),
    (10**8, 5, 2, False),
]


@pytest.mark.parametrize(
    "x, y, cpus, fft", KERNEL_CHOICES, ids=[f"{x}-{y}-{fft}" for x, y, _, fft in KERNEL_CHOICES]
)
def test_kernel_choice_at_1e8_by_arithmetic(x, y, cpus, fft, monkeypatch):
    # by the cost model alone: nothing is sieved or transformed
    monkeypatch.delenv("SMOOTHGAP_MEM_BUDGET", raising=False)
    monkeypatch.setattr("smoothgap._sieve._cpu_count", lambda: cpus)
    _, even = _gap_values(ScanRequest(x, "pairs", y=y), x - 2)
    assert _fft_is_cheaper(x, even, (x,)) == fft


def test_gap_values_match_oracle():
    # every y from 2 to limit + 2: enumerated below y^2 < limit, struck from
    # a mask up to y < limit, every gap from there on
    top = 4096
    # least[n]: the least y >= 2 with n y-smooth, by bisection over the oracle
    least = np.array([0] + [
        2 + bisect.bisect_left(range(2, n + 2), True, key=functools.partial(brute_is_smooth, n))
        for n in range(1, top + 1)
    ])
    for limit in (1, 2, 30, 100, 1000, top):
        for y in range(2, limit + 3):
            expected = np.flatnonzero(least[: limit + 1] <= y)[1:]  # from 1
            for gap_one in (True, False):
                gaps = expected[expected >= (1 if gap_one else 2)]
                req = ScanRequest(limit + 2, "pairs", y=y, include_gap_one=gap_one)
                odd, even = _gap_values(req, limit)
                assert odd.dtype == even.dtype == np.int64
                assert np.array_equal(odd, gaps[gaps % 2 == 1]), (limit, y, gap_one)
                assert np.array_equal(even, gaps[gaps % 2 == 0]), (limit, y, gap_one)


def test_pairs_with_y_just_below_x_strike_the_rough_gaps(monkeypatch):
    # y = 999,950 at x = 10^6: the gaps not smooth are the primes 999,953,
    # 999,959, 999,961, 999,979 and 999,983, which only q = 2 could pair, and
    # (2, 999,961) is the one pair they take from C(pi(10^6), 2). The budget
    # fits the FFT and the mask, not the enumeration's 48 bytes per gap.
    x, y, pi = 10**6, 999_950, 78_498  # pi(10^6), OEIS A006880
    flags = simple_sieve(x)
    assert sum(flags) == pi
    rough = [(q, p) for q in range(x - y) for p in range(q + y + 1, x + 1)
             if flags[q] and flags[p] and not brute_is_smooth(p - q, y)]
    assert rough == [(2, 999_961)]
    monkeypatch.setenv("SMOOTHGAP_MEM_BUDGET", str(30 * 10**6))
    report = count_smooth_gap_pairs(ScanRequest(x, "pairs", y=y))
    assert report.records[0].count == math.comb(pi, 2) - len(rough)


def _counts_by_kernel(monkeypatch, req: ScanRequest, fft: bool) -> list[int]:
    """count_smooth_gap_pairs's counts with the FFT (fft=True) or the
    per-gap kernel taking the even gaps."""
    monkeypatch.setattr("smoothgap.scan._fft_is_cheaper", lambda *args: fft)
    return [r.count for r in count_smooth_gap_pairs(req).records]


@pytest.mark.parametrize(
    "x, y, checkpoints, gap_one",
    [
        (1, 2, (1,), True),
        (2, 47, (1, 2), True),
        (3, 2, (1, 2, 3), True),
        (3, 2, (2, 3), False),
        (4, 3, (1, 2, 3, 4), True),
        (4, 47, (4,), False),
        (5, 5, (1, 2, 5), True),
        (1500, 7, (1, 2, 97, 1024, 1500), False),
        (1500, 47, (2, 3, 1499, 1500), True),
    ],
)
def test_pairs_checkpoints_match_oracle(x, y, checkpoints, gap_one, monkeypatch):
    req = ScanRequest(x, "pairs", y=y, checkpoints=checkpoints, include_gap_one=gap_one)
    expected = [brute_pair_count(c, y, gap_one) for c in checkpoints]
    assert [r.count for r in count_smooth_gap_pairs(req).records] == expected
    assert _counts_by_kernel(monkeypatch, req, fft=True) == expected
    # windows of 37 flags, so that a table of 20 or more windows forks its gaps
    monkeypatch.setattr("smoothgap._sieve.WINDOW", 37)
    for cpus in (1, 2, 3, 4):
        monkeypatch.setattr("smoothgap._sieve._cpu_count", lambda: cpus)
        assert _counts_by_kernel(monkeypatch, req, fft=False) == expected


@pytest.mark.parametrize("y", [7, 47])
def test_pair_kernels_return_equal_counts(y, monkeypatch):
    # the same table, even gaps and checkpoints give both kernels the same
    # pairs, those with q >= 7; windows smaller than the gaps
    monkeypatch.setattr("smoothgap._sieve.WINDOW", 37)
    table, checkpoints = prime_flags(5000), (30, 31, 1000, 4999, 5000)
    _, even = _gap_values(ScanRequest(5000, "pairs", y=y), 4998)
    expected = [sum(q >= 7 for q, _ in brute_pairs(c, y)) for c in checkpoints]
    assert _fft_pair_counts(table, even, checkpoints) == expected
    assert _per_gap_pair_counts(table, even, checkpoints) == expected


def test_pairs_kernels_agree_across_blocks(monkeypatch):
    # windows smaller than the gaps and not aligned with the checkpoints
    monkeypatch.setattr("smoothgap._sieve.WINDOW", 37)
    req = ScanRequest(5000, "pairs", y=7, checkpoints=(30, 31, 1000, 4999, 5000))
    expected = [brute_pair_count(c, 7, True) for c in req.checkpoints]
    assert _counts_by_kernel(monkeypatch, req, fft=True) == expected
    for cpus in (1, 2, 3, 4):
        monkeypatch.setattr("smoothgap._sieve._cpu_count", lambda: cpus)
        assert _counts_by_kernel(monkeypatch, req, fft=False) == expected


@pytest.mark.parametrize("fft", [True, False])
def test_odd_gaps_reach_neither_kernel(fft, monkeypatch):
    # an odd gap pairs only q = 2, counted by one lookup outside both kernels
    seen = []

    def fft_counts(flags, gaps, checkpoints):
        seen.extend(map(int, gaps))
        return _fft_pair_counts(flags, gaps, checkpoints)

    def per_gap_counts(table, gaps, checkpoints):
        seen.extend(map(int, gaps))
        return _per_gap_pair_counts(table, gaps, checkpoints)

    monkeypatch.setattr("smoothgap.scan._fft_pair_counts", fft_counts)
    monkeypatch.setattr("smoothgap.scan._per_gap_pair_counts", per_gap_counts)
    req = ScanRequest(3000, "pairs", y=3, checkpoints=(100, 3000))
    expected = [brute_pair_count(c, 3, True) for c in req.checkpoints]
    assert _counts_by_kernel(monkeypatch, req, fft) == expected
    assert seen and all(s % 2 == 0 for s in seen)


def test_pairs_peak_allocation_per_integer():
    # the gaps are held once, as int64, while a kernel runs
    x = 10**6
    tracemalloc.start()
    try:
        count_smooth_gap_pairs(ScanRequest(x, "pairs", y=x))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 70 * x


def test_pairs_all_smooth_gaps_peak_before_a_kernel(monkeypatch):
    # with y >= x the odd and the even gaps are made apart, 8 bytes per
    # integer as int64s, beside the odd table's 0.5 and the q <= 5 lookup's
    # partners: no temporary as long as the gaps splits them by parity
    x, peaks = 10**7, []

    class Chosen(Exception):
        pass

    def chooser(*args):
        peaks.append(tracemalloc.get_traced_memory()[1])
        raise Chosen  # before any transform

    monkeypatch.setattr("smoothgap.scan._fft_is_cheaper", chooser)
    tracemalloc.start()
    try:
        with pytest.raises(Chosen):
            count_smooth_gap_pairs(ScanRequest(x, "pairs", y=x))
    finally:
        tracemalloc.stop()
    assert peaks[0] <= 12 * x


def test_pairs_all_gaps_smooth_is_binomial():
    # with y >= x every gap is smooth, so every pair of primes counts
    x = 2 * 10**5
    flags = simple_sieve(x)
    pi = [sum(flags[: c + 1]) for c in (1000, x)]
    assert pi == [168, 17984]
    report = count_smooth_gap_pairs(ScanRequest(x, "pairs", y=x, checkpoints=(1000, x)))
    assert [r.count for r in report.records] == [n * (n - 1) // 2 for n in pi]


@pytest.mark.slow
def test_pairs_all_gaps_smooth_is_binomial_at_1e7():
    x, pi = 10**7, 664579  # pi(10^7), OEIS A006880
    report = count_smooth_gap_pairs(ScanRequest(x, "pairs", y=x))
    assert report.records[0].count == pi * (pi - 1) // 2


@pytest.mark.slow
def test_pairs_fft_matches_per_gap_kernel_at_1e8(monkeypatch):
    # class transforms of 6,718,464 points at 10^8 against the exact per-gap
    # kernel, with checkpoints 1, 5 and 10 mod 30
    req = ScanRequest(10**8, "pairs", y=3, checkpoints=(10**6 + 1, 3 * 10**7 + 5, 10**8))
    assert _counts_by_kernel(monkeypatch, req, fft=True) == _counts_by_kernel(
        monkeypatch, req, fft=False
    )


def test_pairs_roundoff_guard(monkeypatch):
    # y = 2 has no gap = 0 mod 30, so its gaps read the sums of cross
    # correlations of distinct classes only; the multiples of 30 read the sum
    # of the classes' autocorrelations only
    _, cross = _gap_values(ScanRequest(1000, "pairs", y=2), 998)  # 2, 4, ..., 512
    assert len(cross) == 9 and not (cross % 30 == 0).any()
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *args, **kw: irfft(*args, **kw) + 0.3)
    for gaps in (cross, np.array([30, 60, 90, 120, 240])):
        with pytest.raises(FloatingPointError):
            _fft_pair_counts(prime_flags(1000), gaps, (1000,))


def test_pairs_wheel_classes_match_oracle_to_450(monkeypatch):
    # every x <= 450 with checkpoints at each residue mod 30 below it: the
    # eight wheel classes, the lags of both signs, the pairs that wrap past
    # 30, lags as long as a class, and q <= 5 at their edges
    oracle = functools.cache(brute_pair_count)
    for x in range(1, 451):
        checkpoints = tuple(range(max(1, x - 29), x + 1))
        for y in (2, 47):
            req = ScanRequest(x, "pairs", y=y, checkpoints=checkpoints)
            expected = [oracle(c, y) for c in checkpoints]
            assert _counts_by_kernel(monkeypatch, req, fft=True) == expected, (x, y)
    # small y and no gap one at x <= 150
    for x in range(1, 151):
        checkpoints = tuple(range(max(1, x - 5), x + 1))
        for y, gap_one in ((3, True), (5, True), (2, False), (3, False), (5, False), (47, False)):
            req = ScanRequest(x, "pairs", y=y, checkpoints=checkpoints, include_gap_one=gap_one)
            expected = [oracle(c, y, gap_one) for c in checkpoints]
            assert _counts_by_kernel(monkeypatch, req, fft=True) == expected, (x, y, gap_one)
    # a lag as long as a class: at x = 1500 class 1 holds the 50 flags of
    # 30m + 1 <= 1499, and the pair (11, 1499) of gap 1488 = -12 mod 30 is lag
    # -50 of class 29 against class 11, a pair that wraps past 30
    table = prime_flags(1500)
    assert len(table[::15]) == 50
    assert [q for q in range(3, 13, 2) if table[q // 2] and table[(q + 1488) // 2]] == [5, 11]
    gaps, checkpoints = np.array([1488]), (1492, 1493, 1498, 1499, 1500)
    assert _fft_pair_counts(table, gaps, checkpoints) == [0, 0, 0, 1, 1]
    # (5, 1493) is the lookup's, with both kernels at 0; 1488 = 2^4 * 3 * 31
    req = ScanRequest(1500, "pairs", y=31, checkpoints=checkpoints)
    assert _counts_without_kernels(monkeypatch, req) == _small_q_counts(req)


def _counts_without_kernels(monkeypatch, req: ScanRequest) -> list[int]:
    """count_smooth_gap_pairs's counts with both kernels counting 0."""

    def zeros(table, gaps, checkpoints):
        return [0] * len(checkpoints)

    monkeypatch.setattr("smoothgap.scan._fft_pair_counts", zeros)
    monkeypatch.setattr("smoothgap.scan._per_gap_pair_counts", zeros)
    return [r.count for r in count_smooth_gap_pairs(req).records]


def _small_q_counts(req: ScanRequest) -> list[int]:
    """The oracle's count of the request's pairs with q <= 5 at each checkpoint."""
    pairs = brute_pairs(req.x_max, req.y, req.include_gap_one)
    return [sum(q <= 5 and p <= c for q, p in pairs) for c in req.checkpoints]


def test_pairs_with_q_3_and_5_are_a_lookup(monkeypatch):
    # with both kernels at 0, the pairs left are those with q <= 5, from one
    # lookup: (2, 3), (3, 5), (3, 7), (5, 7), (3, 11) and (5, 13) for the
    # 2-smooth gaps 1, 2, 4 and 8; the kernels count (7, 11) and (11, 13)
    req = ScanRequest(13, "pairs", y=2, checkpoints=(4, 5, 7, 10, 11, 13))
    assert _small_q_counts(req) == [1, 2, 4, 4, 5, 6]
    assert _counts_without_kernels(monkeypatch, req) == [1, 2, 4, 4, 5, 6]
    table, gaps = prime_flags(13), np.array([2, 4, 8])
    assert _fft_pair_counts(table, gaps, req.checkpoints) == [0, 0, 0, 0, 1, 2]
    assert _per_gap_pair_counts(table, gaps, req.checkpoints) == [0, 0, 0, 0, 1, 2]
    for x in (1, 2, 3, 5, 7, 30, 97, 450):
        for y, gap_one in ((2, True), (2, False), (3, False), (47, True)):
            req = ScanRequest(x, "pairs", y=y, checkpoints=tuple(range(1, x + 1)), include_gap_one=gap_one)
            assert _counts_without_kernels(monkeypatch, req) == _small_q_counts(req), (x, y, gap_one)


def test_pairs_fall_back_to_per_gap_over_fft_budget(monkeypatch):
    # y = 47 has enough gaps that the transform is chosen when it fits
    x = 10**5
    req = ScanRequest(x, "pairs", y=47, checkpoints=(1000, x))
    reference = scan_report_json(count_smooth_gap_pairs(req))
    calls = []
    monkeypatch.setattr(
        "smoothgap.scan._fft_pair_counts", lambda *a: calls.append(a) or [0, 0]
    )
    table = (x + 1) // 2  # the odd integers up to x
    # class 1 holds the 3,334 flags of 30m + 1 <= x; 6,750 = 2 * 3^3 * 5^3 is
    # the least even 5-smooth transform length >= 2 * 3,335 - 1; and the 6,497
    # even 47-smooth gaps below x
    assert _fft_length(3_335) == 6_750
    _, even = _gap_values(req, x - 2)
    assert len(even) == 6_497
    need = table + FFT_BYTES_PER_POINT * 6_750 + FFT_BYTES_PER_GAP * 6_497
    monkeypatch.setenv("SMOOTHGAP_MEM_BUDGET", str(need))
    count_smooth_gap_pairs(req)
    assert len(calls) == 1
    monkeypatch.setenv("SMOOTHGAP_MEM_BUDGET", str(need - 1))
    assert scan_report_json(count_smooth_gap_pairs(req)) == reference
    assert len(calls) == 1
    monkeypatch.setenv("SMOOTHGAP_MEM_BUDGET", str(table - 1))  # table over budget
    with pytest.raises(CapacityError):
        count_smooth_gap_pairs(req)


def test_pairs_check_the_flag_table_before_enumerating_gaps(monkeypatch):
    def enumerate_gaps(*args):
        raise AssertionError("gaps enumerated before the budget check")

    monkeypatch.setattr("smoothgap.scan.smooth_numbers_up_to", enumerate_gaps)
    x = 10**5
    # below the (x + 1) / 2 bytes of the odd table
    monkeypatch.setenv("SMOOTHGAP_MEM_BUDGET", str((x + 1) // 2 - 1))
    with pytest.raises(CapacityError):
        count_smooth_gap_pairs(ScanRequest(x, "pairs", y=47))


def test_translates_count_the_tuple_translated_to_zero():
    # (5, 7) counts as (0, 2): the twins (3, 5) and (5, 7) at n = 3 and 5
    shifted = count_tuple_translates(ScanRequest(10, "tuple-translates", tuple=IntegerTuple((5, 7))))
    base = count_tuple_translates(ScanRequest(10, "tuple-translates", tuple=IntegerTuple((0, 2))))
    assert shifted.records == base.records
    assert shifted.witnesses == base.witnesses == ((3,), (5,))
    assert shifted.records[0].count == 2


def test_pairs_few_gaps_take_per_gap_kernel(monkeypatch):
    monkeypatch.setattr("smoothgap.scan._fft_pair_counts", None)
    x = 10**6
    flags = simple_sieve(x)
    primes = [p for p in range(x + 1) if flags[p]]
    expected = sum(
        flags[q + 2**e] for e in range(20) for q in primes if q + 2**e <= x
    )
    report = count_smooth_gap_pairs(ScanRequest(x, "pairs", y=2))
    assert report.records[0].count == expected


@pytest.mark.parametrize("x", [1, 2, 3, 4, 1000])
@pytest.mark.parametrize("gap_one", [True, False])
def test_consecutive_small_x_match_oracle(x, gap_one):
    req = ScanRequest(x, "consecutive-pairs", y=3, include_gap_one=gap_one)
    report = count_consecutive_smooth_gap_pairs(req)
    pairs = brute_consecutive_pairs(x, 3, gap_one)
    assert report.records[0].count == len(pairs)
    assert report.witnesses == tuple(pairs[:MAX_WITNESSES])


@pytest.mark.parametrize("y", [2, 3, 5, 47])
def test_consecutive_match_oracle(y):
    req = ScanRequest(2000, "consecutive-pairs", y=y)
    report = count_consecutive_smooth_gap_pairs(req)
    pairs = brute_consecutive_pairs(2000, y)
    assert report.records[0].count == len(pairs)
    assert report.witnesses == tuple(pairs[:MAX_WITNESSES])


@pytest.mark.parametrize("window", [5, 37, 1, 3])
@pytest.mark.parametrize("gap_one", [True, False])
@pytest.mark.parametrize("y", [2, 3, 47])
def test_consecutive_match_oracle_across_windows(monkeypatch, window, gap_one, y):
    # small windows of 2 * window integers: gaps straddle window edges,
    # (2, 3) with one flag per window, (31, 37) with 3 and (73, 79) with 37,
    # and with 3 the gap from 89 to 97 spans the empty window [90, 96)
    monkeypatch.setattr("smoothgap._sieve.WINDOW", window)
    x = 3000
    checkpoints = (1, 2, 3, 4, 36, 37, 38, 73, 74, 75, 95, 1110, 2999, x)
    req = ScanRequest(
        x, "consecutive-pairs", y=y, checkpoints=checkpoints, include_gap_one=gap_one
    )
    report = count_consecutive_smooth_gap_pairs(req)
    pairs = brute_consecutive_pairs(x, y, gap_one)
    assert [r.count for r in report.records] == [
        sum(p <= c for _, p in pairs) for c in checkpoints
    ]
    assert report.witnesses == tuple(pairs[:MAX_WITNESSES])


@pytest.mark.parametrize(
    "elements",
    [
        (0, 2), (0, 2, 6, 8), (0, 40), (0, 6, 42, 48),
        (0,), (0, 1), (0, 3), (0, 1, 2), (0, 90), (0, 75),
    ],
)
def test_translates_match_oracle_across_windows(monkeypatch, elements):
    # windows of 37 flags, 74 integers, checkpoints at n <= 4 and on and
    # next to window edges, tuples wider than a window, and tuples with odd
    # elements, which have all-prime translates only at n <= 2
    monkeypatch.setattr("smoothgap._sieve.WINDOW", 37)
    # each scan's singular series runs in those windows too: a cutoff of
    # 10^3, not 10^6, keeps it from dominating a test of the counts
    monkeypatch.setattr("smoothgap.constants.DEFAULT_PRIME_CUTOFF", 1000)
    x = 37 * 81
    checkpoints = (1, 2, 3, 4, 73, 74, 75, 148, 149, 1000, 2996, x)
    flags = simple_sieve(x + max(elements))
    tallies = [sum(flags[n + h] for h in elements) for n in range(x)]
    hits = [n for n in range(1, x) if tallies[n] == len(elements)]
    for m in (None, *range(1, len(elements) + 1)):
        req = ScanRequest(
            x, "tuple-translates", tuple=IntegerTuple(elements),
            checkpoints=checkpoints, min_prime_count=m,
        )
        report = count_tuple_translates(req)
        assert [r.count for r in report.records] == [
            sum(n < c for n in hits) for c in checkpoints
        ]
        if m is not None:
            assert [r.at_least_m_count for r in report.records] == [
                sum(t >= m for t in tallies[1:c]) for c in checkpoints
            ]
        assert report.witnesses == tuple((n,) for n in hits[:MAX_WITNESSES])


@pytest.mark.parametrize("elements", [(0, 2), (0, 2, 6), (0, 4, 6)])
def test_translates_match_oracle(elements):
    req = ScanRequest(2000, "tuple-translates", tuple=IntegerTuple(elements))
    assert count_tuple_translates(req).records[0].count == brute_translate_count(
        2000, elements
    )


def test_translates_non_admissible():
    req = ScanRequest(10**4, "tuple-translates", tuple=IntegerTuple((0, 2, 4)))
    report = count_tuple_translates(req)
    assert report.records[0].count == 1  # only (3, 5, 7)
    assert report.records[0].hl_integral_prediction == 0.0
    assert report.records[0].hl_ratio_prediction == 0.0
    assert report.records[0].ratio is None
    assert report.witnesses == ((3,),)


def test_translates_at_least_m():
    H = IntegerTuple((0, 2, 6))
    req = ScanRequest(1000, "tuple-translates", tuple=H, min_prime_count=2)
    report = count_tuple_translates(req)
    exact = report.records[0].count
    at_least = report.records[0].at_least_m_count
    assert at_least >= exact
    flags = [False] * 1010
    for p in trial_primes(1009):
        flags[p] = True
    expected = sum(
        1 for n in range(1, 1000) if sum(flags[n + h] for h in H.elements) >= 2
    )
    assert at_least == expected
    all_prime = [n for n in range(1, 1000) if all(flags[n + h] for h in H.elements)]
    assert exact == len(all_prime) == brute_translate_count(1000, H.elements)
    assert report.witnesses == tuple((n,) for n in all_prime[:MAX_WITNESSES])


def test_translates_tuple_wider_than_a_byte(monkeypatch):
    # 256 elements: the tallies no longer fit uint8; witnesses and
    # checkpoints inside windows of 37 integers; the singular series cut
    # off at 10^3, as in test_translates_match_oracle_across_windows
    monkeypatch.setattr("smoothgap._sieve.WINDOW", 37)
    monkeypatch.setattr("smoothgap.constants.DEFAULT_PRIME_CUTOFF", 1000)
    H = construct_consecutive_prime_tuple(256)
    x = 3000
    flags = simple_sieve(x + diameter(H))
    tallies = [sum(flags[n + h] for h in H.elements) for n in range(x)]
    for m in (1, 128, 255, 256):
        req = ScanRequest(
            x, "tuple-translates", tuple=H, checkpoints=(300, x), min_prime_count=m
        )
        report = count_tuple_translates(req)
        for record in report.records:
            c = record.checkpoint
            assert record.at_least_m_count == sum(t >= m for t in tallies[1:c])
            assert record.count == sum(t == 256 for t in tallies[1:c])
        # the first 256 primes above 256 start at 257
        assert report.witnesses == ((257,),)


def brute_translates(shifts, ends, m, first):
    """_translate_counts' results by a plain loop over every flag index j,
    flag j standing for 2j + 1 as in the odd table."""
    top = max(ends)
    flags = simple_sieve(2 * (max(top, 1) + max(shifts)) + 1)
    tallies = [sum(flags[2 * (j + s) + 1] for s in shifts) for j in range(top)]
    below = [tallies[1 : max(e, 1)] for e in ends]  # the j in [1, e)
    counts = [sum(t == len(shifts) for t in ts) for ts in below]
    at_least = counts if m is None else [sum(t >= m for t in ts) for ts in below]
    hits = [j for j in range(1, top) if tallies[j] == len(shifts)][:first]
    return counts, at_least, hits


@pytest.mark.parametrize(
    "H, ends",
    [
        ((0,), (1, 2, 3)),
        ((0, 1), (1,)),
        ((0, 1), (2,)),
        ((0, 1), (3,)),
        ((0, 5), (-3, 0, 1, 40)),  # per-gap ends at c - s + 1 may be below 1
        ((0, 1), (5, 36, 37, 38, 74, 75, 2500)),  # the 100th twin is 3821, flag 1910
        ((0, 1, 3), (20, 500, 1500)),
        ((0, 1, 2), (5, 50)),  # (3, 5, 7) at flag 1
        ((0, 2, 3, 5, 6, 8), (1000,)),
        ((1, 3), (1, 2, 40, 74, 75)),  # the even n of a tuple with odd elements
    ],
)
def test_translate_kernel_matches_brute_force(monkeypatch, H, ends):
    # H holds the kernel's shifts and ends its flag indices; windows and
    # pieces of 37 flags: ends fall inside and on window edges, both from the
    # sieve's windows, in one run, and from views of one odd table, and on
    # piece edges in that whole table as one window
    monkeypatch.setattr("smoothgap._sieve.WINDOW", 37)
    monkeypatch.setattr("smoothgap._sieve._cpu_count", lambda: 1)
    r = max(H)
    limit = 2 * (max(max(ends), 1) - 1 + r) + 1  # the odd integer of the last flag read
    table = prime_flags(limit)
    for m in (None, 1, max(1, len(H) - 1), len(H)):
        for first in (0, 3, MAX_WITNESSES):
            expected = brute_translates(H, ends, m, first)
            sieved = _fold_windows(
                lambda _, windows: _translate_counts(windows, H, ends, m, first), limit, r
            )
            assert sieved == [expected]
            views = ((a, table[a : a + 37 + r]) for a in range(0, len(table) - r, 37))
            assert _translate_counts(views, H, ends, m, first) == expected
            assert _translate_counts([(0, table)], H, ends, m, first) == expected


def test_windowed_passes_peak_allocation_is_a_few_windows():
    # translate, consecutive-pairs and singular-series passes fold over
    # prime windows: their peak is a few windows' bytes, not x bytes, with
    # the primes of a window (of 2 * WINDOW integers) as int64 or float64
    x = 3 * 10**7
    H = IntegerTuple((0, 2, 6, 8))
    passes = [
        lambda: count_tuple_translates(
            ScanRequest(x, "tuple-translates", tuple=H, min_prime_count=3)
        ),
        lambda: count_consecutive_smooth_gap_pairs(ScanRequest(x, "consecutive-pairs", y=47)),
        lambda: singular_series(IntegerTuple((0, 2, 6, 8, 12)), x),
    ]
    for run in passes:
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * WINDOW


def test_a_wide_pass_holds_no_scratch_beyond_its_windows(monkeypatch):
    # shifts reaching 2 * 10^6 flags, past WINDOW: each window holds 4 * 10^6
    # flags, and the kernel's AND buffer and census tally stay at WINDOW
    # flags however wide the window; the same counts from the whole table
    monkeypatch.setattr("smoothgap._sieve._cpu_count", lambda: 1)
    x, shifts = 10**7, (0, 2 * 10**6)
    limit, ends = x - 1 + 2 * shifts[-1], [x // 2]
    tracemalloc.start()
    try:
        [sieved] = _fold_windows(
            lambda _, windows: _translate_counts(windows, shifts, ends, 1, 0), limit, shifts[-1]
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * shifts[-1] + 6 * WINDOW
    assert sieved == _translate_counts([(0, prime_flags(limit))], shifts, ends, 1, 0)


def test_windowed_passes_need_no_x_byte_budget(monkeypatch):
    # a budget below the (x + 1) / 2 bytes of the odd table: only a tuple
    # wider than a window, whose windows hold as many flags as the tuple is
    # wide, is held to it
    x = 10**5
    monkeypatch.setenv("SMOOTHGAP_MEM_BUDGET", str(10**4))
    twins = ScanRequest(x, "tuple-translates", tuple=IntegerTuple((0, 2)))
    assert count_tuple_translates(twins).records[0].count == brute_translate_count(x, (0, 2))
    consecutive = ScanRequest(x, "consecutive-pairs", y=x)
    assert count_consecutive_smooth_gap_pairs(consecutive).records[0].count == 9592 - 1
    assert singular_series(IntegerTuple((0, 2)), x).admissible
    monkeypatch.setattr("smoothgap._sieve.WINDOW", 37)
    wide = ScanRequest(x, "tuple-translates", tuple=IntegerTuple((0, 12000)))
    with pytest.raises(CapacityError):
        count_tuple_translates(wide)


# Runs argv[1:] and reports its ru_maxrss in KiB on stderr. A child's
# ru_maxrss starts at the peak of the process it was spawned from, so the
# scan is spawned from this small launcher, not from the test process,
# which may have held a larger table in an earlier test.
LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:])
_, status, usage = os.wait4(proc.pid, 0)
print(usage.ru_maxrss, file=sys.stderr)
sys.exit(os.waitstatus_to_exitcode(status))
"""


def run_cli_with_peak_rss(*argv):
    """The CLI's exit code, its JSON report and its peak RSS in bytes."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", LAUNCHER, sys.executable, "-m", "smoothgap.cli", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    return done.returncode, json.loads(done.stdout), int(done.stderr) * 1024


@pytest.mark.slow
def test_twin_translates_1e9_in_bounded_memory():
    # OEIS A007508: 3,424,506 twin prime pairs below 10^9
    code, report, rss = run_cli_with_peak_rss(
        "scan", "tuple-translates", str(10**9), "--tuple-file", "(0,2)"
    )
    assert code == 0
    assert report["records"][0]["count"] == 3424506
    assert rss < 100e6


@pytest.mark.slow
def test_consecutive_pairs_1e9_in_bounded_memory():
    # every prime gap below 10^9 is at most 282, so 1000-smooth: every one of
    # the pi(10^9) - 1 = 50,847,533 adjacent pairs counts (OEIS A006880)
    code, report, rss = run_cli_with_peak_rss(
        "scan", "consecutive-pairs", str(10**9), "--y", "1000"
    )
    assert code == 0
    assert report["records"][0]["count"] == 50847533
    assert rss < 100e6


def test_counts_monotone():
    counts_x = [
        run_scan(ScanRequest(x, "pairs", y=3)).records[0].count
        for x in (10, 100, 1000)
    ]
    assert counts_x == sorted(counts_x)
    counts_y = [
        run_scan(ScanRequest(500, "pairs", y=y)).records[0].count
        for y in (2, 3, 5, 47)
    ]
    assert counts_y == sorted(counts_y)
    off = run_scan(ScanRequest(500, "pairs", y=3, include_gap_one=False))
    on = run_scan(ScanRequest(500, "pairs", y=3))
    assert off.records[0].count <= on.records[0].count


def test_checkpoint_consistency():
    req = ScanRequest(2000, "pairs", y=3, checkpoints=(10, 100, 1000, 2000))
    combined = count_smooth_gap_pairs(req)
    counts = [r.count for r in combined.records]
    assert counts == sorted(counts)
    for checkpoint, count in zip((10, 100, 1000, 2000), counts):
        single = count_smooth_gap_pairs(ScanRequest(checkpoint, "pairs", y=3))
        assert single.records[0].count == count


@pytest.mark.parametrize(
    "req",
    [
        ScanRequest(3000, "pairs", y=5, checkpoints=(100, 3000)),
        ScanRequest(3000, "consecutive-pairs", y=3),
        ScanRequest(3000, "tuple-translates", tuple=IntegerTuple((0, 2, 6))),
        ScanRequest(3000, "pairs", y=2, checkpoints=(100, 3000)),
    ],
)
def test_reports_byte_identical_across_knobs(req, monkeypatch):
    # windows of 37 flags, so that every pass forks, and a series cutoff of
    # 3000, 41 such windows, for the translate scan's prediction
    monkeypatch.setattr("smoothgap._sieve.WINDOW", 37)
    monkeypatch.setattr("smoothgap.constants.DEFAULT_PRIME_CUTOFF", 3000)
    monkeypatch.setattr("smoothgap._sieve._cpu_count", lambda: 1)
    reference = scan_report_json(run_scan(req))
    for cpus in (2, 4):
        monkeypatch.setattr("smoothgap._sieve._cpu_count", lambda: cpus)
        assert scan_report_json(run_scan(req)) == reference


def test_pair_witnesses_ordering():
    report = run_scan(ScanRequest(100, "pairs", y=2))
    assert report.witnesses[0] == (2, 3)
    assert list(report.witnesses) == sorted(report.witnesses, key=lambda w: (w[1], w[0]))
    for q, p in report.witnesses:
        assert (p - q) & (p - q - 1) == 0  # 2-smooth gap: a power of two, or 1


def test_overflowing_prediction_fails_before_any_window(monkeypatch):
    # (log 10^9)^300 exceeds the largest float: the predictions come first,
    # so the scan stops before it sieves a window of its counting pass. Only
    # the singular series, inside the predictions, sieves its own windows.
    import smoothgap._sieve
    import smoothgap.constants

    in_series = []
    series, sieve_window = smoothgap.constants.singular_series, smoothgap._sieve.sieve_window

    def series_marked(*args):
        in_series.append(True)
        try:
            return series(*args)
        finally:
            in_series.pop()

    def sieve_in_series_only(*args):
        if not in_series:
            raise AssertionError("a window of the counting pass was sieved")
        return sieve_window(*args)

    monkeypatch.setattr(smoothgap.constants, "singular_series", series_marked)
    monkeypatch.setattr(smoothgap._sieve, "sieve_window", sieve_in_series_only)
    H = construct_consecutive_prime_tuple(300)
    with pytest.raises(CapacityError, match="float range"):
        run_scan(ScanRequest(10**9, "tuple-translates", tuple=H))


def test_translate_scan_does_not_depend_on_call_history(monkeypatch):
    # the singular series is computed afresh by each scan, so a budget set
    # after an earlier scan binds, as it does for the CLI (exit 3)
    import smoothgap.constants

    H = IntegerTuple((0, 2))
    twins = ScanRequest(1000, "tuple-translates", tuple=H, checkpoints=(10, 100, 1000))
    calls = []
    series = smoothgap.constants.singular_series
    monkeypatch.setattr(
        smoothgap.constants, "singular_series", lambda *a: calls.append(a) or series(*a)
    )
    first = run_scan(twins)
    assert len(calls) == 1
    assert run_scan(twins) == first
    assert len(calls) == 2
    small = ScanRequest(2, "tuple-translates", tuple=H, checkpoints=(1, 2))
    assert [r.hl_integral_prediction for r in run_scan(small).records] == [None, None]
    assert len(calls) == 2
    monkeypatch.setenv("SMOOTHGAP_MEM_BUDGET", "100")
    with pytest.raises(CapacityError):
        run_scan(twins)
