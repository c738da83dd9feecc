import json
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
from smoothgap._sieve import WINDOW, prime_flags, prime_windows
from smoothgap.primes import _primes_upto
from smoothgap.scan import (
    FFT_BYTES_PER_POINT,
    MAX_WITNESSES,
    ScanRequest,
    _fft_pair_counts,
    _gap_values,
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
    brute_pair_count,
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
    assert count_smooth_gap_pairs(req).records[0].count == brute_pair_count(
        2000, y, gap_one
    )


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
    for cpus in (1, 2, 3, 4):
        monkeypatch.setattr("smoothgap.scan._cpu_count", lambda: cpus)
        assert _counts_by_kernel(monkeypatch, req, fft=False) == expected


def test_pairs_kernels_agree_across_blocks(monkeypatch):
    # windows smaller than the gaps and not aligned with the checkpoints
    monkeypatch.setattr("smoothgap._sieve.WINDOW", 37)
    req = ScanRequest(5000, "pairs", y=7, checkpoints=(30, 31, 1000, 4999, 5000))
    expected = [brute_pair_count(c, 7, True) for c in req.checkpoints]
    assert _counts_by_kernel(monkeypatch, req, fft=True) == expected
    for cpus in (1, 2, 3, 4):
        monkeypatch.setattr("smoothgap.scan._cpu_count", lambda: cpus)
        assert _counts_by_kernel(monkeypatch, req, fft=False) == expected


@pytest.mark.parametrize("fft", [True, False])
def test_odd_gaps_reach_neither_kernel(fft, monkeypatch):
    # an odd gap pairs only q = 2, counted by one lookup outside both kernels
    seen = []

    def fft_counts(flags, gaps, checkpoints):
        seen.extend(map(int, gaps))
        return _fft_pair_counts(flags, gaps, checkpoints)

    def translate_counts(flags, H, *args):
        seen.append(H[-1])
        return _translate_counts(flags, H, *args)

    monkeypatch.setattr("smoothgap.scan._fft_pair_counts", fft_counts)
    monkeypatch.setattr("smoothgap.scan._translate_counts", translate_counts)
    req = ScanRequest(3000, "pairs", y=3, checkpoints=(100, 3000))
    expected = [brute_pair_count(c, 3, True) for c in req.checkpoints]
    assert _counts_by_kernel(monkeypatch, req, fft) == expected
    assert seen and all(s % 2 == 0 for s in seen)


def test_pairs_peak_allocation_per_integer():
    # the gaps are held once, as int64, while a kernel runs
    x = 10**6
    _primes_upto(x)  # the cached prime list, outside the measurement
    tracemalloc.start()
    try:
        count_smooth_gap_pairs(ScanRequest(x, "pairs", y=x))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 70 * x


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


def test_pairs_roundoff_guard(monkeypatch):
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *args, **kw: irfft(*args, **kw) + 0.3)
    req = ScanRequest(1000, "pairs", y=5)
    with pytest.raises(FloatingPointError):
        _fft_pair_counts(prime_flags(1000), _gap_values(req, 998), (1000,))


def test_pairs_fall_back_to_per_gap_over_fft_budget(monkeypatch):
    # y = 47 has enough gaps that the transform is chosen when it fits
    x = 10**5
    req = ScanRequest(x, "pairs", y=47, checkpoints=(1000, x))
    reference = scan_report_json(count_smooth_gap_pairs(req))
    calls = []
    monkeypatch.setattr(
        "smoothgap.scan._fft_pair_counts", lambda *a: calls.append(a) or [0, 0]
    )
    need = x + 1 + FFT_BYTES_PER_POINT * 2**17  # transform length 2^17 >= x
    monkeypatch.setenv("SMOOTHGAP_MEM_BUDGET", str(need))
    count_smooth_gap_pairs(req)
    assert len(calls) == 1
    monkeypatch.setenv("SMOOTHGAP_MEM_BUDGET", str(need - 1))
    assert scan_report_json(count_smooth_gap_pairs(req)) == reference
    assert len(calls) == 1
    monkeypatch.setenv("SMOOTHGAP_MEM_BUDGET", str(x))  # flag table over budget
    with pytest.raises(CapacityError):
        count_smooth_gap_pairs(req)


def test_pairs_check_the_flag_table_before_enumerating_gaps(monkeypatch):
    def enumerate_gaps(*args):
        raise AssertionError("gaps enumerated before the budget check")

    monkeypatch.setattr("smoothgap.scan.smooth_numbers_up_to", enumerate_gaps)
    x = 10**5
    monkeypatch.setenv("SMOOTHGAP_MEM_BUDGET", str(x))  # below the x + 1 flag bytes
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


@pytest.mark.parametrize("window", [5, 37])
@pytest.mark.parametrize("gap_one", [True, False])
@pytest.mark.parametrize("y", [2, 3, 47])
def test_consecutive_match_oracle_across_windows(monkeypatch, window, gap_one, y):
    # small windows: gaps straddle window edges, (31, 37) among them, and
    # the gap from 89 to 97 spans the empty window [90, 95)
    monkeypatch.setattr("smoothgap._sieve.WINDOW", window)
    x = 3000
    checkpoints = (36, 37, 38, 95, 1110, 2999, x)
    req = ScanRequest(
        x, "consecutive-pairs", y=y, checkpoints=checkpoints, include_gap_one=gap_one
    )
    report = count_consecutive_smooth_gap_pairs(req)
    pairs = brute_consecutive_pairs(x, y, gap_one)
    assert [r.count for r in report.records] == [
        sum(p <= c for _, p in pairs) for c in checkpoints
    ]
    assert report.witnesses == tuple(pairs[:MAX_WITNESSES])


@pytest.mark.parametrize("elements", [(0, 2), (0, 2, 6, 8), (0, 40), (0, 6, 42, 48)])
def test_translates_match_oracle_across_windows(monkeypatch, elements):
    # windows of 37 integers, checkpoints on and next to window edges, and
    # tuples wider than a window
    monkeypatch.setattr("smoothgap._sieve.WINDOW", 37)
    x = 37 * 81
    checkpoints = (36, 37, 38, 74, 111, 1000, 2996, x)
    flags = simple_sieve(x + max(elements))
    tallies = [sum(flags[n + h] for h in elements) for n in range(x)]
    hits = [n for n in range(1, x) if tallies[n] == len(elements)]
    for m in (None, 1, len(elements)):
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
    # checkpoints inside windows of 37 integers
    monkeypatch.setattr("smoothgap._sieve.WINDOW", 37)
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


def brute_translates(H, ends, m, first):
    """_translate_counts' results by a plain loop over every n."""
    top = max(ends)
    flags = simple_sieve(max(top, 1) + max(H))
    tallies = [sum(flags[n + h] for h in H) for n in range(top)]
    below = [tallies[1 : max(e, 1)] for e in ends]  # the n in [1, e)
    counts = [sum(t == len(H) for t in ts) for ts in below]
    at_least = counts if m is None else [sum(t >= m for t in ts) for ts in below]
    hits = [n for n in range(1, top) if tallies[n] == len(H)][:first]
    return counts, at_least, hits


@pytest.mark.parametrize(
    "H, ends",
    [
        ((0,), (1, 2, 3)),
        ((0, 2), (1,)),
        ((0, 2), (2,)),
        ((0, 2), (3,)),
        ((0, 5), (-3, 0, 1, 40)),  # per-gap ends c - s + 1 may be below 1
        ((0, 2), (5, 36, 37, 38, 74, 75, 5000)),  # the 100th twin is 3821
        ((0, 2, 6), (40, 1000, 3000)),
        ((0, 2, 4), (10, 100)),
        ((0, 4, 6, 10, 12, 16), (2000,)),
    ],
)
def test_translate_kernel_matches_brute_force(monkeypatch, H, ends):
    # windows of 37 integers: checkpoints fall inside and on window edges,
    # both from the sieve's windows and from views of one table
    monkeypatch.setattr("smoothgap._sieve.WINDOW", 37)
    d = max(H)
    limit = max(max(ends), 1) - 1 + d
    table = prime_flags(limit)
    for m in (None, 1, max(1, len(H) - 1), len(H)):
        for first in (0, 3, MAX_WITNESSES):
            expected = brute_translates(H, ends, m, first)
            assert _translate_counts(prime_windows(limit, d), H, ends, m, first) == expected
            views = ((a, table[a : a + 37 + d]) for a in range(0, len(table) - d, 37))
            assert _translate_counts(views, H, ends, m, first) == expected


def test_windowed_passes_peak_allocation_is_a_few_windows():
    # translate, consecutive-pairs and singular-series passes fold over
    # prime windows: their peak is a few windows' bytes, not x bytes
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
        assert peak < 6 * WINDOW


def test_windowed_passes_need_no_x_byte_budget(monkeypatch):
    # a budget below x bytes: only a tuple wider than WINDOW, whose windows
    # are as wide as the tuple, is held to it
    x = 10**5
    monkeypatch.setenv("SMOOTHGAP_MEM_BUDGET", str(10**4))
    twins = ScanRequest(x, "tuple-translates", tuple=IntegerTuple((0, 2)))
    assert count_tuple_translates(twins).records[0].count == brute_translate_count(x, (0, 2))
    consecutive = ScanRequest(x, "consecutive-pairs", y=x)
    assert count_consecutive_smooth_gap_pairs(consecutive).records[0].count == 9592 - 1
    assert singular_series(IntegerTuple((0, 2)), x).admissible
    monkeypatch.setattr("smoothgap._sieve.WINDOW", 37)
    wide = ScanRequest(x, "tuple-translates", tuple=IntegerTuple((0, 6000)))
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
    monkeypatch.setattr("smoothgap.scan._cpu_count", lambda: 1)
    reference = scan_report_json(run_scan(req))
    for cpus in (2, 4):
        monkeypatch.setattr("smoothgap.scan._cpu_count", lambda: cpus)
        assert scan_report_json(run_scan(req)) == reference


def test_pair_witnesses_ordering():
    report = run_scan(ScanRequest(100, "pairs", y=2))
    assert report.witnesses[0] == (2, 3)
    assert list(report.witnesses) == sorted(report.witnesses, key=lambda w: (w[1], w[0]))
    for q, p in report.witnesses:
        assert (p - q) & (p - q - 1) == 0  # 2-smooth gap: a power of two, or 1
