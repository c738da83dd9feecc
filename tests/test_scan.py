import numpy as np
import pytest

from smoothgap.cli import scan_report_json
from smoothgap.errors import CapacityError
from smoothgap._sieve import prime_flags
from smoothgap.scan import (
    FFT_BYTES_PER_POINT,
    ScanRequest,
    _fft_pair_counts,
    _gap_values,
    _per_gap_pair_counts,
    count_consecutive_smooth_gap_pairs,
    count_smooth_gap_pairs,
    count_tuple_translates,
    run_scan,
)
from smoothgap.tuples import IntegerTuple

from tests.oracles import (
    brute_consecutive_count,
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
def test_pairs_checkpoints_match_oracle(x, y, checkpoints, gap_one):
    req = ScanRequest(x, "pairs", y=y, checkpoints=checkpoints, include_gap_one=gap_one)
    expected = [brute_pair_count(c, y, gap_one) for c in checkpoints]
    assert [r.count for r in count_smooth_gap_pairs(req).records] == expected
    flags = prime_flags(x)
    gaps = _gap_values(req, x - 2) if x > 2 else []
    assert _fft_pair_counts(flags, gaps, checkpoints) == expected
    for threads in (1, 3):
        assert _per_gap_pair_counts(flags, gaps, checkpoints, threads) == expected


def test_pairs_kernels_agree_across_blocks(monkeypatch):
    # blocks smaller than the gaps and not aligned with the checkpoints
    monkeypatch.setattr("smoothgap.scan.PER_GAP_BLOCK", 37)
    req = ScanRequest(5000, "pairs", y=7, checkpoints=(30, 31, 1000, 4999, 5000))
    flags = prime_flags(req.x_max)
    gaps = _gap_values(req, req.x_max - 2)
    expected = _fft_pair_counts(flags, gaps, req.checkpoints)
    for threads in (1, 2, 4):
        assert _per_gap_pair_counts(flags, gaps, req.checkpoints, threads) == expected


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


@pytest.mark.parametrize("y", [2, 3, 5, 47])
def test_consecutive_match_oracle(y):
    req = ScanRequest(2000, "consecutive-pairs", y=y)
    assert count_consecutive_smooth_gap_pairs(req).records[
        0
    ].count == brute_consecutive_count(2000, y)


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
    ],
)
def test_reports_byte_identical_across_knobs(req):
    reference = scan_report_json(run_scan(req, threads=1))
    for threads in (2, 4):
        assert scan_report_json(run_scan(req, threads)) == reference


def test_pair_witnesses_ordering():
    report = run_scan(ScanRequest(100, "pairs", y=2))
    assert report.witnesses[0] == (2, 3)
    assert list(report.witnesses) == sorted(report.witnesses, key=lambda w: (w[1], w[0]))
    for q, p in report.witnesses:
        assert (p - q) & (p - q - 1) == 0  # 2-smooth gap: a power of two, or 1
