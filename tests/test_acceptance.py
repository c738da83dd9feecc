"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import random
import time

import pytest

from smoothgap.cli import scan_report_json
from smoothgap.constants import singular_series
from smoothgap.primes import is_prime, largest_prime_leq
from smoothgap.scan import ScanRequest, count_tuple_translates, run_scan
from smoothgap.tuples import (
    IntegerTuple,
    construct_consecutive_prime_tuple,
    construct_primorial_tuple,
    diameter,
    find_smoothness_witness,
    is_admissible,
    is_difference_smooth,
    km_table,
    search_min_diameter_admissible,
    search_min_diameter_difference_smooth,
)

from tests.generators import random_admissible_elements
from tests.oracles import (
    brute_consecutive_count,
    brute_min_diameter,
    brute_pair_count,
    brute_translate_count,
    direct_singular_series,
    sieve_translate_count,
)

PRIMORIAL_47 = 614889782588491410


def report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_primorial_construction():
    start = time.perf_counter()
    H = construct_primorial_tuple(50)
    assert H.elements[1] == PRIMORIAL_47
    assert is_admissible(H)
    assert is_difference_smooth(H, 47)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"primorial 50-tuple admissible and difference 47-smooth in {elapsed:.3f}s")


def test_criterion_2_pigeonhole_property_suite():
    start = time.perf_counter()
    rng = random.Random(47)
    for _ in range(1000):
        k = rng.randint(2, 20)
        H = IntegerTuple(random_admissible_elements(rng, k))
        z = largest_prime_leq(k)
        (i, j), witness_prime = find_smoothness_witness(H)
        assert witness_prime == z
        assert (H.elements[j] - H.elements[i]) % z == 0
        for ell in range(2, z):
            assert not is_difference_smooth(H, ell)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(2, f"1000 tuples, zero counterexamples, {elapsed:.2f}s")


def test_criterion_3_search_oracle_equivalence():
    for k in (2, 3, 4, 5):
        expected = brute_min_diameter(k, 50)
        result = search_min_diameter_admissible(k)
        assert result.proven_minimal
        assert (result.diameter, result.tuple.elements) == expected
        z = largest_prime_leq(k)
        for y in (2, 3, 5, 7):
            result = search_min_diameter_difference_smooth(k, y)
            if y < z:
                assert result.tuple is None and result.proven_minimal
            else:
                expected_smooth = brute_min_diameter(k, 50, smooth_y=y)
                assert result.proven_minimal
                assert (result.diameter, result.tuple.elements) == expected_smooth
    assert search_min_diameter_admissible(2).diameter == 2
    assert search_min_diameter_difference_smooth(3, 3).diameter == 6
    report(3, "searches match exhaustive enumeration for k <= 5, y in {2,3,5,7}")


def test_criterion_4_km_table_fidelity():
    entries = km_table()
    assert [(e.m, e.k_m) for e in entries if not e.conditional] == [
        (2, 50),
        (3, 35265),
        (4, 1624545),
        (5, 73807570),
        (6, 3340375663),
    ]
    assert [(e.m, e.k_m, e.y_m) for e in entries if e.conditional] == [(2, 5, 5)]
    for e in entries:
        assert is_prime(e.y_m)
        assert not any(is_prime(n) for n in range(e.y_m + 1, e.k_m + 1))
    report(4, "k_m table exact, every y_m prime with an empty gap (y_m, k_m]")


def test_criterion_5_singular_series_convergence():
    twin = IntegerTuple((0, 2))
    v6 = singular_series(twin, 10**6).value
    v7 = singular_series(twin, 10**7).value
    assert abs(v6 - v7) < 1e-5
    oracle = direct_singular_series((0, 2), 10**7)
    assert abs(v7 - oracle) < 1e-9 * abs(oracle)
    assert singular_series(IntegerTuple((0, 1)), 100).value == 0.0
    report(5, f"values {v6:.8f} / {v7:.8f}, oracle gap {abs(v7 - oracle):.2e}")


def test_criterion_6_empirical_hl_agreement():
    start = time.perf_counter()
    req = ScanRequest(10**7, "tuple-translates", tuple=IntegerTuple((0, 2)))
    record = count_tuple_translates(req).records[0]
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    assert record.count == 58980
    assert record.count == sieve_translate_count(10**7, (0, 2))
    assert abs(record.count - record.hl_integral_prediction) < 0.01 * record.count
    report(
        6,
        f"58980 twin translates below 1e7, HL integral {record.hl_integral_prediction:.0f}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_7_scan_oracle_equivalence(monkeypatch):
    x = 10**4
    for y in (2, 3, 5, 47):
        pairs = run_scan(ScanRequest(x, "pairs", y=y)).records[0].count
        assert pairs == brute_pair_count(x, y)
        consecutive = run_scan(ScanRequest(x, "consecutive-pairs", y=y)).records[0].count
        assert consecutive == brute_consecutive_count(x, y)
    for elements in ((0, 2), (0, 2, 6), (0, 4, 6)):
        req = ScanRequest(x, "tuple-translates", tuple=IntegerTuple(elements))
        assert run_scan(req).records[0].count == brute_translate_count(x, elements)
    requests = [
        ScanRequest(x, "pairs", y=2, checkpoints=(100, x)),
        ScanRequest(x, "pairs", y=5, checkpoints=(100, x)),
        ScanRequest(x, "consecutive-pairs", y=3),
        ScanRequest(x, "tuple-translates", tuple=IntegerTuple((0, 2, 6))),
    ]
    for req in requests:
        reference = scan_report_json(run_scan(req))
        for cpus in (1, 3):
            monkeypatch.setattr("smoothgap._sieve._cpu_count", lambda: cpus)
            assert scan_report_json(run_scan(req)) == reference
    report(7, "all scan modes equal brute force at 1e4; reports byte-stable")


def test_criterion_8_baseline_diameter():
    baseline = construct_consecutive_prime_tuple(50)
    assert is_admissible(baseline)
    assert diameter(baseline) == 260
    result = search_min_diameter_admissible(50, budget=10**7)
    assert result.diameter <= 260
    assert result.tuple is not None and is_admissible(result.tuple)
    report(
        8,
        f"baseline diameter 260; search under 1e7 nodes returned {result.diameter} "
        f"(budget_exhausted={result.budget_exhausted}, proven lower bound "
        f"{result.proven_lower_bound}; the known optimum is 246)",
    )
