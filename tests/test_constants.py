import math

import numpy as np
import pytest

from smoothgap.constants import hl_predictions, log_power_integral, singular_series
from smoothgap.tuples import IntegerTuple, km_table

from tests.oracles import direct_singular_series, simple_sieve, trial_is_prime

TWIN = IntegerTuple((0, 2))

# 2*C_2, the twin prime constant
TWIN_CONSTANT = 1.3203236


def test_non_admissible_is_exactly_zero():
    est = singular_series(IntegerTuple((0, 1)), 100)
    assert est.value == 0.0
    assert not est.admissible


def test_twin_constant():
    est = singular_series(TWIN, 10**6)
    assert est.admissible
    assert est.value == pytest.approx(TWIN_CONSTANT, abs=1e-5)


def test_convergence_between_cutoffs():
    v6 = singular_series(TWIN, 10**6).value
    v7 = singular_series(TWIN, 10**7).value
    assert abs(v6 - v7) < 1e-5


def test_self_convergence_0_2_6():
    H = IntegerTuple((0, 2, 6))
    v6 = singular_series(H, 10**6).value
    v7 = singular_series(H, 10**7).value
    assert abs(v6 - v7) < 1e-5


def test_matches_direct_product_oracle():
    for elements in [(0, 2), (0, 2, 6), (0, 4, 6)]:
        H = IntegerTuple(elements)
        est = singular_series(H, 10**4)
        assert est.value == pytest.approx(
            direct_singular_series(elements, 10**4), rel=1e-9
        )


def test_undersized_cutoff_rejected():
    with pytest.raises(ValueError):
        singular_series(IntegerTuple((0, 2, 100)), 50)
    with pytest.raises(ValueError):
        singular_series(IntegerTuple(tuple(range(0, 20, 2))), 5)
    for cutoff in (1, 0, -5):  # no prime at or below, and no tail estimate
        with pytest.raises(ValueError):
            singular_series(IntegerTuple((0,)), cutoff)


def test_translation_invariance():
    a = singular_series(IntegerTuple((0, 2, 6)), 10**4).value
    b = singular_series(IntegerTuple((100, 102, 106)), 10**4).value
    assert a == b


def unwindowed_series(H: IntegerTuple, cutoff: int) -> float:
    """The log-space partial product over one array of every prime up to
    cutoff, with full residue enumeration for every prime."""
    flags = simple_sieve(cutoff)
    primes = np.array([p for p in range(2, cutoff + 1) if flags[p]], dtype=np.float64)
    v = np.array(
        [len({h % p for h in H.elements}) for p in range(2, cutoff + 1) if flags[p]],
        dtype=np.float64,
    )
    k = len(H)
    log_terms = np.log1p(-v / primes) - k * np.log1p(-1.0 / primes)
    return float(math.exp(float(np.sum(log_terms))))


def test_brute_coverage_is_bit_identical():
    # a cutoff below WINDOW: one window, so the same sum in the same order
    H = IntegerTuple((0, 4, 6, 10))
    assert singular_series(H, 10**4).value == unwindowed_series(H, 10**4)


@pytest.mark.parametrize("elements", [(0,), (0, 2), (0, 4, 6, 10), (0, 6, 42, 48), (0, 6, 82)])
@pytest.mark.parametrize("cutoff", [91, 111, 3000])
def test_windowed_sum_matches_unwindowed(monkeypatch, elements, cutoff):
    # windows of 37 flags, 74 integers: head primes up to the diameter
    # span windows (79 is in the second; 82 = 2 * 41 leaves v_41 = 2), and
    # the sum of per-window sums differs only in rounding
    monkeypatch.setattr("smoothgap._sieve.WINDOW", 37)
    H = IntegerTuple(elements)
    assert singular_series(H, cutoff).value == pytest.approx(
        unwindowed_series(H, cutoff), rel=1e-13
    )


def test_tail_bounds_cutoff_doubling():
    for elements in [(0, 2), (0, 2, 6), (0, 6, 12, 18, 36, 90)]:
        H = IntegerTuple(elements)
        est = singular_series(H, 10**5)
        doubled = singular_series(H, 2 * 10**5)
        assert abs(math.log(doubled.value) - math.log(est.value)) < est.tail_magnitude


def test_hl_predictions_forms():
    [(ratio, integral)] = hl_predictions(TWIN, [10**7])
    g = singular_series(TWIN, 10**6).value
    assert ratio == pytest.approx(g * 1e7 / math.log(1e7) ** 2, rel=1e-12)
    assert integral == pytest.approx(58754, rel=1e-3)


# int_2^x dt / log(t)^k from mpmath at 40 digits, quadrature split at powers of ten
LOG_POWER_INTEGRALS = [
    (1, 3, 1.1184248145496992),
    (1, 10**3, 176.56449421003473),
    (1, 10**7, 664917.35988478879),
    (1, 10**12, 37607950279.759702),
    (2, 3, 1.2730972164471138),
    (2, 10**3, 34.685056990728718),
    (2, 10**7, 44499.556841653676),
    (2, 10**12, 1416743457.3741062),
    (3, 3, 1.4751144146938301),
    (3, 10**3, 8.9454698646136375),
    (3, 10**7, 3005.768258010504),
    (3, 10**12, 53470005.03365147),
    (6, 3, 2.542254845606524),
    (6, 10**3, 3.0971124586946538),
    (6, 10**7, 4.0804222053186961),
    (6, 10**12, 2916.5839684883927),
    (8, 3, 3.9440608293547393),
    (8, 10**3, 4.2193652243651954),
    (8, 10**7, 4.2245530116722866),
    (8, 10**12, 8.4688350302703467),
]


@pytest.mark.parametrize("k, x, expected", LOG_POWER_INTEGRALS)
def test_log_power_integral_frozen_reference(k, x, expected):
    assert log_power_integral(k, float(x)) == pytest.approx(expected, rel=5e-13)


def test_log_power_integral_live_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for k in range(1, 9):
            for x in (2.001, 3.5, 57.3, 1e4, 123456.7, 1e9, 1e11, 1e12):
                decades = [10**e for e in range(1, int(math.log10(x)) + 1) if 10**e < x]
                points = [2] + decades + [x]
                expected = float(mpmath.quad(lambda t: mpmath.log(t) ** -k, points))
                assert log_power_integral(k, x) == pytest.approx(expected, rel=5e-13)


def test_hl_predictions_integral_form_is_series_times_integral():
    g = singular_series(TWIN, 10**6).value
    xs = [3, 10**4, 10**12]
    assert [i for _, i in hl_predictions(TWIN, xs)] == [g * log_power_integral(2, x) for x in xs]


def test_hl_predictions_non_admissible_is_zero():
    assert hl_predictions(IntegerTuple((0, 1)), [10**4, 10**5]) == [(0.0, 0.0)] * 2


def test_hl_predictions_domain():
    assert hl_predictions(TWIN, []) == []
    for xs in ([2.0], [1e4, 2], [0]):
        with pytest.raises(ValueError):
            hl_predictions(TWIN, xs)


def test_km_table_rows():
    entries = km_table()
    unconditional = [(e.m, e.k_m) for e in entries if not e.conditional]
    assert unconditional == [
        (2, 50),
        (3, 35265),
        (4, 1624545),
        (5, 73807570),
        (6, 3340375663),
    ]
    conditional = [(e.m, e.k_m, e.y_m) for e in entries if e.conditional]
    assert conditional == [(2, 5, 5)]
    assert next(e for e in entries if e.m == 2 and not e.conditional).y_m == 47


def test_km_table_y_values():
    from smoothgap.primes import is_prime

    for e in km_table():
        assert is_prime(e.y_m)
        assert e.y_m <= e.k_m
        assert not any(is_prime(n) for n in range(e.y_m + 1, e.k_m + 1))


def test_km_small_y_by_trial_division():
    for e in km_table():
        if e.k_m <= 40000:
            assert trial_is_prime(e.y_m)
