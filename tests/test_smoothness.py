import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothgap.errors import CapacityError, FactorBudgetError
from smoothgap.smoothness import factorize, is_smooth, smooth_numbers_up_to

from tests.oracles import brute_is_smooth

PRIMORIAL_47 = 614889782588491410


def test_factorize_unit():
    cert = factorize(1)
    assert cert.factors == ()
    assert cert.largest_prime_factor is None


def test_factorize_246():
    cert = factorize(246)
    assert cert.factors == ((2, 1), (3, 1), (41, 1))
    assert cert.largest_prime_factor == 41


def test_factorize_primorial():
    cert = factorize(PRIMORIAL_47)
    assert len(cert.factors) == 15
    assert all(e == 1 for _, e in cert.factors)
    assert cert.factors[0] == (2, 1)
    assert cert.largest_prime_factor == 47
    assert not cert.probabilistic
    assert factorize(PRIMORIAL_47, trial_limit=10**12) == cert


def test_factorize_product_invariant():
    for n in [2, 360, 1024, 9699690, 2**10 * 3**5 * 97]:
        cert = factorize(n)
        prod = 1
        for p, e in cert.factors:
            prod *= p**e
        assert prod == n
        assert cert.factors == tuple(sorted(cert.factors))


def test_factorize_budget_error():
    # product of two primes beyond the trial budget
    n = 1000003 * 1000033
    with pytest.raises(FactorBudgetError) as exc:
        factorize(n, trial_limit=1000)
    assert exc.value.residual == n
    # a residual with no factor <= trial_limit that passes Miller-Rabin is prime
    assert factorize(12 * 1000003, trial_limit=1000).factors == ((2, 2), (3, 1), (1000003, 1))


def test_factorize_domain():
    with pytest.raises(ValueError):
        factorize(0)


def test_is_smooth_examples():
    assert is_smooth(8, 2)
    assert is_smooth(246, 47)
    check = is_smooth(106, 47)
    assert not check
    assert check.cofactor == 53
    assert check.certificate is None


def test_is_smooth_unit():
    for y in (2, 3, 47):
        assert is_smooth(1, y)
        assert is_smooth(1, y).certificate.factors == ()


def test_is_smooth_large_y():
    # y far above any prime table the package could hold
    assert is_smooth(2, 10**10).certificate.factors == ((2, 1),)
    assert is_smooth(2 * 9999999967, 10**10)
    check = is_smooth(3 * 10000000019, 10**10)
    assert not check
    assert check.cofactor == 10000000019


@given(
    n=st.integers(min_value=1, max_value=10**9),
    y=st.one_of(
        st.integers(min_value=2, max_value=100), st.integers(min_value=2, max_value=10**10)
    ),
)
@settings(max_examples=200, deadline=None)
def test_is_smooth_matches_oracle_any_y(n, y):
    check = is_smooth(n, y)
    assert bool(check) == brute_is_smooth(n, y)
    if check:
        assert check.certificate.factors == factorize(n).factors
    else:
        assert n % check.cofactor == 0 and check.cofactor > y


def test_is_smooth_certificate_attached():
    cert = is_smooth(246, 47).certificate
    assert cert.n == 246
    assert cert.largest_prime_factor == 41


@pytest.mark.parametrize("y", [2, 3, 5, 7, 47])
def test_is_smooth_matches_oracle(y):
    for n in range(1, 3000):
        assert bool(is_smooth(n, y)) == brute_is_smooth(n, y), (n, y)


@given(n=st.integers(min_value=1, max_value=10**5), y=st.sampled_from([2, 3, 5, 7, 47]))
@settings(max_examples=300, deadline=None)
def test_is_smooth_matches_oracle_sampled(n, y):
    assert bool(is_smooth(n, y)) == brute_is_smooth(n, y)


def test_smooth_numbers_examples():
    assert smooth_numbers_up_to(2, 10) == [1, 2, 4, 8]
    assert len(smooth_numbers_up_to(5, 100)) == 34
    assert smooth_numbers_up_to(47, 20) == list(range(1, 21))
    assert smooth_numbers_up_to(10**10, 100) == list(range(1, 101))


def test_smooth_numbers_budget_counts_list_bytes(monkeypatch):
    n = len(smooth_numbers_up_to(47, 10**6))  # Psi(10^6, 47) = 32,876
    # 20 bytes per element: over 8, under the ~45 a list of n Python ints takes
    monkeypatch.setenv("SMOOTHGAP_MEM_BUDGET", str(20 * n))
    with pytest.raises(CapacityError):
        smooth_numbers_up_to(47, 10**6)


@pytest.mark.parametrize("y", [2, 3, 5, 47])
def test_smooth_numbers_equal_filter(y):
    expected = [n for n in range(1, 10**4 + 1) if brute_is_smooth(n, y)]
    assert smooth_numbers_up_to(y, 10**4) == expected


def test_smooth_numbers_monotone_in_y():
    previous = set()
    for y in (2, 3, 5, 7, 11, 47):
        current = set(smooth_numbers_up_to(y, 2000))
        assert previous <= current
        previous = current
