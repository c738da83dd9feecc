import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smoothgap.errors import CapacityError
from smoothgap.smoothness import is_smooth, smooth_numbers_up_to

from tests.oracles import brute_is_smooth, brute_rough_part


def test_is_smooth_examples():
    assert is_smooth(8, 2)
    assert is_smooth(246, 47)
    check = is_smooth(106, 47)
    assert not check
    assert check.cofactor == 53


def test_is_smooth_domain():
    with pytest.raises(ValueError):
        is_smooth(0, 2)
    with pytest.raises(ValueError):
        is_smooth(1, 1)


def test_is_smooth_unit():
    for y in (2, 3, 47):
        assert is_smooth(1, y)


def test_is_smooth_large_y():
    # y far above any prime table the package could hold
    assert is_smooth(2, 10**10)
    assert is_smooth(2 * 9999999967, 10**10)
    check = is_smooth(3 * 10000000019, 10**10)
    assert not check
    assert check.cofactor == 10000000019
    # the loop stops once the cofactor is <= y, not at the square root of
    # this 30-digit prime
    p = 10**29 + 319
    assert is_smooth(p, p)
    assert is_smooth(6 * p, p)
    check = is_smooth(6 * p, 5)
    assert not check
    assert check.cofactor == p
    # a 31-digit prime above y = y_6 of the k_m table: the loop stops on
    # its primality, not after trial division to y
    q = 10**30 + 57
    for n in (q, 6 * q, 65537 * q, 65537**2 * 65539 * q):
        check = is_smooth(n, 3340375637)
        assert not check
        assert check.cofactor == q


@given(
    n=st.integers(min_value=1, max_value=10**9),
    y=st.one_of(
        st.integers(min_value=2, max_value=100), st.integers(min_value=2, max_value=10**10)
    ),
)
@example(n=65537 * 65539, y=10**6)  # two primes past PRIME_TEST_FROM, both <= y
@example(n=65537 * 65539, y=65537)
@settings(max_examples=200, deadline=None)
def test_is_smooth_matches_oracle_any_y(n, y):
    check = is_smooth(n, y)
    assert bool(check) == brute_is_smooth(n, y)
    if check:
        assert check.cofactor is None
    else:
        assert check.cofactor == brute_rough_part(n, y)


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
