import pytest

from smoothgap._sieve import prime_flags
from smoothgap.errors import CapacityError
from smoothgap.primes import (
    is_prime,
    largest_prime_leq,
    primorial,
    sieve_primes,
)

from tests.oracles import simple_sieve, trial_is_prime, trial_primes

PRIMORIAL_47 = 614889782588491410


def test_sieve_small():
    assert sieve_primes(10).primes == (2, 3, 5, 7)


def test_sieve_counts():
    assert len(sieve_primes(100).primes) == 25
    assert len(sieve_primes(10**6).primes) == 78498


@pytest.mark.parametrize("limit", [0, 1, 2, 3, 4, 5, 30, 97, 1000, 10**5])
def test_sieve_matches_trial_division(limit):
    assert list(sieve_primes(limit).primes) == trial_primes(limit)


def test_prime_table_membership():
    table = sieve_primes(1000)
    for n in range(2, 1001):
        assert (n in table) == trial_is_prime(n)


def test_sieve_negative_limit():
    with pytest.raises(ValueError):
        sieve_primes(-1)


def test_sieve_capacity_gate(monkeypatch):
    monkeypatch.setenv("SMOOTHGAP_MEM_BUDGET", "1000")
    with pytest.raises(CapacityError):
        sieve_primes(10**6)


def test_prime_flags_counts():
    flags = prime_flags(10**7)
    pi = [int(flags[: 10**k + 1].sum()) for k in range(1, 8)]
    assert pi == [4, 25, 168, 1229, 9592, 78498, 664579]
    assert int(flags[10**6 : 2 * 10**6].sum()) == 70435


def test_prime_flags_matches_simple_sieve():
    assert prime_flags(10**5).tolist() == [bool(b) for b in simple_sieve(10**5)]


def test_prime_flags_guards(monkeypatch):
    with pytest.raises(ValueError):
        prime_flags(-1)
    with pytest.raises(CapacityError):
        prime_flags(10**12 + 1)
    monkeypatch.setenv("SMOOTHGAP_MEM_BUDGET", "1000")
    with pytest.raises(CapacityError):
        prime_flags(1000)
    assert prime_flags(999).sum() == 168


@pytest.mark.slow
def test_prime_flags_pi_1e9():
    assert int(prime_flags(10**9).sum()) == 50847534


def test_is_prime_examples():
    assert is_prime(2)
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(PRIMORIAL_47)  # even


def test_is_prime_matches_trial_division():
    for n in range(10**4):
        assert is_prime(n) == trial_is_prime(n), n


def test_is_prime_large():
    # 2^89 - 1 is a Mersenne prime; exercises the probabilistic path
    assert is_prime(2**89 - 1)
    assert not is_prime((2**89 - 1) * (2**61 - 1))


def test_primorial_examples():
    assert primorial(1) == 1
    assert primorial(0) == 1
    assert primorial(5) == 30
    assert primorial(50) == PRIMORIAL_47


def test_primorial_gap_recurrence():
    prev = primorial(1)
    for k in range(2, 1001):
        step = k if trial_is_prime(k) else 1
        assert primorial(k) == prev * step
        prev = primorial(k)


def test_primorial_collapses_to_largest_prime():
    for k in range(2, 200):
        assert primorial(k) == primorial(largest_prime_leq(k))


def test_largest_prime_leq_examples():
    assert largest_prime_leq(2) == 2
    assert largest_prime_leq(50) == 47
    assert largest_prime_leq(35265) == 35257


def test_largest_prime_leq_properties():
    for k in range(2, 2000):
        z = largest_prime_leq(k)
        assert trial_is_prime(z)
        assert z <= k
        assert not any(trial_is_prime(n) for n in range(z + 1, k + 1))


def test_largest_prime_leq_domain():
    with pytest.raises(ValueError):
        largest_prime_leq(1)
