import tracemalloc

import pytest

from smoothgap._sieve import _fold_windows, _window_primes, prime_flags
from smoothgap.errors import CapacityError
from smoothgap.primes import _primes_upto, is_prime, largest_prime_leq, primorial

from tests.oracles import simple_sieve, trial_is_prime, trial_primes

PRIMORIAL_47 = 614889782588491410


def each_window(read, limit: int, reach: int = 0) -> list:
    """read(start, flags) of every window of _fold_windows(fold, limit,
    reach), in window order across the runs."""
    runs = _fold_windows(lambda _, windows: [read(*window) for window in windows], limit, reach)
    return [value for run in runs for value in run]


def read_nothing(first, windows):
    """A fold that reads no window, so that a pass sieves nothing and shows
    only what _fold_windows checks at the call."""


def test_sieve_small():
    assert _primes_upto(10) == (2, 3, 5, 7)


def test_sieve_counts():
    assert len(_primes_upto(100)) == 25
    assert len(_primes_upto(10**6)) == 78498


@pytest.mark.parametrize("limit", [0, 1, 2, 3, 4, 5, 30, 97, 1000, 10**5])
def test_sieve_matches_trial_division(limit):
    assert list(_primes_upto(limit)) == trial_primes(limit)
    # the table flags the odd integers up to limit: none at 0, 1 alone at 1 and 2
    assert prime_flags(limit).tolist() == [trial_is_prime(n) for n in range(1, limit + 1, 2)]


def test_sieve_charges_its_tuple(monkeypatch):
    # 10^6: 500,000 flag bytes and at most 1.25506 * 10^6 / ln 10^6 = 90,844.3
    # primes (there are 78,498) at 49 bytes each, 4,951,369 bytes in all
    monkeypatch.setenv("SMOOTHGAP_MEM_BUDGET", "500000")  # the flags alone fit
    with pytest.raises(CapacityError, match="prime flags and tuple to 1000000 need 4951369 bytes"):
        _primes_upto(10**6)
    monkeypatch.setenv("SMOOTHGAP_MEM_BUDGET", "4951369")
    tracemalloc.start()
    try:
        assert len(_primes_upto(10**6)) == 78498
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4951369  # the charge holds the flags, the ints and the list the tuple is built from


def test_sieve_negative_limit():
    with pytest.raises(ValueError):
        _primes_upto(-1)


def test_prime_flags_counts():
    flags = prime_flags(10**7)
    # the prime 2 is never a flag
    pi = [1 + int(flags[: (10**k + 1) // 2].sum()) for k in range(1, 8)]
    assert pi == [4, 25, 168, 1229, 9592, 78498, 664579]
    assert int(flags[10**6 // 2 : 2 * 10**6 // 2].sum()) == 70435


def test_prime_flags_matches_simple_sieve(monkeypatch):
    assert prime_flags(10**5).tolist() == [bool(b) for b in simple_sieve(10**5)[1::2]]
    # pieces of 37 flags, the last taking the rest: one piece up to 74 flags,
    # then a tail shorter than a piece joins the piece before it
    monkeypatch.setattr("smoothgap._sieve.WINDOW", 37)
    for size in (36, 37, 38, 73, 74, 75, 111, 112, 148):
        for limit in (2 * size - 1, 2 * size):
            assert prime_flags(limit).tolist() == [bool(b) for b in simple_sieve(limit)[1::2]]


def test_prime_flags_guards(monkeypatch):
    with pytest.raises(ValueError):
        prime_flags(-1)
    with pytest.raises(CapacityError):
        prime_flags(10**12 + 1)
    monkeypatch.setenv("SMOOTHGAP_MEM_BUDGET", "1000")
    with pytest.raises(CapacityError):
        prime_flags(2001)  # 1001 odd integers
    assert len(_window_primes(0, prime_flags(2000), 2000)) == 303


@pytest.mark.parametrize(
    "limit", [0, 1, 2, 3, 36, 37, 38, 73, 74, 75, 147, 148, 149, 1000, 1010]
)
@pytest.mark.parametrize("reach", [0, 1, 2, 18, 36, 37, 38, 50, 74, 75, 76])
def test_prime_windows_match_simple_sieve(monkeypatch, limit, reach):
    # windows of 37 flags, 74 integers: 0, 1 and 2 in the first, a limit
    # off the window grid, and reaches past a window, which widen the step
    monkeypatch.setattr("smoothgap._sieve.WINDOW", 37)
    sieve = simple_sieve(limit)
    step = max(37, reach)
    got = each_window(lambda start, window: (start, window.tolist()), limit, reach)
    assert [start for start, _ in got] == [
        start for start in range(0, limit + 1, step) if 2 * start <= limit - 2 * reach
    ]
    for start, window in got:
        # flag i stands for 2 * (start + i) + 1, for i below step + reach, up to limit
        odd = range(2 * start + 1, min(2 * (start + step + reach), limit + 1), 2)
        assert window == [bool(sieve[n]) for n in odd]
    if not reach:
        windows = each_window(lambda start, w: _window_primes(start, w, limit).tolist(), limit)
        primes = [p for window in windows for p in window]
        assert primes == trial_primes(limit)


def test_prime_windows_check_limit_at_the_call(monkeypatch):
    with pytest.raises(ValueError):
        _fold_windows(read_nothing, -1)
    with pytest.raises(CapacityError):
        _fold_windows(read_nothing, 10**12 + 1)
    # a translate scan to x = 10^12 sieves 2 * reach integers past x - 1:
    # the guard holds where its windows start
    _fold_windows(read_nothing, 10**12 + 2, 1)
    with pytest.raises(CapacityError):
        _fold_windows(read_nothing, 10**12 + 3, 1)
    # the full table is held to the budget, and windows only when a reach
    # wider than WINDOW makes them as wide as the input asks; the base primes
    # to 316 and their tuple are charged 3534 bytes
    monkeypatch.setenv("SMOOTHGAP_MEM_BUDGET", "4000")
    assert sum(each_window(lambda start, w: len(_window_primes(start, w, 10**5)), 10**5)) == 9592
    monkeypatch.setattr("smoothgap._sieve.WINDOW", 37)
    _fold_windows(read_nothing, 10**5, 37)
    _fold_windows(read_nothing, 6000, 2500)  # 3000 bytes: the limit caps the window
    with pytest.raises(CapacityError):
        _fold_windows(read_nothing, 10**5, 2001)  # 2001 + 2001 flags


def test_base_prime_table_is_held_to_the_budget(monkeypatch):
    # the base primes up to sqrt(x) come from _primes_upto: at x = 10^7 a
    # table to 3162 of 1581 bytes and a tuple of at most 1.25506 * 3162 /
    # ln 3162 = 492.4 primes at 49 bytes each, checked on every call
    x = 10**7
    monkeypatch.setenv("SMOOTHGAP_MEM_BUDGET", "25709")
    with pytest.raises(CapacityError, match="prime flags and tuple to 3162 need 25710 bytes"):
        _fold_windows(read_nothing, x)
    monkeypatch.setenv("SMOOTHGAP_MEM_BUDGET", "25710")
    assert sum(each_window(lambda start, w: len(_window_primes(start, w, x)), x)) == 664579
    # a list already built once is no exemption
    monkeypatch.setenv("SMOOTHGAP_MEM_BUDGET", "25709")
    with pytest.raises(CapacityError, match="prime flags and tuple to 3162 need 25710 bytes"):
        _fold_windows(read_nothing, x)


@pytest.mark.slow
def test_prime_flags_pi_1e9():
    assert 1 + int(prime_flags(10**9).sum()) == 50847534


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
