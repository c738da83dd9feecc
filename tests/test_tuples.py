import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smoothgap.primes import largest_prime_leq, primorial
from smoothgap.tuples import (
    IntegerTuple,
    construct_consecutive_prime_tuple,
    construct_primorial_tuple,
    diameter,
    find_smoothness_witness,
    is_admissible,
    is_difference_smooth,
    residue_coverage,
    search_min_diameter_admissible,
)
from smoothgap.smoothness import is_smooth

from tests.generators import random_admissible_elements
from tests.oracles import (
    brute_difference_smooth,
    brute_obstruction,
    simple_sieve,
    trial_is_prime,
)


def test_tuple_validation():
    with pytest.raises(ValueError):
        IntegerTuple((2, 0))
    with pytest.raises(ValueError):
        IntegerTuple((0, 0))
    with pytest.raises(ValueError):
        IntegerTuple(())


def test_records_are_immutable_values_whose_truth_is_their_verdict():
    H = IntegerTuple((0, 2, 6))
    assert H == IntegerTuple((0, 2, 6)) and hash(H) == hash(IntegerTuple((0, 2, 6)))
    assert H != IntegerTuple((0, 4, 6))
    assert IntegerTuple((0, 2, 6)) in {H} and IntegerTuple((0, 4, 6)) not in {H}
    assert (len(H), list(H), H.elements) == (3, [0, 2, 6], (0, 2, 6))
    result = search_min_diameter_admissible(3)
    for record, name in ((H, "elements"), (result, "diameter"), (result, "tuple")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        H.extra = 1
    # a NamedTuple is truthy when non-empty; each report's __bool__ is its verdict
    assert not is_admissible(IntegerTuple((0, 2, 4))) and is_admissible(H)
    assert not is_difference_smooth(IntegerTuple((0, 22)), 7)
    assert is_difference_smooth(H, 3)
    assert not is_smooth(22, 7) and is_smooth(21, 7)


def test_canonical():
    assert IntegerTuple((5, 7, 11)).canonical().elements == (0, 2, 6)


def test_residue_coverage_examples():
    assert residue_coverage(IntegerTuple((0, 2)), 2) == 1
    assert residue_coverage(IntegerTuple((0, 2)), 3) == 2
    assert residue_coverage(IntegerTuple((0, 2, 4)), 3) == 3


def test_is_admissible_examples():
    assert is_admissible(IntegerTuple((0, 2)))
    report = is_admissible(IntegerTuple((0, 2, 4)))
    assert not report
    assert report.obstruction == 3


def test_is_admissible_k1():
    assert is_admissible(IntegerTuple((7,)))


def test_admissibility_report_coverage_bounds():
    H = IntegerTuple((0, 4, 6, 10, 12, 16))
    report = is_admissible(H)
    assert report and report.obstruction is None
    for p in (2, 3, 5):  # the primes up to k = 6
        v = residue_coverage(H, p)
        assert 1 <= v <= min(len(H), p)
        assert v < p


def test_diameter():
    assert diameter(IntegerTuple((0, 2))) == 2
    assert diameter(IntegerTuple((0, 30, 60, 90, 120))) == 120
    assert diameter(IntegerTuple((5,))) == 0


def test_is_difference_smooth_examples():
    assert is_difference_smooth(IntegerTuple((0, 30, 60, 90, 120)), 5)
    check = is_difference_smooth(IntegerTuple((0, 2, 6)), 2)
    assert not check
    assert check.witness == (0, 2)  # elements 0 and 6
    assert check.cofactor == 3
    assert is_difference_smooth(IntegerTuple((0, 2)), 2)
    assert is_difference_smooth(IntegerTuple((5,)), 2)  # vacuous at k = 1


def test_construct_primorial_examples():
    assert construct_primorial_tuple(2).elements == (0, 2)
    assert construct_primorial_tuple(5).elements == (0, 30, 60, 90, 120)
    H = construct_primorial_tuple(50)
    w = 614889782588491410
    assert H.elements == tuple(i * w for i in range(50))


def test_construct_primorial_k1():
    assert construct_primorial_tuple(1).elements == (0,)


@pytest.mark.parametrize("k", list(range(1, 61)))
def test_primorial_tuple_admissible_and_smooth(k):
    H = construct_primorial_tuple(k)
    assert len(H) == k
    assert diameter(H) == (k - 1) * primorial(k)
    assert is_admissible(H)
    if k >= 2:
        assert is_difference_smooth(H, largest_prime_leq(k))


def test_construct_consecutive_prime_examples():
    assert construct_consecutive_prime_tuple(2).elements == (0, 2)
    assert construct_consecutive_prime_tuple(1).elements == (0,)
    H = construct_consecutive_prime_tuple(50)
    assert len(H) == 50
    assert diameter(H) == 260  # primes 53 .. 313
    assert is_admissible(H)


def test_construct_consecutive_prime_matches_trial_division():
    primes = [n for n in range(3000) if trial_is_prime(n)]
    for k in range(1, 301):
        above = [p for p in primes if p > k][:k]
        assert len(above) == k
        assert construct_consecutive_prime_tuple(k) == tuple(p - above[0] for p in above), k
    # the paper's k_3: the 35,265 primes from 35,267 to 467,497
    H = construct_consecutive_prime_tuple(35265)
    assert diameter(H) == 432230
    flags = simple_sieve(467497)
    assert [h + 35267 for h in H] == [n for n in range(35266, 467498) if flags[n]]


def test_find_smoothness_witness_examples():
    assert find_smoothness_witness(IntegerTuple((0, 2))) == ((0, 1), 2)
    pair, z = find_smoothness_witness(IntegerTuple((0, 30, 60, 90, 120)))
    assert pair == (0, 1)  # 5 divides 30
    assert z == 5


def test_find_smoothness_witness_consecutive_primes():
    H = construct_consecutive_prime_tuple(50)
    (i, j), z = find_smoothness_witness(H)
    assert z == 47
    assert (H.elements[j] - H.elements[i]) % 47 == 0


def test_find_smoothness_witness_rejects_inadmissible():
    with pytest.raises(ValueError):
        find_smoothness_witness(IntegerTuple((0, 1, 2)))
    with pytest.raises(ValueError):
        find_smoothness_witness(IntegerTuple((3,)))


def test_pigeonhole_property_sampled():
    rng = random.Random(20260823)
    for _ in range(100):
        k = rng.randint(2, 20)
        H = IntegerTuple(random_admissible_elements(rng, k))
        (i, j), z = find_smoothness_witness(H)
        assert z == largest_prime_leq(k)
        assert (H.elements[j] - H.elements[i]) % z == 0
        for ell in range(2, z):
            assert not is_difference_smooth(H, ell)


@given(
    elements=st.lists(
        st.integers(min_value=0, max_value=300), min_size=1, max_size=8, unique=True
    ),
    t=st.integers(min_value=-10**6, max_value=10**6),
)
@settings(max_examples=200, deadline=None)
def test_translation_invariance(elements, t):
    H = IntegerTuple(tuple(sorted(elements)))
    shifted = H.translate(t)
    assert is_admissible(H).admissible == is_admissible(shifted).admissible
    assert diameter(H) == diameter(shifted)
    assert bool(is_difference_smooth(H, 5)) == bool(is_difference_smooth(shifted, 5))


@given(
    elements=st.lists(
        st.integers(min_value=0, max_value=100), min_size=1, max_size=6, unique=True
    )
)
@example(elements=[0, 6, 12, 18, 24])  # one class mod 2 and mod 3, every class mod 5
@settings(max_examples=300, deadline=None)
def test_is_admissible_matches_larger_brute_check(elements):
    H = IntegerTuple(tuple(sorted(elements)))
    # the oracle checks all primes up to diameter + k; the shortcut to
    # primes <= k must never disagree, and must report the smallest
    # obstruction
    report = is_admissible(H)
    assert report.obstruction == brute_obstruction(H.elements, diameter(H) + len(H))
    assert report.admissible == (report.obstruction is None)


@given(
    elements=st.lists(
        st.integers(min_value=0, max_value=200), min_size=2, max_size=6, unique=True
    ),
    y=st.sampled_from([2, 3, 5, 7, 47]),
)
@settings(max_examples=200, deadline=None)
def test_difference_smooth_matches_oracle(elements, y):
    H = IntegerTuple(tuple(sorted(elements)))
    assert bool(is_difference_smooth(H, y)) == brute_difference_smooth(H.elements, y)
