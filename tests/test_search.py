import functools
import tracemalloc

import pytest

from smoothgap.errors import CapacityError
from smoothgap.primes import _primes_upto, largest_prime_leq
from smoothgap.tuples import (
    IntegerTuple,
    SearchResult,
    _Positions,
    _search_fixed_diameter,
    construct_consecutive_prime_tuple,
    diameter,
    is_admissible,
    is_difference_smooth,
    search_min_diameter_admissible,
    search_min_diameter_difference_smooth,
)

from tests.oracles import brute_fixed_diameter, brute_min_diameter

# frozen from the exhaustive oracle (diameters <= 50)
MIN_ADMISSIBLE = {2: 2, 3: 6, 4: 8, 5: 12}


def test_k2_trivial_minimum():
    result = search_min_diameter_admissible(2)
    assert result.tuple.elements == (0, 2)
    assert result.diameter == 2
    assert result.proven_minimal
    assert not result.budget_exhausted


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_admissible_search_matches_oracle(k):
    expected_d, expected_elements = brute_min_diameter(k, 50)
    assert expected_d == MIN_ADMISSIBLE[k]
    result = search_min_diameter_admissible(k)
    assert result.diameter == expected_d
    assert result.tuple.elements == expected_elements
    assert result.proven_minimal
    assert is_admissible(result.tuple)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("y", [2, 3, 5, 7])
def test_smooth_search_matches_oracle(k, y):
    result = search_min_diameter_difference_smooth(k, y)
    z = largest_prime_leq(k)
    if y < z:
        assert result.tuple is None
        assert result.proven_minimal
        assert not result.budget_exhausted
        assert result.nodes_explored == 0
        return
    expected_d, expected_elements = brute_min_diameter(k, 50, smooth_y=y)
    assert result.diameter == expected_d
    assert result.tuple.elements == expected_elements
    assert result.proven_minimal
    assert is_admissible(result.tuple)
    assert is_difference_smooth(result.tuple, y)


def test_smooth_search_examples():
    assert search_min_diameter_difference_smooth(2, 2).tuple.elements == (0, 2)
    assert search_min_diameter_difference_smooth(3, 2).tuple is None
    result = search_min_diameter_difference_smooth(3, 3)
    assert result.diameter == 6
    assert result.tuple.elements == (0, 2, 6)


def test_search_canonical_and_deterministic():
    first = search_min_diameter_admissible(6)
    second = search_min_diameter_admissible(6)
    assert first == second
    assert first.tuple.elements[0] == 0
    assert first.tuple.elements[1] > 0


def test_budget_exhaustion_reports_incumbent():
    result = search_min_diameter_admissible(12, budget=50)
    assert result.budget_exhausted
    assert not result.proven_minimal
    assert result.tuple is not None
    assert is_admissible(result.tuple)
    assert result.nodes_explored > 50  # counter stops just past the budget


def test_smooth_budget_exhaustion():
    result = search_min_diameter_difference_smooth(12, 47, budget=50)
    assert result.budget_exhausted
    assert not result.proven_minimal
    assert result.tuple is not None
    assert is_difference_smooth(result.tuple, largest_prime_leq(12))


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("smooth", [False, True])
def test_fixed_diameter_matches_exhaustive_walk(k, smooth):
    # the kernel, with its cut of branches whose open positions cannot fill
    # their slots, against every middle for the endpoints 0 and d
    y = largest_prime_leq(k) if smooth else None
    table = _Positions(k, 256, y)
    for d in range(2 * (k - 1), 37):
        middles, _ = _search_fixed_diameter(k, d, table, 0, 10**9)
        expected = brute_fixed_diameter(k, d, y)
        assert (None if middles is None else tuple(middles)) == expected, d


def test_position_table_holds_one_class_mask_per_prime():
    # the table a k = 200 search builds at its first diameter, 398: with a
    # position mask per residue class it held 3.5 MB, with one per prime and
    # a class word per position 1.0 MB
    tracemalloc.start()
    try:
        table = _Positions(200, 1592, None)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == 0  # no class word is made before it is read
    assert held < 2 * 10**5


def test_position_table_is_linear_in_its_primes():
    # the tables a search builds at its first diameter 2(k - 1). At k = 3000,
    # with a field mask and a guard bit per prime, each as wide as the
    # 594,253-bit coverage word, it held 23.3 MB. At the paper's k_3 = 35,265,
    # with each prime's multiples mask made up front, it held 171 MB.
    for k, n, primes, bound in ((3000, 23992, 430, 3 * 10**6), (35265, 282112, 3756, 30 * 10**6)):
        tracemalloc.start()
        try:
            table = _Positions(k, n, None)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table.classes) == primes  # pi(k)
        assert not table.multiples  # no mask is made before it is read
        assert held < bound, k


@pytest.mark.parametrize("k", [2, 3, 30, 50])
def test_position_words_match_their_eager_definition(k):
    # table[v], made on first read, against every class but v's built in full
    table = _Positions(k, 256, None)
    ps = _primes_upto(k)
    offsets = [sum(q + 1 for q in ps[:i]) for i in range(len(ps))]
    fields = sum(((1 << p) - 1) << o for p, o in zip(ps, offsets))
    own = [sum(1 << (o + v % p) for p, o in zip(ps, offsets)) for v in range(257)]
    for v in range(257):
        assert table[v] == fields & ~own[v], v
    assert len(table) == 257
    if k == 30:
        # each multiples mask the search for the narrowest 30-tuple (A008407) made
        middles, _ = _search_fixed_diameter(k, 136, table, 0, 10**7)
        assert middles is not None and table.multiples
        for p, mask in table.multiples.items():
            assert mask == sum(1 << v for v in range(0, table.n + 1, p)), p


def test_wide_search_with_one_node_builds_no_table_per_position():
    # k = 1000 at budget 1: one diameter, 1998, searched for a single node.
    # A class word for each of the 7,993 positions peaked at 164 MB.
    tracemalloc.start()
    try:
        result = search_min_diameter_admissible(1000, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.tuple == construct_consecutive_prime_tuple(1000)
    assert result.diameter == diameter(result.tuple)
    assert result.budget_exhausted and not result.proven_minimal
    assert result.proven_lower_bound == 1998
    assert peak < 20 * 10**6


def test_proven_lower_bound_never_falls_as_the_budget_grows():
    bounds = [
        search_min_diameter_admissible(50, budget).proven_lower_bound
        for budget in (1, 10**2, 10**3, 10**4, 10**5, 10**6)
    ]
    assert bounds == sorted(bounds)
    assert bounds[0] == 2 * 49  # the widest gaps are 2, so nothing below is searched
    assert bounds[-1] <= 246  # the narrowest admissible 50-tuple (Polymath8b; OEIS A008407)
    smooth = [
        search_min_diameter_difference_smooth(12, 11, budget)
        for budget in (1, 10**2, 10**3, 10**4, 28_404, 28_405)
    ]
    assert [r.proven_lower_bound for r in smooth] == sorted(r.proven_lower_bound for r in smooth)
    assert smooth[-1].proven_minimal and smooth[-1].proven_lower_bound == 84


@pytest.mark.slow
@pytest.mark.parametrize("k, minimum", [(25, 110), (26, 114), (28, 126)])
def test_admissible_minima_past_24(k, minimum):
    # OEIS A008407; k = 26 takes 11.9M nodes
    result = search_min_diameter_admissible(k, budget=10**8)
    assert result.proven_minimal
    assert result.diameter == result.proven_lower_bound == minimum
    assert is_admissible(result.tuple)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_constrained_minimum_never_beats_unconstrained(k):
    unconstrained = search_min_diameter_admissible(k)
    constrained = search_min_diameter_difference_smooth(k, largest_prime_leq(k))
    if unconstrained.proven_minimal and constrained.proven_minimal:
        assert constrained.diameter >= unconstrained.diameter


def test_returned_tuples_reverify():
    for k in (3, 5, 7):
        result = search_min_diameter_admissible(k)
        assert is_admissible(result.tuple)
    for k, y in ((3, 3), (4, 5), (5, 7)):
        result = search_min_diameter_difference_smooth(k, y)
        assert is_admissible(result.tuple)
        assert is_difference_smooth(result.tuple, y)


def test_search_domain_errors():
    with pytest.raises(ValueError):
        search_min_diameter_admissible(1)
    with pytest.raises(ValueError):
        search_min_diameter_difference_smooth(1, 5)
    with pytest.raises(ValueError):
        search_min_diameter_difference_smooth(3, 1)
    for budget in (0, -1):
        with pytest.raises(ValueError):
            search_min_diameter_admissible(5, budget)
        with pytest.raises(ValueError):
            search_min_diameter_difference_smooth(5, 7, budget)
        with pytest.raises(ValueError):  # also where the search is certified impossible
            search_min_diameter_difference_smooth(5, 3, budget)


# Golden table: the inputs of each admissible search, (k, budget), then its
# whole result: tuple, node count, proven lower bound and status. The rows up
# to k = 50 at 10**5 were frozen from the per-candidate kernel that preceded
# the bitset kernel, the later rows from the kernel that cuts a branch once its
# open positions cannot fill its slots. That cut kept every tuple and status;
# the node column holds its counts (k = 18 proved its minimum in 2,142,991
# nodes before it, in 109,913 since). The test ids name the inputs alone, so a
# pruning rule that lowers the counts edits the node column and renames no
# test. The smooth rows, (k, y, budget), follow below. The runs that stop exactly at the budget sit at the proof counts:
# k = 10 proves its minimum in 1,316 nodes, smooth (12, 11) in 28,405. A run
# that stops at the budget reports the diameter it was searching as its lower
# bound. The minima for k = 19..24 are OEIS A008407's.
INCUMBENT_20 = (0, 6, 8, 14, 18, 20, 24, 30, 36, 38, 44, 48, 50, 56, 60, 66, 74, 78, 80, 84)
INCUMBENT_30 = (
    0, 6, 10, 12, 16, 22, 28, 30, 36, 40, 42, 48, 52, 58, 66, 70, 72, 76, 78, 82, 96, 100,
    106, 108, 118, 120, 126, 132, 136, 142,
)
INCUMBENT_50 = (
    0, 6, 8, 14, 18, 20, 26, 30, 36, 44, 48, 50, 54, 56, 60, 74, 78, 84, 86, 96, 98, 104,
    110, 114, 120, 126, 128, 138, 140, 144, 146, 158, 170, 174, 176, 180, 186, 188, 198,
    204, 210, 216, 218, 224, 228, 230, 240, 254, 258, 260,
)
SMOOTH_12_11 = (0, 12, 18, 24, 28, 30, 40, 42, 48, 60, 72, 84)
PRIMORIAL_12 = (0, 2310, 4620, 6930, 9240, 11550, 13860, 16170, 18480, 20790, 23100, 25410)

ADMISSIBLE_GOLDEN = [
    (2, 10**7, (0, 2), 1, 2, "proven"),
    (3, 10**7, (0, 2, 6), 8, 6, "proven"),
    (4, 10**7, (0, 2, 6, 8), 17, 8, "proven"),
    (5, 10**7, (0, 2, 6, 8, 12), 25, 12, "proven"),
    (6, 10**7, (0, 4, 6, 10, 12, 16), 86, 16, "proven"),
    (7, 10**7, (0, 2, 6, 8, 12, 18, 20), 174, 20, "proven"),
    (8, 10**7, (0, 2, 6, 8, 12, 18, 20, 26), 674, 26, "proven"),
    (9, 10**7, (0, 2, 6, 8, 12, 18, 20, 26, 30), 828, 30, "proven"),
    (10, 10**7, (0, 2, 6, 8, 12, 18, 20, 26, 30, 32), 1_316, 32, "proven"),
    (11, 10**7, (0, 2, 6, 8, 12, 18, 20, 26, 30, 32, 36), 1_641, 36, "proven"),
    (12, 10**7, (0, 2, 6, 8, 12, 18, 20, 26, 30, 32, 36, 42), 4_387, 42, "proven"),
    (13, 10**7, (0, 2, 6, 8, 12, 18, 20, 26, 30, 32, 36, 42, 48), 10_595, 48, "proven"),
    (14, 10**7, (0, 2, 6, 8, 12, 18, 20, 26, 30, 32, 36, 42, 48, 50), 11_221, 50, "proven"),
    (15, 10**7, (0, 2, 6, 8, 12, 18, 20, 26, 30, 32, 36, 42, 48, 50, 56), 26_943, 56, "proven"),
    (16, 10**7,
        (0, 2, 6, 12, 14, 20, 26, 30, 32, 36, 42, 44, 50, 54, 56, 60),
        27_050, 60, "proven"),
    (18, 10**7,
        (0, 4, 6, 10, 16, 18, 24, 28, 30, 34, 40, 46, 48, 54, 58, 60, 66, 70),
        109_913, 70, "proven"),
    (20, 1, INCUMBENT_20, 2, 38, "exhausted"),
    (20, 50, INCUMBENT_20, 51, 42, "exhausted"),
    (20, 12_345, INCUMBENT_20, 12_346, 64, "exhausted"),
    (20, 10**5, INCUMBENT_20, 100_001, 74, "exhausted"),
    (30, 1, INCUMBENT_30, 2, 58, "exhausted"),
    (30, 50, INCUMBENT_30, 51, 60, "exhausted"),
    (30, 12_345, INCUMBENT_30, 12_346, 86, "exhausted"),
    (30, 10**5, INCUMBENT_30, 100_001, 98, "exhausted"),
    (50, 1, INCUMBENT_50, 2, 98, "exhausted"),
    (50, 50, INCUMBENT_50, 51, 98, "exhausted"),
    (50, 12_345, INCUMBENT_50, 12_346, 120, "exhausted"),
    (50, 10**5, INCUMBENT_50, 100_001, 144, "exhausted"),
    (10, 1_315, (0, 2, 6, 8, 12, 18, 20, 26, 30, 32), 1_316, 32, "exhausted"),
    (10, 3_493, (0, 2, 6, 8, 12, 18, 20, 26, 30, 32), 1_316, 32, "proven"),
    (10, 3_494, (0, 2, 6, 8, 12, 18, 20, 26, 30, 32), 1_316, 32, "proven"),
    (10, 1_316, (0, 2, 6, 8, 12, 18, 20, 26, 30, 32), 1_316, 32, "proven"),
    (19, 10**7,
        (0, 4, 6, 10, 12, 16, 24, 30, 34, 40, 42, 46, 52, 54, 60, 66, 70, 72, 76),
        237_836, 76, "proven"),
    (20, 10**7,
        (0, 2, 6, 8, 12, 20, 26, 30, 36, 38, 42, 48, 50, 56, 62, 66, 68, 72, 78, 80),
        316_080, 80, "proven"),
    (21, 10**7,
        (0, 2, 8, 12, 14, 18, 24, 30, 32, 38, 42, 44, 50, 54, 60, 68, 72, 74, 78, 80, 84),
        358_116, 84, "proven"),
    (22, 10**7,
        (0, 2, 6, 8, 12, 20, 26, 30, 36, 38, 42, 48, 50, 56, 62, 66, 68, 72, 78, 80, 86, 90),
        698_516, 90, "proven"),
    (23, 10**7,
        (0, 4, 6, 10, 12, 16, 24, 30, 34, 40, 42, 46, 52, 54, 60, 66, 70, 72, 76, 82, 84,
            90, 94),
        1_258_759, 94, "proven"),
    (24, 10**7,
        (0, 4, 6, 10, 12, 16, 24, 30, 34, 40, 42, 46, 52, 60, 66, 70, 72, 76, 82, 84, 90,
            94, 96, 100),
        2_256_782, 100, "proven"),
]
SMOOTH_GOLDEN = [
    (2, 2, 10**7, (0, 2), 1, "proven"),
    (2, 3, 10**7, (0, 2), 1, "proven"),
    (2, 5, 10**7, (0, 2), 1, "proven"),
    (2, 7, 10**7, (0, 2), 1, "proven"),
    (2, 11, 10**7, (0, 2), 1, "proven"),
    (2, 13, 10**7, (0, 2), 1, "proven"),
    (3, 2, 10**7, None, 0, "impossible"),
    (3, 3, 10**7, (0, 2, 6), 8, "proven"),
    (3, 5, 10**7, (0, 2, 6), 8, "proven"),
    (3, 7, 10**7, (0, 2, 6), 8, "proven"),
    (3, 11, 10**7, (0, 2, 6), 8, "proven"),
    (3, 13, 10**7, (0, 2, 6), 8, "proven"),
    (4, 2, 10**7, None, 0, "impossible"),
    (4, 3, 10**7, (0, 2, 6, 8), 17, "proven"),
    (4, 5, 10**7, (0, 2, 6, 8), 17, "proven"),
    (4, 7, 10**7, (0, 2, 6, 8), 17, "proven"),
    (4, 11, 10**7, (0, 2, 6, 8), 17, "proven"),
    (4, 13, 10**7, (0, 2, 6, 8), 17, "proven"),
    (5, 2, 10**7, None, 0, "impossible"),
    (5, 3, 10**7, None, 0, "impossible"),
    (5, 5, 10**7, (0, 2, 6, 8, 12), 39, "proven"),
    (5, 7, 10**7, (0, 2, 6, 8, 12), 39, "proven"),
    (5, 11, 10**7, (0, 2, 6, 8, 12), 39, "proven"),
    (5, 13, 10**7, (0, 2, 6, 8, 12), 39, "proven"),
    (6, 2, 10**7, None, 0, "impossible"),
    (6, 3, 10**7, None, 0, "impossible"),
    (6, 5, 10**7, (0, 4, 6, 10, 12, 16), 71, "proven"),
    (6, 7, 10**7, (0, 4, 6, 10, 12, 16), 114, "proven"),
    (6, 11, 10**7, (0, 4, 6, 10, 12, 16), 114, "proven"),
    (6, 13, 10**7, (0, 4, 6, 10, 12, 16), 114, "proven"),
    (7, 2, 10**7, None, 0, "impossible"),
    (7, 3, 10**7, None, 0, "impossible"),
    (7, 5, 10**7, None, 0, "impossible"),
    (7, 7, 10**7, (0, 2, 6, 8, 12, 18, 20), 314, "proven"),
    (7, 11, 10**7, (0, 2, 6, 8, 12, 18, 20), 314, "proven"),
    (7, 13, 10**7, (0, 2, 6, 8, 12, 18, 20), 314, "proven"),
    (8, 2, 10**7, None, 0, "impossible"),
    (8, 3, 10**7, None, 0, "impossible"),
    (8, 5, 10**7, None, 0, "impossible"),
    (8, 7, 10**7, (0, 2, 8, 12, 14, 18, 20, 32), 2_105, "proven"),
    (8, 11, 10**7, (0, 4, 6, 10, 16, 18, 24, 28), 1_206, "proven"),
    (8, 13, 10**7, (0, 2, 6, 8, 12, 18, 20, 26), 1_200, "proven"),
    (9, 2, 10**7, None, 0, "impossible"),
    (9, 3, 10**7, None, 0, "impossible"),
    (9, 5, 10**7, None, 0, "impossible"),
    (9, 7, 10**7, (0, 6, 12, 18, 20, 30, 36, 48, 60), 23_877, "proven"),
    (9, 11, 10**7, (0, 2, 8, 12, 14, 18, 20, 30, 32), 3_251, "proven"),
    (9, 13, 10**7, (0, 2, 6, 8, 12, 18, 20, 26, 30), 1_982, "proven"),
    (12, 11, 10**7, SMOOTH_12_11, 219_275, "proven"),
    (12, 47, 50, PRIMORIAL_12, 51, "exhausted"),
    (12, 11, 28_404, PRIMORIAL_12, 28_405, "exhausted"),
    (12, 11, 219_275, SMOOTH_12_11, 219_275, "proven"),
    (12, 11, 28_405, SMOOTH_12_11, 28_405, "proven"),
]
# The smooth rows still carry the count each was frozen with, which is part of
# their test ids: CUT_NODES holds the count since the cut for the rows it
# lowered (none rose), EXHAUSTED_LOWER the lower bound of each run that stops
# at the budget. Keying these rows by their inputs too, as above, renames all
# 53 of their tests, so it is left to a change of its own.
CUT_NODES = {
    (5, 5, 10**7): 25, (5, 7, 10**7): 25, (5, 11, 10**7): 25, (5, 13, 10**7): 25,
    (6, 5, 10**7): 49, (6, 7, 10**7): 86, (6, 11, 10**7): 86, (6, 13, 10**7): 86,
    (7, 7, 10**7): 174, (7, 11, 10**7): 174, (7, 13, 10**7): 174, (8, 7, 10**7): 1_125,
    (8, 11, 10**7): 680, (8, 13, 10**7): 674, (9, 7, 10**7): 8_105, (9, 11, 10**7): 1_416,
    (9, 13, 10**7): 828, (12, 11, 10**7): 28_405, (12, 11, 219_275): 28_405,
}
EXHAUSTED_LOWER = {(12, 47, 50): 24, (12, 11, 28_404): 84}


def _expected(elements, nodes, lower, status):
    H = None if elements is None else IntegerTuple(elements)
    return SearchResult(
        tuple=H,
        diameter=None if H is None else diameter(H),
        nodes_explored=nodes,
        proven_minimal=status != "exhausted",
        budget_exhausted=status == "exhausted",
        proven_lower_bound=lower,
    )


@pytest.mark.parametrize(
    "k, budget, elements, nodes, lower, status",
    ADMISSIBLE_GOLDEN,
    ids=[f"k{k}-b{budget}" for k, budget, *_ in ADMISSIBLE_GOLDEN],
)
def test_admissible_search_golden(k, budget, elements, nodes, lower, status):
    expected = _expected(elements, nodes, lower, status)
    assert search_min_diameter_admissible(k, budget) == expected


@pytest.mark.parametrize("k, y, budget, elements, nodes, status", SMOOTH_GOLDEN)
def test_smooth_search_golden(k, y, budget, elements, nodes, status):
    inputs = (k, y, budget)
    assert CUT_NODES.get(inputs, nodes) <= nodes
    lower = EXHAUSTED_LOWER[inputs] if status == "exhausted" else (
        None if elements is None else max(elements))
    result = search_min_diameter_difference_smooth(k, y, budget)
    assert result == _expected(elements, CUT_NODES.get(inputs, nodes), lower, status)


def test_kept_position_words_are_charged(monkeypatch):
    # the words a table keeps count against the budget with its three
    # coverage words: a budget that holds them all changes no result or
    # node count, and one byte less stops the search at the last word
    search = functools.partial(_search_fixed_diameter, 30, 136)
    table = _Positions(30, 256, None)
    reference = search(table, 0, 10**7)
    words, size = len(table) + 3, table.width // 8 + 1
    monkeypatch.setenv("SMOOTHGAP_MEM_BUDGET", str(words * size))
    table = _Positions(30, 256, None)
    assert search(table, 0, 10**7) == reference
    assert len(table) + 3 == words
    monkeypatch.setenv("SMOOTHGAP_MEM_BUDGET", str(words * size - 1))
    with pytest.raises(CapacityError, match=f"{words - 3} position words and 3 coverage words"):
        search(_Positions(30, 256, None), 0, 10**7)
