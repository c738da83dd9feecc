"""Tuple algebra: admissibility, diameter, difference-smoothness, the
primorial-progression construction, the pigeonhole witness,
minimal-diameter searches, and the k_m / y_m table."""

from __future__ import annotations

import math
from typing import NamedTuple

from .primes import _primes_upto, check_budget, largest_prime_leq, primorial
from .smoothness import is_smooth, smooth_numbers_up_to

# Lowest known tuple lengths k_m guaranteeing m primes among n + H, as rows
# (m, k_m, conditional): the conditional m = 2 entry is under Elliott-Halberstam.
_KM = (
    (2, 50, False),
    (3, 35265, False),
    (4, 1624545, False),
    (5, 73807570, False),
    (6, 3340375663, False),
    (2, 5, True),
)


class IntegerTuple(tuple):
    """Strictly increasing tuple of integers, length >= 1: a tuple, so it
    equals and hashes by its elements, and is immutable."""

    __slots__ = ()

    def __new__(cls, elements):
        self = super().__new__(cls, elements)
        if not self:
            raise ValueError("tuple must have at least one element")
        if any(a >= b for a, b in zip(self, self[1:])):
            raise ValueError(f"elements must be strictly increasing: {tuple(self)}")
        return self

    def __repr__(self) -> str:
        return f"IntegerTuple(elements={tuple(self)})"

    @property
    def elements(self) -> tuple[int, ...]:
        return tuple(self)

    def translate(self, t: int) -> "IntegerTuple":
        return IntegerTuple(h + t for h in self)

    def canonical(self) -> "IntegerTuple":
        """Translate so the least element is 0."""
        return self.translate(-self[0])


class AdmissibilityReport(NamedTuple):
    admissible: bool
    obstruction: int | None  # smallest prime covering all residue classes

    def __bool__(self) -> bool:
        return self.admissible


class DifferenceSmoothness(NamedTuple):
    smooth: bool
    witness: tuple[int, int] | None  # first failing index pair (i, j), i < j
    cofactor: int | None  # rough part of the failing difference

    def __bool__(self) -> bool:
        return self.smooth


class KmEntry(NamedTuple):
    m: int
    k_m: int
    y_m: int
    conditional: bool


class SearchResult(NamedTuple):
    tuple: IntegerTuple | None
    diameter: int | None
    nodes_explored: int
    proven_minimal: bool
    budget_exhausted: bool
    # the smallest diameter not yet shown infeasible: diameter once proven,
    # None when no tuple exists
    proven_lower_bound: int | None


def residue_coverage(H: IntegerTuple, p: int) -> int:
    """Number of distinct residue classes mod p covered by H."""
    return len({h % p for h in H})


def is_admissible(H: IntegerTuple) -> AdmissibilityReport:
    """Check admissibility over the primes p <= k.

    A prime p > k can never be an obstruction: the k elements cover at
    most k < p residue classes, so at least one class is always free.
    """
    for p in _primes_upto(len(H)):  # ascending: the first is the smallest
        if residue_coverage(H, p) == p:
            return AdmissibilityReport(False, p)
    return AdmissibilityReport(True, None)


def diameter(H: IntegerTuple) -> int:
    return H[-1] - H[0]


def is_difference_smooth(H: IntegerTuple, y: int) -> DifferenceSmoothness:
    """True iff every pairwise difference of H is y-smooth.

    Vacuously true for k = 1. On failure reports the lexicographically
    first failing index pair and the rough cofactor of that difference.
    """
    for i in range(len(H)):
        for j in range(i + 1, len(H)):
            check = is_smooth(H[j] - H[i], y)
            if not check:
                return DifferenceSmoothness(False, (i, j), check.cofactor)
    return DifferenceSmoothness(True, None, None)


def construct_primorial_tuple(k: int) -> IntegerTuple:
    """The arithmetic progression (0, w, 2w, ..., (k-1)w), w = primorial(k).

    Every prime p <= k divides w, so all elements are 0 mod p; primes
    p > k cannot be covered by k elements. Hence the tuple is admissible,
    and each difference a*w (0 < a < k) is z_k-smooth since both a and w are.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    w = primorial(k)
    return IntegerTuple(i * w for i in range(k))


def construct_consecutive_prime_tuple(k: int) -> IntegerTuple:
    """The first k primes exceeding k, translated to start at 0.

    Admissible: no element is 0 mod any prime p <= k (after translating
    back, all elements are primes > k), and primes p > k are never covered.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    n = 2 * k + 6  # >= pi(k) + k, and the n-th prime is below n(log n + log log n) (Rosser)
    primes = [p for p in _primes_upto(int(n * (math.log(n) + math.log(math.log(n))))) if p > k]
    return IntegerTuple(p - primes[0] for p in primes[:k])


def find_smoothness_witness(H: IntegerTuple) -> tuple[tuple[int, int], int]:
    """Pigeonhole collision certifying non-smoothness below z_k.

    For admissible H with k >= 2 elements, at most z_k - 1 < k residue
    classes mod z_k are covered, so two elements collide mod z_k. The
    returned pair (i, j) has z_k dividing h_j - h_i, which rules out
    difference l-smoothness for every l < z_k.
    """
    if len(H) < 2:
        raise ValueError("need at least 2 elements for a collision")
    if not is_admissible(H):
        raise ValueError("tuple is not admissible; pigeonhole bound does not apply")
    return _collision(H)


def _collision(H: IntegerTuple) -> tuple[tuple[int, int], int]:
    """find_smoothness_witness for an H already known admissible, k >= 2."""
    k = len(H)
    z = largest_prime_leq(k)
    for i in range(k):
        for j in range(i + 1, k):
            if (H[j] - H[i]) % z == 0:
                return (i, j), z
    raise AssertionError("unreachable: admissible tuple must collide mod z_k")


class _BudgetExhausted(Exception):
    pass


def _word(bits, width: int) -> int:
    """The int with the given bits set, none above bit width, in time linear in width."""
    buf = bytearray(width // 8 + 1)
    for b in bits:
        buf[b >> 3] |= 1 << (b & 7)
    return int.from_bytes(buf, "little")


class _Positions(dict):
    """Bit tables over the positions 0..n for the primes up to k, and y if given.

    A coverage word has one field of p bits per prime p, each with a zero
    guard bit above it; bit r of p's field stands for the class r mod p.
    A position word has bit v set for each position v in it. table[v] is
    the coverage word of every class but v's, made on first read and kept;
    the words kept, with the coverage words, are charged to mem_budget().
    """

    def __init__(self, k: int, n: int, y: int | None):
        self.n = n
        self.classes = {}  # guard bit index -> (p, field offset)
        self.multiples = {}  # p -> positions 0, p, 2p, ..., made on first read and kept
        self.width = 0  # of a coverage word
        for p in _primes_upto(k):
            self.classes[self.width + p] = (p, self.width)
            self.width += p + 1
        check_budget(3 * (self.width // 8 + 1), f"coverage words of {self.width} bits")
        self.lows = _word([o for _, o in self.classes.values()], self.width)
        self.guards = _word(self.classes, self.width)
        self.fields = self.guards - self.lows
        # smooth: the positions s with s y-smooth, 0 included; all without y
        self.smooth = (2 << n) - 1 if y is None else _word([0] + smooth_numbers_up_to(y, n), n)

    def __missing__(self, v: int) -> int:
        # the words kept so far, this one and the three coverage words
        words = len(self) + 4
        check_budget(
            words * (self.width // 8 + 1),
            f"{words - 3} position words and 3 coverage words of {self.width} bits",
        )
        own = _word([o + v % p for p, o in self.classes.values()], self.width)
        return self.setdefault(v, self.fields ^ own)


def _search_fixed_diameter(k, d, table, nodes, budget):
    """First (lex-smallest) admissible k-tuple 0 = h_0 < ... < h_{k-1} = d.

    Every pairwise difference must be in table.smooth. A node is one
    candidate element, placed or rejected: the rejected ones are skipped a
    run at a time and charged in bulk. Returns the middle elements or None,
    and the node count; raises _BudgetExhausted once the count passes budget.
    """
    m = k - 2  # free slots between the endpoints
    free = table[0] & table[d]
    guards, lows, smooth = table.guards, table.lows, table.smooth
    # the endpoints cover every class of some prime, or d is not permitted
    if ((free | guards) - lows) & guards != guards or not (smooth >> d) & 1:
        return None, nodes
    # the middles 1..d - 1 with v - 0 and d - v smooth
    open_ = smooth & int(format(smooth & ((2 << d) - 1), f"0{d + 1}b")[::-1], 2) & ((1 << d) - 2)
    if m == 0:
        return [], nodes
    classes, multiples, n = table.classes, table.multiples, table.n
    top = d - m  # the last candidate at depth 0
    last = m - 1

    # free: the classes still uncovered; singles: the guards of the primes
    # down to one free class; open_: the positions outside those last classes
    # whose differences to every element are permitted. open_ only narrows
    # with depth.
    def extend(depth, low, free, singles, open_):
        nonlocal nodes
        # Each field x of rest is x & (x - 1): with its guard set, x - 1
        # borrows only within the field. Every prime keeps a free class,
        # so x > 0, and rest's field is 0 iff one class is left; the
        # second subtraction clears exactly those fields' guards.
        rest = free & ((free | guards) - lows)
        now = guards ^ (((rest | guards) - lows) & guards)
        new = now ^ singles
        singles = now
        while new:
            guard = new & -new
            new ^= guard
            p, offset = classes[guard.bit_length() - 1]
            r = ((free >> offset) & ((1 << p) - 1)).bit_length() - 1  # p's last free class
            if p not in multiples:
                multiples[p] = _word(range(0, n + 1, p), n)
            open_ &= ~(multiples[p] << r)
        hi = top + depth  # leave room for the remaining slots
        run = open_ >> low
        # Every later element lies in [low, d) and stays in open_, which only
        # narrows with depth. Fewer such positions than the m - depth slots
        # left reject the whole run, charged below.
        if run.bit_count() < m - depth:
            run = 0
        run &= (2 << (hi - low)) - 1
        pos = low  # the first candidate not yet charged
        while run:
            bit = run & -run
            run ^= bit
            v = low + bit.bit_length() - 1
            nodes += v - pos + 1
            if nodes > budget:
                raise _BudgetExhausted
            pos = v + 1
            if depth == last:
                return [v]
            tail = extend(depth + 1, pos, free & table[v], singles, open_ & (smooth << v))
            if tail is not None:
                return [v] + tail
        nodes += hi - pos + 1
        if nodes > budget:
            raise _BudgetExhausted
        return None

    return extend(0, 1, free, 0, open_), nodes


def _deepen(k: int, y: int | None, incumbent: IntegerTuple, budget: int) -> SearchResult:
    """Iterative deepening over the diameters up to the incumbent's. A run
    that passes the budget returns the incumbent, with the diameter it was
    searching as the proven lower bound."""
    table = None
    nodes = 0
    try:
        # v_2 < 2 forces a single parity class, so gaps are >= 2 throughout.
        for d in range(2 * (k - 1), diameter(incumbent) + 1):
            nodes += 1
            if nodes > budget:
                raise _BudgetExhausted
            if table is None or d > table.n:
                table = _Positions(k, max(4 * d, 256), y)
            middles, nodes = _search_fixed_diameter(k, d, table, nodes, budget)
            if middles is not None:
                H = IntegerTuple([0] + middles + [d])
                return SearchResult(
                    H, d, nodes, proven_minimal=True, budget_exhausted=False, proven_lower_bound=d
                )
    except _BudgetExhausted:
        return SearchResult(
            incumbent,
            diameter(incumbent),
            budget + 1,
            proven_minimal=False,
            budget_exhausted=True,
            proven_lower_bound=d,  # every smaller diameter was searched in full
        )
    raise AssertionError("unreachable: the incumbent's diameter is always attainable")


def search_min_diameter_admissible(k: int, budget: int = 10**7) -> SearchResult:
    """Smallest-diameter admissible k-tuple, canonical with first element 0.

    Iterative deepening on the diameter, seeded with the consecutive-prime
    baseline as incumbent; ties broken lexicographically smallest. The
    budget (at least 1) counts candidate elements, one node each, and
    one node per diameter tried.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    return _deepen(k, None, construct_consecutive_prime_tuple(k), budget)


def search_min_diameter_difference_smooth(
    k: int, y: int, budget: int = 10**7
) -> SearchResult:
    """Smallest-diameter k-tuple that is admissible and difference y-smooth.

    For y < z_k no such tuple exists (pigeonhole collision mod z_k forces
    a difference divisible by z_k > y), reported as a certified-impossible
    result without searching. Otherwise iterative deepening over diameters,
    with the primorial progression as the initial upper bound.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if y < 2:
        raise ValueError(f"y must be at least 2, got {y}")
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    if y < largest_prime_leq(k):
        return SearchResult(
            None, None, 0, proven_minimal=True, budget_exhausted=False, proven_lower_bound=None
        )
    return _deepen(k, y, construct_primorial_tuple(k), budget)


def km_table() -> list[KmEntry]:
    """The tabulated k_m values with their derived prime bounds y_m."""
    return [KmEntry(m, k, largest_prime_leq(k), conditional) for m, k, conditional in _KM]
