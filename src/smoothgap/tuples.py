"""Tuple algebra: admissibility, diameter, difference-smoothness, the
primorial-progression construction, the pigeonhole witness, and
minimal-diameter searches."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .primes import _primes_upto, is_prime, largest_prime_leq, primorial
from .smoothness import is_smooth, smooth_numbers_up_to


@dataclass(frozen=True)
class IntegerTuple:
    """Strictly increasing tuple of integers, length >= 1."""

    elements: tuple[int, ...]

    def __post_init__(self):
        if len(self.elements) < 1:
            raise ValueError("tuple must have at least one element")
        if any(a >= b for a, b in zip(self.elements, self.elements[1:])):
            raise ValueError(f"elements must be strictly increasing: {self.elements}")

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def translate(self, t: int) -> "IntegerTuple":
        return IntegerTuple(tuple(h + t for h in self.elements))

    def canonical(self) -> "IntegerTuple":
        """Translate so the least element is 0."""
        return self.translate(-self.elements[0])

    @classmethod
    def of(cls, elements: Iterable[int]) -> "IntegerTuple":
        return cls(tuple(elements))


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    obstruction: int | None  # smallest prime covering all residue classes
    coverage: dict[int, int]  # prime -> number of residue classes covered

    def __bool__(self) -> bool:
        return self.admissible


@dataclass(frozen=True)
class DifferenceSmoothness:
    smooth: bool
    witness: tuple[int, int] | None  # first failing index pair (i, j), i < j
    cofactor: int | None  # rough part of the failing difference

    def __bool__(self) -> bool:
        return self.smooth


@dataclass(frozen=True)
class SearchResult:
    tuple: IntegerTuple | None
    diameter: int | None
    nodes_explored: int
    proven_minimal: bool
    budget_exhausted: bool


def residue_coverage(H: IntegerTuple, p: int) -> int:
    """Number of distinct residue classes mod p covered by H."""
    return len({h % p for h in H})


def is_admissible(H: IntegerTuple) -> AdmissibilityReport:
    """Check admissibility over the primes p <= k.

    A prime p > k can never be an obstruction: the k elements cover at
    most k < p residue classes, so at least one class is always free.
    """
    k = len(H)
    coverage: dict[int, int] = {}
    obstruction = None
    for p in _primes_upto(k):
        v = residue_coverage(H, p)
        coverage[p] = v
        if v == p and obstruction is None:
            obstruction = p
    return AdmissibilityReport(obstruction is None, obstruction, coverage)


def diameter(H: IntegerTuple) -> int:
    return H.elements[-1] - H.elements[0]


def is_difference_smooth(H: IntegerTuple, y: int) -> DifferenceSmoothness:
    """True iff every pairwise difference of H is y-smooth.

    Vacuously true for k = 1. On failure reports the lexicographically
    first failing index pair and the rough cofactor of that difference.
    """
    hs = H.elements
    for i in range(len(hs)):
        for j in range(i + 1, len(hs)):
            check = is_smooth(hs[j] - hs[i], y)
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
    return IntegerTuple(tuple(i * w for i in range(k)))


def construct_consecutive_prime_tuple(k: int) -> IntegerTuple:
    """The first k primes exceeding k, translated to start at 0.

    Admissible: no element is 0 mod any prime p <= k (after translating
    back, all elements are primes > k), and primes p > k are never covered.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    primes = []
    n = k + 1
    while len(primes) < k:
        if is_prime(n):
            primes.append(n)
        n += 1
    return IntegerTuple(tuple(p - primes[0] for p in primes))


def find_smoothness_witness(H: IntegerTuple) -> tuple[tuple[int, int], int]:
    """Pigeonhole collision certifying non-smoothness below z_k.

    For admissible H with k >= 2 elements, at most z_k - 1 < k residue
    classes mod z_k are covered, so two elements collide mod z_k. The
    returned pair (i, j) has z_k dividing h_j - h_i, which rules out
    difference l-smoothness for every l < z_k.
    """
    k = len(H)
    if k < 2:
        raise ValueError("need at least 2 elements for a collision")
    if not is_admissible(H):
        raise ValueError("tuple is not admissible; pigeonhole bound does not apply")
    z = largest_prime_leq(k)
    hs = H.elements
    for i in range(k):
        for j in range(i + 1, k):
            if (hs[j] - hs[i]) % z == 0:
                return (i, j), z
    raise AssertionError("unreachable: admissible tuple must collide mod z_k")


class _BudgetExhausted(Exception):
    pass


class _SearchState:
    __slots__ = ("nodes", "budget")

    def __init__(self, budget: int):
        self.nodes = 0
        self.budget = budget

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.budget:
            raise _BudgetExhausted


def _admissibility_lower_bound(k: int) -> int:
    # v_2 < 2 forces a single parity class, so gaps are >= 2 throughout.
    return 2 * (k - 1)


def _init_residue_state(ps, d):
    # residue coverage for the fixed endpoints 0 and d
    masks = []
    counts = []
    for p in ps:
        r = d % p
        if r == 0:
            masks.append(1)
            counts.append(1)
        else:
            masks.append(1 | (1 << r))
            counts.append(2)
    return masks, counts


def _search_fixed_diameter(k, d, ps, state, smooth_ok=None):
    """First (lex-smallest) admissible k-tuple 0 = h_0 < ... < h_{k-1} = d.

    With smooth_ok given, every pairwise difference must satisfy it.
    A node is one candidate element evaluated. Returns the middle
    elements or None.
    """
    m = k - 2  # free slots between the endpoints
    masks, counts = _init_residue_state(ps, d)
    if any(c == p for c, p in zip(counts, ps)):
        return None
    if smooth_ok is not None and not smooth_ok[d]:
        return None
    if m == 0:
        return []
    res_table = [[v % p for p in ps] for v in range(d + 1)]
    np_ = len(ps)
    chosen: list[int] = []

    def extend(depth: int, low: int) -> bool:
        hi = d - (m - depth)  # leave room for the remaining slots
        for v in range(low, hi + 1):
            state.tick()
            if smooth_ok is not None:
                if not (smooth_ok[v] and smooth_ok[d - v]):
                    continue
                if any(not smooth_ok[v - h] for h in chosen):
                    continue
            rv = res_table[v]
            ok = True
            for i in range(np_):
                r = rv[i]
                if not (masks[i] >> r) & 1 and counts[i] + 1 == ps[i]:
                    ok = False
                    break
            if not ok:
                continue
            placed = []
            for i in range(np_):
                r = rv[i]
                if not (masks[i] >> r) & 1:
                    masks[i] |= 1 << r
                    counts[i] += 1
                    placed.append(i)
            chosen.append(v)
            if depth + 1 == m or extend(depth + 1, v + 1):
                return True
            chosen.pop()
            for i in placed:
                masks[i] &= ~(1 << res_table[v][i])
                counts[i] -= 1
        return False

    return chosen if extend(0, 1) else None


def _result_from(H, state, proven, exhausted):
    return SearchResult(
        tuple=H,
        diameter=None if H is None else diameter(H),
        nodes_explored=state.nodes,
        proven_minimal=proven,
        budget_exhausted=exhausted,
    )


def search_min_diameter_admissible(k: int, budget: int = 10**7) -> SearchResult:
    """Smallest-diameter admissible k-tuple, canonical with first element 0.

    Iterative deepening on the diameter, seeded with the consecutive-prime
    baseline as incumbent; ties broken lexicographically smallest. The
    budget counts candidate-element evaluations.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    incumbent = construct_consecutive_prime_tuple(k)
    ps = _primes_upto(k)
    state = _SearchState(budget)
    try:
        for d in range(_admissibility_lower_bound(k), diameter(incumbent) + 1):
            state.tick()
            middles = _search_fixed_diameter(k, d, ps, state)
            if middles is not None:
                H = IntegerTuple(tuple([0] + middles + [d]))
                return _result_from(H, state, True, False)
    except _BudgetExhausted:
        return _result_from(incumbent, state, False, True)
    raise AssertionError("unreachable: incumbent diameter is always attainable")


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
    z = largest_prime_leq(k)
    if y < z:
        return SearchResult(None, None, 0, proven_minimal=True, budget_exhausted=False)
    incumbent = construct_primorial_tuple(k)
    ps = _primes_upto(k)
    state = _SearchState(budget)
    lower = _admissibility_lower_bound(k)
    upper = diameter(incumbent)
    smooth_ok = None
    smooth_cap = 0
    try:
        for d in range(lower, upper + 1):
            state.tick()
            if d > smooth_cap:
                smooth_cap = max(4 * d, 256)
                smooth_ok = [False] * (smooth_cap + 1)
                smooth_ok[0] = True
                for s in smooth_numbers_up_to(y, smooth_cap):
                    smooth_ok[s] = True
            middles = _search_fixed_diameter(k, d, ps, state, smooth_ok)
            if middles is not None:
                H = IntegerTuple(tuple([0] + middles + [d]))
                return _result_from(H, state, True, False)
    except _BudgetExhausted:
        return _result_from(incumbent, state, False, True)
    raise AssertionError("unreachable: primorial tuple diameter is attainable")
