"""The benchmark's workloads: seeded inputs, CLI invocations, and the
checks that compare each invocation's output with the oracle.

A seed changes only inputs that keep the amount of work the same: which
admissible tuple of a given length is scanned, the verify tuples (their
lengths cycle through a fixed sequence), and jitter in the checkpoints.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle

MAX_WITNESSES = 100  # the program reports at most this many witnesses

WHY = {
    "sieve-1e8": "x-byte full-table sieve and O(x) counting kernels at 1e8: "
    "time and peak memory of the scans, tuples layer idle",
    "pairs-kernel": "O(x*Psi(x,y)) ordered-pairs loop at two loads, few gaps over "
    "wide x and many gaps over narrow x, sieve nearly idle",
    "tuples-search": "pure-Python tuples, primes and smoothness work, search "
    "quality and process start-up; scan and sieve layers idle",
}


Check = Callable[[str], "str | None"]  # stdout -> problem, or None when right


@dataclass
class Invocation:
    argv: list[str]
    # Computes the oracle's reference values and returns the check. It is
    # called only after every child has run: the children inherit the
    # benchmark's peak RSS through vfork, so the oracle's arrays must not
    # exist while they start.
    make_check: Callable[[], Check]
    exit_codes: frozenset[int] = frozenset({0})


def build(name: str, seed: int, workdir: Path, smoke: bool) -> list[Invocation]:
    """The invocations of one workload; `smoke` shrinks every size so the
    workload runs in seconds."""
    rng = random.Random(f"{name}/{seed}")
    builders = {
        "sieve-1e8": _sieve_workload,
        "pairs-kernel": _pairs_workload,
        "tuples-search": _tuples_workload,
    }
    if name not in builders:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(builders)}")
    return builders[name](rng, workdir, smoke)


# ------------------------------------------------------------------ inputs

def random_admissible(rng: random.Random, k: int, span: int) -> tuple[int, ...]:
    """Admissible by construction: one residue class per prime p <= k is
    left empty, and the elements are drawn from the offsets avoiding it."""
    primes = [p for p in range(2, k + 1) if oracle.rough_part(p, p - 1) == p]
    while True:
        empty = {p: rng.randrange(p) for p in primes}
        pool = [t for t in range(span + 1) if all(t % p != r for p, r in empty.items())]
        if len(pool) >= k:
            return tuple(sorted(rng.sample(pool, k)))


def canonical(H) -> tuple[int, ...]:
    return tuple(h - H[0] for h in H)


def geometric_checkpoints(rng: random.Random, x: int, steps: int) -> list[int]:
    """x / 10^steps, ..., x / 10, x, each but the last jittered by up to 10%."""
    cps = [round(x / 10**e * rng.uniform(0.9, 1.1)) for e in range(steps, 0, -1)]
    return cps + [x]


def write_tuples(path: Path, tuples) -> str:
    path.write_text("".join(",".join(map(str, H)) + "\n" for H in tuples), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------- workloads

def _sieve_workload(rng, workdir, smoke):
    x = 10**6 if smoke else 10**8
    checkpoints = [x // 100, x // 10, x]
    H4 = canonical(random_admissible(rng, 4, 24))
    H5 = canonical(random_admissible(rng, 5, 30))
    primes = _lazy_primes(x + H4[-1] + 2)
    f4 = write_tuples(workdir / "translates.txt", [H4])
    f5 = write_tuples(workdir / "series.txt", [H5])
    cps = ",".join(map(str, checkpoints))
    return [
        Invocation(
            ["scan", "tuple-translates", str(x), "--tuple-file", f4,
             "--checkpoints", cps, "--at-least", "3"],
            functools.partial(_translates_check, primes, H4, checkpoints, 3),
        ),
        Invocation(
            ["scan", "consecutive-pairs", str(x), "--y", "47"],
            functools.partial(_consecutive_check, primes, 47, [x]),
        ),
        Invocation(
            ["constants", "--singular-series", f5, "--cutoff", str(x)],
            functools.partial(_series_check, primes, H5, x),
        ),
    ]


def _pairs_workload(rng, workdir, smoke):
    cases = [(20_000, 13, True), (10_000, 47, False)] if smoke else [
        (1_000_000, 13, True),
        (400_000, 47, False),
    ]
    primes = _lazy_primes(max(x for x, _, _ in cases))
    out = []
    for x, y, exclude_gap_one in cases:
        checkpoints = geometric_checkpoints(rng, x, 3)
        argv = ["scan", "pairs", str(x), "--y", str(y)]
        if exclude_gap_one:
            argv.append("--exclude-gap-one")
        argv += ["--checkpoints", ",".join(map(str, checkpoints))]
        check = functools.partial(_pairs_check, primes, y, checkpoints, not exclude_gap_one)
        out.append(Invocation(argv, check))
    return out


def _tuples_workload(rng, workdir, smoke):
    if smoke:
        n_verify, k_admissible, (k_budget, budget), (k_smooth, y_smooth), k_construct = (
            50, 10, (20, 10_000), (8, 7), 12)
    else:
        n_verify, k_admissible, (k_budget, budget), (k_smooth, y_smooth), k_construct = (
            2000, 18, (50, 1_000_000), (12, 11), 50)
    primes = _lazy_primes(10**6)
    verify_tuples = [random_admissible(rng, 2 + i % 29, 20 * (2 + i % 29)) for i in range(n_verify)]
    fv = write_tuples(workdir / "verify.txt", verify_tuples)
    smooth_ok = [_first_rough_pair(H, 29) is None for H in verify_tuples]
    return [
        Invocation(
            ["search", str(k_admissible)],
            functools.partial(_search_check, primes, k_admissible),
        ),
        Invocation(
            ["search", str(k_budget), "--budget", str(budget)],
            functools.partial(_search_check, primes, k_budget),
            frozenset({0, 3}),
        ),
        Invocation(
            ["search", str(k_smooth), "--smooth", str(y_smooth)],
            functools.partial(_search_check, primes, k_smooth, y_smooth),
        ),
        Invocation(
            ["verify", fv, "--admissible", "--witness"],
            functools.partial(_witness_check, primes, verify_tuples),
        ),
        Invocation(
            ["verify", fv, "--diff-smooth", "29"],
            functools.partial(_diff_smooth_check, verify_tuples, 29),
            frozenset({0 if all(smooth_ok) else 1}),
        ),
        Invocation(
            ["construct", "primorial", str(k_construct)],
            functools.partial(_primorial_check, primes, k_construct),
        ),
        Invocation(["constants", "--km-table"], functools.partial(_km_check, primes)),
    ]


# ------------------------------------------------------------------- checks
# Each takes `primes`, a function returning the shared oracle.Primes.

def _lazy_primes(limit: int) -> Callable[[], oracle.Primes]:
    return functools.cache(lambda: oracle.Primes(limit))


def _hl_problem(record, ratio_form: float, integral_form: float) -> str | None:
    c = record["checkpoint"]
    if not oracle.close(record["hl_ratio_prediction"], ratio_form):
        return f"ratio-form prediction {record['hl_ratio_prediction']} at {c}, want {ratio_form}"
    if not oracle.close(record["hl_integral_prediction"], integral_form):
        return f"integral-form prediction {record['hl_integral_prediction']} at {c}, want {integral_form}"
    if not oracle.close(record["ratio"], record["count"] / integral_form):
        return f"ratio {record['ratio']} at {c}"
    return None


def _translates_check(primes, H, checkpoints, at_least):
    counts = primes().count_translates(H, checkpoints)
    at_least_counts = primes().count_translates(H, checkpoints, at_least)
    witnesses = [[n] for n in primes().first_translates(H, checkpoints[-1], MAX_WITNESSES)]
    # scan predictions use the package's default singular-series cutoff, 10^6
    G = oracle.singular_series(primes(), H, 10**6)
    k = len(H)
    hl = {c: (G * c / math.log(c) ** k, G * oracle.hl_integral(k, c)) for c in checkpoints}

    def check(stdout):
        doc = json.loads(stdout)
        got = [(r["checkpoint"], r["count"], r["at_least_m_count"]) for r in doc["records"]]
        want = list(zip(checkpoints, counts, at_least_counts))
        if got != want:
            return f"translate records {got}, want {want}"
        if doc["witnesses"] != witnesses:
            return "translate witnesses differ"
        for r in doc["records"]:
            problem = _hl_problem(r, *hl[r["checkpoint"]])
            if problem:
                return problem
        return None

    return check


def _records_check(what, checkpoints, counts, witnesses):
    def check(stdout):
        doc = json.loads(stdout)
        got = [(r["checkpoint"], r["count"]) for r in doc["records"]]
        if got != list(zip(checkpoints, counts)):
            return f"{what} records {got}, want counts {counts}"
        if doc["witnesses"] != witnesses:
            return f"{what} witnesses differ"
        return None

    return check


def _consecutive_check(primes, y, checkpoints):
    counts, first = oracle.consecutive_pairs(primes(), y, checkpoints, True, MAX_WITNESSES)
    return _records_check("consecutive-pair", checkpoints, counts, [list(w) for w in first])


def _pairs_check(primes, y, checkpoints, include_gap_one):
    counts = oracle.ordered_pair_counts(primes(), y, checkpoints, include_gap_one)
    first = oracle.first_ordered_pairs(primes(), y, include_gap_one, MAX_WITNESSES)
    return _records_check("pair", checkpoints, counts, [list(w) for w in first])


def _series_check(primes, H, cutoff):
    k = len(H)
    value = oracle.singular_series(primes(), H, cutoff)
    tail = (k * k - k) / (2.0 * cutoff * math.log(cutoff))

    def check(stdout):
        doc = json.loads(stdout)
        if (doc["tuple"], doc["k"], doc["prime_cutoff"], doc["admissible"]) != (list(H), k, cutoff, True):
            return "singular-series header fields differ"
        if not oracle.close(doc["value"], value):
            return f"singular series {doc['value']}, want {value}"
        if not oracle.close(doc["tail_magnitude"], tail):
            return f"tail magnitude {doc['tail_magnitude']}, want {tail}"
        return None

    return check


def _consecutive_prime_diameter(primes, k: int) -> int:
    ps = [int(p) for p in primes().primes_upto(100 * k + 100) if p > k][:k]
    return ps[-1] - ps[0]


def _search_check(primes, k, y=None):
    known = oracle.KNOWN_MIN_DIAMETER.get(k)
    incumbent = _consecutive_prime_diameter(primes, k)

    def check(stdout):
        doc = json.loads(stdout)
        H = doc["tuple"]
        if H is None or len(H) != k or H[0] != 0 or H != sorted(set(H)):
            return f"search returned {H}, not a canonical {k}-tuple"
        if doc["diameter"] != H[-1]:
            return f"diameter {doc['diameter']} disagrees with tuple {H}"
        if not oracle.admissibility(H)[0]:
            return f"search returned an inadmissible tuple {H}"
        if y is not None and _first_rough_pair(H, y) is not None:
            return f"search returned a tuple that is not difference {y}-smooth"
        if known is not None and H[-1] < known:
            return f"diameter {H[-1]} is below the known optimum {known}"
        if doc["proven_minimal"] and y is None and known is not None and H[-1] != known:
            return f"proven diameter {H[-1]} is not the known optimum {known}"
        if y is None and H[-1] > incumbent:
            return f"diameter {H[-1]} is worse than the consecutive-prime tuple's {incumbent}"
        return None

    return check


def _first_rough_pair(H, y):
    for i in range(len(H)):
        for j in range(i + 1, len(H)):
            if oracle.rough_part(H[j] - H[i], y) != 1:
                return i, j
    return None


def _largest_prime_leq(primes, k: int) -> int:
    n = k
    while not primes().is_prime(n):
        n -= 1
    return n


def _witness_check(primes, tuples):
    want = []
    for H in tuples:
        z = _largest_prime_leq(primes, len(H))
        pair = next(
            [i, j] for i in range(len(H)) for j in range(i + 1, len(H)) if (H[j] - H[i]) % z == 0
        )
        want.append({
            "tuple": list(H), "admissible": True, "obstruction": None,
            "pigeonhole_pair": pair, "pigeonhole_prime": z,
        })

    def check(stdout):
        doc = json.loads(stdout)
        if doc["results"] != want:
            return "verify --admissible --witness differs from the oracle"
        return None

    return check


def _diff_smooth_check(tuples, y):
    want = []
    for H in tuples:
        pair = _first_rough_pair(H, y)
        want.append({
            "tuple": list(H), "difference_smooth": pair is None, "smooth_bound": y,
            "witness_pair": None if pair is None else list(pair),
            "rough_cofactor": None if pair is None else oracle.rough_part(H[pair[1]] - H[pair[0]], y),
        })

    def check(stdout):
        doc = json.loads(stdout)
        if doc["results"] != want:
            return f"verify --diff-smooth {y} differs from the oracle"
        return None

    return check


def _primorial_check(primes, k):
    w = math.prod(int(p) for p in primes().primes_upto(k))
    want = ",".join(str(i * w) for i in range(k)) + "\n"
    return lambda stdout: None if stdout == want else f"primorial {k}-tuple differs"


def _km_check(primes):
    rows = [(m, k, False) for m, k in oracle.KM_UNCONDITIONAL]
    rows += [(m, k, True) for m, k in oracle.KM_CONDITIONAL]
    want = [
        {"m": m, "k_m": k, "y_m": _largest_prime_leq(primes, k), "conditional": c}
        for m, k, c in rows
    ]

    def check(stdout):
        doc = json.loads(stdout)
        return None if doc["entries"] == want else "k_m table differs from the published values"

    return check
