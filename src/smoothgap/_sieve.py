"""The package's one sieve, and the allocation budget that bounds its tables."""

from __future__ import annotations

import math
import os
from collections.abc import Iterator

import numpy as np

from .errors import CapacityError

SCAN_LIMIT = 10**12  # desk-scale hard guard
# Integers per window of the segmented sieve, and per numpy call of the
# windowed counting kernel: small enough that a window stays in cache.
WINDOW = 1 << 20

_DEFAULT_MEM_BUDGET = 4_000_000_000


def mem_budget() -> int:
    """Allocation budget in bytes, overridable via SMOOTHGAP_MEM_BUDGET (a positive integer)."""
    raw = os.environ.get("SMOOTHGAP_MEM_BUDGET")
    if raw is None:
        return _DEFAULT_MEM_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget < 1:
        raise ValueError(f"SMOOTHGAP_MEM_BUDGET must be a positive integer of bytes, got {raw!r}")
    return budget


def sieve_window(out: np.ndarray, lo: int, base: list[int]) -> np.ndarray:
    """Fill out so that out[i] is true iff lo + i is prime, and return it.
    base holds, ascending from 2, at least every prime up to
    sqrt(lo + len(out) - 1).

    The one strike loop of the package. It is public so that a traced run
    (bench/trace_child.py) times each window in the sieve layer."""
    hi = lo + len(out)
    out.fill(True)
    out[lo % 2 :: 2] = False  # the even numbers
    for p in base[1:]:
        if p * p >= hi:
            break
        # the odd multiples of p from max(p^2, the first multiple at or above lo)
        first = max(p * p, -(-lo // p) * p)
        out[first + p * (first % 2 == 0) - lo :: 2 * p] = False
    out[: max(0, 2 - lo)] = False  # 0 and 1
    if lo <= 2 < hi:
        out[2 - lo] = True
    return out


def prime_windows(limit: int, overlap: int = 0) -> Iterator[tuple[int, np.ndarray]]:
    """The primes up to limit, a window at a time: pairs (lo, flags) with
    flags[i] true iff lo + i is prime, for lo = 0, s, 2s, ... up to
    limit - overlap, where the step s is max(WINDOW, overlap). Each window
    holds s + overlap integers, fewer where it would pass limit, so the
    overlap integers after a step are also in its window.

    The windows keep both parities. The base primes up to sqrt(limit) come
    from prime_windows(sqrt(limit)), a single window for any limit up to
    SCAN_LIMIT. The flags array is reused for the next window: copy what
    must outlive a step. Memory is O(sqrt(limit) + s + overlap). limit is
    checked here, before anything is sieved, and so is an overlap wider
    than WINDOW: it makes the windows as wide as the input asks, so they
    must fit mem_budget()."""
    if limit < 0:
        raise ValueError(f"limit must be non-negative, got {limit}")
    if limit > SCAN_LIMIT:
        raise CapacityError(f"limit {limit} exceeds the desk-scale guard {SCAN_LIMIT}")
    step = max(WINDOW, overlap)
    size = min(step + overlap, limit + 1)
    if overlap > WINDOW and size > mem_budget():
        raise CapacityError(
            f"windows with an overlap of {overlap} need {size} bytes, over budget {mem_budget()}"
        )
    root = math.isqrt(limit)
    base = []
    if root >= 2:
        base = [p for lo, w in prime_windows(root) for p in (np.flatnonzero(w) + lo).tolist()]
    buf = np.empty(size, dtype=bool)
    return (
        (lo, sieve_window(buf[: min(step + overlap, limit + 1 - lo)], lo, base))
        for lo in range(0, limit + 1 - overlap, step)
    )


def prime_flags(limit: int) -> np.ndarray:
    """Boolean array b with b[n] true iff n prime, for n in [0, limit]: a
    table of limit + 1 bytes, which must fit mem_budget(), filled from
    prime_windows. For the callers that need random access; a pass that
    reads the primes in order folds over prime_windows instead."""
    windows = prime_windows(limit)  # checks limit before the table exists
    if limit + 1 > mem_budget():
        raise CapacityError(
            f"prime flags to {limit} need {limit + 1} bytes, over budget {mem_budget()}"
        )
    flags = np.empty(limit + 1, dtype=bool)
    for lo, window in windows:
        flags[lo : lo + len(window)] = window
    return flags
