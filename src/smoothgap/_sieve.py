"""The package's one sieve, and the allocation budget that bounds its tables.

Every table and window of prime flags holds the odd integers only: flag i
of a window starting at an even lo stands for lo + 2i + 1, and a full table
from prime_flags is the window at lo = 0. The prime 2 is never a flag.
Only this module turns a flag's index into the integer it stands for."""

from __future__ import annotations

import math
import os
from collections.abc import Iterator

import numpy as np

from .errors import CapacityError

SCAN_LIMIT = 10**12  # desk-scale hard guard
# Flags per window of the segmented sieve, and per numpy call of the
# windowed counting kernel: small enough that a window stays in cache. A
# window of WINDOW flags spans 2 * WINDOW integers.
WINDOW = 1 << 19

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


def flag_index(n):
    """The index of odd n in a table from prime_flags. For any n it is also
    the number of odd integers in [0, n), so flags[:flag_index(n)] are the
    flags of the odd integers below n. Takes integers or integer arrays."""
    return n // 2


def flag_integer(i):
    """The odd integer that flag i of a table from prime_flags stands for.
    Takes integers or integer arrays."""
    return 2 * i + 1


def window_primes(lo: int, flags: np.ndarray, limit: int) -> np.ndarray:
    """The primes of a window at lo from prime_windows(limit), or of
    prime_flags(limit) at lo = 0, ascending as int64: 2 first in the window
    at lo = 0 once limit reaches it, then the flagged odd integers."""
    primes = flags.nonzero()[0]  # flag_integer(i) + lo, in place
    primes *= 2
    primes += lo + 1
    return np.concatenate(([2], primes)) if lo == 0 and limit >= 2 else primes


def sieve_window(out: np.ndarray, lo: int, base: list[int]) -> np.ndarray:
    """Fill out so that out[i] is true iff lo + 2i + 1 is prime, and return
    it. lo is even; base holds, ascending from 2, at least every prime up to
    sqrt(lo + 2 * len(out) - 1).

    The one strike loop of the package. It is public so that a traced run
    (bench/trace_child.py) times each window in the sieve layer."""
    hi = lo + 2 * len(out)
    out.fill(True)
    for p in base[1:]:
        if p * p >= hi:
            break
        # the odd multiples of p from max(p^2, the first multiple at or above lo),
        # p flags apart
        first = max(p * p, -(-lo // p) * p)
        out[(first + p * (first % 2 == 0) - lo) // 2 :: p] = False
    if lo == 0:
        out[:1] = False  # 1
    return out


def _base_primes(limit: int) -> list[int]:
    """The primes up to sqrt(limit), from prime_windows(sqrt(limit)): a
    single window for any limit up to SCAN_LIMIT."""
    root = math.isqrt(limit)
    if root < 2:
        return []
    return [p for lo, w in prime_windows(root) for p in window_primes(lo, w, root).tolist()]


def _check_limit(limit: int) -> None:
    if limit < 0:
        raise ValueError(f"limit must be non-negative, got {limit}")
    if limit > SCAN_LIMIT:
        raise CapacityError(f"limit {limit} exceeds the desk-scale guard {SCAN_LIMIT}")


def prime_windows(limit: int, overlap: int = 0) -> Iterator[tuple[int, np.ndarray]]:
    """The primes up to limit, a window at a time: pairs (lo, flags) with
    flags[i] true iff lo + 2i + 1 is prime, for lo = 0, s, 2s, ... up to
    limit - overlap, where the step s = 2 * max(WINDOW, ceil(overlap / 2))
    integers. Each window holds the flags of the odd integers in
    [lo, lo + s + overlap], fewer where it would pass limit, so the overlap
    integers after a step are also in its window.

    The flags array is reused for the next window: copy what must outlive a
    step. Memory is O(sqrt(limit) + s + overlap). limit is checked here,
    before anything is sieved, and so is an overlap wider than a window: it
    makes the windows as wide as the input asks, so they must fit
    mem_budget()."""
    _check_limit(limit)
    step = 2 * max(WINDOW, (overlap + 1) // 2)
    size = min(flag_index(step + overlap + 1), flag_index(limit + 1))
    if overlap > 2 * WINDOW and size > mem_budget():
        raise CapacityError(
            f"windows with an overlap of {overlap} need {size} bytes, over budget {mem_budget()}"
        )
    base = _base_primes(limit)
    buf = np.empty(size, dtype=bool)
    return (
        (lo, sieve_window(buf[: flag_index(limit + 1 - lo)], lo, base))
        for lo in range(0, limit + 1 - overlap, step)
    )


def prime_flags(limit: int) -> np.ndarray:
    """The window at lo = 0 that reaches limit: flags[i] true iff 2i + 1 is
    prime, for the (limit + 1) // 2 odd integers up to limit. Its bytes must
    fit mem_budget(). For the callers that need random access; a pass that
    reads the primes in order folds over prime_windows instead. Each window
    is sieved in place, in its slice of the table."""
    _check_limit(limit)
    size = flag_index(limit + 1)
    if size > mem_budget():
        raise CapacityError(
            f"prime flags to {limit} need {size} bytes, over budget {mem_budget()}"
        )
    flags = np.empty(size, dtype=bool)
    base = _base_primes(limit)
    for i in range(0, size, WINDOW):
        sieve_window(flags[i : i + WINDOW], 2 * i, base)
    return flags
