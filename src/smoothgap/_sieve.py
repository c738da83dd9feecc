"""The numpy sieve of the scans and the singular series: full tables and
windows of prime flags. The short prime lists of the rest of the package
come from primes._primes_upto, which imports no numpy.

Every table and window of prime flags holds the odd integers only, keyed by
flag index: flag i of a window starting at index start stands for
2 * (start + i) + 1, and a full table from prime_flags is the window at
start 0. The prime 2 is never a flag."""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .errors import CapacityError
from .primes import _primes_upto, check_budget

SCAN_LIMIT = 10**12  # desk-scale hard guard
# Flags per window of the segmented sieve, and per numpy call of the
# windowed counting kernel: small enough that a window stays in cache. A
# window of WINDOW flags spans 2 * WINDOW integers.
WINDOW = 1 << 19


def _window_primes(start: int, flags: np.ndarray, limit: int) -> np.ndarray:
    """The primes of a window at start from prime_windows(limit), or of
    prime_flags(limit) at start 0, ascending as int64: 2 first in the window
    at start 0 once limit reaches it, then the flagged odd integers."""
    primes = flags.nonzero()[0]  # 2 * (start + i) + 1, in place
    primes *= 2
    primes += 2 * start + 1
    return np.concatenate(([2], primes)) if start == 0 and limit >= 2 else primes


def sieve_window(out: np.ndarray, start: int, base: np.ndarray) -> np.ndarray:
    """Fill out so that out[i] is true iff 2 * (start + i) + 1 is prime, and
    return it. base holds, ascending as int64 from _odd_base_primes, at
    least every odd prime up to sqrt(2 * (start + len(out)) - 1).

    The one strike loop of the scans. It is public so that a traced run
    (bench/trace_child.py) times each window in the sieve layer."""
    hi = 2 * (start + len(out))
    out.fill(True)
    ps = base[: np.searchsorted(base, math.isqrt(max(hi - 1, 0)), side="right")]  # p^2 < hi
    # The flag of the first odd multiple of each p from max(p^2, the window's
    # first integer): the multiples (2j + 1)p sit at the flags j * p + (p - 1) / 2,
    # so it is p^2's flag when that lies in the window, else the least flag
    # of the window in that class mod p.
    firsts = np.maximum((ps * ps - 1) // 2 - start, ((ps - 1) // 2 - start) % ps)
    for p, first in zip(ps.tolist(), firsts.tolist()):
        out[first::p] = False
    if start == 0:
        out[:1] = False  # 1
    return out


def _odd_base_primes(limit: int) -> np.ndarray:
    """The odd primes up to sqrt(limit), ascending as int64: the strike
    primes of every window up to limit."""
    return np.array(_primes_upto(math.isqrt(limit))[1:], dtype=np.int64)


def _check_limit(limit: int, reach: int = 0) -> None:
    """Reject a negative limit, and windows that would start past SCAN_LIMIT:
    a scan to x reads up to 2 * reach integers beyond it."""
    if limit < 0:
        raise ValueError(f"limit must be non-negative, got {limit}")
    if limit - 2 * reach > SCAN_LIMIT:
        raise CapacityError(f"limit {limit} exceeds the desk-scale guard {SCAN_LIMIT}")


def prime_windows(limit: int, reach: int = 0) -> Iterator[tuple[int, np.ndarray]]:
    """The primes up to limit, a window at a time, keyed by flag index:
    pairs (start, flags) with flags[i] true iff 2 * (start + i) + 1 is
    prime, for start = 0, s, 2s, ... while 2 * start <= limit - 2 * reach,
    where the step s = max(WINDOW, reach) flags. Each window holds s + reach
    flags, fewer where it would pass limit, so the reach flags after a step
    are also in its window. A kernel that reads flag j + h for h up to reach
    reads the j of each window's first s flags.

    The flags array is reused for the next window: copy what must outlive a
    step. Memory is O(sqrt(limit) + s + reach). limit is checked here,
    before anything is sieved: the windows start at or below the desk-scale
    guard. So is a reach wider than a window: it makes the windows as wide
    as the input asks, so they must fit mem_budget(). The base primes up to
    sqrt(limit) come from primes._primes_upto, and its table of
    sqrt(limit) / 2 bytes must fit it too."""
    _check_limit(limit, reach)
    step = max(WINDOW, reach)
    end = (limit + 1) // 2  # the flags of the odd integers up to limit
    size = min(step + reach, end)
    if reach > WINDOW:
        check_budget(size, f"windows with an overlap of {2 * reach}")
    base = _odd_base_primes(limit)
    buf = np.empty(size, dtype=bool)
    return (
        (start, sieve_window(buf[: end - start], start, base))
        for start in range(0, limit // 2 - reach + 1, step)
    )


def prime_flags(limit: int) -> np.ndarray:
    """The window at start 0 that reaches limit: flags[i] true iff 2i + 1 is
    prime, for the (limit + 1) // 2 odd integers up to limit. Its bytes must
    fit mem_budget(). For the callers that need random access; a pass that
    reads the primes in order folds over prime_windows instead. Each window
    is sieved in place, in its slice of the table."""
    _check_limit(limit)
    size = (limit + 1) // 2
    check_budget(size, f"prime flags to {limit}")
    flags = np.empty(size, dtype=bool)
    base = _odd_base_primes(limit)
    for i in range(0, size, WINDOW):
        sieve_window(flags[i : i + WINDOW], i, base)
    return flags
