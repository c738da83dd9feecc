"""The numpy sieve of the scans and the singular series: full tables and
windows of prime flags. The short prime lists of the rest of the package
come from primes._primes_upto, which imports no numpy.

Every table and window of prime flags holds the odd integers only, keyed by
flag index: flag i of a window starting at index start stands for
2 * (start + i) + 1, and a full table from prime_flags is the window at
start 0. The prime 2 is never a flag."""

from __future__ import annotations

import math
import os
import pickle
import signal
from collections.abc import Callable, Iterator

import numpy as np

from .errors import CapacityError
from .primes import _primes_upto, check_budget, mem_budget

SCAN_LIMIT = 10**12  # desk-scale hard guard
# Flags per window of the segmented sieve, and per numpy call of the
# windowed counting kernel: small enough that a window stays in cache. A
# window of WINDOW flags spans 2 * WINDOW integers.
WINDOW = 1 << 19
# The fewest windows _fold_windows gives a run of its own: a run of fewer
# saves less than its process costs. Each of the three windowed passes, in
# process on a 2-core x86-64 host with numpy 2 (medians of 11), took 20-22 ms
# in two runs against 27-37 ms in one at 16 windows, but 17-22 ms against
# 13-18 ms at 8 windows and 12-14 ms against 8-9 ms at 4.
MIN_RUN_WINDOWS = 8


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
    (bench/trace_child.py) times each window in the sieve layer: of a pass
    that _fold_windows splits, only the first run's windows, which are
    sieved in the traced process itself."""
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


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_count() -> int:
    """The most runs _fold makes at once: one per CPU, or one without os.fork."""
    return _cpu_count() if hasattr(os, "fork") else 1


def _sieved(starts: range, size: int, end: int, base: np.ndarray):
    """The windows at starts, sieved in turn into one buffer of size flags,
    made on the first step."""
    buf = np.empty(size, dtype=bool)
    for start in starts:
        yield start, sieve_window(buf[: end - start], start, base)


def _runs(limit: int, reach: int, most: int) -> list[tuple[int, Iterator]]:
    """The windows of prime_windows(limit, reach) in at most `most`
    contiguous runs of at least MIN_RUN_WINDOWS windows each (one run when
    there are fewer), as (first start, windows). Checks limit, and charges
    the runs' buffers together when reach > WINDOW, with fewer runs where
    that many buffers would not fit mem_budget()."""
    _check_limit(limit, reach)
    step = max(WINDOW, reach)
    end = (limit + 1) // 2  # the flags of the odd integers up to limit
    size = min(step + reach, end)
    starts = range(0, limit // 2 - reach + 1, step)
    runs = max(1, min(most, len(starts) // MIN_RUN_WINDOWS))
    if reach > WINDOW:
        runs = max(1, min(runs, mem_budget() // max(size, 1)))
        check_budget(runs * size, f"windows with an overlap of {2 * reach}")
    base = _odd_base_primes(limit)
    cuts = [len(starts) * i // runs for i in range(runs + 1)]
    return [
        (starts[a:b].start, _sieved(starts[a:b], size, end, base)) for a, b in zip(cuts, cuts[1:])
    ]


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
    [(_, windows)] = _runs(limit, reach, 1)
    return windows


def _fold_windows(fold: Callable[[int, Iterator], object], limit: int, reach: int = 0) -> list:
    """_fold of fold(start, windows) over the runs of windows from _runs, one
    per CPU at most: start is the flag index of a run's first window and
    windows its (start, flags) pairs, sieved into a buffer of the run's own.
    Private, so that a traced run (bench/trace_child.py) times the pass,
    fold and waiting included, in the span of the function that called it."""
    return _fold(lambda run: fold(*run), _runs(limit, reach, _run_count()))


def _fold(fold: Callable[[object], object], runs: list) -> list:
    """[fold(run) for run in runs], the package's one way to use more than
    one CPU: runs[0] is folded here, each later run in a forked child that
    shares this process's memory copy-on-write and sends back its result
    as one pickle through a pipe. An exception in a child is raised here
    with its type and message; no child outlives the call."""
    children = []  # (pid, read end of its pipe)
    try:
        for run in runs[1:]:
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                _fold_in_child(fold, run, write)
            os.close(write)
            children.append((pid, open(read, "rb")))
        results = [fold(runs[0])]
        for _, pipe in children:
            try:
                ok, value = pickle.load(pipe)
            except EOFError:
                raise ChildProcessError("a run ended without a result") from None
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)  # ends a run an error left unread; the rest are exiting
            os.waitpid(pid, 0)


def _fold_in_child(fold, run, write: int) -> None:
    """Fold one run in a forked child and send (True, result) or (False,
    exception) down the pipe write, as one pickle. Never returns: no
    exception reaches the caller's frames, and no atexit handler or stdio
    flush runs."""
    try:
        try:
            message = (True, fold(run))
        except BaseException as e:  # raised again in the parent
            message = (False, e)
        with open(write, "wb") as pipe:
            pipe.write(pickle.dumps(message))
    finally:
        os._exit(0)


def prime_flags(limit: int) -> np.ndarray:
    """The window at start 0 that reaches limit: flags[i] true iff 2i + 1 is
    prime, for the (limit + 1) // 2 odd integers up to limit. Its bytes must
    fit mem_budget(). For the callers that need random access; a pass that
    reads the primes in order folds its windows with _fold_windows
    instead. Each window is sieved in place, in its slice of the table."""
    _check_limit(limit)
    size = (limit + 1) // 2
    check_budget(size, f"prime flags to {limit}")
    flags = np.empty(size, dtype=bool)
    base = _odd_base_primes(limit)
    for i in range(0, size, WINDOW):
        sieve_window(flags[i : i + WINDOW], i, base)
    return flags
