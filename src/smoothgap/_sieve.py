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
# Flags per piece of the sieve (a piece holds WINDOW to 2 * WINDOW) and per
# numpy call of the windowed counting kernel, small enough to stay in cache;
# the step of a _fold_windows pass. WINDOW flags span 2 * WINDOW integers.
WINDOW = 1 << 19
# The fewest windows _run_count gives a run of its own: a run of fewer saves
# less than its process costs. The per-gap pairs kernel counts each gap's
# pass as its table's full windows, so a table under one window never forks.
# Each of the three windowed passes, in process on a 2-core x86-64 host with
# numpy 2 (medians of 11), took 20-22 ms in two runs against 27-37 ms in one
# at 16 windows, but 17-22 ms against 13-18 ms at 8 windows and 12-14 ms
# against 8-9 ms at 4.
MIN_RUN_WINDOWS = 8


def _window_primes(start: int, flags: np.ndarray, limit: int) -> np.ndarray:
    """The primes of a window at start of a _fold_windows pass to limit, or
    of prime_flags(limit) at start 0, ascending as int64: 2 first in the
    window at start 0 once limit reaches it, then the flagged odd integers."""
    primes = flags.nonzero()[0]  # 2 * (start + i) + 1, in place
    primes *= 2
    primes += 2 * start + 1
    return np.concatenate(([2], primes)) if start == 0 and limit >= 2 else primes


def sieve_window(out: np.ndarray, start: int, base: np.ndarray) -> np.ndarray:
    """Fill out so that out[i] is true iff 2 * (start + i) + 1 is prime, and
    return it. base holds, ascending as int64 from _odd_base_primes, at
    least every odd prime up to sqrt(2 * (start + len(out)) - 1).

    The one strike loop of the package, for a window of any width. It
    strikes out in pieces of WINDOW flags, the last taking the rest, so a
    window of at most 2 * WINDOW flags is one piece and each piece of a
    wider one holds WINDOW to 2 * WINDOW: a piece stays in cache, and a
    shorter one would cost as many numpy calls, one per base prime. It is
    public so that a traced run (bench/trace_child.py) times each window in
    the sieve layer: of a pass that _fold_windows splits, only the first
    run's windows, which are sieved in the traced process itself."""
    cuts = [*range(0, max(len(out) - WINDOW, 1), WINDOW), len(out)]
    for a, b in zip(cuts, cuts[1:]):
        piece, lo, hi = out[a:b], start + a, 2 * (start + b)
        piece.fill(True)
        ps = base[: np.searchsorted(base, math.isqrt(max(hi - 1, 0)), side="right")]  # p^2 < hi
        # The flag of the first odd multiple of each p from max(p^2, the
        # piece's first integer): the multiples (2j + 1)p sit at the flags
        # j * p + (p - 1) / 2, so it is p^2's flag when that lies in the
        # piece, else the least flag of the piece in that class mod p.
        firsts = np.maximum((ps * ps - 1) // 2 - lo, ((ps - 1) // 2 - lo) % ps)
        for p, first in zip(ps.tolist(), firsts.tolist()):
            piece[first::p] = False
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


def _run_count(windows: int) -> int:
    """How many runs _fold makes of a pass worth `windows` windows: one per
    CPU at most, each of at least MIN_RUN_WINDOWS windows, and one when there
    are fewer or without os.fork."""
    cpus = _cpu_count() if hasattr(os, "fork") else 1
    return max(1, min(cpus, windows // MIN_RUN_WINDOWS))


def _fold_windows(fold: Callable[[int, Iterator], object], limit: int, reach: int = 0) -> list:
    """_fold of fold(first, windows) over _run_count contiguous runs of the
    windows of the primes up to limit. windows yields a run's pairs (start,
    flags), keyed by flag index: flags[i] is true iff 2 * (start + i) + 1 is
    prime, for start = 0, s, 2s, ... while 2 * start <= limit - 2 * reach,
    with the step s = max(WINDOW, reach) flags; first is the run's first
    start. Each window holds s + reach flags, fewer where it would pass
    limit, so a kernel that reads flag j + h for h up to reach reads the j
    of each window's first s flags.

    A run sieves its windows in turn into one buffer of its own, made in the
    run: copy what must outlive a step. Memory is O(sqrt(limit) + s + reach)
    a run. Checked here, before anything is sieved: limit, so that the
    windows start at or below the desk-scale guard; a reach wider than
    WINDOW, which makes the windows as wide as the input asks, so the runs'
    buffers must fit mem_budget() together, in fewer runs where that many
    would not; and the table of sqrt(limit) / 2 bytes from which
    primes._primes_upto takes the base primes. Private, so that a traced run
    (bench/trace_child.py) times the pass, fold and waiting included, in the
    span of the function that called it."""
    _check_limit(limit, reach)
    step = max(WINDOW, reach)
    end = (limit + 1) // 2  # the flags of the odd integers up to limit
    size = min(step + reach, end)
    starts = range(0, limit // 2 - reach + 1, step)
    runs = _run_count(len(starts))
    if reach > WINDOW:
        runs = max(1, min(runs, mem_budget() // max(size, 1)))
        check_budget(runs * size, f"windows with an overlap of {2 * reach}")
    base = _odd_base_primes(limit)

    def sieved(run: range) -> Iterator[tuple[int, np.ndarray]]:
        buf = np.empty(size, dtype=bool)
        for start in run:
            yield start, sieve_window(buf[: end - start], start, base)

    cuts = [len(starts) * i // runs for i in range(runs + 1)]
    return _fold(
        lambda run: fold(run.start, sieved(run)), [starts[a:b] for a, b in zip(cuts, cuts[1:])]
    )


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
    instead. One sieve_window call sieves the whole table in place."""
    _check_limit(limit)
    size = (limit + 1) // 2
    check_budget(size, f"prime flags to {limit}")
    return sieve_window(np.empty(size, dtype=bool), 0, _odd_base_primes(limit))
