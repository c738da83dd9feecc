"""_fold: the windowed passes split into one forked run per CPU, and the
per-gap pairs kernel's gaps dealt over such runs.

Every test patches WINDOW to 37 flags (74 integers), so a pass to a few
thousand spans dozens of windows and splits into several runs, and the
singular series' default cutoff to 3000, so a translate scan's prediction
spans 41 windows, not the 13,514 of a cutoff of 10^6, and still splits into
runs. Each run past the first is a real process, so the patched CPU counts
stay small."""

import os

import pytest

import smoothgap._sieve
from smoothgap._sieve import MIN_RUN_WINDOWS, _window_primes, _fold_windows
from smoothgap.cli import run, scan_report_json
from smoothgap.constants import singular_series
from smoothgap.errors import CapacityError
from smoothgap.scan import ScanRequest, run_scan
from smoothgap.tuples import IntegerTuple

from tests.oracles import (
    brute_consecutive_pairs,
    brute_is_smooth,
    brute_pair_count,
    direct_singular_series,
    simple_sieve,
    trial_primes,
)

CPUS = (1, 2, 3, 5)


@pytest.fixture(autouse=True)
def small_windows(monkeypatch):
    monkeypatch.setattr("smoothgap._sieve.WINDOW", 37)
    monkeypatch.setattr("smoothgap.constants.DEFAULT_PRIME_CUTOFF", 3000)


def no_fork():
    raise AssertionError("forked")


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def by_cpus(monkeypatch, pass_):
    """pass_() with _cpu_count patched to each of CPUS; no child outlives one."""
    results = []
    for cpus in CPUS:
        monkeypatch.setattr("smoothgap._sieve._cpu_count", lambda: cpus)
        results.append(pass_())
        assert_no_children()
    return results


def run_starts(limit: int, reach: int = 0) -> list[list[int]]:
    """The window starts of each run of _fold_windows(limit, reach)."""
    return _fold_windows(lambda first, windows: [start for start, _ in windows], limit, reach)


def test_runs_split_the_windows_in_order(monkeypatch):
    limit = 3000  # 41 windows

    def pass_():
        return _fold_windows(
            lambda first, windows: (first, [(s, w.tolist()) for s, w in windows]), limit
        )

    # the reference is the one-CPU pass, which holds every odd flag once
    monkeypatch.setattr("smoothgap._sieve._cpu_count", lambda: 1)
    [(_, reference)] = pass_()
    every = [start for start, _ in reference]
    flags = [window for _, window in reference]
    assert [b for window in flags for b in window] == [bool(n) for n in simple_sieve(limit)[1::2]]
    for cpus in CPUS:
        monkeypatch.setattr("smoothgap._sieve._cpu_count", lambda: cpus)
        runs = pass_()
        assert_no_children()
        assert len(runs) == min(cpus, len(every) // MIN_RUN_WINDOWS)
        assert all(first == windows[0][0] for first, windows in runs)
        assert all(len(windows) >= MIN_RUN_WINDOWS for _, windows in runs)
        assert [s for _, windows in runs for s, _ in windows] == every
        assert [w for _, windows in runs for _, w in windows] == flags


def test_fewer_windows_than_two_runs_fork_nothing(monkeypatch):
    monkeypatch.setattr("smoothgap._sieve._cpu_count", lambda: 5)
    monkeypatch.setattr(os, "fork", no_fork)
    windows = 2 * MIN_RUN_WINDOWS - 1
    assert len(run_starts(74 * windows - 1)) == 1
    assert len(run_starts(0)) == 1
    # and without os.fork there is one run whatever the windows
    monkeypatch.delattr(os, "fork")
    assert len(run_starts(3000)) == 1


def test_a_per_gap_scan_under_one_window_forks_nothing(monkeypatch):
    # 35 flags to x = 70, under one window of 37: its 13 even 3-smooth gaps
    # are counted in process, whatever the CPUs
    monkeypatch.setattr("smoothgap._sieve._cpu_count", lambda: 5)
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr("smoothgap.scan._fft_is_cheaper", lambda *args: False)
    req = ScanRequest(70, "pairs", y=3, checkpoints=(10, 41, 69, 70))
    expected = [brute_pair_count(c, 3) for c in req.checkpoints]
    assert [r.count for r in run_scan(req).records] == expected


@pytest.mark.parametrize(
    "y, checkpoints", [(47, (3000,)), (3, (600, 1481, 2219, 3000)), (2, (3000,))]
)
def test_consecutive_pairs_across_runs(monkeypatch, y, checkpoints):
    # at y = 47 every gap below 3000 is smooth, so the pair across each run
    # boundary counts; y = 2 and 3 leave witnesses for the later runs
    req = ScanRequest(3000, "consecutive-pairs", y=y, checkpoints=checkpoints)
    pairs = brute_consecutive_pairs(3000, y)
    reports = by_cpus(monkeypatch, lambda: run_scan(req))
    for report in reports:
        expected = [sum(p <= c for _, p in pairs) for c in checkpoints]
        assert [r.count for r in report.records] == expected
        assert list(report.witnesses) == pairs[:100]
    assert len({scan_report_json(r) for r in reports}) == 1
    if y == 47:
        primes = trial_primes(3000)
        for first in (starts[0] for starts in run_starts(3000)[1:]):
            below = max(p for p in primes if p < 2 * first + 1)
            above = min(p for p in primes if p >= 2 * first + 1)
            assert brute_is_smooth(above - below, y) and (below, above) in pairs


@pytest.mark.parametrize(
    "elements, m",
    [((0, 2, 6), None), ((0, 2, 6), 2), ((0, 4, 6, 10, 12), 3), ((0, 1, 3), 2), ((0, 2, 200), 2)],
)
def test_translate_census_and_witnesses_across_runs(monkeypatch, elements, m):
    x, checkpoints = 3000, (100, 1000, 2999, 3000)
    req = ScanRequest(
        x, "tuple-translates", tuple=IntegerTuple(elements), checkpoints=checkpoints,
        min_prime_count=m,
    )
    flags = simple_sieve(x + elements[-1])
    primes = [[flags[n + h] for h in elements] for n in range(x)]
    hits = [n for n in range(1, x) if all(primes[n])]
    enough = [n for n in range(1, x) if sum(primes[n]) >= (m or len(elements))]
    reports = by_cpus(monkeypatch, lambda: run_scan(req))
    for report in reports:
        assert [r.count for r in report.records] == [sum(n < c for n in hits) for c in checkpoints]
        if m is not None:
            at_least = [sum(n < c for n in enough) for c in checkpoints]
            assert [r.at_least_m_count for r in report.records] == at_least
        assert [n for (n,) in report.witnesses] == hits[:100]
    assert len({scan_report_json(r) for r in reports}) == 1


@pytest.mark.parametrize("elements", [(0, 2), (0, 4, 6, 10), (0, 6, 82)])
def test_series_is_the_same_float_for_any_cpu_count(monkeypatch, elements):
    H = IntegerTuple(elements)
    values = by_cpus(monkeypatch, lambda: singular_series(H, 3000).value)
    assert len(set(values)) == 1
    assert values[0] == pytest.approx(direct_singular_series(elements, 3000), rel=1e-13)


@pytest.mark.parametrize(
    "error", [CapacityError("no room in a later run"), ValueError("bad window")]
)
def test_an_error_in_a_child_reaches_the_caller(monkeypatch, error):
    def fold(first, windows):
        if first:
            raise error
        return sum(len(_window_primes(start, flags, 3000)) for start, flags in windows)

    monkeypatch.setattr("smoothgap._sieve._cpu_count", lambda: 1)
    assert _fold_windows(fold, 3000) == [430]
    for cpus in (2, 3):
        monkeypatch.setattr("smoothgap._sieve._cpu_count", lambda: cpus)
        with pytest.raises(type(error)) as raised:
            _fold_windows(fold, 3000)
        assert type(raised.value) is type(error) and str(raised.value) == str(error)
        assert_no_children()


def test_an_error_in_the_first_run_leaves_no_child(monkeypatch):
    def fold(first, windows):
        if not first:
            raise KeyError("first run")
        return list(windows)

    monkeypatch.setattr("smoothgap._sieve._cpu_count", lambda: 3)
    with pytest.raises(KeyError, match="first run"):
        _fold_windows(fold, 3000)
    assert_no_children()


def test_a_child_capacity_error_exits_3(capsys, monkeypatch):
    # no window of the second run can be sieved: the CLI sees the child's
    # CapacityError as its own
    monkeypatch.setattr("smoothgap._sieve._cpu_count", lambda: 2)
    second = run_starts(3000)[1][0]
    sieve_window = smoothgap._sieve.sieve_window

    def full_from_the_second_run(out, start, base):
        if start >= second:
            raise CapacityError(f"no room at window {start}")
        return sieve_window(out, start, base)

    monkeypatch.setattr("smoothgap._sieve.sieve_window", full_from_the_second_run)
    code = run(["scan", "consecutive-pairs", "3000", "--y", "3"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == f"capacity: no room at window {second}\n"
    assert_no_children()


def test_wide_windows_are_charged_together(monkeypatch):
    # reach 40 > WINDOW: windows of 80 flags, step 40, 125 of them to 10^4
    monkeypatch.setattr("smoothgap._sieve._cpu_count", lambda: 3)
    reference = [s for starts in run_starts(10**4, 40) for s in starts]
    for budget, runs in ((240, 3), (239, 2), (80, 1)):
        monkeypatch.setenv("SMOOTHGAP_MEM_BUDGET", str(budget))
        got = run_starts(10**4, 40)
        assert len(got) == runs
        assert [s for starts in got for s in starts] == reference
        assert_no_children()
    monkeypatch.setenv("SMOOTHGAP_MEM_BUDGET", "79")
    with pytest.raises(CapacityError, match="windows with an overlap of 80 need 80 bytes"):
        run_starts(10**4, 40)


def test_a_child_that_dies_without_a_result_is_an_error(monkeypatch):
    def fold(first, windows):
        if first:
            os._exit(1)
        return first

    monkeypatch.setattr("smoothgap._sieve._cpu_count", lambda: 2)
    with pytest.raises(ChildProcessError, match="ended without a result"):
        _fold_windows(fold, 3000)
    assert_no_children()


def test_per_gap_pairs_across_runs(monkeypatch):
    # the 44 even 3-smooth gaps below 3000, dealt round-robin to up to 5 runs
    monkeypatch.setattr("smoothgap.scan._fft_is_cheaper", lambda *args: False)
    req = ScanRequest(3000, "pairs", y=3, checkpoints=(100, 1481, 2999, 3000))
    expected = [brute_pair_count(c, 3) for c in req.checkpoints]
    counts = by_cpus(monkeypatch, lambda: [r.count for r in run_scan(req).records])
    assert counts == [expected] * len(CPUS)


def test_an_error_counting_a_gap_of_a_later_run_reaches_the_caller(monkeypatch):
    # the gap 4 is the second even gap: the second run's first when there are two
    caller, translate_counts = os.getpid(), smoothgap.scan._translate_counts

    def fail_at_gap_4(windows, shifts, ends, m, first):
        if shifts == (0, 2):
            raise ValueError(f"gap 4 in {'the caller' if os.getpid() == caller else 'a child'}")
        return translate_counts(windows, shifts, ends, m, first)

    def error():
        with pytest.raises(ValueError) as raised:
            run_scan(ScanRequest(3000, "pairs", y=3))
        return type(raised.value), str(raised.value)

    monkeypatch.setattr("smoothgap.scan._fft_is_cheaper", lambda *args: False)
    monkeypatch.setattr("smoothgap.scan._translate_counts", fail_at_gap_4)
    assert by_cpus(monkeypatch, error) == [(ValueError, "gap 4 in the caller")] + [
        (ValueError, "gap 4 in a child")
    ] * (len(CPUS) - 1)
