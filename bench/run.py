"""Outside-in benchmark of the smoothgap command line.

    python3 bench/run.py --workload sieve-1e8 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

Every invocation is a fresh child process, `python -m smoothgap.cli ARGV`
with PYTHONPATH=src, run one at a time and timed from outside; each child's
peak RSS comes from os.wait4. Every output is checked against the
independent oracle in oracle.py; an unexpected exit code, a timeout or a
wrong output counts as a failed invocation.

With --trace 0 the end-to-end metrics are measured: passes over the
workload's invocations repeat, at least twice, while the next one is
expected to end within --seconds. With --trace 1 one untraced pass, one traced pass
(trace_child.py) and one tracemalloc pass over the invocations that reach
the scan or sieve layers give the per-layer metrics; the traced output must
equal the untraced output byte for byte.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The lines before it print each
metric as `name value unit`.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import oracle
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("sieve-1e8", "pairs-kernel", "tuples-search")
# Layer names are the package's module names; `_sieve` is reported as
# `sieve`, because a metric name must start with a letter or a digit.
MODULES = ("cli", "scan", "sieve", "constants", "tuples", "smoothness", "primes")
SCAN_KERNELS = (
    "scan.count_tuple_translates",
    "scan.count_consecutive_smooth_gap_pairs",
    "scan.count_smooth_gap_pairs",
)
SEARCHES = ("tuples.search_min_diameter_admissible", "tuples.search_min_diameter_difference_smooth")
SETUP_RUNS = 10  # set-up children per run, after one warm-up; setup_s is their median
MIN_PASSES = 2
IMPORTTIME_RUNS = 3
ALLOC_WORKERS = 2
CHILD_TIMEOUT_S = 120.0
RUN_DEADLINE_S = 170.0
MB = 1 << 20

END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
FUNCTION_SELF = [
    "scan.count_tuple_translates",
    "scan.count_consecutive_smooth_gap_pairs",
    "scan.count_smooth_gap_pairs",
    "sieve.base_prime_flags",
    "sieve.prime_flags_range",
    "constants.singular_series",
    "constants.hl_prediction",
    "smoothness.smooth_numbers_up_to",
]
FUNCTION_CALLS = [
    "sieve.prime_flags_range",
    "constants.hl_prediction",
    "tuples.is_admissible",
    "smoothness.is_smooth",
    "primes.sieve_primes",
    "primes.is_prime",
]
PER_LAYER = (
    [(f"setup.{p}_s", "s", "lower") for p in ("scipy", "numpy", "smoothgap")]
    + [(f"{m}.self_s", "s", "lower") for m in MODULES]
    + [(f"{m}.calls", "count", "lower") for m in MODULES]
    + [(f"{f}.self_s", "s", "lower") for f in FUNCTION_SELF]
    + [(f"{f}.calls", "count", "lower") for f in FUNCTION_CALLS]
    + [
        ("scan.integers_per_s", "1/s", "higher"),
        ("scan.peak_alloc_mb", "MB", "lower"),
        ("sieve.integers", "count", "lower"),
        ("sieve.integers_per_s", "1/s", "higher"),
        ("sieve.peak_alloc_mb", "MB", "lower"),
        ("tuples.search.nodes", "count", "lower"),
        ("tuples.search.nodes_per_s", "1/s", "higher"),
        ("tuples.search.proven_frac", "ratio", "higher"),
        ("tuples.search.diameter_sum", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


@dataclass
class Child:
    argv: list[str]
    code: int | None  # None when ended by a signal, as at the timeout
    wall_s: float
    rss_mb: float
    stdout: bytes
    spans: dict | None = None  # what trace_child.py wrote, for traced children


class Run:
    """One benchmark run: its scratch directory, deadline and failure tally."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def spawn(self, cmd: list[str], tag: str = "") -> Child:
        """Run one child to completion; stdout goes to a file, never a pipe."""
        out_path = self.workdir / f"stdout{tag}"
        timeout = max(1.0, min(CHILD_TIMEOUT_S, self.deadline - time.monotonic()))
        with open(out_path, "wb") as out, open(self.workdir / f"stderr{tag}", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            pidfd = os.pidfd_open(proc.pid)
            try:
                if not select.select([pidfd], [], [], timeout)[0]:
                    os.kill(proc.pid, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                os.close(pidfd)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        code = None if os.WIFSIGNALED(status) else proc.returncode
        return Child(cmd, code, wall, usage.ru_maxrss / 1024, out_path.read_bytes())

    def record(self, child: Child, problem: str | None) -> str | None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{' '.join(child.argv[2:])}: {problem}")
        return problem

    def setup_child(self) -> Child:
        child = self.spawn([sys.executable, "-c", "import smoothgap.cli as c; c.build_parser()"])
        ok = child.code == 0 and child.stdout == b""
        self.record(child, None if ok else f"set-up child exited {child.code}")
        return child

    def judge(self, invs, passes: list[list[Child]]) -> list[list[str | None]]:
        """Check every child of every pass against the oracle."""
        checks = [inv.make_check() for inv in invs]
        return [
            [self.record(child, judge(inv, check, child)) for inv, check, child in zip(invs, checks, children)]
            for children in passes
        ]


def judge(inv: workloads.Invocation, check: workloads.Check, child: Child) -> str | None:
    if child.code is None:
        return "ended by a signal (the timeout kills with SIGKILL)"
    if child.code not in inv.exit_codes:
        return f"exit code {child.code}, expected one of {sorted(inv.exit_codes)}"
    try:
        return check(child.stdout.decode("utf-8"))
    except (KeyError, TypeError, IndexError, ValueError, AttributeError) as e:
        return f"output has an unexpected shape: {e!r}"


def cli_child(run: Run, inv: workloads.Invocation) -> Child:
    return run.spawn([sys.executable, "-m", "smoothgap.cli", *inv.argv])


def search_results(invs, children: list[Child], problems) -> list[dict]:
    return [
        json.loads(child.stdout)
        for inv, child, problem in zip(invs, children, problems)
        if inv.argv[0] == "search" and problem is None
    ]


# -------------------------------------------------------------- end to end

def measure_end_to_end(run: Run, invs, seconds: float):
    """End-to-end metrics, and the search results of the last pass."""
    run.setup_child()  # compiles .pyc before anything is timed
    # Set-up children run half before and half after the passes, so that a
    # change in machine speed during the run moves both metrics alike.
    setup = [run.setup_child() for _ in range(SETUP_RUNS // 2)]
    passes = []
    start = time.monotonic()
    while True:
        passes.append([cli_child(run, inv) for inv in invs])
        walls = [sum(c.wall_s for c in children) for children in passes]
        if len(passes) >= MIN_PASSES and time.monotonic() - start + statistics.median(walls) > seconds:
            break
    setup += [run.setup_child() for _ in range(SETUP_RUNS - SETUP_RUNS // 2)]
    print(f"bench: pass walls {[round(w, 3) for w in walls]}, set-up walls "
          f"{[round(c.wall_s, 3) for c in setup]}", file=sys.stderr)
    problems = run.judge(invs, passes)
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(c.wall_s for c in setup),
        "peak_rss_mb": statistics.median(max(c.rss_mb for c in children) for children in passes),
    }, search_results(invs, passes[-1], problems[-1])


# --------------------------------------------------------------- per layer

def import_times(run: Run) -> dict[str, float]:
    """Self import time per top-level package, from python -X importtime."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import smoothgap.cli"]
    samples = []
    for _ in range(IMPORTTIME_RUNS):
        with open(run.workdir / "importtime", "wb") as err:
            proc = subprocess.run(cmd, stderr=err, env=run.env, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError("python -X importtime -c 'import smoothgap.cli' failed")
        totals = {"scipy": 0.0, "numpy": 0.0, "smoothgap": 0.0}
        for line in (run.workdir / "importtime").read_text().splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[0].strip().isdigit():
                top = fields[2].strip().split(".")[0]
                if top in totals:
                    totals[top] += int(fields[0]) / 1e6
        samples.append(totals)
    return {f"setup.{k}_s": statistics.median(s[k] for s in samples) for k in samples[0]}


def traced_child(run: Run, inv: workloads.Invocation, alloc: bool, tag: str = "") -> Child:
    spans_path = run.workdir / f"spans{tag}.json"
    cmd = [sys.executable, str(BENCH / "trace_child.py"), str(spans_path), str(int(alloc))]
    child = run.spawn(cmd + inv.argv, tag)
    try:
        child.spans = json.loads(spans_path.read_text())
    except (OSError, ValueError):
        child.spans = {"functions": [], "spans": []}
    return child


def alloc_pass(run: Run, invs) -> list[Child]:
    # Allocation counts do not depend on timing, so these slow tracemalloc
    # children may overlap; every timed child runs alone.
    with ThreadPoolExecutor(ALLOC_WORKERS) as pool:
        return list(pool.map(lambda i: traced_child(run, invs[i], True, str(i)), range(len(invs))))


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(invs, traced: list[Child], allocs: list[Child], results: list[dict]):
    """Per-layer metrics of one traced pass, and the function-level metrics
    whose function no longer exists in the package (reported as absent)."""
    m = {name: 0.0 for name, _, _ in PER_LAYER}
    defined: set[str] = set()
    integers_scanned = kernel_self = sieve_self = search_time = 0.0
    for inv, child in zip(invs, traced):
        spans = child.spans["spans"]
        defined.update(child.spans["functions"])
        for (name, start, end, parent, size, _), own in zip(spans, self_times(spans)):
            module = name.split(".")[0]
            m[f"{module}.self_s"] += own
            m[f"{module}.calls"] += 1
            if f"{name}.self_s" in m:
                m[f"{name}.self_s"] += own
            if f"{name}.calls" in m:
                m[f"{name}.calls"] += 1
            if name in SCAN_KERNELS:
                kernel_self += own
                integers_scanned += int(inv.argv[2])
            if name in SEARCHES:
                search_time += end - start
            if module == "sieve":
                sieve_self += own
                if size and (parent < 0 or not spans[parent][0].startswith("sieve.")):
                    m["sieve.integers"] += size
    if results:
        m["tuples.search.nodes"] = sum(r["nodes_explored"] for r in results)
        m["tuples.search.nodes_per_s"] = m["tuples.search.nodes"] / search_time if search_time else 0.0
        m["tuples.search.proven_frac"] = sum(r["proven_minimal"] for r in results) / len(results)
        m["tuples.search.diameter_sum"] = sum(r["diameter"] for r in results)
    if kernel_self:
        m["scan.integers_per_s"] = integers_scanned / kernel_self
    if sieve_self:
        m["sieve.integers_per_s"] = m["sieve.integers"] / sieve_self
    for child in allocs:
        for name, *_, alloc in child.spans["spans"]:
            key = f"{name.split('.')[0]}.peak_alloc_mb"
            if key in m and alloc is not None:
                m[key] = max(m[key], alloc / MB)
    absent = sorted(
        name for name, _, _ in PER_LAYER
        if name.rsplit(".", 1)[0] in FUNCTION_SELF + FUNCTION_CALLS
        and name.rsplit(".", 1)[0] not in defined
    )
    return m, absent


def measure_layers(run: Run, invs) -> tuple[dict, list[str]]:
    run.setup_child()  # compiles .pyc before anything is timed
    startup = import_times(run)
    plain, traced = [], []
    for inv in invs:  # interleaved, so that drift in machine speed cancels
        plain.append(cli_child(run, inv))
        traced.append(traced_child(run, inv, alloc=False))
    layered = [inv for inv, child in zip(invs, traced)
               if any(s[0].startswith(("scan.", "sieve.")) for s in child.spans["spans"])]
    allocs = alloc_pass(run, layered)
    problems = run.judge(invs, [plain, traced])
    run.judge(layered, [allocs])
    for p, t in zip(plain, traced):
        if p.stdout != t.stdout:
            run.record(t, "traced output differs from untraced output")
    metrics, absent = layer_metrics(invs, traced, allocs, search_results(invs, traced, problems[1]))
    metrics.update(startup)
    metrics["trace.overhead_s"] = sum(c.wall_s for c in traced) - sum(c.wall_s for c in plain)
    return metrics, absent


# ------------------------------------------------------------------ driver

def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool):
    workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        invs = workloads.build(name, seed, workdir, smoke)
        run = Run(workdir)
        notes = []
        if trace:
            values, absent = measure_layers(run, invs)
            notes += [f"absent {metric}" for metric in absent]
            specs = PER_LAYER
        else:
            values, results = measure_end_to_end(run, invs, seconds)
            if results:
                notes.append(f"search_diameter_sum {sum(r['diameter'] for r in results)} count")
            specs = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    notes.append(f"fail_frac {run.failed / run.attempted:.6g} ratio")
    metrics = {
        n: {"value": int(values[n]) if unit == "count" else values[n], "unit": unit}
        for n, unit, _ in specs
    }
    return run, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help=f"one of {', '.join(WORKLOADS)}, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small sizes; runs in seconds")
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if any(n not in WORKLOADS for n in names):
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    if not (SRC / "smoothgap" / "cli.py").is_file():
        print(f"bench: no smoothgap package under {SRC}", file=sys.stderr)
        return 2
    attempted = failed = 0
    combined = {}
    for name in names:
        try:
            run, metrics, notes = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        except oracle.OracleError as e:
            print(f"bench: oracle self-check failed: {e}", file=sys.stderr)
            return 1
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, v in metrics.items():
            value = v["value"] if isinstance(v["value"], int) else f"{v['value']:.6g}"
            print(f"{prefix}{metric} {value} {v['unit']}")
            combined[prefix + metric] = v
        for note in notes:
            print(prefix + note)
        for problem in run.problems:
            print(f"bench: {name}: {problem}", file=sys.stderr)
        attempted += run.attempted
        failed += run.failed
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": combined,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
