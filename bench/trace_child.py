"""Run one smoothgap CLI invocation with a timing span around every call
that crosses a module boundary.

    PYTHONPATH=src python3 bench/trace_child.py SPANS.json ALLOC ARGV...

Every public module-level function of the package's modules is wrapped,
both where it is defined and wherever another module imported it. Private
helpers (leading underscore) stay unwrapped, so their time counts as self
time of the public function that called them. Each span is
[name, start, end, parent index, size, alloc]. `name` is module.function,
with `_sieve` written as `sieve`; `size` is the length of the array a
`_sieve` function returned, and `alloc` (only with ALLOC=1, which
turns tracemalloc on) is the peak number of bytes allocated during the span
above what was allocated when it began. Spans stay in memory and are written
to SPANS.json, with the names of the wrapped functions, when the invocation
ends. Standard output is the CLI's own, byte for byte.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc

MODULES = ("cli", "scan", "_sieve", "constants", "tuples", "smoothness", "primes")


class Tracer:
    def __init__(self, alloc: bool):
        self.alloc = alloc
        self.spans: list[list] = []
        self.open: list[int] = []  # indices of the spans not yet ended
        self.peaks: list[list[int]] = []  # [bytes at start, peak so far] per open span

    def wrap(self, name: str, fn, sized: bool):
        spans, open_, clock = self.spans, self.open, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, None, None]
            open_.append(len(spans))
            spans.append(span)
            if self.alloc:
                self._enter_alloc()
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
                if self.alloc:
                    span[5] = self._exit_alloc()
            if sized:
                span[4] = getattr(result, "size", None)
            return result

        return wrapper

    def _enter_alloc(self) -> None:
        current, peak = tracemalloc.get_traced_memory()
        for frame in self.peaks:  # fold the peak so far into every open span
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()
        self.peaks.append([current, current])

    def _exit_alloc(self) -> int:
        _, peak = tracemalloc.get_traced_memory()
        start, frame_peak = self.peaks.pop()
        return max(frame_peak, peak) - start


def install(tracer: Tracer) -> list[str]:
    """Wrap the package's public functions; return the wrapped names."""
    modules = {m: importlib.import_module(f"smoothgap.{m}") for m in MODULES}
    wrapped = {}  # id(original) -> (original, wrapper)
    names = []
    for short, module in modules.items():
        for attr, obj in vars(module).items():
            if (
                not attr.startswith("_")
                and callable(obj)
                and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == module.__name__
            ):
                names.append(f"{short.lstrip('_')}.{attr}")
                wrapped[id(obj)] = (obj, tracer.wrap(names[-1], obj, sized=short == "_sieve"))
    for module in [importlib.import_module("smoothgap"), *modules.values()]:
        for attr, obj in list(vars(module).items()):
            pair = wrapped.get(id(obj))
            if pair is not None and pair[0] is obj:
                setattr(module, attr, pair[1])
    return sorted(names)


def main() -> None:
    spans_path, alloc, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    tracer = Tracer(alloc)
    functions = install(tracer)
    cli = importlib.import_module("smoothgap.cli")
    if alloc:
        tracemalloc.start()
    try:
        code = cli.run(argv)
    finally:
        tracemalloc.stop()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"functions": functions, "spans": tracer.spans}, fh)
    sys.exit(code)


if __name__ == "__main__":
    sys.path.pop(0)  # keep the benchmark's own modules from shadowing any import
    main()
