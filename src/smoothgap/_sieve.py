"""The package's one sieve, and the allocation budget that bounds it."""

from __future__ import annotations

import math
import os

import numpy as np

from .errors import CapacityError

SCAN_LIMIT = 10**12  # desk-scale hard guard

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


def prime_flags(limit: int) -> np.ndarray:
    """Boolean array b with b[n] true iff n prime, for n in [0, limit]."""
    if limit < 0:
        raise ValueError(f"limit must be non-negative, got {limit}")
    if limit > SCAN_LIMIT:
        raise CapacityError(f"limit {limit} exceeds the desk-scale guard {SCAN_LIMIT}")
    if limit + 1 > mem_budget():
        raise CapacityError(
            f"prime flags to {limit} need {limit + 1} bytes, over budget {mem_budget()}"
        )
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    flags[4::2] = False
    # the even multiples of an odd p are already struck
    for p in range(3, math.isqrt(limit) + 1, 2):
        if flags[p]:
            flags[p * p :: 2 * p] = False
    return flags
