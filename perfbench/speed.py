"""Speed adjustment and percentile arithmetic of the benchmark.

Nothing here imports ``repro``: the reference kernel must cost the same
whatever the program under test does, and the arithmetic is tested on its
own (``test_perfbench.py``).

The sandbox this benchmark runs in shares its CPUs, and the speed available
to one process drifts by tens of percent between and within runs.  Every
timed block of operations is therefore bracketed by a fixed reference
kernel, and the block's times are rescaled by how slow the kernel ran next to
it: ``adjusted = raw * REFERENCE_S / kernel_s``.  A block that ran while the
machine was slow is scaled down by the same ratio the kernel was slowed by.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

#: Nominal duration of one :func:`reference_kernel` call, in seconds.  The
#: value only fixes the unit of adjusted times ("seconds of a machine on
#: which the kernel takes this long"); it was set to the kernel's typical
#: duration on a 2-vCPU Xeon VM, so adjusted and raw times read alike there.
REFERENCE_S = 0.0025

#: Kernel calls per measurement; the median of the calls is the measurement.
KERNEL_REPEATS = 3

#: A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10

#: Percentiles a tail metric may fall back to, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

_MASK = (1 << 4096) - 1


def reference_kernel() -> int:
    """A fixed CPU workload shaped like the program's own inner loops.

    Tuple-keyed dict inserts and probes, set intersection and 4096-bit
    shifts and masks: the operations the labeling decode, the cache and the
    packed bitset kernel spend their time in, over a working set of a few
    hundred kilobytes so cache pressure from other tenants shows in it as it
    does in the program.  Returns a checksum so the work cannot be skipped.
    """
    table: dict[tuple[int, int], tuple[int, int]] = {}
    for step in range(4000):
        table[(step * 7919) % 100003, step & 255] = (step, step + 1)
    hits = 0
    for step in range(0, 4000, 2):
        if ((step * 7919) % 100003, step & 255) in table:
            hits += 1
    seen = set(range(0, 40000, 3))
    seen.intersection_update(range(0, 40000, 5))
    word = 0x9E3779B97F4A7C15 << 3000
    for step in range(300):
        word = ((word << 13) ^ (word >> 7) ^ step) & _MASK
    return hits + len(seen) + word.bit_count()


def time_kernel(
    kernel: Callable[[], int] = reference_kernel, repeats: int = KERNEL_REPEATS
) -> float:
    """Median duration of ``repeats`` kernel calls, with ``gc`` paused so
    garbage the program left behind cannot be collected inside the kernel."""
    durations = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            started = time.perf_counter()
            kernel()
            durations.append(time.perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(durations)


def speed_factor(
    kernel_before: float, kernel_after: float, reference: float = REFERENCE_S
) -> float:
    """The factor that maps a block's raw times to reference-machine times:
    the reference duration over the mean kernel time around the block."""
    if kernel_before <= 0 or kernel_after <= 0:
        raise ValueError("kernel times must be positive")
    return reference / ((kernel_before + kernel_after) / 2.0)


@dataclass
class Block:
    """One timed block: raw duration, its factor, and raw per-op samples
    keyed by operation kind."""

    raw_s: float
    factor: float
    ops: int
    samples: dict[str, list[float]]

    @property
    def adjusted_s(self) -> float:
        return self.raw_s * self.factor


@dataclass
class SpeedMeter:
    """Runs the reference kernel between blocks and keeps every block.

    Usage: create the meter (it measures the kernel once), then call
    :meth:`close` after each block with the block's raw duration and
    samples; the kernel runs again and the block is scaled by the mean of
    the kernel times before and after it.
    """

    kernel: Callable[[], float] = time_kernel
    kernel_s: list[float] = field(default_factory=list)
    blocks: list[Block] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.kernel_s.append(self.kernel())

    def close(self, raw_s: float, ops: int, samples: dict[str, list[float]]) -> Block:
        before = self.kernel_s[-1]
        after = self.kernel()
        self.kernel_s.append(after)
        block = Block(raw_s=raw_s, factor=speed_factor(before, after), ops=ops, samples=samples)
        self.blocks.append(block)
        return block

    def adjusted(self, kind: str) -> list[float]:
        """Every sample of one kind, each scaled by its block's factor."""
        return [
            value * block.factor for block in self.blocks for value in block.samples.get(kind, ())
        ]

    def raw(self, kind: str) -> list[float]:
        return [value for block in self.blocks for value in block.samples.get(kind, ())]

    @property
    def ops(self) -> int:
        return sum(block.ops for block in self.blocks)

    @property
    def raw_s(self) -> float:
        return sum(block.raw_s for block in self.blocks)

    @property
    def adjusted_s(self) -> float:
        return sum(block.adjusted_s for block in self.blocks)

    @property
    def throughput(self) -> float:
        """Operations per adjusted second."""
        return self.ops / self.adjusted_s


def _rank(count: int, pct: float) -> int:
    """The 1-based nearest rank of percentile ``pct`` among ``count`` samples
    (rounded first, so 99% of 1000 is rank 990 despite binary fractions)."""
    return max(1, math.ceil(round(pct * count / 100.0, 6)))


def tail_percentile(count: int, wanted: float = 99.0) -> float | None:
    """The highest percentile, at most ``wanted``, that leaves at least
    :data:`TAIL_MIN_BEYOND` of ``count`` samples beyond it (``None`` when
    not even the median does)."""
    for pct in PERCENTILE_LADDER:
        if pct <= wanted and count - _rank(count, pct) >= TAIL_MIN_BEYOND:
            return pct
    return None


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``pct``
    percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(len(values), pct) - 1]
