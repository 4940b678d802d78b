"""Clock, reference kernel and span recorder of the benchmark.

The machine a benchmark runs on can change speed by tens of percent within
a minute, for CPU time as much as for wall time. Every job is therefore
bracketed by a fixed reference kernel, and its wall time is scaled by
``ref_nominal`` over the reference times around it (see ``job_scales``):
the result reads as seconds at the nominal machine speed recorded in
``expected.json``.

Nothing here imports anticonc.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction


def reference_kernel() -> float:
    """Seconds taken by a fixed pure-Python workload.

    It mixes what the library spends its time on: Fraction arithmetic,
    allocation of many small objects into a dictionary, and big-integer
    prefix sums like those of a convolution. Timed against library jobs
    while the machine drifted, each part alone slowed down more than the
    jobs did (the jobs by 0.6-0.9 times as much, in log terms) and by
    different amounts, so no single kind of work sets the scale here.
    """
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i, 2 * i + 1) * Fraction(3, i + 7)
    table = {}
    for i in range(2000):
        table[(i * 7919 % 4099, i % 7)] = Fraction(i % 97, i % 13 + 1)
    poly = [1]
    for k in (3, 5, 7, 9) * 3:
        s = poly + [0] * (2 * k - 2)
        for i in range(2, len(s)):
            s[i] += 3 * s[i - 2]
        poly = [s[i] - s[i - 2 * k] if i >= 2 * k else s[i] for i in range(len(s))]
    if acc <= 0 or len(table) < 1000 or not poly[-1]:
        raise AssertionError("reference kernel computed nonsense")
    return time.perf_counter() - start


def job_scales(ref_nominal: float, refs: list[tuple[float, float]], reach: int = 2) -> list[float]:
    """Per job, the multiplier that turns its wall time into nominal-speed
    seconds: ``ref_nominal`` over the median of the reference times taken
    before and after the jobs within ``reach`` places of it. The median
    over neighbours removes the kernel's own sample noise (about 5% per
    sample) and still follows drift that takes more than a second."""
    scales = []
    for i in range(len(refs)):
        near = [t for pair in refs[max(0, i - reach):i + reach + 1] for t in pair]
        scales.append(ref_nominal / statistics.median(near))
    return scales


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values: list[float], beyond: int = 10) -> tuple[float, float]:
    """Value at the highest percentile with at least ``beyond`` samples
    above it, with that percentile; the maximum when there are too few."""
    ordered = sorted(values)
    idx = len(ordered) - 1 - beyond if len(ordered) > beyond else len(ordered) - 1
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


@dataclass
class Span:
    job: int
    name: str
    parent: int | None  # index of the enclosing span, if any
    start: float
    end: float = 0.0
    failed: bool = True


class Tracer:
    """Spans around the benchmark's calls into the library.

    Disabled, ``call`` is a plain call and the counters are no-ops. Enabled,
    each call records one span tagged with the current job id and the span
    that encloses it; work counts go through ``add`` and ``peak``. Spans
    stay in memory until the caller writes them out.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.job = -1
        self.spans: list[Span] = []
        self.totals: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        span = Span(self.job, name, self._open[-1] if self._open else None, 0.0)
        self.spans.append(span)
        self._open.append(idx)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            span.failed = False
            return result
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    @contextmanager
    def patched(self, module, attr: str, name: str):
        """Route calls the library makes through ``module.attr`` into spans."""
        if not self.enabled:
            yield
            return
        original = getattr(module, attr)
        setattr(module, attr, lambda *a, **kw: self.call(name, original, *a, **kw))
        try:
            yield
        finally:
            setattr(module, attr, original)

    def add(self, key: str, value: float) -> None:
        if self.enabled:
            self.totals[key] += value

    def peak(self, key: str, value: float) -> None:
        if self.enabled and value > self.peaks[key]:
            self.peaks[key] = value

    def layer_times(self, scales: dict[int, float]) -> dict[str, dict[str, float]]:
        """Per span name: normalised inclusive and self seconds, calls and
        failed calls. Self time leaves out the enclosed spans."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"busy_s": 0.0, "self_s": 0.0, "calls": 0, "failed": 0}
        )
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        for idx, span in enumerate(self.spans):
            scale = scales.get(span.job, 1.0)
            row = out[span.name]
            row["busy_s"] += (span.end - span.start) * scale
            row["self_s"] += (span.end - span.start - child_time[idx]) * scale
            row["calls"] += 1
            row["failed"] += int(span.failed)
        return out
