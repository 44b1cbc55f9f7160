"""Helpers shared by the three workloads: statistics, spans, memory, set-up timing."""

from __future__ import annotations

import bisect
import gc
import json
import math
import os
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

#: Checkout root: the directory holding ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent

#: How many times each workload builds its state from nothing; ``setup_s`` is
#: the median, so one slow build (cold imports, a noisy neighbour) does not
#: move it.
SETUP_REPEATS = 4

#: A tail percentile needs this many samples beyond it to mean anything.
TAIL_BEYOND = 10

#: Relative tolerance for floating-point aggregates, scaled by the sum of the
#: magnitudes that were added, so sums that cancel to near zero still compare.
FLOAT_RTOL = 1e-9


#: Milliseconds the reference computation takes on the nominal host.  Latency
#: and throughput are reported on that host's scale (see ``HostProbe``).
REF_NOMINAL_MS = 5.0

_REF_VALUES = np.random.default_rng(0).normal(size=25_000)


class Mismatch(Exception):
    """The program returned an answer the benchmark's own oracle rejects."""


@dataclass
class WorkloadResult:
    """What one workload run hands back to ``run.py``."""

    attempted: int
    failed: int
    metrics: Dict[str, float]
    #: Human-readable lines printed above the JSON result (sample counts,
    #: tail percentiles, where the spans went).
    notes: List[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[float, int, int]:
    """The highest whole percentile with at least ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile, samples_beyond)`` using nearest-rank
    percentiles.  With fewer than ``2 * TAIL_BEYOND`` samples no percentile
    above the median qualifies, and the median itself is returned.
    """
    ordered = sorted(values)
    n = len(ordered)
    for percentile in range(99, 50, -1):
        rank = math.ceil(percentile * n / 100)
        if n - rank >= TAIL_BEYOND:
            return float(ordered[rank - 1]), percentile, n - rank
    return median(ordered), 50, n // 2


def geomean(values: Sequence[float]) -> float:
    positive = [v for v in values if v > 0]
    if not positive:
        return 0.0
    return math.exp(sum(math.log(v) for v in positive) / len(positive))


def close(got: float, want: float, magnitude: float) -> bool:
    """``got`` equals ``want`` within ``FLOAT_RTOL`` of ``magnitude``."""
    if got is None or want is None:
        return got is want
    return abs(float(got) - float(want)) <= FLOAT_RTOL * max(abs(magnitude), 1.0)


def check(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def reference_work() -> float:
    """A fixed computation shaped like the engine's work: row tuples, dict
    grouping, a sort, and NumPy sort / prefix-sum / masked sum."""
    rows = [(i, i * 0.5, "k%d" % (i % 97)) for i in range(10_000)]
    groups: Dict[str, float] = {}
    for row in rows:
        groups[row[2]] = groups.get(row[2], 0.0) + row[1]
    rows.sort(key=lambda row: -row[1])
    ordered = np.sort(_REF_VALUES)
    return len(groups) + float(np.cumsum(ordered)[-1]) + float(_REF_VALUES[_REF_VALUES > 0.1].sum())


def each_core() -> List[Set[int]]:
    """The first and last core this process may run on, as affinity sets."""
    available = sorted(os.sched_getaffinity(0))
    return [{available[0]}, {available[-1]}]


def _timed_reference() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


class HostProbe:
    """Times ``reference_work`` at points where the program is idle.

    Each core of the reference machine switches between a fast and a slow
    state every few seconds (a neighbour on its sibling hardware thread), and
    that drift, not the program, dominated the spread of raw latencies between
    runs.  Each operation's latency is therefore divided by the host factor
    at the time it started — the mean of the probes just before and after it,
    over ``REF_NOMINAL_MS`` — which reports it as it would read on a host
    where the reference computation takes exactly ``REF_NOMINAL_MS``.

    With ``cores``, each probe runs the reference once on every listed core
    (the calling thread is pinned there for the moment) and keeps the mean:
    for workloads whose work spreads over several cores.  Without, it runs on
    the calling thread's own core, where a single-threaded workload ran.
    """

    def __init__(self, cores: Sequence[Set[int]] = ()) -> None:
        self.cores = list(cores)
        self.times: List[float] = []
        self.seconds: List[float] = []

    def sample(self) -> float:
        """Take one probe; returns the wall time it took."""
        start = time.perf_counter()
        if self.cores:
            home = os.sched_getaffinity(0)
            runs = []
            try:
                for core in self.cores:
                    os.sched_setaffinity(0, core)
                    runs.append(_timed_reference())
            finally:
                os.sched_setaffinity(0, home)
            elapsed = sum(runs) / len(runs)
        else:
            elapsed = _timed_reference()
        self.times.append(start)
        self.seconds.append(elapsed)
        return time.perf_counter() - start

    def factor_at(self, moment: float) -> float:
        i = bisect.bisect_right(self.times, moment)
        near = self.seconds[max(i - 1, 0):i + 1]
        return sum(near) / len(near) * 1e3 / REF_NOMINAL_MS

    @property
    def factor(self) -> float:
        return median(self.seconds) * 1e3 / REF_NOMINAL_MS


#: Latency samples: ``(start, seconds)`` per operation, by shape.
Latencies = Dict[str, List[Tuple[float, float]]]


def host_scaled(latencies: Latencies, completed: int, busy_seconds: float,
                probe: HostProbe) -> Dict[str, float]:
    """``ops_per_s`` and ``shape_geomean_ms`` on the nominal host.

    Throughput scales the busy time by the latency-weighted host factor.
    """
    nominal = {shape: [d / probe.factor_at(t) for t, d in samples]
               for shape, samples in latencies.items()}
    raw_total = sum(d for samples in latencies.values() for _, d in samples)
    nominal_total = sum(sum(values) for values in nominal.values())
    return {
        "ops_per_s": completed / (busy_seconds * nominal_total / raw_total),
        "shape_geomean_ms": geomean([median(v) * 1e3 for v in nominal.values() if v]),
    }


@dataclass
class Phase:
    """One timed phase of a workload, as the closed loop saw it."""

    latencies: Latencies
    attempted: int
    failed: int
    #: Wall time less the benchmark's own work (answer checks, host probes).
    busy_seconds: float
    probe: HostProbe
    #: Workload-specific trace material (statement records, calls, spans).
    detail: Any = None

    def end_to_end(self) -> Dict[str, float]:
        return host_scaled(self.latencies, self.attempted - self.failed, self.busy_seconds,
                           self.probe)

    def seconds(self, *shapes: str) -> List[float]:
        """Raw latencies of the given shapes (all shapes when none given)."""
        return [d for shape in shapes or self.latencies for _, d in self.latencies[shape]]

    def note(self) -> str:
        counts = ", ".join(f"{shape} {len(samples)}" for shape, samples in self.latencies.items())
        return f"samples per shape: {counts}; median host factor {self.probe.factor:.3f}"


def untraced_result(phase: Phase, setups: Sequence[float], peak_rss_mb: float) -> WorkloadResult:
    metrics = phase.end_to_end()
    metrics["setup_s"] = median(setups)
    metrics["peak_rss_mb"] = peak_rss_mb
    each = ", ".join(f"{s:.3f}" for s in setups)
    return WorkloadResult(phase.attempted, phase.failed, metrics,
                          [phase.note(), f"set-ups on the nominal host: {each} s"])


def traced_common(plain: Phase, traced: Phase, load_rates: Sequence[float]) -> Dict[str, float]:
    """Per-layer metrics every workload's traced run reports the same way."""
    attempted = plain.attempted + traced.attempted
    return {
        "storage.load_rows_per_s": median(load_rates),
        "failed_frac": (plain.failed + traced.failed) / attempted,
        "trace.overhead_frac": 1.0 - traced.end_to_end()["ops_per_s"] / plain.end_to_end()["ops_per_s"],
        "host.ref_ms": median(plain.probe.seconds + traced.probe.seconds) * 1e3,
    }


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class Tracer:
    """Spans kept in memory and written out when the run ends.

    A span is ``(id, name, start, end, parent, op)``; spans of one operation
    share ``op``.  One tracer per thread: the open-span stack is not shared.
    """

    def __init__(self, prefix: str = "") -> None:
        self.prefix = prefix
        self.spans: List[Dict[str, Any]] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, op: Optional[str] = None) -> Iterator[Dict[str, Any]]:
        parent = self._open[-1] if self._open else None
        if op is None and parent is not None:
            op = self.spans[parent]["op"]
        record = {
            "id": f"{self.prefix}{len(self.spans)}",
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": None if parent is None else self.spans[parent]["id"],
            "op": op,
        }
        index = len(self.spans)
        self.spans.append(record)
        self._open.append(index)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def self_times(spans: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span["start"]
        for start, end in sorted(children.get(span["id"], [])):
            start, end = max(start, cursor), min(end, span["end"])
            if end > start:
                covered += end - start
                cursor = end
        result[span["id"]] = (span["end"] - span["start"]) - covered
    return result


def write_spans(spans: Sequence[Dict[str, Any]], workload: str, seed: int) -> Path:
    out = ROOT / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"spans_{workload}_seed{seed}.json"
    path.write_text(json.dumps(list(spans)))
    return path


# ---------------------------------------------------------------------------
# Set-up and memory
# ---------------------------------------------------------------------------


class SetupClock:
    """Set-up time on the nominal host: wall time between laps over the host factor.

    The build calls :meth:`lap` between its steps (after a load, after the
    index, after each warm-up statement).  Each step's wall time is divided by
    the host factor over that step — the mean of the probes just before and
    after it — exactly as an operation's latency is, so ``setup_s`` does not
    move with the drift of the host either.  Probe time is not set-up time.
    """

    def __init__(self, cores: Sequence[Set[int]] = ()) -> None:
        self.probe = HostProbe(cores)
        self.nominal = 0.0
        self.probe.sample()
        self._mark = time.perf_counter()

    def lap(self) -> None:
        work = time.perf_counter() - self._mark
        self.probe.sample()
        before, after = self.probe.seconds[-2:]
        self.nominal += work / ((before + after) / 2 * 1e3 / REF_NOMINAL_MS)
        self._mark = time.perf_counter()


def timed_setups(build: Callable[[Callable[[], None]], Any], teardown: Callable[[Any], None],
                 cores: Sequence[Set[int]] = ()) -> Tuple[Any, List[float]]:
    """Build the workload state ``SETUP_REPEATS`` times; keep the last one.

    ``build`` receives the lap callable of a :class:`SetupClock` probing
    ``cores``.  Returns ``(state, nominal seconds of each build)``.  Earlier states
    are torn down and collected before the next build so only one is alive at
    a time: a closed ``Database`` sits in reference cycles, and without the
    collection every build started with more memory held than the last.
    """
    durations = []
    state = None
    for attempt in range(SETUP_REPEATS):
        if state is not None:
            teardown(state)
            gc.collect()
        clock = SetupClock(cores)
        state = build(clock.lap)
        clock.lap()
        durations.append(clock.nominal)
    return state, durations


def self_peak_rss_mb() -> float:
    """High-water resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Largest high-water resident memory among ended, waited-for children."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
