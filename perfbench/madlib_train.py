"""madlib_train: the paper's workload — in-database model training on a worker pool.

Closed loop, one caller, against ``Database(num_segments=4, parallel=2)``,
cycling through three ``repro.methods`` train calls: linear regression on
50k rows x 40 variables (the Figure 4 shape), IRLS logistic regression on 20k
rows x 10 variables, and k-means with k=4 on 20k 2-D points.  The methods,
driver and convex layers and the two-phase aggregates in segments do the
work, and this is the only workload that uses the ``parallel`` worker pool;
the other two are the no-change check for any change to the pool.

The convergence tests are switched off (thresholds no run can meet), so each
call performs the same number of iterations whatever the seed and the timing
compares equal work across seeds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from .common import (
    ROOT,
    HostProbe,
    Latencies,
    Phase,
    Tracer,
    WorkloadResult,
    check,
    children_peak_rss_mb,
    each_core,
    median,
    self_peak_rss_mb,
    timed_setups,
    traced_common,
    untraced_result,
    write_spans,
)
from .layers import aggregate_seconds, phase_metrics

SEGMENTS = 4
WORKERS = 2
LINREGR_SHAPE = (50_000, 40)
LOGREGR_SHAPE = (20_000, 10)
KMEANS_POINTS = 20_000
KMEANS_K = 4
BLOB_SPREAD = 0.05
LOGREGR_ITERATIONS = 3
KMEANS_ITERATIONS = 1
MODELS = ("linregr", "logregr", "kmeans")


@dataclass
class Inputs:
    lin_x: np.ndarray
    lin_y: np.ndarray
    log_x: np.ndarray
    log_y: np.ndarray
    log_coef: np.ndarray
    points: np.ndarray
    centres: np.ndarray
    seed: int


def make_inputs(seed: int) -> Inputs:
    rng = np.random.default_rng([seed, 4])
    rows, cols = LINREGR_SHAPE
    lin_x = rng.normal(size=(rows, cols))
    lin_y = lin_x @ rng.uniform(-2.0, 2.0, cols) + rng.normal(scale=0.5, size=rows)
    rows, cols = LOGREGR_SHAPE
    log_x = rng.normal(size=(rows, cols))
    log_coef = rng.uniform(-1.5, 1.5, cols)
    log_y = (rng.uniform(size=rows) < 1.0 / (1.0 + np.exp(-(log_x @ log_coef)))).astype(float)
    # Four tight blobs at the corners of a square, jittered by the seed.  Tight
    # (spread 0.05 against a spacing of about 12) so that k-means++ seeding puts
    # one seed in each blob with probability above 0.9998; at spread 1 it put two
    # seeds in one blob about once in twenty seeds, a local optimum no Lloyd
    # iteration leaves, and the run failed its oracle.
    centres = np.array([[6.0, 6.0], [6.0, -6.0], [-6.0, 6.0], [-6.0, -6.0]])
    centres += rng.uniform(-1.0, 1.0, centres.shape)
    points = (centres[rng.integers(0, KMEANS_K, KMEANS_POINTS)]
              + rng.normal(scale=BLOB_SPREAD, size=(KMEANS_POINTS, 2)))
    return Inputs(lin_x, lin_y, log_x, log_y, log_coef, points, centres, seed)


def _load(db, name: str, columns, rows: list, load_rates: List[float],
          lap: Callable[[], None]) -> None:
    db.create_table(name, columns)
    start = time.perf_counter()
    db.load_rows(name, rows)
    load_rates.append(len(rows) / (time.perf_counter() - start))
    lap()


def build(inputs: Inputs, load_rates: List[float], lap: Callable[[], None]):
    """Load the three training tables, start the pool and warm up each method.

    The warm-up trains each model with a single iteration: that pays every
    first-call cost (imports, aggregate registration, worker start-up, column
    caches) without repeating the timed work.
    """
    from repro import Database

    db = Database(num_segments=SEGMENTS, parallel=WORKERS)
    try:
        vector = [("id", "integer"), ("x", "double precision[]"), ("y", "double precision")]
        _load(db, "lin", vector,
              [(i, inputs.lin_x[i], float(inputs.lin_y[i])) for i in range(len(inputs.lin_y))],
              load_rates, lap)
        _load(db, "logi", vector,
              [(i, inputs.log_x[i], float(inputs.log_y[i])) for i in range(len(inputs.log_y))],
              load_rates, lap)
        _load(db, "pts", [("id", "integer"), ("coords", "double precision[]")],
              [(i, inputs.points[i]) for i in range(len(inputs.points))], load_rates, lap)
        db.ensure_parallel_workers()
        lap()
        for model in MODELS:
            train(db, model, inputs, iterations=1)
            lap()
        return db
    except BaseException:
        db.close()
        raise


def train(db, model: str, inputs: Inputs, iterations: Optional[int] = None):
    from repro.methods import kmeans, linear_regression, logistic_regression

    if model == "linregr":
        return linear_regression.train(db, "lin")
    if model == "logregr":
        return logistic_regression.train(db, "logi", max_iterations=iterations or LOGREGR_ITERATIONS,
                                         tolerance=0.0)
    return kmeans.train(db, "pts", k=KMEANS_K, max_iterations=iterations or KMEANS_ITERATIONS,
                        min_reassignment_fraction=-1.0, seed=inputs.seed)


def _irls_reference(x: np.ndarray, y: np.ndarray, iterations: int) -> np.ndarray:
    coef = np.zeros(x.shape[1])
    for _ in range(iterations):
        xb = x @ coef
        mu = 1.0 / (1.0 + np.exp(-xb))
        weight = np.maximum(mu * (1.0 - mu), 1e-12)
        z = xb + (y - mu) / weight
        coef = np.linalg.pinv((x * weight[:, None]).T @ x) @ (x.T @ (weight * z))
    return coef


class Oracle:
    """Expected models, computed with NumPy from the generated inputs."""

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs
        self.lin_coef = np.linalg.lstsq(inputs.lin_x, inputs.lin_y, rcond=None)[0]
        self.log_coef = _irls_reference(inputs.log_x, inputs.log_y, LOGREGR_ITERATIONS)

    def check(self, model: str, result: Any) -> None:
        if model == "linregr":
            scale = 1.0 + float(np.abs(self.lin_coef).max())
            check(float(np.abs(result.coef - self.lin_coef).max()) <= 1e-6 * scale,
                  "linregr coefficients differ from numpy.linalg.lstsq")
        elif model == "logregr":
            scale = 1.0 + float(np.abs(self.log_coef).max())
            check(float(np.abs(result.coef - self.log_coef).max()) <= 1e-6 * scale,
                  "logregr coefficients differ from the NumPy IRLS reference")
            check(float(np.abs(result.coef - self.inputs.log_coef).max()) <= 0.25 * scale,
                  "logregr did not land near the generating coefficients")
            check(result.num_iterations == LOGREGR_ITERATIONS, "logregr iteration count differs")
        else:
            centroids = np.asarray(result.centroids)
            distance = np.linalg.norm(centroids[:, None, :] - self.inputs.centres[None, :, :], axis=2)
            check(float(distance.min(axis=0).max()) <= 0.25,
                  "k-means centroids did not land near the blob centres")
            check(result.num_iterations == KMEANS_ITERATIONS, "k-means iteration count differs")


@dataclass
class Call:
    """One traced train call: its span, the statements it issued, its iterations."""

    model: str
    seconds: float
    sql_seconds: float
    statements: List[Any]
    iterations: int


class TracedExecute:
    """Wraps one Database instance's ``execute`` with a child span per statement.

    Installed only in the traced run; the methods' drivers call
    ``database.execute`` (directly or through ``query_scalar``), so every
    statement a train call issues passes through here.
    """

    def __init__(self, db, tracer: Tracer) -> None:
        self.inner = db.execute
        self.tracer = tracer
        self.stats: List[Any] = []

    def __call__(self, sql: str, parameters: Optional[Dict[str, Any]] = None):
        with self.tracer.span("database.execute"):
            result = self.inner(sql, parameters)
        self.stats.append(result.stats)
        return result


def run_phase(db, inputs: Inputs, oracle: Oracle, seconds: float, tracer: Optional[Tracer]) -> Phase:
    """Whole rounds of the three train calls until ``seconds`` have passed.

    After each call the model is checked and the host probed; neither counts
    towards ``busy_seconds`` or any latency.
    """
    from repro.errors import ReproError

    latencies: Latencies = {m: [] for m in MODELS}
    calls: List[Call] = []
    probe = HostProbe(each_core())
    attempted = failed = 0
    excluded = 0.0
    wrapper = None
    if tracer is not None:
        wrapper = TracedExecute(db, tracer)
        db.execute = wrapper
    try:
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            for model in MODELS:
                attempted += 1
                try:
                    if tracer is None:
                        began = time.perf_counter()
                        result = train(db, model, inputs)
                        latencies[model].append((began, time.perf_counter() - began))
                    else:
                        first_span, first_stat = len(tracer.spans), len(wrapper.stats)
                        with tracer.span(model, op=f"{model}#{attempted}") as root:
                            result = train(db, model, inputs)
                        elapsed = root["end"] - root["start"]
                        latencies[model].append((root["start"], elapsed))
                        children = tracer.spans[first_span + 1:]
                        calls.append(Call(model, elapsed,
                                          sum(s["end"] - s["start"] for s in children),
                                          wrapper.stats[first_stat:],
                                          getattr(result, "num_iterations", 1)))
                except ReproError:
                    failed += 1
                    continue
                began = time.perf_counter()
                oracle.check(model, result)
                probe.sample()
                excluded += time.perf_counter() - began
        busy = time.perf_counter() - start - excluded
    finally:
        if wrapper is not None:
            del db.execute
    return Phase(latencies, attempted, failed, busy, probe, calls)


def layer_metrics(calls: List[Call]) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    all_stats = [s for call in calls for s in call.statements if s is not None]
    for model in MODELS:
        mine = [c for c in calls if c.model == model]
        walls, folds = [], []
        for call in mine:
            phases = [aggregate_seconds(s) for s in call.statements if s is not None]
            walls.append(sum(p["parallel_wall"] for p in phases))
            folds.append(sum(p["critical_fold"] for p in phases))
        metrics[f"methods.train_ms.{model}"] = median([c.seconds for c in mine]) * 1e3
        metrics[f"driver.iterations.{model}"] = median([c.iterations for c in mine])
        metrics[f"driver.sql_share.{model}"] = median([c.sql_seconds / c.seconds for c in mine])
        metrics[f"parallel.wall_ms.{model}"] = median(walls) * 1e3
        metrics[f"parallel.fold_ms.{model}"] = median(folds) * 1e3
        metrics[f"parallel.overhead_ms.{model}"] = median([w - f for w, f in zip(walls, folds)]) * 1e3
    timings = [t for s in all_stats for t in s.aggregate_timings]
    metrics["parallel.dispatched_frac"] = (
        sum(1 for t in timings if t.executed_parallel) / len(timings) if timings else 0.0)
    # Per train call, so the value does not depend on how many calls fit the phase.
    metrics["parallel.fallbacks"] = sum(
        1 for s in all_stats if s.parallel_fallback_reason) / len(calls)
    metrics.update(phase_metrics(all_stats))
    return metrics


def run(seed: int, seconds: float, trace: bool) -> WorkloadResult:
    inputs = make_inputs(seed)
    oracle = Oracle(inputs)
    load_rates: List[float] = []
    db, setups = timed_setups(lambda lap: build(inputs, load_rates, lap),
                              lambda old: old.close(), each_core())
    try:
        if not trace:
            phase = run_phase(db, inputs, oracle, seconds, None)
        else:
            plain = run_phase(db, inputs, oracle, seconds / 2, None)
            tracer = Tracer()
            traced = run_phase(db, inputs, oracle, seconds / 2, tracer)
    finally:
        db.close()
    if not trace:
        # Workers are forked and have ended; count each at the largest one's peak.
        return untraced_result(phase, setups, self_peak_rss_mb() + WORKERS * children_peak_rss_mb())
    metrics = layer_metrics(traced.detail)
    metrics.update(traced_common(plain, traced, load_rates))
    path = write_spans(tracer.spans, "madlib_train", seed)
    return WorkloadResult(plain.attempted + traced.attempted, plain.failed + traced.failed,
                          metrics, [f"spans written to {path.relative_to(ROOT)}"])
