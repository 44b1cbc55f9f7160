"""olap_mix: eight analytic statement shapes, round-robin, one embedded caller.

Closed loop, one client, against ``Database(num_segments=4)`` with no plan
cache and no worker pool.  This is where executor, compile, columnar,
segment, join and window work dominates; parsing (tens of microseconds
against shapes of 10 ms to 1 s), the plan cache, serving and the parallel
pool do almost none, so changes to those layers should leave it unchanged.
The data never changes during the run: per-segment caches stay warm.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .common import (
    ROOT,
    HostProbe,
    Latencies,
    Phase,
    Tracer,
    WorkloadResult,
    check,
    close,
    median,
    self_peak_rss_mb,
    timed_setups,
    traced_common,
    untraced_result,
    write_spans,
)
from .layers import StatementRecord, statement_metrics

FACT_ROWS = 100_000
DIM_ROWS = 50
KEYS = 1000
CATEGORIES = 20
REGIONS = 5
#: The window shape covers the rows with ``k`` below this (a quarter of the
#: table), so it does not take half of every round.
WINDOW_KEYS = 250
SEGMENTS = 4


@dataclass
class Inputs:
    ids: np.ndarray
    k: np.ndarray
    d: np.ndarray
    v: np.ndarray
    w: np.ndarray
    cat: np.ndarray  # category index; the table stores the text ``c00``..``c19``
    region_of_d: np.ndarray  # region index per dimension key
    dim_weight: np.ndarray
    w_below: float
    v_above: float


@dataclass
class Shape:
    name: str
    sql: str
    check: Callable[[list], None]


def make_inputs(seed: int) -> Inputs:
    rng = np.random.default_rng([seed, 1])
    n = FACT_ROWS
    return Inputs(
        ids=np.arange(n, dtype=np.int64),
        k=rng.integers(0, KEYS, n),
        d=rng.integers(0, DIM_ROWS, n),
        v=rng.normal(size=n),
        w=rng.uniform(0.0, 100.0, n),
        cat=rng.integers(0, CATEGORIES, n),
        region_of_d=rng.integers(0, REGIONS, DIM_ROWS),
        dim_weight=rng.uniform(0.0, 1.0, DIM_ROWS),
        # Quarter steps print exactly in SQL.
        w_below=40.0 + 0.25 * int(rng.integers(0, 80)),
        v_above=-0.75 + 0.25 * int(rng.integers(0, 3)),
    )


def _category(index: int) -> str:
    return f"c{index:02d}"


def build(inputs: Inputs, shapes: List[Shape], load_seconds: List[float],
          lap: Callable[[], None]):
    """Create, load and analyze the tables, then run every shape once."""
    from repro import Database

    db = Database(num_segments=SEGMENTS)
    db.create_table(
        "fact",
        [("id", "integer"), ("k", "integer"), ("d", "integer"),
         ("v", "double precision"), ("w", "double precision"), ("cat", "text")],
    )
    categories = [_category(i) for i in range(CATEGORIES)]
    rows = list(zip(inputs.ids.tolist(), inputs.k.tolist(), inputs.d.tolist(),
                    inputs.v.tolist(), inputs.w.tolist(),
                    [categories[c] for c in inputs.cat.tolist()]))
    start = time.perf_counter()
    db.load_rows("fact", rows)
    load_seconds.append(len(rows) / (time.perf_counter() - start))
    lap()
    db.create_table("dim", [("d", "integer"), ("region", "text"), ("weight", "double precision")])
    db.load_rows("dim", [(d, f"r{int(inputs.region_of_d[d])}", float(inputs.dim_weight[d]))
                         for d in range(DIM_ROWS)])
    db.execute("ANALYZE")
    lap()
    for shape in shapes:
        db.execute(shape.sql)
        lap()
    return db


def _column(rows: list, index: int, dtype) -> np.ndarray:
    return np.fromiter((row[index] for row in rows), dtype=dtype, count=len(rows))


def _grouped_check(name: str, keys: Sequence, counts: np.ndarray, sums: np.ndarray,
                   magnitudes: np.ndarray) -> Callable[[list], None]:
    def verify(rows: list) -> None:
        check([row[0] for row in rows] == list(keys), f"{name}: group keys or order differ")
        check(_column(rows, 1, np.int64).tolist() == counts.tolist(), f"{name}: counts differ")
        got = _column(rows, 2, np.float64)
        check(bool(np.all(np.abs(got - sums) <= 1e-9 * np.maximum(magnitudes, 1.0))),
              f"{name}: aggregate values differ")
    return verify


def make_shapes(x: Inputs) -> List[Shape]:
    """The eight shapes with oracles computed here from the generated inputs."""
    n = len(x.ids)

    mask = (x.w < x.w_below) & (x.v > x.v_above)
    filtered = (int(mask.sum()), float(x.v[mask].sum()), float(np.abs(x.v[mask]).sum()))

    def check_filtered(rows: list) -> None:
        count, total = rows[0]
        check(count == filtered[0], "filtered_sum: count differs")
        check(close(total, filtered[1], filtered[2]), "filtered_sum: sum differs")

    totals = (float(x.v.sum()), float(np.abs(x.v).sum()), float(x.w.sum()))

    def check_sum(rows: list) -> None:
        count, sum_v, sum_w = rows[0]
        check(count == n, "sum: count differs")
        check(close(sum_v, totals[0], totals[1]), "sum: sum(v) differs")
        check(close(sum_w, totals[2], totals[2]), "sum: sum(w) differs")

    k_counts = np.bincount(x.k, minlength=KEYS)
    k_keys = np.nonzero(k_counts)[0]
    check_k = _grouped_check(
        "groupby_int", k_keys.tolist(), k_counts[k_keys],
        np.bincount(x.k, weights=x.v, minlength=KEYS)[k_keys],
        np.bincount(x.k, weights=np.abs(x.v), minlength=KEYS)[k_keys])

    c_counts = np.bincount(x.cat, minlength=CATEGORIES)
    c_keys = np.nonzero(c_counts)[0]
    c_avg = np.bincount(x.cat, weights=x.w, minlength=CATEGORIES)[c_keys] / c_counts[c_keys]
    check_c = _grouped_check("groupby_text", [_category(c) for c in c_keys], c_counts[c_keys],
                             c_avg, c_avg)

    order = np.lexsort((x.ids, x.v))

    def check_order(rows: list) -> None:
        check(len(rows) == n and bool(np.array_equal(_column(rows, 0, np.int64), x.ids[order])),
              "order_by: row order differs")

    top = np.lexsort((x.ids, -x.w))[:10]

    def check_top(rows: list) -> None:
        check([row[0] for row in rows] == x.ids[top].tolist(), "top10: rows or order differ")

    region = x.region_of_d[x.d]
    r_counts = np.bincount(region, minlength=REGIONS)
    r_keys = np.nonzero(r_counts)[0]
    check_join = _grouped_check(
        "join_groupby", [f"r{r}" for r in r_keys], r_counts[r_keys],
        np.bincount(region, weights=x.v, minlength=REGIONS)[r_keys],
        np.bincount(region, weights=np.abs(x.v), minlength=REGIONS)[r_keys])

    # Running sum per partition in id order over the window's rows, indexed by id.
    in_window = x.ids[x.k < WINDOW_KEYS]
    by_partition = in_window[np.lexsort((in_window, x.d[in_window]))]
    running = np.zeros(n)
    magnitude = np.zeros(n)
    sorted_d = x.d[by_partition]
    starts = np.r_[0, np.nonzero(np.diff(sorted_d))[0] + 1, len(by_partition)]
    for lo, hi in zip(starts[:-1], starts[1:]):
        idx = by_partition[lo:hi]
        running[idx] = np.cumsum(x.v[idx])
        magnitude[idx] = np.cumsum(np.abs(x.v[idx]))

    def check_window(rows: list) -> None:
        ids = _column(rows, 0, np.int64)
        check(bool(np.array_equal(np.sort(ids), in_window)), "window: row set differs")
        got = _column(rows, 1, np.float64)
        check(bool(np.all(np.abs(got - running[ids]) <= 1e-9 * np.maximum(magnitude[ids], 1.0))),
              "window: running sums differ")

    return [
        Shape("filtered_sum",
              f"SELECT count(*), sum(v) FROM fact WHERE w < {x.w_below!r} AND v > {x.v_above!r}",
              check_filtered),
        Shape("sum", "SELECT count(*), sum(v), sum(w) FROM fact", check_sum),
        Shape("groupby_int", "SELECT k, count(*), sum(v) FROM fact GROUP BY k ORDER BY k", check_k),
        Shape("groupby_text", "SELECT cat, count(*), avg(w) FROM fact GROUP BY cat ORDER BY cat",
              check_c),
        Shape("order_by", "SELECT id, v FROM fact ORDER BY v, id", check_order),
        Shape("top10", "SELECT id, w FROM fact ORDER BY w DESC, id LIMIT 10", check_top),
        Shape("join_groupby",
              "SELECT dim.region, count(*), sum(fact.v) FROM fact JOIN dim ON fact.d = dim.d "
              "GROUP BY dim.region ORDER BY dim.region", check_join),
        Shape("window",
              f"SELECT id, sum(v) OVER (PARTITION BY d ORDER BY id) FROM fact WHERE k < {WINDOW_KEYS}",
              check_window),
    ]


def run_phase(db, shapes: List[Shape], seconds: float, tracer: Optional[Tracer]) -> Phase:
    """Whole round-robin rounds until ``seconds`` have passed.

    After each statement the answer is checked and the host probed; neither
    counts towards ``busy_seconds`` or any latency.
    """
    from repro.engine.parser import parse_statement
    from repro.errors import ReproError

    latencies: Latencies = {s.name: [] for s in shapes}
    records: List[StatementRecord] = []
    probe = HostProbe()
    attempted = failed = 0
    excluded = 0.0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for shape in shapes:
            attempted += 1
            try:
                if tracer is None:
                    began = time.perf_counter()
                    result = db.execute(shape.sql)
                    latencies[shape.name].append((began, time.perf_counter() - began))
                else:
                    with tracer.span(shape.name, op=f"{shape.name}#{attempted}") as root:
                        with tracer.span("parser.parse_statement") as parse:
                            statement = parse_statement(shape.sql)
                        with tracer.span("executor.execute") as execute:
                            result = db.executor.execute(statement)
                    latencies[shape.name].append((root["start"], root["end"] - root["start"]))
                    records.append(StatementRecord(
                        shape.name, parse["end"] - parse["start"],
                        execute["end"] - execute["start"], result.stats,
                        getattr(statement, "where", None) is not None, len(result.rows)))
            except ReproError:
                failed += 1
                continue
            began = time.perf_counter()
            shape.check(result.rows)
            probe.sample()
            excluded += time.perf_counter() - began
    return Phase(latencies, attempted, failed, time.perf_counter() - start - excluded, probe, records)


def run(seed: int, seconds: float, trace: bool) -> WorkloadResult:
    inputs = make_inputs(seed)
    shapes = make_shapes(inputs)
    load_rates: List[float] = []
    db, setups = timed_setups(lambda lap: build(inputs, shapes, load_rates, lap),
                               lambda old: old.close())
    try:
        if not trace:
            phase = run_phase(db, shapes, seconds, None)
            return untraced_result(phase, setups, self_peak_rss_mb())
        plain = run_phase(db, shapes, seconds / 2, None)
        tracer = Tracer()
        traced = run_phase(db, shapes, seconds / 2, tracer)
    finally:
        db.close()
    path = write_spans(tracer.spans, "olap_mix", seed)
    metrics = statement_metrics(traced.detail, segment_shapes=True)
    metrics["parser.parse_ms.olap"] = median([r.parse_s for r in traced.detail]) * 1e3
    metrics.update(traced_common(plain, traced, load_rates))
    return WorkloadResult(plain.attempted + traced.attempted, plain.failed + traced.failed,
                          metrics, [f"spans written to {path.relative_to(ROOT)}"])
