"""Per-layer numbers derived from the statistics the engine returns with each result.

The benchmark times parse and execute itself (spans); everything finer — the
segment phases, join steps, WHERE vectorization, rows examined — comes from
the :class:`~repro.engine.segments.ExecutionStats` attached to each result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence

from .common import median

#: olap_mix shapes that run aggregates (the others have no transition phase).
AGGREGATE_SHAPES = ("filtered_sum", "sum", "groupby_int", "groupby_text", "join_groupby")


@dataclass
class StatementRecord:
    """One statement as the traced run saw it."""

    shape: str
    parse_s: float
    exec_s: float
    stats: Any
    has_where: bool
    #: Rows returned (SELECT) or affected (DML): the denominator of
    #: ``examined_per_row``.
    rows_out: int = 0


def critical_fold(timings: Any) -> float:
    """The folds' share of a pool fan-out's wall time: the segment folds are
    spread over ``num_workers`` workers, so the wall holds at least their sum
    over the worker count, and never less than the slowest single fold."""
    folds = timings.per_segment_seconds
    return max(max(folds, default=0.0), sum(folds) / max(timings.num_workers, 1))


def aggregate_seconds(stats: Any) -> Dict[str, float]:
    """Transition (sum over segments), merge and final seconds, and for the
    aggregates the worker pool ran, the folds' critical path and the measured
    wall."""
    timings = stats.aggregate_timings if stats is not None else []
    return {
        "transition": sum(sum(t.per_segment_seconds) for t in timings),
        "critical_fold": sum(critical_fold(t) for t in timings if t.executed_parallel),
        "merge": sum(t.merge_seconds for t in timings),
        "final": sum(t.final_seconds for t in timings),
        "parallel_wall": sum(t.measured_parallel_wall_seconds or 0.0 for t in timings),
    }


def phase_metrics(stats_list: Iterable[Any]) -> Dict[str, float]:
    """Median merge and final milliseconds over statements that ran aggregates."""
    merges, finals = [], []
    for stats in stats_list:
        if stats is not None and stats.aggregate_timings:
            phases = aggregate_seconds(stats)
            merges.append(phases["merge"])
            finals.append(phases["final"])
    return {
        "segments.merge_ms": median(merges) * 1e3,
        "segments.final_ms": median(finals) * 1e3,
    }


def statement_metrics(records: Sequence[StatementRecord], *, segment_shapes: bool) -> Dict[str, float]:
    """Executor, compile, join and segment metrics over traced statements.

    ``segment_shapes`` adds the per-shape transition and non-aggregate times
    (olap_mix only; the served_rw statements are too small to split usefully).
    """
    metrics: Dict[str, float] = {}
    by_shape: Dict[str, List[StatementRecord]] = {}
    for record in records:
        by_shape.setdefault(record.shape, []).append(record)
    for shape, group in by_shape.items():
        metrics[f"executor.exec_ms.{shape}"] = median([r.exec_s for r in group]) * 1e3
        if not segment_shapes:
            continue
        phases = [aggregate_seconds(r.stats) for r in group]
        if shape in AGGREGATE_SHAPES:
            metrics[f"segments.transition_ms.{shape}"] = median([p["transition"] for p in phases]) * 1e3
        metrics[f"segments.other_ms.{shape}"] = median(
            [r.exec_s - p["transition"] - p["merge"] - p["final"] for r, p in zip(group, phases)]
        ) * 1e3
    metrics.update(phase_metrics(r.stats for r in records))

    with_where = [r for r in records if r.has_where]
    metrics["compile.vectorized_frac"] = (
        sum(1 for r in with_where if r.stats.where_vectorized) / len(with_where) if with_where else 0.0
    )
    steps = [step for r in records for step in r.stats.join_steps]
    joined = [r for r in records if r.stats.join_steps]
    metrics["join.rows_emitted"] = median([r.stats.join_rows_emitted for r in joined])
    metrics["join.hash_frac"] = (
        sum(1 for s in steps if s.strategy.startswith("hash")) / len(steps) if steps else 0.0
    )
    return metrics


def examined_per_row(records: Sequence[StatementRecord], shape: str) -> Optional[float]:
    """Rows the statement touched per row it returned or changed."""
    group = [r for r in records if r.shape == shape]
    produced = sum(r.rows_out for r in group)
    if not produced:
        return None
    # The plan cache's point-lookup fast path records only the per-source counts.
    return sum(r.stats.rows_scanned or sum(r.stats.rows_scanned_per_source)
               for r in group) / produced
