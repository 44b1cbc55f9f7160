"""Group ids and sort orders computed on packed columns.

The compiled in-process tier groups and sorts base-table scans here, on the
typed value arrays and dictionary codes of
:class:`~repro.engine.columnar.ColumnStore` segments, instead of keying each
row in Python (see "Vectorized grouping and sorting" in
``docs/columnar-storage.md``).

A *scan* is one ``(store, selection)`` pair per segment: ``selection`` holds
the ascending stored positions a bitmap WHERE kept, or is ``None`` for every
row.  Relation row ``i`` is the ``i``-th scanned row in segment order, the
order in which the executor's scans emit rows.

:func:`packed_columns` answers ``None`` when a column is not packed in every
segment (an object list: a demoted column, or a non-dictionary type), and
:func:`sort_order` when a value falls outside the exactness rules; the
caller then takes the per-row path, which returns the same result.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from .columnar import ColumnStore, DictColumn, TypedColumn
from .types import hashable_key

__all__ = ["group_ids", "packed_columns", "sort_order", "take_rows"]

Scan = Sequence[Tuple[ColumnStore, Optional[np.ndarray]]]

#: Mixed-radix products stay below this so composite int64 keys cannot wrap.
_INT64_ROOM = 1 << 62


def packed_columns(scan: Scan, index: int) -> Optional[List[Any]]:
    """Column ``index`` of every segment when each one is packed, else ``None``."""
    columns = [store.column(index) for store, _selection in scan]
    if all(isinstance(column, (TypedColumn, DictColumn)) for column in columns):
        return columns
    return None


def _select(values: np.ndarray, selection: Optional[np.ndarray]) -> np.ndarray:
    return values if selection is None else values[selection]


def _typed(column: TypedColumn, selection) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Scanned values and stored-NULL mask (``None`` when there are none)."""
    nulls = column.stored_nulls()
    values = _select(column.values_array(), selection)
    return values, None if nulls is None else _select(nulls, selection)


def _concat_typed(scan: Scan, columns: Sequence[TypedColumn]) -> Tuple[np.ndarray, np.ndarray]:
    """One typed column's scanned values across the scan, and its stored-NULL mask."""
    parts = [_typed(column, selection) for column, (_store, selection) in zip(columns, scan)]
    values = np.concatenate([values for values, _nulls in parts])
    nulls = np.concatenate(
        [np.zeros(len(values), dtype=bool) if nulls is None else nulls for values, nulls in parts]
    )
    return values, nulls


def _local_codes(column: Any, selection) -> Tuple[np.ndarray, int]:
    """Per-segment codes for one key column and their range.

    Rows with equal values share a code.  Rows with unequal codes may still
    be equal under ``hashable_key`` (another ``-0.0``, another NaN); the
    caller merges those when it decodes each code's first row.
    """
    if isinstance(column, DictColumn):
        codes = _select(column.codes_array(), selection).astype(np.int64)
        return codes + 1, len(column.values) + 1  # NULL (-1) becomes 0
    values, nulls = _typed(column, selection)
    distinct, inverse = np.unique(values, return_inverse=True)
    if nulls is None:
        return inverse.ravel(), len(distinct)
    return np.where(nulls, len(distinct), inverse.ravel()), len(distinct) + 1


def group_ids(
    scan: Scan, key_columns: Sequence[Sequence[Any]]
) -> Tuple[List[tuple], List[int], List[np.ndarray]]:
    """Group the scanned rows by packed key columns.

    ``key_columns`` holds, per GROUP BY key, the :func:`packed_columns` of
    the scan.  Returns ``(keys, representatives, ids)``: one
    ``hashable_key`` tuple per group in global first-appearance order, the
    relation row index of each group's first row, and per segment the group
    id of every scanned row.  Dictionaries are per segment, so groups merge
    across segments by ``hashable_key`` of the decoded value — the same
    equality the per-row path keys by.
    """
    keys: List[tuple] = []
    representatives: List[int] = []
    group_of: dict = {}
    ids: List[np.ndarray] = []
    offset = 0
    for segment, (store, selection) in enumerate(scan):
        columns = [per_segment[segment] for per_segment in key_columns]
        count = len(store) if selection is None else len(selection)
        if not count:
            ids.append(np.zeros(0, dtype=np.int64))
            continue
        single = columns[0]
        if len(columns) == 1 and isinstance(single, TypedColumn) and not single.null_count:
            codes = _select(single.values_array(), selection)  # the values are the codes
        else:
            codes, size = _local_codes(single, selection)
            for column in columns[1:]:
                more, more_size = _local_codes(column, selection)
                if size * more_size >= _INT64_ROOM:
                    distinct, codes = np.unique(codes, return_inverse=True)
                    codes, size = codes.ravel(), len(distinct)
                codes, size = codes * more_size + more, size * more_size
        _distinct, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
        local_to_global = np.empty(len(first), dtype=np.int64)
        for local in np.argsort(first, kind="stable").tolist():
            row = int(first[local])
            stored = row if selection is None else int(selection[row])
            key = tuple(hashable_key(column[stored]) for column in columns)
            group = group_of.get(key)
            if group is None:
                group = group_of[key] = len(keys)
                keys.append(key)
                representatives.append(offset + row)
            local_to_global[local] = group
        ids.append(local_to_global[inverse.ravel()])
        offset += count
    return keys, representatives, ids


def _ranks(scan: Scan, columns: Sequence[Any]) -> Optional[Tuple[np.ndarray, int]]:
    """Sort ranks of one packed column over the scan: ``(ranks, distinct)``.

    Equal values share a rank, ranks follow Python's ordering of the values,
    and NULL rows rank ``-1``.  ``None`` for a NaN value (the per-row sort
    places NaN by timsort's comparison sequence, which no rank reproduces)
    and for values Python cannot order.
    """
    if isinstance(columns[0], TypedColumn):
        values, nulls = _concat_typed(scan, columns)
        if values.dtype.kind == "f" and bool(np.any(np.isnan(values) & ~nulls)):
            return None
        present = ~nulls
        # Ranks, never negated values: ``-min(int64)`` wraps.
        distinct, inverse = np.unique(values[present], return_inverse=True)
        ranks = np.full(len(values), -1, dtype=np.int64)
        ranks[present] = inverse.ravel()
        return ranks, len(distinct)
    values_by_key: dict = {}
    for column in columns:
        for value in column.values:
            if isinstance(value, float) and value != value:
                return None
            values_by_key.setdefault(hashable_key(value), value)
    try:
        ordered = sorted(values_by_key)
    except TypeError:
        return None
    rank_of = {key: rank for rank, key in enumerate(ordered)}
    pieces = []
    for column, (_store, selection) in zip(columns, scan):
        # The last slot answers code -1 (NULL).
        lookup = np.array([rank_of[hashable_key(v)] for v in column.values] + [-1], dtype=np.int64)
        pieces.append(lookup[_select(column.codes_array(), selection)])
    return np.concatenate(pieces), len(ordered)


def sort_order(
    scan: Scan,
    keys: Sequence[Tuple[Sequence[Any], bool, bool]],
    limit: Optional[int] = None,
) -> Optional[np.ndarray]:
    """Relation row indices in ORDER BY order, or ``None``.

    ``keys`` holds one ``(packed columns, ascending, nulls_last)`` per ORDER
    BY item.  The order equals the executor's multi-pass sort: per key,
    values by Python ordering (reversed for DESC), NULLs in one block first
    or last, ties falling through to the next key, and final ties in input
    order (the sort is stable).  With ``limit``, only the first ``limit``
    entries are returned.
    """
    count = sum(len(store) if selection is None else len(selection) for store, selection in scan)
    dense: List[Tuple[np.ndarray, int]] = []
    for columns, ascending, nulls_last in keys:
        ranked = _ranks(scan, columns)
        if ranked is None:
            return None
        ranks, distinct = ranked
        nulls = ranks < 0
        if not ascending:
            ranks = (distinct - 1) - ranks
        if nulls_last:
            dense.append((np.where(nulls, distinct, ranks), distinct + 1))
        else:
            dense.append((np.where(nulls, 0, ranks + 1), distinct + 1))
    if limit is not None and limit <= 0:
        return np.zeros(0, dtype=np.int64)
    composite = np.zeros(count, dtype=np.int64)
    span = 1
    for key, size in dense:
        if span * size >= _INT64_ROOM:
            # Too wide for one int64: a stable lexsort, primary key last.
            return np.lexsort([key for key, _size in reversed(dense)])[:limit]
        composite = composite * size + key
        span *= size
    if limit is not None and limit < count and span * count < _INT64_ROOM:
        # Top-k: make keys unique (ties broken by row index, as a stable sort
        # does), select the first ``limit`` in O(n), then sort just those.
        unique = composite * count + np.arange(count, dtype=np.int64)
        chosen = np.argpartition(unique, limit - 1)[:limit]
        return chosen[np.argsort(unique[chosen])]
    return np.argsort(composite, kind="stable")[:limit]


def take_rows(scan: Scan, columns: Sequence[Any], rows: np.ndarray) -> List[Any]:
    """Values of one packed column at relation rows ``rows`` (late materialization).

    Typed columns gather with one fancy-index (``tolist`` restores the
    stored Python floats and ints) and patch NULLs back to ``None``;
    dictionary columns gather codes in one code space spanning every
    segment's dictionary, then decode.
    """
    if isinstance(columns[0], TypedColumn):
        values, nulls = _concat_typed(scan, columns)
        taken = values[rows].tolist()
        for row in np.flatnonzero(nulls[rows]).tolist():
            taken[row] = None
        return taken
    decoded: List[Any] = []
    pieces = []
    for column, (_store, selection) in zip(columns, scan):
        codes = _select(column.codes_array(), selection).astype(np.int64)
        pieces.append(np.where(codes < 0, -1, codes + len(decoded)))
        decoded.extend(column.values)
    decoded.append(None)  # code -1 (NULL) reads the last slot
    return [decoded[code] for code in np.concatenate(pieces)[rows].tolist()]
