"""Compiled/vectorized vs interpreted execution parity.

The engine has two execution tiers (``docs/engine-execution.md``): the
compiled fast path (positional-row closures + batched aggregate transitions)
and the interpreted row-at-a-time fallback.  They must be observationally
identical.  This suite runs a corpus of SELECTs — filters, arithmetic, NULL
semantics, GROUP BY, segmented aggregates, ORDER BY, CASE, LIKE, casts,
subscripts — through both tiers and asserts ``repr``-identical results,
including NULL propagation in comparisons and ``_divide``.  The variance
family is the one exemption: its batch kernel matches the interpreted
Welford fold only to round-off, so those queries compare at ``rel=1e-9``.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from repro import Database


def _make_pair(num_segments: int = 4):
    """Two databases with identical contents: compiled on, compiled off."""
    pair = []
    for compiled in (True, False):
        db = Database(num_segments=num_segments, compiled_execution=compiled)
        db.create_table(
            "t",
            [
                ("id", "integer"),
                ("grp", "text"),
                ("a", "double precision"),
                ("b", "double precision"),
                ("s", "text"),
                ("arr", "double precision[]"),
            ],
            distributed_by="id",
        )
        rows = []
        for i in range(1, 61):
            grp = "abc"[i % 3]
            a = None if i % 7 == 0 else float(i) * 1.5
            b = None if i % 11 == 0 else float(i % 5) - 2.0
            s = None if i % 13 == 0 else f"name_{i % 4}"
            arr = None if i % 17 == 0 else [float(i), float(i % 3), 1.0]
            rows.append((i, grp, a, b, s, arr))
        db.load_rows("t", rows)
        pair.append(db)
    return pair


@pytest.fixture(scope="module")
def db_pair():
    return _make_pair()


CORPUS = [
    # Projection and scalar arithmetic.
    "SELECT id, a + b, a - b, a * 2, -a FROM t ORDER BY id",
    "SELECT id, a / b FROM t WHERE b <> 0 ORDER BY id",
    "SELECT 7 / 2, 7.0 / 2, 5 % 3, 2 ^ 10 FROM t WHERE id = 1",
    # NULL semantics in comparisons and logic.
    "SELECT id FROM t WHERE a > 10 ORDER BY id",
    "SELECT id FROM t WHERE a IS NULL ORDER BY id",
    "SELECT id FROM t WHERE a IS NOT NULL AND b IS NULL ORDER BY id",
    "SELECT id, a = b, a <> b, a < b FROM t ORDER BY id",
    "SELECT id FROM t WHERE a > 5 AND b < 1 ORDER BY id",
    "SELECT id FROM t WHERE a > 80 OR b > 1 ORDER BY id",
    "SELECT id FROM t WHERE NOT (a > 10) ORDER BY id",
    "SELECT id FROM t WHERE a BETWEEN 10 AND 40 ORDER BY id",
    "SELECT id FROM t WHERE grp IN ('a', 'c') ORDER BY id",
    "SELECT id FROM t WHERE s LIKE 'name%' ORDER BY id",
    "SELECT id, s LIKE 'name_1' FROM t ORDER BY id",
    # CASE, casts, subscripts, functions, concatenation.
    "SELECT id, CASE WHEN a > 30 THEN 'big' WHEN a > 10 THEN 'mid' ELSE 'small' END FROM t ORDER BY id",
    "SELECT id, CAST(a AS text), CAST(id AS double precision) FROM t ORDER BY id",
    "SELECT id, arr[1], arr[5] FROM t ORDER BY id",
    "SELECT id, abs(b), coalesce(a, 0.0) FROM t ORDER BY id",
    "SELECT id, grp || '-' || s FROM t ORDER BY id",
    # Aggregates over the segmented path (columnar + batched kernels).
    "SELECT count(*) FROM t",
    "SELECT count(a), sum(a), avg(a), min(a), max(a) FROM t",
    "SELECT var_samp(a), var_pop(a), stddev(a), stddev_pop(a) FROM t",
    "SELECT bool_and(a > 0), bool_or(b > 1) FROM t",
    "SELECT vector_sum(arr) FROM t",
    "SELECT sum(a + b), avg(a * 2) FROM t",
    "SELECT count(DISTINCT grp) FROM t",
    # Order-sensitive aggregates (always row-at-a-time).
    "SELECT array_agg(grp) FROM t WHERE id <= 5",
    "SELECT string_agg(grp, ',') FROM t WHERE id <= 5",
    "SELECT string_agg(grp) FROM t WHERE id <= 5",
    # GROUP BY / HAVING / ORDER BY over aggregates.
    "SELECT grp, count(*), sum(a), avg(b) FROM t GROUP BY grp ORDER BY grp",
    "SELECT grp, count(*) FROM t GROUP BY grp HAVING count(*) > 15 ORDER BY grp",
    "SELECT grp, stddev(a) FROM t WHERE a IS NOT NULL GROUP BY grp ORDER BY grp",
    "SELECT id % 4, max(a) FROM t GROUP BY id % 4 ORDER BY 1",
    # DISTINCT / LIMIT / OFFSET.
    "SELECT DISTINCT grp FROM t ORDER BY grp",
    "SELECT id FROM t ORDER BY a DESC LIMIT 5",
    "SELECT id FROM t ORDER BY b, id LIMIT 7 OFFSET 3",
    # Joins and subqueries (fall back where needed, must still agree).
    "SELECT t1.id, t2.id FROM t t1 JOIN t t2 ON t1.id = t2.id - 1 WHERE t1.id < 5 ORDER BY t1.id",
    "SELECT sub.g, sub.n FROM (SELECT grp AS g, count(*) AS n FROM t GROUP BY grp) sub ORDER BY sub.g",
    "SELECT count(*) FROM generate_series(1, 100) AS gs(n)",
]


#: Aggregates held to ``rel=1e-9`` instead of ``repr`` identity.
_VARIANCE_FAMILY = re.compile(r"\b(var_pop|var_samp|variance|stddev\w*)\s*\(", re.I)


def _exact(value):
    """A ``repr``-comparable form: ndarrays by dtype and full-precision values."""
    if isinstance(value, np.ndarray):
        return ("ndarray", str(value.dtype), value.tolist())
    if isinstance(value, (list, tuple)):
        return type(value)(_exact(item) for item in value)
    return value


def _assert_value_equal(left, right, query):
    """Variance-family comparison: finite floats at ``rel=1e-9``, all else exact."""
    if isinstance(left, (list, tuple)) and isinstance(right, (list, tuple)):
        assert len(left) == len(right), f"{query}: length mismatch"
        for l, r in zip(left, right):
            _assert_value_equal(l, r, query)
    elif isinstance(left, float) and isinstance(right, float) and not math.isnan(left):
        assert left == pytest.approx(right, rel=1e-9), f"{query}: {left!r} != {right!r}"
    else:
        assert repr(left) == repr(right), f"{query}: {left!r} != {right!r}"


def _assert_results_equal(compiled, interpreted, query):
    assert compiled.columns == interpreted.columns, query
    assert len(compiled.rows) == len(interpreted.rows), query
    if not _VARIANCE_FAMILY.search(query):
        assert repr(_exact(compiled.rows)) == repr(_exact(interpreted.rows)), query
        return
    for row_c, row_i in zip(compiled.rows, interpreted.rows):
        _assert_value_equal(list(row_c), list(row_i), query)


@pytest.mark.parametrize("query", CORPUS)
def test_compiled_matches_interpreted(db_pair, query):
    compiled_db, interpreted_db = db_pair
    _assert_results_equal(compiled_db.execute(query), interpreted_db.execute(query), query)


def test_null_propagation_in_divide(db_pair):
    compiled_db, interpreted_db = db_pair
    query = "SELECT id, a / b FROM t WHERE b IS NULL OR a IS NULL ORDER BY id"
    _assert_results_equal(compiled_db.execute(query), interpreted_db.execute(query), query)
    # NULL / x and x / NULL are NULL on both tiers, never a division error.
    for db in db_pair:
        rows = db.execute(query).rows
        assert rows and all(row[1] is None for row in rows)


def test_division_by_zero_raised_on_both_tiers(db_pair):
    from repro.errors import ExecutionError

    for db in db_pair:
        with pytest.raises(ExecutionError):
            db.execute("SELECT a / 0 FROM t WHERE a IS NOT NULL")


def test_parameters_bind_on_both_tiers(db_pair):
    query = "SELECT count(*) FROM t WHERE a > %(low)s"
    compiled_db, interpreted_db = db_pair
    assert compiled_db.query_scalar(query, {"low": 20.0}) == interpreted_db.query_scalar(
        query, {"low": 20.0}
    )


def test_segmented_linregr_parity():
    from repro.datasets import make_regression, load_regression_table
    from repro.methods import linear_regression

    results = []
    for compiled in (True, False):
        db = Database(num_segments=6, compiled_execution=compiled)
        data = make_regression(500, 8, noise=0.3, seed=23)
        load_regression_table(db, "data", data)
        results.append(linear_regression.train(db, "data"))
    fast, slow = results
    np.testing.assert_allclose(fast.coef, slow.coef, rtol=1e-8)
    np.testing.assert_allclose(fast.std_err, slow.std_err, rtol=1e-6)
    assert fast.num_rows == slow.num_rows
    assert fast.r2 == pytest.approx(slow.r2, rel=1e-8)
