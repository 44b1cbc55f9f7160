"""Columnar storage: vectorized paths vs the interpreted reference tier.

Every segment stores typed packed columns (:mod:`repro.engine.columnar`).
The compiled tier runs supported WHERE clauses as selection bitmaps over the
packed columns (``ExecutionStats.where_vectorized``); the interpreted tier
(``Database(compiled_execution=False)``) evaluates every row and is the
reference.  The two must be observationally identical — byte-identical
query results, identical DML effects, identical errors.  The one exemption is
the variance family, whose batch kernel matches the interpreted Welford fold
only to round-off, so those queries compare at ``rel=1e-9``.  This suite
runs a query corpus and a mirrored DML script through both tiers, plus unit
tests for the storage layer itself: the None vs NaN round-trip through the
null bitmap, int-overflow demotion to object columns (and the resulting
vectorization fallback), per-segment cache invalidation, and the
rows-touched accounting of bitmap scans.
"""

from __future__ import annotations

import math
import random
import re

import pytest

from repro import Database


def _seed_rows(count: int = 120, seed: int = 7):
    rng = random.Random(seed)
    rows = []
    for i in range(1, count + 1):
        grp = "abc"[i % 3]
        a = None if i % 7 == 0 else rng.uniform(-50.0, 50.0)
        b = None if i % 11 == 0 else float(i % 5) - 2.0
        n = None if i % 13 == 0 else rng.randrange(-1000, 1000)
        s = None if i % 17 == 0 else f"name_{i % 4}"
        rows.append((i, grp, a, b, n, s))
    return rows


def _make_db(compiled: bool, rows) -> Database:
    db = Database(num_segments=4, compiled_execution=compiled)
    db.create_table(
        "t",
        [
            ("id", "integer"),
            ("grp", "text"),
            ("a", "double precision"),
            ("b", "double precision"),
            ("n", "integer"),
            ("s", "text"),
        ],
        distributed_by="id",
    )
    db.load_rows("t", rows)
    return db


def _make_pair(rows):
    """Two databases with identical contents: compiled tier, interpreted tier."""
    return _make_db(True, rows), _make_db(False, rows)


@pytest.fixture(scope="module")
def db_pair():
    return _make_pair(_seed_rows())


#: Aggregates whose batch kernel matches the interpreted fold only to
#: round-off (see docs/engine-execution.md); every other query is exact.
_VARIANCE_FAMILY = re.compile(r"\b(var_pop|var_samp|variance|stddev\w*)\s*\(", re.I)


def _values_identical(left, right, rel=None) -> bool:
    """Byte-identity: same types, same values; NaN equals NaN only.  With
    ``rel``, finite floats only need to agree to that relative tolerance."""
    if type(left) is not type(right):
        return False
    if isinstance(left, float):
        if math.isnan(left) or math.isnan(right):
            return math.isnan(left) and math.isnan(right)
        if rel is not None:
            return left == pytest.approx(right, rel=rel)
        return left == right
    if isinstance(left, (list, tuple)):
        return len(left) == len(right) and all(
            _values_identical(l, r, rel) for l, r in zip(left, right)
        )
    return left == right


def _assert_results_identical(compiled, interpreted, label):
    rel = 1e-9 if _VARIANCE_FAMILY.search(label) else None
    assert compiled.columns == interpreted.columns, label
    assert len(compiled.rows) == len(interpreted.rows), label
    for row_c, row_i in zip(compiled.rows, interpreted.rows):
        assert _values_identical(tuple(row_c), tuple(row_i), rel), (
            f"{label}: {row_c!r} != {row_i!r}"
        )


# Vectorizable WHERE shapes, fallback shapes, aggregates, GROUP BY, joins —
# every query must agree exactly regardless of which path each tier takes.
CORPUS = [
    "SELECT id, a, b FROM t WHERE a < 0 ORDER BY id",
    "SELECT id FROM t WHERE a BETWEEN -10 AND 25 ORDER BY id",
    "SELECT id FROM t WHERE a NOT BETWEEN -10 AND 25 ORDER BY id",
    "SELECT id FROM t WHERE n > 100 AND a <= 0 ORDER BY id",
    "SELECT id FROM t WHERE a IS NULL ORDER BY id",
    "SELECT id FROM t WHERE a IS NOT NULL AND (b > 0 OR n = 3) ORDER BY id",
    "SELECT id FROM t WHERE NOT (a > 0) ORDER BY id",
    "SELECT id FROM t WHERE a - b > 1.5 ORDER BY id",
    "SELECT id FROM t WHERE a * 2 < b ORDER BY id",
    "SELECT id FROM t WHERE -a > 10 ORDER BY id",
    # Text/LIKE/IN now vectorize in code space over dictionary columns;
    # functions remain fallback parity.
    "SELECT id FROM t WHERE grp = 'a' ORDER BY id",
    "SELECT id FROM t WHERE s LIKE 'name_1%' ORDER BY id",
    "SELECT id FROM t WHERE id IN (3, 5, 8) ORDER BY id",
    "SELECT id FROM t WHERE abs(b) > 1 ORDER BY id",
    # Aggregation over bitmap-filtered scans (late materialization path).
    "SELECT count(*) FROM t WHERE a < 0",
    "SELECT count(*), sum(a), avg(a), min(b), max(b) FROM t WHERE a > -20",
    "SELECT sum(n) FROM t WHERE n BETWEEN -500 AND 500",
    "SELECT var_samp(a), stddev(a) FROM t WHERE b IS NOT NULL",
    "SELECT grp, count(*), sum(a) FROM t WHERE a < 10 GROUP BY grp ORDER BY grp",
    "SELECT grp, count(*) FROM t GROUP BY grp HAVING count(*) > 30 ORDER BY grp",
    "SELECT count(DISTINCT grp) FROM t WHERE id > 10",
    "SELECT array_agg(grp) FROM t WHERE id <= 6",
    # Projection / ordering / joins on top of either tier.
    "SELECT id, a + b, grp || '-' || s FROM t ORDER BY id",
    "SELECT id FROM t ORDER BY a DESC, id LIMIT 9",
    "SELECT t1.id, t2.id FROM t t1 JOIN t t2 ON t1.id = t2.id - 1 WHERE t1.a < 0 ORDER BY t1.id",
    "SELECT sub.g, sub.c FROM (SELECT grp AS g, count(*) AS c FROM t WHERE b > -2 GROUP BY grp) sub ORDER BY sub.g",
]


@pytest.mark.parametrize("query", CORPUS)
def test_columnar_matches_interpreted_tier(db_pair, query):
    compiled_db, interpreted_db = db_pair
    _assert_results_identical(
        compiled_db.execute(query), interpreted_db.execute(query), query
    )


DML_SCRIPT = [
    "UPDATE t SET a = a + 1.0 WHERE a < 0",
    "UPDATE t SET b = NULL WHERE n > 800",
    "DELETE FROM t WHERE a BETWEEN 30 AND 40",
    "DELETE FROM t WHERE s LIKE 'name_2%'",
    "INSERT INTO t VALUES (9001, 'z', 1.5, -0.5, 42, 'tail')",
    "UPDATE t SET n = n * 2 WHERE id = 9001",
    "DELETE FROM t WHERE id % 9 = 0",
]


def test_dml_parity_step_by_step():
    compiled_db, interpreted_db = _make_pair(_seed_rows(seed=21))
    probe = "SELECT * FROM t ORDER BY id"
    for statement in DML_SCRIPT:
        result_c = compiled_db.execute(statement)
        result_i = interpreted_db.execute(statement)
        assert result_c.rowcount == result_i.rowcount, statement
        _assert_results_identical(
            compiled_db.execute(probe), interpreted_db.execute(probe), statement
        )


@pytest.mark.parametrize("rows", [[], [(1, "a", 2.5, None, 7, "one")]])
def test_empty_and_single_row_tables(rows):
    compiled_db, interpreted_db = _make_pair(rows)
    for query in [
        "SELECT * FROM t ORDER BY id",
        "SELECT count(*), sum(a) FROM t WHERE a > 0",
        "SELECT id FROM t WHERE a BETWEEN 0 AND 10",
    ]:
        _assert_results_identical(
            compiled_db.execute(query), interpreted_db.execute(query), query
        )
    assert compiled_db.execute("DELETE FROM t WHERE a < 100").rowcount == (
        interpreted_db.execute("DELETE FROM t WHERE a < 100").rowcount
    )


def test_null_heavy_table_parity():
    rows = [(i, None, None, None, None, None) for i in range(1, 41)]
    compiled_db, interpreted_db = _make_pair(rows)
    for query in [
        "SELECT * FROM t ORDER BY id",
        "SELECT count(a), count(*) FROM t",
        "SELECT id FROM t WHERE a IS NULL ORDER BY id",
        "SELECT id FROM t WHERE a > 0 ORDER BY id",
        "SELECT sum(a), avg(b) FROM t WHERE b IS NOT NULL",
    ]:
        _assert_results_identical(
            compiled_db.execute(query), interpreted_db.execute(query), query
        )


# ---------------------------------------------------------------------------
# Storage-layer behavior
# ---------------------------------------------------------------------------


def test_none_vs_nan_round_trip():
    """The null bitmap keeps stored None distinct from a genuine float NaN."""
    db = Database(num_segments=2)
    db.create_table("f", [("id", "integer"), ("x", "double precision")])
    db.load_rows("f", [(1, None), (2, float("nan")), (3, 1.25)])
    by_id = {row[0]: row[1] for row in db.execute("SELECT id, x FROM f").rows}
    assert by_id[1] is None
    assert isinstance(by_id[2], float) and math.isnan(by_id[2])
    assert by_id[3] == 1.25
    # Both None and NaN are SQL NULL for predicates and strict aggregates.
    assert db.query_scalar("SELECT count(x) FROM f") == 1
    assert db.query_scalar("SELECT count(*) FROM f WHERE x IS NULL") == 2


def test_int_overflow_demotes_column_and_falls_back():
    """A value outside int64 demotes the packed column to an object list;
    queries still answer exactly, just without the vectorized path."""
    db = Database(num_segments=2)
    db.create_table("big", [("id", "integer"), ("v", "bigint")])
    db.load_rows("big", [(1, 10), (2, 2**70), (3, -5), (4, None)])
    table = db.catalog.get_table("big")
    assert any(
        table.column_store(segment).numeric_view(1) is None
        for segment in range(table.num_segments)
        if len(table.column_store(segment))
    )
    rows = db.execute("SELECT id, v FROM big ORDER BY id").rows
    assert rows == [(1, 10), (2, 2**70), (3, -5), (4, None)]
    result = db.execute("SELECT id FROM big WHERE v > 0 ORDER BY id")
    assert [row[0] for row in result.rows] == [1, 2]
    assert result.stats.where_vectorized is False


def test_vectorized_scan_stats_and_accounting():
    """rows_scanned counts bitmap width (rows touched); rows_matched the
    popcount; selectivity is their ratio."""
    compiled_db, interpreted_db = _make_pair(_seed_rows())
    total = compiled_db.query_scalar("SELECT count(*) FROM t")
    query = "SELECT count(*) FROM t WHERE a < 0"
    result = compiled_db.execute(query)
    assert result.stats.where_vectorized is True
    assert result.stats.rows_scanned == total
    matched = result.stats.rows_matched
    assert result.stats.bitmap_selectivity == pytest.approx(matched / total)
    assert result.stats.scan_details[0].vectorized is True
    # The interpreted tier answers identically but never vectorizes.
    interpreted_result = interpreted_db.execute(query)
    assert interpreted_result.rows == result.rows
    assert interpreted_result.stats.where_vectorized is False
    assert interpreted_result.stats.bitmap_selectivity is None


def test_dml_stats_report_vectorized_where():
    compiled_db, _ = _make_pair(_seed_rows(seed=3))
    delete = compiled_db.execute("DELETE FROM t WHERE a < -25")
    assert delete.stats.where_vectorized is True
    assert delete.stats.rows_matched == delete.rowcount
    update = compiled_db.execute("UPDATE t SET b = 0.0 WHERE a > 25")
    assert update.stats.where_vectorized is True
    # Text equality runs in code space over the dictionary-encoded column.
    text_delete = compiled_db.execute("DELETE FROM t WHERE grp = 'a'")
    assert text_delete.stats.where_vectorized is True
    # Function calls stay outside the vector subset → row path, same effect.
    fallback = compiled_db.execute("DELETE FROM t WHERE abs(a) > 90")
    assert fallback.stats.where_vectorized is False


def test_explain_analyze_renders_vectorized_flag(db_pair):
    compiled_db, interpreted_db = db_pair
    plan_c = "\n".join(
        row[0]
        for row in compiled_db.execute(
            "EXPLAIN ANALYZE SELECT count(*) FROM t WHERE a < 0"
        ).rows
    )
    assert "Vectorized: yes" in plan_c
    plan_i = "\n".join(
        row[0]
        for row in interpreted_db.execute(
            "EXPLAIN ANALYZE SELECT count(*) FROM t WHERE a < 0"
        ).rows
    )
    assert "Vectorized: no" in plan_i


def test_per_segment_row_view_invalidation():
    """Regression: mutating one segment must not invalidate other segments'
    cached row-tuple views (each ColumnStore caches its own)."""
    db = Database(num_segments=3)
    db.create_table("c", [("id", "integer"), ("x", "double precision")])
    table = db.catalog.get_table("c")
    # Round-robin placement: rows land on segments 0, 1, 2, 0, ...
    table.insert((1, 1.0))
    table.insert((2, 2.0))
    table.insert((3, 3.0))
    warm = [table.segment_view(segment) for segment in range(3)]
    table.insert((4, 4.0))  # round-robin cursor → segment 0
    assert table.segment_view(1) is warm[1]
    assert table.segment_view(2) is warm[2]
    assert table.segment_view(0) is not warm[0]
    assert [row[0] for row in table.segment_view(0)] == [1, 4]


def test_column_store_take_preserves_values():
    """keep_positions (bitmap DELETE) preserves exact values and nulls."""
    db = Database(num_segments=1)
    db.create_table("k", [("id", "integer"), ("x", "double precision")])
    db.load_rows(
        "k", [(1, 1.5), (2, None), (3, float("nan")), (4, -0.0), (5, 2.5)]
    )
    db.execute("DELETE FROM k WHERE id = 5")
    rows = db.execute("SELECT id, x FROM k ORDER BY id").rows
    assert rows[0] == (1, 1.5)
    assert rows[1][1] is None
    assert isinstance(rows[2][1], float) and math.isnan(rows[2][1])
    assert rows[3][1] == 0.0 and math.copysign(1.0, rows[3][1]) == -1.0


def test_large_int_comparison_against_float_falls_back_exactly():
    """int64 values beyond 2**53 compare exactly (the vector path must
    abort rather than round through float64)."""
    huge = 2**53 + 1
    compiled_db, interpreted_db = _make_pair([])
    for db in (compiled_db, interpreted_db):
        db.create_table("p", [("id", "integer"), ("v", "bigint")])
        db.load_rows("p", [(1, huge), (2, huge - 1), (3, 0)])
    query = f"SELECT id FROM p WHERE v > {float(2**53)!r} ORDER BY id"
    _assert_results_identical(
        compiled_db.execute(query), interpreted_db.execute(query), query
    )
