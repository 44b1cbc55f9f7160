"""Vectorized GROUP BY and ORDER BY over packed columns: parity and coverage.

Every case runs on three databases with identical contents: the default
configuration, where eligible statements group and sort on the packed
columns, and two references — ``compiled_execution=False`` (the interpreted
tier, which never does) and ``columnar_compression=False`` (no
dictionaries).  Results must be repr-equal, which
tells ``-0.0`` from ``0.0``, NaN from NULL and ``1`` from ``1.0``.

The ``group_vectorized`` / ``order_vectorized`` flags are asserted too, so a
case that silently fell back to the per-row path cannot pass as coverage.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import Database
from repro.engine import columnar

REFERENCES = (
    {"compiled_execution": False},
    {"columnar_compression": False},
)

COLUMNS = [("id", "integer"), ("k", "integer"), ("x", "double precision"), ("t", "text")]


def _databases(rows, columns=COLUMNS, num_segments=4):
    databases = []
    for config in ({},) + REFERENCES:
        db = Database(num_segments=num_segments, **config)
        db.create_table("t", columns)
        db.load_rows("t", rows)
        databases.append(db)
    return databases


def _check(databases, sql, *, group=None, order=None):
    """Assert repr-equal results everywhere; return the default database's result."""
    results = [db.execute(sql) for db in databases]
    first = results[0]
    for config, other in zip(REFERENCES, results[1:]):
        assert first.columns == other.columns, (sql, config)
        assert repr(first.rows) == repr(other.rows), (sql, config, first.rows, other.rows)
    if group is not None:
        assert first.stats.group_vectorized is group, sql
    if order is not None:
        assert first.stats.order_vectorized is order, sql
    # The interpreted tier never takes the new paths (without dictionaries,
    # packed numeric keys still do).
    interpreted = results[1]
    assert not interpreted.stats.group_vectorized, sql
    assert not interpreted.stats.order_vectorized, sql
    return first


def _mixed_rows(count=60):
    rng = np.random.default_rng(7)
    rows = []
    for i in range(count):
        k = None if i % 7 == 3 else int(rng.integers(0, 6))
        x = None if i % 11 == 5 else float(rng.integers(-3, 4)) / 2
        t = None if i % 5 == 1 else f"s{int(rng.integers(0, 5))}"
        rows.append((i, k, x, t))
    return rows


@pytest.fixture(scope="module")
def mixed():
    return _databases(_mixed_rows())


# ---------------------------------------------------------------------------
# GROUP BY
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("key", ["k", "x", "t"])
def test_group_by_with_null_keys(mixed, key):
    result = _check(
        mixed, f"SELECT {key}, count(*), sum(x), min(id), max(t) FROM t GROUP BY {key}",
        group=True,
    )
    assert None in [row[0] for row in result.rows]


def test_negative_and_positive_zero_share_a_group():
    rows = [(0, 1, -0.0, "a"), (1, 1, 0.0, "a"), (2, 2, 0.0, "b"), (3, 2, -0.0, "b"),
            (4, 3, 1.5, "c"), (5, 3, 0.0, "c")]
    databases = _databases(rows)
    result = _check(databases, "SELECT x, count(*) FROM t GROUP BY x", group=True)
    assert repr(result.rows) == "[(-0.0, 5), (1.5, 1)]"
    _check(databases, "SELECT k, x, count(*) FROM t GROUP BY k, x", group=True)


def test_ints_beyond_float_precision():
    big = 2 ** 53
    rows = [(i, big + (i % 3), float(i), "a") for i in range(12)]
    rows.append((12, 2 ** 62, 0.5, "b"))
    rows.append((13, -(2 ** 63), 0.5, "b"))
    databases = _databases(rows)
    result = _check(databases, "SELECT k, count(*) FROM t GROUP BY k", group=True)
    assert [row[0] for row in result.rows][:3] == [big, big + 1, big + 2]
    _check(databases, "SELECT k, id FROM t ORDER BY k DESC, id", order=True)
    _check(databases, "SELECT k, id FROM t ORDER BY k, id LIMIT 4", order=True)


def test_group_first_seen_in_a_later_segment():
    # Round-robin placement: row i lives on segment i % 4, and only rows on
    # segment 3 carry the key 'late', so it appears after every key of
    # segments 0-2 in scan order although row 3 is the fourth row loaded.
    rows = [(i, i % 4, float(i), "late" if i % 4 == 3 else f"g{i % 3}") for i in range(40)]
    databases = _databases(rows)
    result = _check(databases, "SELECT t, count(*), sum(x) FROM t GROUP BY t", group=True)
    assert result.rows[-1][0] == "late"


def test_empty_and_one_row_tables():
    empty = _databases([])
    assert _check(empty, "SELECT k, count(*) FROM t GROUP BY k", group=True).rows == []
    _check(empty, "SELECT count(*), sum(x) FROM t")
    _check(empty, "SELECT id FROM t ORDER BY x DESC LIMIT 3", order=True)
    one = _databases([(1, None, 2.5, "only")])
    _check(one, "SELECT k, t, count(*), sum(x) FROM t GROUP BY k, t", group=True)
    _check(one, "SELECT t, id FROM t ORDER BY t, id", order=True)


def test_bitmap_where_with_group_by(mixed):
    result = _check(
        mixed, "SELECT t, count(*), sum(x), avg(k) FROM t WHERE x > -1.0 GROUP BY t",
        group=True,
    )
    assert result.stats.where_vectorized


def test_having(mixed):
    _check(mixed, "SELECT k, count(*) FROM t GROUP BY k HAVING count(*) > 9", group=True)


def test_multi_key_int_text(mixed):
    _check(mixed, "SELECT k, t, count(*), sum(x) FROM t GROUP BY k, t", group=True)
    _check(mixed, "SELECT t, k, max(id) FROM t GROUP BY t, k ORDER BY t, k", group=True)


def test_count_distinct(mixed):
    _check(mixed, "SELECT k, count(DISTINCT t), count(DISTINCT x) FROM t GROUP BY k",
           group=True)


def test_order_sensitive_aggregates_keep_row_order(mixed):
    _check(mixed, "SELECT k, string_agg(t, ','), array_agg(id) FROM t GROUP BY k",
           group=True)


def test_groups_under_eight_rows():
    rows = [(i, i % 9, float(i) * 0.1, f"u{i}") for i in range(30)]
    databases = _databases(rows)
    _check(databases, "SELECT k, count(*), sum(x), avg(x) FROM t GROUP BY k", group=True)
    _check(databases, "SELECT t, sum(x) FROM t GROUP BY t", group=True)


def test_group_by_without_aggregates(mixed):
    _check(mixed, "SELECT t, k FROM t GROUP BY t, k", group=True)
    _check(mixed, "SELECT k * 2 FROM t GROUP BY k * 2", group=False)


def test_ungrouped_aggregates_over_computed_arguments(mixed):
    _check(mixed, "SELECT count(*), sum(x * 2), count(DISTINCT t) FROM t")
    _check(mixed, "SELECT sum(x), max(t) FROM t WHERE abs(x) > 0.5")


def test_computed_arguments_fold_from_one_pass(mixed):
    _check(mixed, "SELECT t, sum(x * 2), count(k + 1) FROM t GROUP BY t", group=True)


# ---------------------------------------------------------------------------
# ORDER BY
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("column", ["k", "x", "t"])
@pytest.mark.parametrize("direction", ["", " DESC"])
@pytest.mark.parametrize("nulls", ["", " NULLS FIRST", " NULLS LAST"])
def test_order_by_direction_and_nulls(mixed, column, direction, nulls):
    sql = f"SELECT id, {column} FROM t ORDER BY {column}{direction}{nulls}"
    _check(mixed, sql, order=True)
    _check(mixed, sql + " LIMIT 7", order=True)
    _check(mixed, f"SELECT id FROM t ORDER BY {column}{direction}{nulls}, x DESC, id LIMIT 5",
           order=True)


def test_ordinal_and_alias_keys(mixed):
    _check(mixed, "SELECT t, id FROM t ORDER BY 1 DESC, 2", order=True)
    _check(mixed, "SELECT x AS id, id AS x FROM t ORDER BY id, x", order=True)
    _check(mixed, "SELECT id, t AS label FROM t ORDER BY label NULLS FIRST, id", order=True)


def test_limit_offset(mixed):
    _check(mixed, "SELECT id, x FROM t ORDER BY x DESC, id LIMIT 5 OFFSET 3", order=True)
    _check(mixed, "SELECT id FROM t ORDER BY t LIMIT 0", order=True)
    _check(mixed, "SELECT id FROM t ORDER BY k LIMIT 500 OFFSET 50", order=True)


def test_computed_select_items_still_project_every_row(mixed):
    _check(mixed, "SELECT id, x * 2, k + 1 FROM t ORDER BY t DESC, id LIMIT 4", order=True)
    _check(mixed, "SELECT DISTINCT t FROM t ORDER BY t", order=True)


def test_bitmap_where_with_order_by(mixed):
    result = _check(mixed, "SELECT id, t FROM t WHERE k >= 2 ORDER BY t, id DESC LIMIT 9",
                    order=True)
    assert result.stats.where_vectorized


# ---------------------------------------------------------------------------
# Declines: each falls back to the per-row path, with the flag clear
# ---------------------------------------------------------------------------


def test_demoted_dictionary_column_declines(monkeypatch):
    monkeypatch.setattr(columnar.DictColumn, "MAX_DISTINCT", 3)
    databases = _databases(_mixed_rows())
    _check(databases, "SELECT t, count(*) FROM t GROUP BY t", group=False)
    _check(databases, "SELECT id, t FROM t ORDER BY t, id", order=False)
    # The integer key is still packed.
    _check(databases, "SELECT k, count(*) FROM t GROUP BY k", group=True)


def test_int_beyond_int64_demotes_and_declines():
    rows = [(i, i % 3, 1.0, "a") for i in range(8)] + [(8, 2 ** 64, 1.0, "a")]
    databases = _databases(rows)
    _check(databases, "SELECT k, count(*) FROM t GROUP BY k", group=False)
    _check(databases, "SELECT id FROM t ORDER BY k, id", order=False)


def test_nan_keys_group_but_do_not_sort():
    nan = float("nan")
    rows = [(0, 1, nan, "a"), (1, 1, None, "a"), (2, 2, nan, "b"), (3, 2, 1.0, "b"),
            (4, 3, nan, "c"), (5, 3, None, "c")]
    databases = _databases(rows)
    result = _check(databases, "SELECT x, count(*) FROM t GROUP BY x", group=True)
    assert repr(result.rows) == "[(nan, 3), (None, 2), (1.0, 1)]"
    _check(databases, "SELECT id FROM t ORDER BY x, id", order=False)
    _check(databases, "SELECT id FROM t ORDER BY x, id LIMIT 2", order=False)


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT k % 2, count(*) FROM t GROUP BY k % 2",
        "SELECT count(*) FROM t GROUP BY k, t || 'z'",
        "SELECT k, count(*) FROM t WHERE lower(t) = 's1' OR abs(x) > 0 GROUP BY k",
        "SELECT s.k, count(*) FROM (SELECT k FROM t) s GROUP BY s.k",
        "SELECT a.k, count(*) FROM t a JOIN t b ON a.id = b.id GROUP BY a.k",
    ],
)
def test_group_by_declines(mixed, sql):
    _check(mixed, sql, group=False)


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT id FROM t ORDER BY x * 2, id",
        "SELECT id FROM t ORDER BY -k, id LIMIT 3",
        "SELECT s.id FROM (SELECT id, k FROM t) s ORDER BY s.k, s.id",
        "SELECT a.id FROM t a JOIN t b ON a.id = b.id ORDER BY a.t, a.id",
        "SELECT id, sum(x) OVER (PARTITION BY k) FROM t ORDER BY id",
    ],
)
def test_order_by_declines(mixed, sql):
    _check(mixed, sql, order=False)


def test_index_scan_and_matview_decline():
    databases = _databases(_mixed_rows(300))
    for db in databases:
        db.execute("CREATE INDEX t_id ON t (id)")
        db.execute("ANALYZE")
    result = _check(databases, "SELECT k, count(*) FROM t WHERE id < 20 GROUP BY k",
                    group=False)
    assert result.stats.scan_details[0].access == "index"
    _check(databases, "SELECT id, t FROM t WHERE id < 20 ORDER BY t, id", order=False)
    for db in databases:
        db.execute("CREATE MATERIALIZED VIEW v AS SELECT k, count(*) AS n FROM t GROUP BY k")
    _check(databases, "SELECT n, count(*) FROM v GROUP BY n", group=False)
    _check(databases, "SELECT k FROM v ORDER BY n, k", order=False)


def test_residual_where_declines(mixed):
    _check(mixed, "SELECT id FROM t WHERE abs(x) > 0 ORDER BY t, id", order=False)


# ---------------------------------------------------------------------------
# NaN keys: one group, apart from NULL, on every path
# ---------------------------------------------------------------------------

_NAN_ROWS = [(0, 1, float("nan"), "a"), (1, 2, None, "b"), (2, 1, float("nan"), "c"),
             (3, 2, 1.0, "d"), (4, 3, float("nan"), "e"), (5, 3, None, "f")]


@pytest.fixture(scope="module")
def nan_databases():
    return _databases(_NAN_ROWS)


def test_nan_group_by_and_distinct(nan_databases):
    result = _check(nan_databases, "SELECT x, count(*) FROM t GROUP BY x")
    assert repr(result.rows) == "[(nan, 3), (None, 2), (1.0, 1)]"
    result = _check(nan_databases, "SELECT DISTINCT x FROM t")
    assert repr(result.rows) == "[(nan,), (None,), (1.0,)]"
    result = _check(nan_databases, "SELECT x FROM t UNION SELECT x FROM t WHERE k = 1")
    assert repr(result.rows) == "[(nan,), (None,), (1.0,)]"


def test_nan_partition_by(nan_databases):
    result = _check(nan_databases, "SELECT id, count(*) OVER (PARTITION BY x) FROM t")
    assert sorted(result.rows) == [(0, 3), (1, 2), (2, 3), (3, 1), (4, 3), (5, 2)]


def test_nan_incremental_matview():
    databases = _databases(_NAN_ROWS[:2])
    for db in databases:
        db.create_table("src", COLUMNS)
        db.load_rows("src", _NAN_ROWS[2:])
        db.execute("CREATE MATERIALIZED VIEW v AS SELECT x, count(*) AS n FROM t GROUP BY x")
        stats = db.execute("INSERT INTO t SELECT * FROM src").stats
        assert stats.matview_deltas_applied == 1
    result = _check(databases, "SELECT * FROM v")
    assert repr(result.rows) == "[(nan, 3), (None, 2), (1.0, 1)]"


def test_nan_parallel_grouped_dispatch(nan_databases):
    db = Database(num_segments=4, parallel=2)
    try:
        db.worker_pool.min_dispatch_rows = 0  # dispatch every grouped statement
        db.create_table("t", COLUMNS)
        db.load_rows("t", _NAN_ROWS)
        result = db.execute("SELECT x, count(*) FROM t GROUP BY x")
        assert result.stats.aggregate_timings[0].grouped_dispatch
        expected = nan_databases[1].execute("SELECT x, count(*) FROM t GROUP BY x")
        assert repr(result.rows) == repr(expected.rows) == "[(nan, 3), (None, 2), (1.0, 1)]"
    finally:
        db.close()


# ---------------------------------------------------------------------------
# Random statements over awkward values
# ---------------------------------------------------------------------------

_AWKWARD = {
    "k": [0, 1, 2, -3, 2 ** 53 + 1, 2 ** 62, -(2 ** 63)],
    "x": [-0.0, 0.0, float("nan"), 0.5, -2.25, 1e300],
    "t": ["a", "b", "B", "", "a b"],
}


def _random_statement(rng):
    where = rng.choice(["", " WHERE k > 0", " WHERE x < 1.0", " WHERE t = 'a'",
                        " WHERE abs(k) > 1"])
    if rng.random() < 0.5:
        keys = ", ".join(rng.sample(["k", "x", "t"], rng.randrange(1, 4)))
        aggregates = ", ".join(rng.sample(
            ["count(*)", "sum(x)", "min(t)", "max(k)", "avg(x)", "count(DISTINCT t)",
             "string_agg(t, '|')", "array_agg(id)", "sum(x * 2)", "count(x)"], 3))
        return f"SELECT {keys}, {aggregates} FROM t{where} GROUP BY {keys}"
    keys = ", ".join(
        rng.choice(["id", "k", "x", "t"]) + rng.choice(["", " DESC"])
        + rng.choice(["", " NULLS FIRST", " NULLS LAST"])
        for _ in range(rng.randrange(1, 4))
    )
    limit = rng.choice(["", f" LIMIT {rng.randrange(0, 20)}",
                        f" LIMIT {rng.randrange(1, 8)} OFFSET {rng.randrange(0, 8)}"])
    return f"SELECT id, t, x FROM t{where} ORDER BY {keys}{limit}"


@pytest.mark.parametrize("seed", range(12))
def test_random_statements_match_every_reference(seed):
    rng = random.Random(seed)
    rows = []
    for i in range(rng.randrange(0, 60)):
        row = [i]
        for name in ("k", "x", "t"):
            row.append(None if rng.random() < 0.15 else rng.choice(_AWKWARD[name]))
        rows.append(tuple(row))
    databases = _databases(rows, num_segments=rng.randrange(1, 5))
    for _ in range(10):
        _check(databases, _random_statement(rng))


# ---------------------------------------------------------------------------
# The benchmark's shapes take the new paths
# ---------------------------------------------------------------------------


def test_olap_mix_shapes_take_the_vectorized_paths():
    from perfbench import olap_mix

    inputs = olap_mix.make_inputs(1)
    shapes = {shape.name: shape.sql for shape in olap_mix.make_shapes(inputs)}
    count = 2000
    rows = list(zip(inputs.ids[:count].tolist(), inputs.k[:count].tolist(),
                    inputs.d[:count].tolist(), inputs.v[:count].tolist(),
                    inputs.w[:count].tolist(), [f"c{c:02d}" for c in inputs.cat[:count]]))
    db = Database(num_segments=olap_mix.SEGMENTS)
    db.create_table("fact", [("id", "integer"), ("k", "integer"), ("d", "integer"),
                             ("v", "double precision"), ("w", "double precision"),
                             ("cat", "text")])
    db.load_rows("fact", rows)
    for name in ("groupby_int", "groupby_text"):
        assert db.execute(shapes[name]).stats.group_vectorized, name
    for name in ("order_by", "top10"):
        assert db.execute(shapes[name]).stats.order_vectorized, name
    for name in ("filtered_sum", "sum"):
        stats = db.execute(shapes[name]).stats
        assert not stats.group_vectorized and not stats.order_vectorized, name


def test_explain_analyze_reports_vectorized_group_and_sort(mixed):
    db = mixed[0]
    text = db.explain("SELECT k, count(*) FROM t GROUP BY k ORDER BY k", analyze=True)
    lines = text.splitlines()
    aggregate = lines.index(next(line for line in lines if "HashAggregate" in line))
    assert "Vectorized: yes" in lines[aggregate + 1]
    sort = lines.index(next(line for line in lines if "Sort" in line))
    assert "Vectorized: no" in lines[sort + 1]  # the sort runs over group output
    text = db.explain("SELECT id FROM t ORDER BY x DESC LIMIT 3", analyze=True)
    lines = text.splitlines()
    sort = lines.index(next(line for line in lines if "Sort" in line))
    assert "Vectorized: yes" in lines[sort + 1]
    text = db.explain("SELECT k % 2, count(*) FROM t GROUP BY k % 2", analyze=True)
    assert "Vectorized: no" in text
    assert "Vectorized" not in db.explain("SELECT k, count(*) FROM t GROUP BY k")
