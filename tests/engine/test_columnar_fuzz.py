"""Randomized storage-parity fuzzing across three engine configurations.

Every scenario builds three databases with identical contents — dictionary
compression on (the default), ``compiled_execution=False`` (the interpreted
tier, which never vectorizes a WHERE), and ``columnar_compression=False``
(packed columns, no dictionaries) — then runs a randomized script of DML and
queries against all three.  After every mutation the full table must be
byte-identical across configurations (type-exact values, NaN round-trips as
NaN, None as None), DML rowcounts must agree, and every SELECT must agree on
its result set.  The two compiled configurations must also agree on their
``ExecutionStats`` row accounting (``rows_scanned`` / ``rows_matched``); the
interpreted tier is left out of that check because it never takes an index
scan, so it touches every row where the others probe an index.

A quarter of the seeds shrink ``DictColumn.MAX_DISTINCT`` to a handful of
codes so that high-cardinality text columns demote from dictionary to plain
object storage *mid-script*, proving demotion is observationally invisible.

Scenarios are seeded and fully reproducible: a failure names its seed.
"""

from __future__ import annotations

import math
import random

import pytest

from repro import Database
from repro.engine import columnar


SEEDS = list(range(25))
ROUNDS = 8  # DML+query rounds per seed; 25 seeds x 8 rounds = 200 scenarios

_LOW_CARD = ["alpha", "beta", "gamma", "delta", None]
_BOOLS = [True, False, None]


# ---------------------------------------------------------------------------
# Random schema / value generation
# ---------------------------------------------------------------------------

_COLUMN_KINDS = [
    ("text_low", "text"),
    ("text_high", "text"),
    ("num", "double precision"),
    ("count", "integer"),
    ("flag", "boolean"),
]


def _random_schema(rng):
    kinds = rng.sample(_COLUMN_KINDS, rng.randrange(2, 5))
    columns = [("id", "integer")]
    picked = []
    for base, sql_type in kinds:
        name = f"{base}_{len(picked)}"
        columns.append((name, sql_type))
        picked.append((name, base))
    return columns, picked


def _random_value(rng, kind):
    if rng.random() < 0.15:
        return None
    if kind == "text_low":
        return rng.choice([v for v in _LOW_CARD if v is not None])
    if kind == "text_high":
        return f"v{rng.randrange(10_000)}"
    if kind == "num":
        if rng.random() < 0.05:
            return float("nan")
        return round(rng.uniform(-100.0, 100.0), 3)
    if kind == "count":
        return rng.randrange(-50, 50)
    if kind == "flag":
        return rng.choice([True, False])
    raise AssertionError(kind)


def _random_rows(rng, picked, start_id, count):
    return [
        tuple([start_id + i] + [_random_value(rng, kind) for _, kind in picked])
        for i in range(count)
    ]


# ---------------------------------------------------------------------------
# Byte-identity helpers
# ---------------------------------------------------------------------------


def _values_identical(left, right) -> bool:
    if type(left) is not type(right):
        return False
    if isinstance(left, float):
        if math.isnan(left) or math.isnan(right):
            return math.isnan(left) and math.isnan(right)
        return left == right
    if isinstance(left, (list, tuple)):
        return len(left) == len(right) and all(
            _values_identical(l, r) for l, r in zip(left, right)
        )
    return left == right


def _assert_same_rows(results, label):
    base = results[0]
    for other, name in zip(results[1:], ("interpreted", "uncompressed")):
        assert base.columns == other.columns, f"{label}: columns vs {name}"
        assert len(base.rows) == len(other.rows), (
            f"{label}: {len(base.rows)} rows vs {len(other.rows)} ({name})"
        )
        for row_c, row_o in zip(base.rows, other.rows):
            assert _values_identical(tuple(row_c), tuple(row_o)), (
                f"{label} vs {name}: {row_c!r} != {row_o!r}"
            )


# ---------------------------------------------------------------------------
# Random predicates / queries
# ---------------------------------------------------------------------------


def _sql_literal(value):
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    if isinstance(value, float) and math.isnan(value):
        return "'nan'"  # never used as a predicate constant
    return repr(value)


def _random_predicate(rng, picked, max_id):
    name, kind = rng.choice(picked)
    roll = rng.random()
    if roll < 0.12:
        return f"{name} IS {'NOT ' if rng.random() < 0.5 else ''}NULL"
    if kind in ("text_low", "text_high"):
        if roll < 0.35:
            sample = ", ".join(
                _sql_literal(_random_value(rng, kind) or "alpha")
                for _ in range(rng.randrange(1, 4))
            )
            return f"{name} {'NOT ' if rng.random() < 0.4 else ''}IN ({sample})"
        if roll < 0.55 and kind == "text_high":
            return f"{name} LIKE 'v{rng.randrange(10)}%'"
        if roll < 0.55:
            return f"{name} LIKE '{rng.choice(['al%', '%ta', '%mm%', 'beta'])}'"
        op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
        constant = _random_value(rng, kind) or "gamma"
        return f"{name} {op} {_sql_literal(constant)}"
    if kind == "flag":
        return f"{name} = {rng.choice(['TRUE', 'FALSE'])}"
    if roll < 0.3:
        low = rng.randrange(-40, 0)
        return f"{name} BETWEEN {low} AND {low + rng.randrange(10, 60)}"
    op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
    constant = rng.randrange(-30, 30) if kind == "count" else round(rng.uniform(-50, 50), 1)
    return f"{name} {op} {constant}"


def _random_where(rng, picked, max_id):
    terms = [_random_predicate(rng, picked, max_id) for _ in range(rng.randrange(1, 3))]
    joined = f" {rng.choice(['AND', 'OR'])} ".join(terms)
    if rng.random() < 0.15:
        return f"NOT ({joined})"
    return joined


def _random_group_by(rng, picked, where):
    """GROUP BY one or two random columns (packed keys group vectorized)."""
    names = [name for name, _ in picked]
    keys = ", ".join(rng.sample(names, rng.randrange(1, min(2, len(names)) + 1)))
    target = rng.choice(names)
    numeric = [n for n, k in picked if k in ("num", "count")]
    total = f", sum({rng.choice(numeric)})" if numeric else ""
    where_clause = f" WHERE {where}" if rng.random() < 0.5 else ""
    return (
        f"SELECT {keys}, count(*), count({target}), min(id), max(id){total} "
        f"FROM t{where_clause} GROUP BY {keys}"
    )


def _random_top_k(rng, picked, where):
    """ORDER BY a random column, either direction and NULL placement, LIMIT."""
    name, _ = rng.choice(picked)
    direction = rng.choice(["", " DESC"])
    nulls = rng.choice(["", " NULLS FIRST", " NULLS LAST"])
    tiebreak = ", id DESC" if rng.random() < 0.5 else ""
    offset = f" OFFSET {rng.randrange(1, 10)}" if rng.random() < 0.3 else ""
    where_clause = f" WHERE {where}" if rng.random() < 0.5 else ""
    return (
        f"SELECT * FROM t{where_clause} ORDER BY {name}{direction}{nulls}{tiebreak} "
        f"LIMIT {rng.randrange(1, 25)}{offset}"
    )


def _random_query(rng, picked, max_id):
    where = _random_where(rng, picked, max_id)
    roll = rng.random()
    if roll < 0.15:
        return f"SELECT count(*) FROM t WHERE {where}"
    if roll < 0.25:
        numeric = [n for n, k in picked if k in ("num", "count")]
        if numeric:
            target = rng.choice(numeric)
            return f"SELECT count(*), min({target}), max({target}) FROM t WHERE {where}"
    if roll < 0.5:
        return _random_group_by(rng, picked, where)
    if roll < 0.7:
        return _random_top_k(rng, picked, where)
    return f"SELECT * FROM t WHERE {where} ORDER BY id"


# ---------------------------------------------------------------------------
# The fuzz loop
# ---------------------------------------------------------------------------


def _make_trio(num_segments, distributed_by, columns, rows):
    configs = [
        {},
        {"compiled_execution": False},
        {"columnar_compression": False},
    ]
    databases = []
    for config in configs:
        db = Database(num_segments=num_segments, **config)
        db.create_table("t", columns, distributed_by=distributed_by)
        db.load_rows("t", rows)
        databases.append(db)
    return databases


def _run_everywhere(databases, statement, label):
    results = []
    for db in databases:
        try:
            results.append(db.execute(statement))
        except Exception as exc:  # parity includes errors
            results.append(exc)
    kinds = [type(r) for r in results]
    assert kinds.count(kinds[0]) == len(kinds), f"{label}: mixed outcomes {kinds}"
    if isinstance(results[0], Exception):
        return None
    return results


@pytest.mark.parametrize("seed", SEEDS)
def test_storage_parity_fuzz(seed, monkeypatch):
    rng = random.Random(seed)
    if seed % 4 == 0:
        # Force mid-script demotion: high-cardinality text columns blow the
        # dictionary almost immediately, flipping dict -> object storage.
        monkeypatch.setattr(columnar.DictColumn, "MAX_DISTINCT", 8)

    columns, picked = _random_schema(rng)
    num_segments = rng.randrange(1, 5)
    distributed_by = "id" if rng.random() < 0.7 else None
    next_id = rng.randrange(40, 120) + 1
    rows = _random_rows(rng, picked, 1, next_id - 1)
    databases = _make_trio(num_segments, distributed_by, columns, rows)

    def check_full_parity(label):
        results = _run_everywhere(databases, "SELECT * FROM t ORDER BY id", label)
        assert results is not None, label
        _assert_same_rows(results, label)

    check_full_parity(f"seed={seed} initial load")

    for round_index in range(ROUNDS):
        label = f"seed={seed} round={round_index}"

        # One random mutation per round.
        roll = rng.random()
        if roll < 0.3:
            batch = _random_rows(rng, picked, next_id, rng.randrange(3, 12))
            next_id += len(batch)
            placeholders = ", ".join(
                "(" + ", ".join(_sql_literal(v) for v in row) + ")" for row in batch
            )
            if any(
                isinstance(v, float) and math.isnan(v) for row in batch for v in row
            ):
                for db in databases:
                    db.load_rows("t", batch)
            else:
                statement = f"INSERT INTO t VALUES {placeholders}"
                results = _run_everywhere(databases, statement, f"{label} insert")
                assert results is not None
                counts = {r.rowcount for r in results}
                assert len(counts) == 1, f"{label} insert rowcounts {counts}"
        elif roll < 0.65:
            name, kind = rng.choice(picked)
            new_value = _random_value(rng, kind)
            if isinstance(new_value, float) and math.isnan(new_value):
                new_value = None
            where = _random_where(rng, picked, next_id)
            statement = (
                f"UPDATE t SET {name} = {_sql_literal(new_value)} WHERE {where}"
            )
            results = _run_everywhere(databases, statement, f"{label} update")
            if results is not None:
                counts = {r.rowcount for r in results}
                assert len(counts) == 1, f"{label} update rowcounts {counts}"
        elif roll < 0.85:
            where = _random_where(rng, picked, next_id)
            statement = f"DELETE FROM t WHERE {where}"
            results = _run_everywhere(databases, statement, f"{label} delete")
            if results is not None:
                counts = {r.rowcount for r in results}
                assert len(counts) == 1, f"{label} delete rowcounts {counts}"
        else:
            name, _ = rng.choice(picked)
            method = " USING hash" if rng.random() < 0.5 else ""
            statement = f"CREATE INDEX idx_{round_index} ON t{method} ({name})"
            _run_everywhere(databases, statement, f"{label} create-index")

        check_full_parity(f"{label} after mutation")

        # A couple of random queries with stats accounting parity between
        # the compiled configurations (results[0] and results[2]).
        for query_index in range(2):
            query = _random_query(rng, picked, next_id)
            results = _run_everywhere(
                databases, query, f"{label} q{query_index}: {query}"
            )
            if results is None:
                continue
            _assert_same_rows(results, f"{label} q{query_index}: {query}")
            accounting = {
                (r.stats.rows_scanned, r.stats.rows_matched)
                for r in (results[0], results[2])
            }
            assert len(accounting) == 1, (
                f"{label} q{query_index}: accounting diverged {accounting} ({query})"
            )


def test_fuzz_is_reproducible():
    """The generator is pure in the seed: same seed, same script."""
    def script(seed):
        rng = random.Random(seed)
        columns, picked = _random_schema(rng)
        rows = _random_rows(rng, picked, 1, 30)
        queries = [_random_query(rng, picked, 31) for _ in range(10)]
        return columns, rows, queries

    assert script(11) == script(11)
    assert script(11) != script(12)
