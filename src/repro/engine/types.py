"""SQL type system for the engine substrate.

MADlib methods rely on a small set of PostgreSQL types: the numeric scalars,
``TEXT``, ``BOOLEAN`` and — crucially for the linear-algebra micro-programming
layer — the ``DOUBLE PRECISION[]`` array type that stores feature vectors and
model coefficients (Section 4.1.1 of the paper).  This module defines those
types, name resolution from SQL spellings, value coercion and type inference
for expression evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Optional

import numpy as np

from ..errors import TypeMismatchError

__all__ = [
    "SQLType",
    "INTEGER",
    "BIGINT",
    "DOUBLE",
    "TEXT",
    "BOOLEAN",
    "DOUBLE_ARRAY",
    "INTEGER_ARRAY",
    "TEXT_ARRAY",
    "ANY",
    "type_from_name",
    "infer_type",
    "coerce_value",
    "common_numeric_type",
    "is_null",
]


@dataclass(frozen=True)
class SQLType:
    """A SQL data type.

    Attributes
    ----------
    name:
        Canonical SQL spelling, e.g. ``"double precision"``.
    python_type:
        The Python type values of this SQL type are stored as.
    is_array:
        True for array types such as ``double precision[]``.
    element:
        For array types, the element :class:`SQLType`.
    """

    name: str
    python_type: type
    is_array: bool = False
    element: Optional["SQLType"] = None

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name

    @property
    def is_numeric(self) -> bool:
        """Whether values of this type participate in arithmetic."""
        return self in (INTEGER, BIGINT, DOUBLE)


INTEGER = SQLType("integer", int)
BIGINT = SQLType("bigint", int)
DOUBLE = SQLType("double precision", float)
TEXT = SQLType("text", str)
BOOLEAN = SQLType("boolean", bool)
DOUBLE_ARRAY = SQLType("double precision[]", np.ndarray, is_array=True, element=DOUBLE)
INTEGER_ARRAY = SQLType("integer[]", np.ndarray, is_array=True, element=INTEGER)
TEXT_ARRAY = SQLType("text[]", list, is_array=True, element=TEXT)
#: Pseudo-type used for expressions whose type is only known at runtime
#: (e.g. results of polymorphic UDFs, the way PostgreSQL uses ``anyelement``).
ANY = SQLType("any", object)


_NAME_ALIASES = {
    "int": INTEGER,
    "int4": INTEGER,
    "integer": INTEGER,
    "smallint": INTEGER,
    "int8": BIGINT,
    "bigint": BIGINT,
    "serial": INTEGER,
    "float": DOUBLE,
    "float8": DOUBLE,
    "real": DOUBLE,
    "double": DOUBLE,
    "double precision": DOUBLE,
    "numeric": DOUBLE,
    "decimal": DOUBLE,
    "text": TEXT,
    "varchar": TEXT,
    "char": TEXT,
    "character varying": TEXT,
    "bool": BOOLEAN,
    "boolean": BOOLEAN,
    "float8[]": DOUBLE_ARRAY,
    "double precision[]": DOUBLE_ARRAY,
    "float[]": DOUBLE_ARRAY,
    "real[]": DOUBLE_ARRAY,
    "int[]": INTEGER_ARRAY,
    "integer[]": INTEGER_ARRAY,
    "int4[]": INTEGER_ARRAY,
    "bigint[]": INTEGER_ARRAY,
    "text[]": TEXT_ARRAY,
    "varchar[]": TEXT_ARRAY,
    "any": ANY,
    "anyelement": ANY,
    "anyarray": ANY,
}


def type_from_name(name: str) -> SQLType:
    """Resolve a SQL type spelling (case-insensitive) to a :class:`SQLType`.

    Raises
    ------
    TypeMismatchError
        If the spelling is not recognised.
    """
    key = " ".join(name.lower().split())
    try:
        return _NAME_ALIASES[key]
    except KeyError:
        raise TypeMismatchError(f"unknown SQL type: {name!r}") from None


def is_null(value: Any) -> bool:
    """SQL NULL test: ``None`` and floating NaN both count as NULL.

    MADlib treats NaN inputs as missing in several methods; folding NaN into
    NULL here keeps aggregate skip-NULL semantics consistent.
    """
    if value is None:
        return True
    if isinstance(value, float) and math.isnan(value):
        return True
    return False


def infer_type(value: Any) -> SQLType:
    """Infer the SQL type of a Python value (used for literals and UDF results)."""
    if value is None:
        return ANY
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return BOOLEAN
    if isinstance(value, (int, np.integer)):
        return BIGINT
    if isinstance(value, (float, np.floating)):
        return DOUBLE
    if isinstance(value, str):
        return TEXT
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "fc":
            return DOUBLE_ARRAY
        if value.dtype.kind in "iu":
            return INTEGER_ARRAY
        return TEXT_ARRAY
    if isinstance(value, (list, tuple)):
        if all(isinstance(v, str) for v in value):
            return TEXT_ARRAY
        if all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in value):
            return INTEGER_ARRAY
        return DOUBLE_ARRAY
    return ANY


def common_numeric_type(left: SQLType, right: SQLType) -> SQLType:
    """Numeric type promotion used by arithmetic operators."""
    if DOUBLE in (left, right):
        return DOUBLE
    if BIGINT in (left, right):
        return BIGINT
    return INTEGER


def _coerce_array(value: Any, sql_type: SQLType) -> Any:
    if sql_type is TEXT_ARRAY:
        if isinstance(value, np.ndarray):
            value = value.tolist()
        if not isinstance(value, (list, tuple)):
            raise TypeMismatchError(f"cannot coerce {type(value).__name__} to {sql_type}")
        return [None if is_null(v) else str(v) for v in value]
    dtype = np.float64 if sql_type is DOUBLE_ARRAY else np.int64
    try:
        arr = np.asarray(value, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise TypeMismatchError(f"cannot coerce {value!r} to {sql_type}: {exc}") from None
    return arr


def coerce_value(value: Any, sql_type: SQLType) -> Any:
    """Coerce ``value`` to the Python representation of ``sql_type``.

    ``None`` (SQL NULL) passes through unchanged for any type.

    Raises
    ------
    TypeMismatchError
        If the value cannot be represented in the target type.
    """
    if value is None:
        return None
    if sql_type is ANY:
        return value
    if sql_type.is_array:
        return _coerce_array(value, sql_type)
    if sql_type is BOOLEAN:
        if isinstance(value, (bool, np.bool_)):
            return bool(value)
        if isinstance(value, str):
            lowered = value.strip().lower()
            if lowered in ("t", "true", "yes", "1"):
                return True
            if lowered in ("f", "false", "no", "0"):
                return False
            raise TypeMismatchError(f"cannot coerce {value!r} to boolean")
        if isinstance(value, (int, np.integer, float, np.floating)):
            return bool(value)
        raise TypeMismatchError(f"cannot coerce {type(value).__name__} to boolean")
    if sql_type in (INTEGER, BIGINT):
        if isinstance(value, (bool, np.bool_)):
            return int(value)
        if isinstance(value, (int, np.integer)):
            return int(value)
        if isinstance(value, (float, np.floating)):
            if float(value).is_integer():
                return int(value)
            raise TypeMismatchError(f"cannot coerce non-integral {value!r} to {sql_type}")
        if isinstance(value, str):
            try:
                return int(value.strip())
            except ValueError:
                raise TypeMismatchError(f"cannot coerce {value!r} to {sql_type}") from None
        raise TypeMismatchError(f"cannot coerce {type(value).__name__} to {sql_type}")
    if sql_type is DOUBLE:
        if isinstance(value, (bool, np.bool_)):
            return float(value)
        if isinstance(value, (int, np.integer, float, np.floating)):
            return float(value)
        if isinstance(value, str):
            try:
                return float(value.strip())
            except ValueError:
                raise TypeMismatchError(f"cannot coerce {value!r} to double precision") from None
        raise TypeMismatchError(f"cannot coerce {type(value).__name__} to double precision")
    if sql_type is TEXT:
        if isinstance(value, str):
            return value
        if isinstance(value, (bool, np.bool_)):
            return "true" if value else "false"
        if isinstance(value, (int, np.integer, float, np.floating)):
            return str(value)
        raise TypeMismatchError(f"cannot coerce {type(value).__name__} to text")
    raise TypeMismatchError(f"unsupported target type {sql_type}")


def format_value(value: Any) -> str:
    """Render a value the way ``psql`` would (used by examples and reports)."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "t" if value else "f"
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, np.ndarray):
        return "{" + ",".join(format_value(v) for v in value.tolist()) + "}"
    if isinstance(value, (list, tuple)):
        return "{" + ",".join(format_value(v) for v in value) + "}"
    if isinstance(value, dict):
        return "(" + ",".join(f"{k}={format_value(v)}" for k, v in value.items()) + ")"
    return str(value)


def values_equal(left: Any, right: Any) -> bool:
    """Equality that understands arrays (used by DISTINCT / GROUP BY keys)."""
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        try:
            return bool(np.array_equal(np.asarray(left), np.asarray(right)))
        except (TypeError, ValueError):
            return False
    return left == right


#: The one NaN every float NaN keys to.  Python >= 3.10 hashes NaN by object
#: identity, so without it each NaN row would form a group of its own.
_CANONICAL_NAN = float("nan")


def hashable_key(value: Any) -> Any:
    """Convert a value to something hashable for grouping and distinct.

    Every float NaN maps to one canonical NaN object, so NaN values form one
    group (still apart from NULL) and still compare as floats when sorted.
    """
    kind = value.__class__
    if kind is str or kind is int or value is None:
        return value
    if isinstance(value, float) and value != value:
        return _CANONICAL_NAN
    if isinstance(value, np.ndarray):
        return ("__array__", value.shape, tuple(value.ravel().tolist()))
    if isinstance(value, (list, tuple)):
        return tuple(hashable_key(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, hashable_key(v)) for k, v in value.items()))
    return value
