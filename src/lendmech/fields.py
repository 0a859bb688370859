"""The typed JSON reader of scenario files and ledger lines.

A `Fields` reads one JSON object. Each reader returns a field's typed
value, or a default when the field is absent or null, and raises the
caller's error class naming the field by its path, e.g.
'audit.strict-iic.samples'. The two formats differ only in that error
class and in their number rule: scenarios require finite numbers, while a
ledger allows infinities (a boundary report's log score is -inf). NaN is
never a number. A list or table of leaf values is checked a column at a
time (`Leaf.column`); a field that check does not clear is read value by
value, which names the entry that fails, so both give one result.
"""

from __future__ import annotations

import functools
import math
from typing import Optional

from .priors import BetaIID, DegenerateAt, ProductGrid, UniformIID, check_shape

REQUIRED = object()
# Each prior kind's fields; any other field of a prior is an error.
_PRIOR_FIELDS = {
    "uniform": ("kind",),
    "beta": ("kind", "a", "b"),
    "degenerate": ("kind", "profile"),
    "product-grid": ("kind", "support"),
}


class Fields:
    """One JSON object `data` at `path` of `source`, which rejects a field
    not in `known` (when given). Errors are `error`s; with `finite`, an
    infinity is not a number."""

    def __init__(self, data, source: str = "", path: str = "", known=(), *, error, finite) -> None:
        self.data, self.source, self.path = data, source, path
        self.error, self.finite = error, finite
        if not isinstance(data, dict):
            raise self.fail("", "expected an object")
        for key in data:
            if known and key not in known:
                raise self.fail(key, f"unknown field; expected one of {', '.join(known)}")

    def _path(self, key: str) -> str:
        return ".".join(part for part in (self.path, key) if part)

    def fail(self, key: str, message: str) -> Exception:
        """The error for field `key` (the object itself when empty)."""
        field = self._path(key) and f"field '{self._path(key)}'"
        return self.error(": ".join(part for part in (self.source, field, message) if part))

    def child(self, data, key: str, known=()) -> "Fields":
        """The reader of `data`, the object at field `key`."""
        return Fields(
            data, self.source, self._path(key), known, error=self.error, finite=self.finite
        )

    def _read(self, key: str, default, check):
        value = self.data.get(key)
        if value is not None:
            return check(value)
        if default is REQUIRED:
            raise self.fail(key, "required")
        return default

    def _bounded(self, key: str, value, lo, hi):
        if lo is not None and value < lo:
            raise self.fail(key, f"must be >= {lo}, got {value}")
        if hi is not None and value > hi:
            raise self.fail(key, f"must be <= {hi}, got {value}")
        return value

    def _number(self, key: str, value, lo=None, hi=None) -> float:
        try:  # a bool or a string is not a number, nor is an integer beyond the floats
            number = float(value) if type(value) in (int, float) else None
        except OverflowError:
            number = None
        if number is None or (math.isnan(number) and not self.finite):
            raise self.fail(key, f"expected a number, got {value!r}")
        if self.finite and not math.isfinite(number):
            raise self.fail(key, f"must be finite, got {number}")
        return self._bounded(key, number, lo, hi)

    def _integer(self, key: str, value, lo=None, hi=None) -> int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise self.fail(key, f"expected an integer, got {value!r}")
        return self._bounded(key, value, lo, hi)

    def leaf(self, kind: type, lo=None, hi=None) -> "Leaf":
        """A leaf reader for `points`: an int, or with `float` any number,
        in [lo, hi]."""
        return Leaf(self, kind, lo, hi)

    def _instance(self, key: str, kind: type, what: str, default):
        def check(value):
            if not isinstance(value, kind):
                raise self.fail(key, f"expected {what}, got {value!r}")
            return value

        return self._read(key, default, check)

    def number(self, key: str, lo=None, hi=None, default=REQUIRED):
        return self._read(key, default, lambda value: self._number(key, value, lo, hi))

    def integer(self, key: str, lo=None, hi=None, default=REQUIRED):
        return self._read(key, default, lambda value: self._integer(key, value, lo, hi))

    def boolean(self, key: str, default=REQUIRED):
        return self._instance(key, bool, "true or false", default)

    def string(self, key: str, default=REQUIRED):
        return self._instance(key, str, "a string", default)

    def choice(self, key: str, options: tuple, default=REQUIRED):
        def check(value):
            if value not in options:
                raise self.fail(key, f"expected one of {', '.join(options)}, got {value!r}")
            return value

        return self._read(key, default, check)

    def block(self, key: str, known: tuple[str, ...]):
        """A nested object, or None when absent: the `Fields` that reads it,
        which rejects a field not in `known`."""
        return self._read(key, None, lambda value: self.child(value, key, known))

    def _sized(self, key: str, length, shape: str) -> None:
        """Fails, naming `shape`, when field `key` is an empty list or a list
        of other than `length` items (when given)."""
        value = self.data.get(key)
        if value == [] or isinstance(value, list) and length not in (None, len(value)):
            raise self.fail(key, f"{shape}, got {value!r}")

    def numbers(self, key: str, length=None, lo=None, hi=None, default=REQUIRED):
        """A non-empty list of numbers, `length` of them when given."""
        shape = f"expected a list of {length or 'one or more'} numbers"
        self._sized(key, length, shape)
        return self.points(key, 1, shape, self.leaf(float, lo, hi), default)

    def matrix(self, key: str, rows, cols: int, lo=None, hi=None, default=REQUIRED):
        """A non-empty list of rows of `cols` numbers, `rows` of them when given."""
        shape = f"expected {'a list of' if rows is None else rows} rows of {cols} numbers"
        self._sized(key, rows, shape)
        return self.points(key, 2, shape, (self.leaf(float, lo, hi),) * cols, default)

    def points(self, key: str, depth: int, shape: str, leaf, default=REQUIRED, at=None):
        """Field `key`: lists nested exactly `depth` deep, as nested tuples,
        each leaf read by `leaf(at, value)` (a `leaf` reader). With a tuple
        of leaf readers, each innermost list holds one value per reader,
        read column by column. Any other nesting or length fails at field
        `at` (`key` by default), `shape` saying what the field must be, e.g.
        "expected a list of borrowers"."""
        at = key if at is None else at

        def check(value):
            whole = _whole(value, depth, leaf)
            if whole is not None:
                return whole

            def read(item, level: int):
                if not isinstance(item, list):
                    raise self.fail(at, f"{shape}, got {value!r}")
                if level > 1:
                    return tuple(read(v, level - 1) for v in item)
                columns = isinstance(leaf, tuple)
                if list in map(type, item) or columns and len(item) != len(leaf):
                    raise self.fail(at, f"{shape}, got {value!r}")
                if columns:
                    return tuple(read_leaf(at, v) for read_leaf, v in zip(leaf, item))
                return tuple(map(functools.partial(leaf, at), item))

            return read(value, depth)

        return self._read(key, default, check)

    def prior(self, key: str, n: int, m: int, default=REQUIRED):
        """A prior over n x m belief profiles, with the fields of its kind
        (`_PRIOR_FIELDS`). A profile's or support's entries and shape are
        checked at the prior's own path."""

        def check(value):
            kind = self.child(value, key).choice("kind", tuple(_PRIOR_FIELDS))
            params = self.child(value, key, _PRIOR_FIELDS[kind])
            number = params.leaf(float)
            try:
                if kind == "uniform":
                    prior = UniformIID()
                elif kind == "beta":
                    prior = BetaIID(a=params.number("a"), b=params.number("b"))
                elif kind == "degenerate":
                    shape = "'profile' must be a list of rows of numbers"
                    prior = DegenerateAt(params.points("profile", 2, shape, number, at=""))
                else:
                    shape = "'support' must be a list of rows of cells, each a list of numbers"
                    prior = ProductGrid(params.points("support", 3, shape, number, at=""))
                check_shape(prior, n, m)
            except (TypeError, ValueError) as exc:
                raise self.fail(key, str(exc)) from exc
            return prior

        return self._read(key, default, check)


class Leaf:
    """A leaf reader of `fields` (`Fields.leaf`): called on one value, it
    reads an int, or with `float` any number, in [lo, hi], and fails naming
    the field; `column` checks a list of values at once."""

    __slots__ = ("fields", "kind", "lo", "hi")

    def __init__(self, fields: Fields, kind: type, lo=None, hi=None) -> None:
        self.fields, self.kind, self.lo, self.hi = fields, kind, lo, hi

    def __call__(self, at: str, value):
        read = self.fields._integer if self.kind is int else self.fields._number
        return read(at, value, self.lo, self.hi)

    def column(self, values: list) -> Optional[list]:
        """What this reader gives each of `values`, when it is sure to take
        every one: plain ints (with `float`, or floats that are not NaN, and
        finite where the fields require it) within [lo, hi]. Else None, and
        the values go through the reader one by one, which names the first
        that fails."""
        if not set(map(type, values)) <= ({int} if self.kind is int else {int, float}):
            return None
        if self.kind is float:
            try:
                values = list(map(float, values))
            except OverflowError:  # an integer beyond the floats
                return None
            if not all(map(math.isfinite, values)) and (
                self.fields.finite or any(map(math.isnan, values))
            ):
                return None
        if values and (
            (self.lo is not None and min(values) < self.lo)
            or (self.hi is not None and max(values) > self.hi)
        ):
            return None
        return values


def _whole(value, depth: int, leaf) -> Optional[tuple]:
    """`Fields.points`' reading of `value` at depth 1 or 2, each list of
    values one reader takes checked at once by `Leaf.column`; None where
    that is not sure to succeed (another depth, a shape `points` rejects,
    or a value a column does not take), and `points` reads value by value
    instead."""
    if depth not in (1, 2) or type(value) is not list:
        return None
    rows = [value] if depth == 1 else value
    if not all(type(row) is list for row in rows):
        return None
    if isinstance(leaf, tuple):
        if not leaf or any(len(row) != len(leaf) for row in rows):
            return None
        if any(reader is not leaf[0] for reader in leaf):
            columns = [reader.column(list(values)) for reader, values in zip(leaf, zip(*rows))]
            return None if None in columns else tuple(zip(*columns))
        leaf = leaf[0]  # one reader for every cell, as a matrix's
    read = [leaf.column(row) for row in rows]
    if None in read:
        return None
    return tuple(read[0]) if depth == 1 else tuple(map(tuple, read))
