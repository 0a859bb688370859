"""Mutation tests of the typed JSON reader: one field of a bundled scenario
or of a fixture ledger line set to an out-of-model value either loads or
is the reader's own error naming a field, never Python's own error."""

import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lendmech.errors import LedgerError, ScenarioError
from lendmech.fields import Fields, _whole
from lendmech.rounds import record_from_json
from lendmech.scenario import bundled_path, loads

SCENARIOS = sorted(path.stem for path in bundled_path("table1").parent.glob("*.scenario"))
LEDGER_LINES = [
    line
    for path in sorted((Path(__file__).parent / "data").glob("ledger-*.jsonl"))
    for line in path.read_text().splitlines()[:2]
]
# Texts of Python's own errors, which a reader's message must not carry.
PYTHON_TEXTS = ("object is not", "not supported between", "KeyError", "index out of range")

SCALARS = st.sampled_from(
    [None, True, False, 0, -1, 1.5, math.nan, math.inf, -math.inf, "x", "0.5"]
)


def nested(depth: int):
    """Lists nested `depth` deep around scalars (0: a scalar)."""
    return SCALARS if depth == 0 else st.lists(nested(depth - 1), max_size=3)


VALUES = (
    SCALARS
    | st.integers(1, 4).flatmap(nested)
    | st.sampled_from([{}, {"a": 1}, {"kind": "uniform"}])
)


def paths(data, prefix=()):
    """The path of every field of `data`, its nested objects' included."""
    for key, value in data.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from paths(value, prefix + (key,))


def mutated(data, path, value):
    *parents, key = path
    target = data
    for part in parents:
        target = target[part]
    target[key] = value
    return json.dumps(data)


def assert_field_error(message: str, prefix: str) -> None:
    assert message.startswith(f"{prefix}field '"), message
    assert not any(text in message for text in PYTHON_TEXTS), message


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(SCENARIOS), st.data(), VALUES | st.just(10**400))
def test_a_mutated_scenario_field_loads_or_names_the_field(name, data, value):
    scenario = json.loads(bundled_path(name).read_text())
    path = data.draw(st.sampled_from(sorted(paths(scenario))), label="path")
    try:
        loads(mutated(scenario, path, value), name)
    except ScenarioError as exc:
        assert_field_error(str(exc), f"{name}: ")


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(LEDGER_LINES), st.data(), VALUES | st.just(10**400))
def test_a_mutated_ledger_field_loads_or_names_the_field(line, data, value):
    record = json.loads(line)
    path = data.draw(st.sampled_from(sorted(paths(record))), label="path")
    try:
        record_from_json(mutated(record, path, value))
    except LedgerError as exc:
        assert_field_error(str(exc), "")


@pytest.mark.parametrize("key", ["n", "m"])
@pytest.mark.parametrize("size", [10**400, 10_001])
def test_a_size_above_the_ceiling_is_a_field_error(key, size):
    # Checked before any weight or outcome key is built for it.
    scenario = json.loads(bundled_path("vcg-n4").read_text())
    with pytest.raises(ScenarioError, match=rf"^vcg-n4: field '{key}': must be <= 10000, got "):
        loads(mutated(scenario, (key,), size), "vcg-n4")


def test_an_integer_beyond_the_floats_is_not_a_number():
    scenario = json.loads(bundled_path("vcg-n4").read_text())
    with pytest.raises(ScenarioError, match=r"^vcg-n4: field 'c': expected a number, got 1000"):
        loads(mutated(scenario, ("c",), 10**400), "vcg-n4")


LEAF_VALUES = st.sampled_from(
    [0, 1, 2, -1, 0.0, -0.0, 0.5, 1.0, 1.5, -2.5, 1e308, math.inf, -math.inf, math.nan,
     True, False, None, "0.5", 10**400, [], [0.5]]
)


@st.composite
def leaf_cases(draw):
    """(fields, value, depth, leaf): depth 1 or 2 lists of mixed values (and
    sometimes not a list), one leaf reader or a tuple of them, each an int
    or float reader with or without bounds, under either number rule."""
    fields = Fields({}, error=ValueError, finite=draw(st.booleans()))

    def reader():
        kind = draw(st.sampled_from([int, float]))
        return fields.leaf(kind, draw(st.sampled_from([None, 0, 0.0])),
                           draw(st.sampled_from([None, 1, 1.0, 2])))

    depth = draw(st.integers(1, 2))
    cols = draw(st.integers(1, 3))
    leaf = reader() if depth == 1 or draw(st.booleans()) else (
        (reader(),) * cols if draw(st.booleans()) else tuple(reader() for _ in range(cols))
    )
    row = st.lists(LEAF_VALUES, max_size=4)
    if depth == 2:
        width = st.lists(LEAF_VALUES, min_size=cols, max_size=cols)
        value = draw(st.lists(width | row if draw(st.booleans()) else width, max_size=4))
    else:
        value = draw(row)
    if draw(st.integers(0, 9)) == 0:
        value = draw(st.sampled_from([None, 0.5, "x", {"a": 1}]))
    return fields, value, depth, leaf


def per_value(value, depth, leaf):
    """The reading `Fields.points` makes value by value."""
    if not isinstance(value, list):
        raise ValueError("not a list")
    if depth > 1:
        return tuple(per_value(v, depth - 1, leaf) for v in value)
    if any(isinstance(v, list) for v in value):
        raise ValueError("nested")
    if isinstance(leaf, tuple):
        if len(value) != len(leaf):
            raise ValueError("length")
        return tuple(read("x", v) for read, v in zip(leaf, value))
    return tuple(leaf("x", v) for v in value)


@settings(max_examples=1000, deadline=None)
@given(leaf_cases())
def test_a_field_read_at_once_is_the_per_value_reading(case):
    # A ledger line's numeric fields are checked a column at a time; where
    # that is not sure, each value is read alone, which names the one that
    # fails. The reading at once must never take a field the per-value
    # reader rejects, nor read another value or type.
    fields, value, depth, leaf = case
    whole = _whole(value, depth, leaf)
    try:
        want = per_value(value, depth, leaf)
    except ValueError:
        assert whole is None
        return
    if whole is not None:
        assert repr(whole) == repr(want)
    fields.data = {"f": value}
    assert repr(fields.points("f", depth, "shape", leaf)) == repr(want)


def test_plain_ledger_fields_are_read_at_once():
    fields = Fields({}, error=LedgerError, finite=False)
    unit, index = fields.leaf(float, 0.0, 1.0), fields.leaf(int, 0)
    assert _whole([0.25, 1, 0.0], 1, unit) == (0.25, 1.0, 0.0)
    assert _whole([[0.5, 1.0], [0, 0.75]], 2, (unit, unit)) == ((0.5, 1.0), (0.0, 0.75))
    triples = (fields.leaf(int, 0, 2), index, fields.leaf(float))
    assert _whole([[0, 3, -math.inf], [2, 1, 0.5]], 2, triples) == ((0, 3, -math.inf), (2, 1, 0.5))
    assert _whole([], 2, triples) == ()
    # Each of these is read value by value, which names what fails.
    assert _whole([0.5, 1.5], 1, unit) is None
    assert _whole([0.5, True], 1, unit) is None
    assert _whole([0.5, math.nan], 1, fields.leaf(float)) is None
    assert _whole([[0, 3, 0.5], [3, 1, 0.5]], 2, triples) is None
