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
@given(st.sampled_from(SCENARIOS), st.data(), VALUES)
def test_a_mutated_scenario_field_loads_or_names_the_field(name, data, value):
    scenario = json.loads(bundled_path(name).read_text())
    path = data.draw(st.sampled_from(sorted(paths(scenario))), label="path")
    try:
        loads(mutated(scenario, path, value), name)
    except ScenarioError as exc:
        assert_field_error(str(exc), f"{name}: ")


# A scenario's sizes (n, m) have no upper bound, so a huge integer there
# would ask for that many weights; a ledger's sizes come from its lists.
@settings(max_examples=400, deadline=None)
@given(st.sampled_from(LEDGER_LINES), st.data(), VALUES | st.just(10**400))
def test_a_mutated_ledger_field_loads_or_names_the_field(line, data, value):
    record = json.loads(line)
    path = data.draw(st.sampled_from(sorted(paths(record))), label="path")
    try:
        record_from_json(mutated(record, path, value))
    except LedgerError as exc:
        assert_field_error(str(exc), "")


def test_an_integer_beyond_the_floats_is_not_a_number():
    scenario = json.loads(bundled_path("vcg-n4").read_text())
    with pytest.raises(ScenarioError, match=r"^vcg-n4: field 'c': expected a number, got 1000"):
        loads(mutated(scenario, ("c",), 10**400), "vcg-n4")
