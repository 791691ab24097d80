"""Observer/environment document parsing and canonical serialization."""

from __future__ import annotations

import json

import pytest

from obskit.core import Environment, Observer
from obskit.documents import (
    parse_environment,
    parse_observer,
    serialize_environment,
    serialize_observer,
)
from obskit.errors import (
    DocumentCompletenessError,
    DocumentError,
    DocumentParseError,
    DocumentReferenceError,
)
from obskit.machines import flip_environment, thermostat

from conftest import FIXTURES


def thermostat_doc() -> dict:
    return json.loads((FIXTURES / "thermostat.json").read_text())


def test_shipped_thermostat_fixture_parses_to_the_thermostat():
    parsed = parse_observer((FIXTURES / "thermostat.json").read_bytes())
    assert parsed == thermostat()


def test_shipped_environment_fixture_parses_to_the_flip_environment():
    parsed = parse_environment((FIXTURES / "flip_env.json").read_bytes())
    assert parsed == flip_environment()


def test_malformed_json_reports_line_and_column():
    with pytest.raises(DocumentParseError) as info:
        parse_observer(b'{"format_version": "1", "states": [,]}')
    assert info.value.line == 1
    assert info.value.column is not None
    assert "line 1" in str(info.value)


def test_missing_transition_names_the_pair():
    doc = thermostat_doc()
    del doc["transitions"]["OFF,Hot"]
    with pytest.raises(DocumentCompletenessError) as info:
        parse_observer(json.dumps(doc))
    assert "'OFF'" in str(info.value) and "'Hot'" in str(info.value)


def test_undeclared_state_in_transitions_is_a_reference_error():
    doc = thermostat_doc()
    doc["transitions"]["GHOST,Hot"] = "OFF"
    with pytest.raises(DocumentReferenceError):
        parse_observer(json.dumps(doc))


def test_undeclared_target_is_a_reference_error():
    doc = thermostat_doc()
    doc["transitions"]["OFF,Hot"] = "GHOST"
    with pytest.raises(DocumentReferenceError):
        parse_observer(json.dumps(doc))


def test_undeclared_output_is_a_reference_error():
    doc = thermostat_doc()
    doc["output_map"]["OFF"] = "Dance"
    with pytest.raises(DocumentReferenceError):
        parse_observer(json.dumps(doc))


@pytest.mark.parametrize("table, key, value", [
    ("transitions", "OFF,Cold", ["ON"]),
    ("transitions", "OFF,Cold", {"state": "ON"}),
    ("output_map", "OFF", ["HeaterOff"]),
    ("output_map", "OFF", 3),
])
def test_non_string_table_value_is_a_reference_error(table, key, value):
    doc = thermostat_doc()
    doc[table][key] = value
    with pytest.raises(DocumentReferenceError):
        parse_observer(json.dumps(doc))


def _with(name, value):
    doc = thermostat_doc()
    doc[name] = value
    return json.dumps(doc)


@pytest.mark.parametrize("text, error, message", [
    pytest.param(lambda: b'{"states": "\xff"}', DocumentParseError, "document is not UTF-8", id="not-utf8"),
    pytest.param(lambda: "[1, 2]", DocumentError, "document root must be a JSON object", id="root-array"),
    pytest.param(lambda: _with("inputs", []), DocumentError, "'inputs' must be a non-empty array",
                 id="empty-array"),
    pytest.param(lambda: _with("outputs", ["HeaterOff", 3]), DocumentError,
                 "'outputs' entries must be non-empty strings", id="non-string-entry"),
    pytest.param(lambda: _with("output_map", ["HeaterOff"]), DocumentError, "'output_map' must be an object",
                 id="table-not-object"),
    pytest.param(lambda: _with("transitions", {"OFFCold": "ON"}), DocumentError,
                 "'transitions' key 'OFFCold' must be 'state,input'", id="pair-key-without-comma"),
    pytest.param(lambda: _with("boundary", 7), DocumentError, "'boundary' must be a string",
                 id="non-string-boundary"),
])
def test_malformed_documents_are_document_errors(text, error, message):
    with pytest.raises(error, match=message):
        parse_observer(text())


@pytest.mark.parametrize("parse", [parse_observer, parse_environment])
def test_a_deeply_nested_document_is_a_parse_error(parse):
    with pytest.raises(DocumentParseError, match=r"^document is nested too deeply to parse$"):
        parse("[" * 100_000)


def test_comma_in_identifier_rejected():
    doc = thermostat_doc()
    doc["states"] = ["O,FF", "ON"]
    with pytest.raises(DocumentError):
        parse_observer(json.dumps(doc))


def test_wrong_format_version_rejected():
    doc = thermostat_doc()
    doc["format_version"] = "7"
    with pytest.raises(DocumentError):
        parse_observer(json.dumps(doc))


def test_duplicate_identifiers_rejected():
    doc = thermostat_doc()
    doc["inputs"] = ["Cold", "Cold"]
    with pytest.raises(DocumentError):
        parse_observer(json.dumps(doc))


def test_round_trip_is_identity_on_machines():
    text = (FIXTURES / "thermostat.json").read_text()
    once = parse_observer(text)
    assert parse_observer(serialize_observer(once)) == once


def test_canonical_serialization_is_stable_bytes():
    text = (FIXTURES / "thermostat.json").read_text()
    canonical = serialize_observer(parse_observer(text))
    assert canonical == text  # fixtures are shipped in canonical form
    assert serialize_observer(parse_observer(canonical)) == canonical


def test_environment_round_trip():
    text = (FIXTURES / "flip_env.json").read_text()
    env = parse_environment(text)
    assert serialize_environment(env) == text
    assert parse_environment(serialize_environment(env)) == env


def test_serializing_non_string_identifiers_fails_cleanly():
    obs = Observer(
        states=((0, 1), (1, 0)), inputs=("y",), outputs=("z",),
        transition={((0, 1), "y"): (1, 0), ((1, 0), "y"): (0, 1)},
        output_map={(0, 1): "z", (1, 0): "z"},
    )
    with pytest.raises(DocumentError):
        serialize_observer(obs)


def _machine_of(kind, states, symbols, emitted):
    """A one-table machine of ``kind`` over the given sets, every move to the first state."""
    transition = {(x, y): states[0] for x in states for y in symbols}
    if kind is Observer:
        return Observer(states, symbols, emitted, transition, dict.fromkeys(states, emitted[0]))
    return Environment(states, symbols, transition, dict.fromkeys(states, emitted[0]))


@pytest.mark.parametrize("kind, sets, label, item", [
    (Observer, (("x", 7), ("y",), ("z",)), "state", "7"),
    (Observer, (("x",), ("y,1",), ("z",)), "input", "'y,1'"),
    (Observer, (("x",), ("y",), ("",)), "output", "''"),
    (Environment, ((1,), ("a",), ("r",)), "env_state", "1"),
    (Environment, (("s",), ("a,b",), ("r",)), "action", "'a,b'"),
    (Environment, (("s",), ("a",), (("r", 1),)), "observation", "('r', 1)"),
], ids=["state", "input", "output", "env_state", "action", "observation"])
def test_each_identifier_set_names_its_unserializable_item(kind, sets, label, item):
    serialize = serialize_observer if kind is Observer else serialize_environment
    with pytest.raises(DocumentError) as info:
        serialize(_machine_of(kind, *sets))
    assert str(info.value) == (f"{label} identifier {item} cannot be serialized: "
                               "documents need comma-free, non-empty strings")


def test_environment_documents_validate_observation_values():
    doc = json.loads((FIXTURES / "flip_env.json").read_text())
    doc["observation"]["Cold"] = "Lukewarm"
    with pytest.raises(DocumentReferenceError):
        parse_environment(json.dumps(doc))
