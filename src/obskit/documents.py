"""JSON document format for observers and environments.

Documents are UTF-8 JSON.  Identifier arrays keep their order, which is
the construction order of the machine.  Table keys join two identifiers
with a comma, so identifiers themselves must be comma-free, non-empty
strings.  Both parsers read through one routine, ``_read``, which checks
the encoding, root object and ``format_version`` and reads the three
arrays and two tables both machine kinds have.  Serialization is canonical:
object keys sorted, two-space indent, trailing newline, making equal
machines byte-identical on disk.
"""

from __future__ import annotations

import json

from .core import Environment, Observer, _of_type, check_total
from .errors import (
    DocumentCompletenessError,
    DocumentError,
    DocumentParseError,
    DocumentReferenceError,
)

FORMAT_VERSION = "1"


def _identifier_array(doc: dict, name: str) -> tuple[str, ...]:
    value = doc.get(name)
    if not isinstance(value, list) or not value:
        raise DocumentError(f"{name!r} must be a non-empty array")
    for item in value:
        if not isinstance(item, str) or not item:
            raise DocumentError(f"{name!r} entries must be non-empty strings")
        if "," in item:
            raise DocumentError(f"identifier {item!r} in {name!r} must not contain a comma")
    if len(set(value)) != len(value):
        raise DocumentError(f"{name!r} has duplicate identifiers")
    return tuple(value)


def _table(doc: dict, name: str, domain: list, targets: tuple[str, ...],
           key_form: str | None = None) -> dict:
    """Read one identifier table; ``key_form`` names the parts of a pair key."""
    raw = doc.get(name)
    if not isinstance(raw, dict):
        raise DocumentError(f"{name!r} must be an object")
    table = {}
    for key, value in raw.items():
        if not isinstance(value, str):
            raise DocumentReferenceError(f"{name!r}[{key!r}] = {value!r} is not an identifier")
        if key_form is not None:
            head, sep, tail = key.partition(",")
            if not sep:
                raise DocumentError(f"{name!r} key {key!r} must be '{key_form}'")
            key = (head, tail)
        table[key] = value
    return check_total(repr(name), table, domain, targets,
                       DocumentReferenceError, DocumentCompletenessError)


def _read(text: str | bytes, arrays: tuple[str, str, str], tables: tuple[str, str]) -> tuple:
    """Load a document and read the parts both machine kinds share, in this order.

    ``arrays`` name the states, the symbols read and the values emitted;
    ``tables`` name the transition, keyed "state,symbol" (the first two array
    names in the singular), and the per-state map.  Returns the document, the
    three arrays and the two tables.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DocumentParseError(f"document is not UTF-8: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentParseError(exc.msg, line=exc.lineno, column=exc.colno) from None
    if not isinstance(doc, dict):
        raise DocumentError("document root must be a JSON object")
    if (version := doc.get("format_version")) != FORMAT_VERSION:
        raise DocumentError(f"unsupported format_version {version!r}, expected {FORMAT_VERSION!r}")
    states, symbols, emitted = [_identifier_array(doc, name) for name in arrays]
    pairs, key_form = [(x, y) for x in states for y in symbols], ",".join(name[:-1] for name in arrays[:2])
    return (doc, states, symbols, emitted, _table(doc, tables[0], pairs, states, key_form),
            _table(doc, tables[1], list(states), emitted))


def parse_observer(text: str | bytes) -> Observer:
    """Parse and fully validate an observer document."""
    doc, *parts = _read(text, ("states", "inputs", "outputs"), ("transitions", "output_map"))
    boundary = doc.get("boundary", "")
    if not isinstance(boundary, str):
        raise DocumentError("'boundary' must be a string")
    return Observer(*parts, boundary)


def parse_environment(text: str | bytes) -> Environment:
    """Parse and fully validate an environment document."""
    _, states, actions, _, transition, observation = _read(
        text, ("env_states", "actions", "observations"), ("env_transitions", "observation"))
    return Environment(states, actions, transition, observation)


def _require_document_ids(label: str, items) -> None:
    for item in items:
        if not isinstance(item, str) or not item or "," in item:
            raise DocumentError(
                f"{label} identifier {item!r} cannot be serialized: "
                "documents need comma-free, non-empty strings"
            )


def _dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def serialize_observer(obs: Observer) -> str:
    """Canonical document text for an observer."""
    _of_type(obs, Observer, "expected an Observer")
    _require_document_ids("state", obs.states)
    _require_document_ids("input", obs.inputs)
    _require_document_ids("output", obs.outputs)
    return _dump({
        "format_version": FORMAT_VERSION,
        "states": list(obs.states),
        "inputs": list(obs.inputs),
        "outputs": list(obs.outputs),
        "transitions": {f"{x},{y}": obs.transition[(x, y)] for x in obs.states for y in obs.inputs},
        "output_map": {x: obs.output_map[x] for x in obs.states},
        "boundary": obs.boundary,
    })


def serialize_environment(env: Environment) -> str:
    """Canonical document text for an environment."""
    _of_type(env, Environment, "expected an Environment")
    _require_document_ids("env_state", env.states)
    _require_document_ids("action", env.actions)
    observations = list(dict.fromkeys(env.readings))
    _require_document_ids("observation", observations)
    return _dump({
        "format_version": FORMAT_VERSION,
        "env_states": list(env.states),
        "actions": list(env.actions),
        "observations": observations,
        "env_transitions": {f"{s},{a}": env.transition[(s, a)] for s in env.states for a in env.actions},
        "observation": {s: env.observation[s] for s in env.states},
    })
