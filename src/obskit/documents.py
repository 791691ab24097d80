"""JSON document format for observers and environments.

Documents are UTF-8 JSON.  Identifier arrays keep their order, which is
the construction order of the machine.  Table keys join two identifiers
with a comma, so identifiers themselves must be comma-free, non-empty
strings.  Each machine kind has one layout, the names of the three arrays
and two tables it has.  Both parsers read through one routine, ``_read``,
which checks the encoding, root object and ``format_version`` and reads the
parts a layout names; both serializers write through its mirror, ``_write``.
Serialization is canonical: object keys sorted, two-space indent, trailing
newline, making equal machines byte-identical on disk.
"""

from __future__ import annotations

import json

from .core import Environment, Observer, _of_type, check_total
from .errors import (
    DocumentCompletenessError,
    DocumentError,
    DocumentParseError,
    DocumentReferenceError,
    _shown,
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
            raise DocumentReferenceError(f"{name!r}[{key!r}] = {_shown(value)} is not an identifier")
        if key_form is not None:
            head, sep, tail = key.partition(",")
            if not sep:
                raise DocumentError(f"{name!r} key {key!r} must be '{key_form}'")
            key = (head, tail)
        table[key] = value
    return check_total(repr(name), table, domain, targets,
                       DocumentReferenceError, DocumentCompletenessError)


_OBSERVER = (("states", "inputs", "outputs"), ("transitions", "output_map"))
_ENVIRONMENT = (("env_states", "actions", "observations"), ("env_transitions", "observation"))


def _read(text: str | bytes, layout: tuple) -> tuple:
    """Load a document and read the parts ``layout`` names, in this order.

    A layout is a pair: the three array names (the states, the symbols read,
    the values emitted) and the two table names (the transition, keyed
    "state,symbol" by the first two array names in the singular, and the
    per-state map).  Returns the document, the three arrays and the two tables.
    """
    arrays, tables = layout
    if isinstance(_of_type(text, (str, bytes), "a document must be str or bytes"), bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DocumentParseError(f"document is not UTF-8: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentParseError(exc.msg, line=exc.lineno, column=exc.colno) from None
    except RecursionError:
        raise DocumentParseError("document is nested too deeply to parse") from None
    if not isinstance(doc, dict):
        raise DocumentError("document root must be a JSON object")
    if (version := doc.get("format_version")) != FORMAT_VERSION:
        raise DocumentError(f"unsupported format_version {_shown(version)}, expected {FORMAT_VERSION!r}")
    states, symbols, emitted = [_identifier_array(doc, name) for name in arrays]
    pairs, key_form = [(x, y) for x in states for y in symbols], ",".join(name[:-1] for name in arrays[:2])
    return (doc, states, symbols, emitted, _table(doc, tables[0], pairs, states, key_form),
            _table(doc, tables[1], list(states), emitted))


def _write(layout: tuple, arrays: tuple, transition, per_state, **rest) -> str:
    """``_read``'s mirror: canonical text of a ``layout`` machine and entries ``rest``, once its ids pass."""
    names, tables = layout
    for name, items in zip(names, arrays):
        for item in items:
            if not isinstance(item, str) or not item or "," in item:
                raise DocumentError(f"{name[:-1]} identifier {_shown(item)} cannot be serialized: "
                                    "documents need comma-free, non-empty strings")
    states, symbols, _ = arrays
    doc = dict(zip(names, map(list, arrays)), format_version=FORMAT_VERSION, **rest)
    doc[tables[0]] = {f"{x},{y}": transition[(x, y)] for x in states for y in symbols}
    doc[tables[1]] = {x: per_state[x] for x in states}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def parse_observer(text: str | bytes) -> Observer:
    """Parse and fully validate an observer document."""
    doc, *parts = _read(text, _OBSERVER)
    boundary = doc.get("boundary", "")
    if not isinstance(boundary, str):
        raise DocumentError("'boundary' must be a string")
    return Observer(*parts, boundary)


def parse_environment(text: str | bytes) -> Environment:
    """Parse and fully validate an environment document."""
    _, states, actions, _, transition, observation = _read(text, _ENVIRONMENT)
    return Environment(states, actions, transition, observation)


def serialize_observer(obs: Observer) -> str:
    """Canonical document text for an observer."""
    _of_type(obs, Observer, "expected an Observer")
    return _write(_OBSERVER, (obs.states, obs.inputs, obs.outputs), obs.transition, obs.output_map,
                  boundary=obs.boundary)


def serialize_environment(env: Environment) -> str:
    """Canonical document text for an environment."""
    _of_type(env, Environment, "expected an Environment")
    return _write(_ENVIRONMENT, (env.states, env.actions, tuple(dict.fromkeys(env.readings))),
                  env.transition, env.observation)
