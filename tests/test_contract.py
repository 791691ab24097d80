"""The typed-error contract, checked by generation.

Every callable in ``obskit.__all__``, and every public method of the main
value types, is called with valid arguments built from ``obskit.machines``
in all positions but one, which gets a value of the wrong kind.  The call
must return or raise an ``ObskitError``; any other exception, or any
warning, fails the test and names the call.  Each position first gets a
fixed set of nasty values (NaN, rows whose sum overflows, bytes that are
not UTF-8, unhashable table values, lists nested thousands deep, ...),
then values that hypothesis generates, derandomized, so the module is
deterministic.  A public callable with no row in ``VALID`` fails
collection.  Ints in the junk stay small: a huge step count is a valid
request for a long run, not a wrong kind.  No junk value is callable: what
a goal predicate raises passes through unchanged, as any callback's does.
The calls that read a ledger are then given one whose entry holds the junk.
The module ends with the round trip: a machine whose identifiers a
document can hold parses back equal to itself.
"""

from __future__ import annotations

import inspect
import math
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import obskit
from obskit.machines import flip_environment, redundant_observer, thermostat

THERMO, FLIP = thermostat(), flip_environment()
UPPER = thermostat()  # a second thermostat, so that a stack of the two is no self-loop
SYSTEM = obskit.CoupledSystem(THERMO, FLIP)
RULE = obskit.rule_table(110)
LATTICE = (0, 0, 0, 1, 0, 0, 0, 0)
BLOCK = obskit.transparent_observer(RULE, 2)
TABLE = obskit.RuleTable({("a", "y"): "a"}, {"a": "z"})
FAMILY = obskit.RuleFamily((TABLE,), {(0, "a", "y"): 0})
LEDGER = obskit.record_fact(obskit.FactLedger(), "o", 1, "y", "a")
LIFT, DROP = {"HeaterOff": "Cold", "HeaterOn": "Hot"}, {"HeaterOff": "HeaterOff", "HeaterOn": "HeaterOn"}
IDENTITY = obskit.identity_morphism(THERMO)

# each callable's valid arguments, every positional parameter given; built afresh for each call,
# as a MetaRegistry is mutable
VALID = {
    "AdaptationResult": lambda: (obskit.TRANSIENT_TO_CYCLE, 1, 1),
    "BehavioralPartition": lambda: ((("a", "b"),),),
    "CARule": lambda: (110,),
    "ComplexityReport": lambda: (1.0, 0.0, 1.0, (1, 1, 1)),
    "CoupledSystem": lambda: (THERMO, FLIP),
    "DocumentParseError": lambda: ("message", 1, 2),
    "EmbeddedSystem": lambda: (RULE, LATTICE, 2, BLOCK),
    "Environment": lambda: (FLIP.states, FLIP.actions, dict(FLIP.transition), dict(FLIP.observation)),
    "FactEntry": lambda: ("o", 1, "y", "a"),
    "FactLedger": lambda: ((),),
    "LabScriptRun": lambda: (LEDGER, "insider", "outsider", 1, 5),
    "MinimalityReport": lambda: (True,) * 5,
    "MorphismCheck": lambda: (True, (), ()),
    "Observer": lambda: (THERMO.states, THERMO.inputs, THERMO.outputs, dict(THERMO.transition),
                         dict(THERMO.output_map), THERMO.boundary),
    "ObserverMorphism": lambda: (dict(IDENTITY.state_map), dict(IDENTITY.input_map), dict(IDENTITY.output_map)),
    "RuleFamily": lambda: ((TABLE,), {(0, "a", "y"): 0}),
    "RuleTable": lambda: ({("a", "y"): "a"}, {"a": "z"}),
    "Trace": lambda: ((),),
    "TraceRecord": lambda: (0, "Cold", "ON", "HeaterOn", "Hot"),
    "WellFoundedReport": lambda: (True, None),
    "Wiring": lambda: (LIFT, DROP),
    "adaptation_time": lambda: (SYSTEM, ("OFF", "Cold"), None, None),
    "ca_evolution": lambda: (LATTICE, RULE, 3),
    "ca_step": lambda: (LATTICE, RULE),
    "canonical_invariants": lambda: (THERMO,),
    "check_homomorphism": lambda: (THERMO, THERMO, IDENTITY),
    "check_well_founded": lambda: (None, obskit.MetaRegistry()),
    "complexity": lambda: (THERMO,),
    "damping_observer": lambda: (RULE, 2),
    "embed": lambda: (RULE, LATTICE, 2, BLOCK),
    "equivalence_partition": lambda: ([THERMO, UPPER],),
    "equivalent": lambda: (THERMO, UPPER),
    "expected_hitting_time": lambda: ([[0.5, 0.5], [0.0, 1.0]], 0, [1]),
    "facts_relative_to": lambda: (LEDGER, "o", 1),
    "find_isomorphism": lambda: (THERMO, UPPER, None),
    "identity_morphism": lambda: (THERMO,),
    "known_spin_values": lambda: (LEDGER, "o", 1),
    "minimize": lambda: (THERMO,),
    "parse_environment": lambda: (obskit.serialize_environment(FLIP),),
    "parse_observer": lambda: (obskit.serialize_observer(THERMO),),
    "pbm_bytes": lambda: (obskit.ca_evolution(LATTICE, RULE, 2),),
    "record_fact": lambda: (LEDGER, "o", 2, "y", "a"),
    "render_text": lambda: (obskit.ca_evolution(LATTICE, RULE, 2),),
    "rule_table": lambda: (110,),
    "run_embedded": lambda: (obskit.embed(RULE, LATTICE, 2, BLOCK), 3),
    "run_lab_script": lambda: ("up",),
    "second_order_wrap": lambda: (("a",), ("y",), ("z",), FAMILY),
    "serialize_environment": lambda: (FLIP,),
    "serialize_observer": lambda: (THERMO,),
    "stack": lambda: (THERMO, UPPER, obskit.Wiring(LIFT, DROP), obskit.MetaRegistry()),
    "transparent_observer": lambda: (RULE, 2),
    "validate_minimal": lambda: (SYSTEM, [("OFF", "Cold")]),
    # the public methods, on valid instances
    "BehavioralPartition.block_of": lambda: ("a",),
    "CARule.__call__": lambda: (1, 0, 1),
    "CoupledSystem.reachable_joints": lambda: ([("OFF", "Cold")],),
    "CoupledSystem.run": lambda: (("OFF", "Cold"), 3),
    "CoupledSystem.step": lambda: (("OFF", "Cold"), 0),
    "Environment.observe": lambda: ("Cold",),
    "Environment.react": lambda: ("Cold", "HeaterOn"),
    "FactLedger.last_step": lambda: ("o",),
    "MetaRegistry.register_edge": lambda: ("upper", "lower"),
    "Observer.output": lambda: ("OFF",),
    "Observer.respond": lambda: ("OFF", ["Cold", "Hot"]),
    "Observer.step": lambda: ("OFF", "Cold"),
}
INSTANCES = {
    "BehavioralPartition": lambda: obskit.minimize(redundant_observer())[1],
    "CARule": lambda: RULE,
    "CoupledSystem": lambda: SYSTEM,
    "Environment": lambda: FLIP,
    "FactLedger": lambda: LEDGER,
    "MetaRegistry": obskit.MetaRegistry,
    "Observer": lambda: THERMO,
}
METHODS = {"BehavioralPartition": ["block_of"], "CARule": ["__call__"],
           "CoupledSystem": ["reachable_joints", "run", "step"], "Environment": ["observe", "react"],
           "FactLedger": ["last_step"], "MetaRegistry": ["clear", "graph", "register_edge"],
           "Observer": ["output", "respond", "step"]}


def target(name: str):
    head, _, method = name.partition(".")
    return getattr(INSTANCES[head](), method) if method else getattr(obskit, head)


def valid_args(name: str) -> tuple:
    """The valid arguments of ``name``; an error type with no row takes its message alone."""
    if name in VALID:
        return VALID[name]()
    if isinstance(target(name), type) and issubclass(target(name), obskit.ObskitError):
        return ("message",)
    raise KeyError(f"{name} is public and takes arguments, but has no row in VALID")


def public_callables() -> list[str]:
    names = [name for name in obskit.__all__ if callable(getattr(obskit, name))]
    methods = [f"{cls}.{m}" for cls, ms in METHODS.items() for m in ms]
    return [*names, *methods]


def parameters(name: str) -> list:
    try:
        return list(inspect.signature(target(name)).parameters.values())
    except ValueError:  # an error type that keeps BaseException's constructor: it takes any arguments
        return [inspect.Parameter("args", inspect.Parameter.VAR_POSITIONAL)]


def takes_arguments(name: str) -> bool:
    return bool(parameters(name))


CALLS = [name for name in public_callables() if takes_arguments(name)]
PAIRS = [(name, position) for name in CALLS for position in range(len(valid_args(name)))]


def nested(depth: int, wrap) -> object:
    value: object = 0
    for _ in range(depth):
        value = wrap(value)
    return value


# the fixed nasty values every position gets, by name
NASTY = {
    "none": None,
    "negative": -1,
    "huge-negative": -10**100,
    "float": 2.5,
    "nan": math.nan,
    "inf": math.inf,
    "empty-str": "",
    "comma-str": "a,b",
    "bytes-not-utf8": b"\xff\xfe\x00",
    "object": object(),
    "empty-list": [],
    "empty-dict": {},
    "list-of-none": [None],
    "set": {1, 2},
    "unhashable-table-value": {("OFF", "Cold"): ["ON"], "OFF": ["HeaterOn"]},
    "non-iterable-rows": [5, 6],
    "overflowing-rows": [[1e308, 1e308], [0.0, 1.0]],
    "nan-rows": [[math.nan, 1.0], [0.0, 1.0]],
    "ragged-rows": [[0.5, 0.5], [1.0]],
    "deep-list": nested(5000, lambda v: [v]),
    "deep-tuple": nested(5000, lambda v: (v,)),
    "deep-dict": nested(3000, lambda v: {"a": v}),
    "deep-pair-list": [nested(3000, lambda v: [v]), 0],
    "an-environment": FLIP,
    "an-observer": THERMO,
}


def must_keep_the_contract(call, what: str) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call()
        except obskit.ObskitError:
            pass
        except Exception as exc:  # a bare TypeError, a RecursionError, a warning raised as an error
            pytest.fail(f"{what} raised {type(exc).__name__}: {str(exc)[:200]}", pytrace=False)


def call_must_keep_the_contract(name: str, position: int, junk) -> None:
    args = list(valid_args(name))
    args[position] = junk
    fn = target(name)
    must_keep_the_contract(lambda: fn(*args), f"{name} with a wrong-kind value in position {position}")


def test_the_table_covers_every_public_callable_and_every_position():
    for name in public_callables():
        if not takes_arguments(name):
            continue
        params = parameters(name)
        if any(p.kind is p.VAR_POSITIONAL for p in params):  # a record class, or an error type
            fields = getattr(target(name), "_fields", None)
            expected = len(fields) if fields is not None else len(valid_args(name))
        else:
            expected = sum(p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD) for p in params)
        assert len(valid_args(name)) == expected, name
    assert set(VALID) <= set(CALLS)


@pytest.mark.parametrize("name, position", [pytest.param(n, p, id=f"{n}-{p}") for n, p in PAIRS])
def test_each_fixed_nasty_value_gives_a_result_or_an_obskit_error(name, position):
    for junk in NASTY.values():
        call_must_keep_the_contract(name, position, junk)


def mutants(value) -> st.SearchStrategy:
    """``value`` with one entry replaced by generated junk, when it is a table or a sequence (then a list)."""
    if isinstance(value, dict) and value:
        return st.tuples(st.sampled_from(sorted(value, key=repr)), JUNK).map(lambda kv: {**value, kv[0]: kv[1]})
    if isinstance(value, (list, tuple)) and value:
        return st.tuples(st.integers(0, len(value) - 1), JUNK).map(
            lambda ij: [ij[1] if k == ij[0] else v for k, v in enumerate(value)])
    return JUNK


SCALARS = (st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=True, allow_infinity=True)
           | st.text(max_size=3) | st.binary(max_size=3))
JUNK = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3) | st.tuples(inner, inner)
                    | st.dictionaries(st.text(max_size=2) | st.integers(-2, 2), inner, max_size=3), max_leaves=6) \
    | st.builds(nested, st.integers(1000, 4000), st.sampled_from([lambda v: [v], lambda v: (v,), lambda v: {0: v}]))


@pytest.mark.parametrize("name", CALLS)
@settings(max_examples=8, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_each_generated_wrong_kind_value_gives_a_result_or_an_obskit_error(name, data):
    args = valid_args(name)
    position = data.draw(st.integers(0, len(args) - 1), label="position")
    junk = data.draw(mutants(args[position]) if data.draw(st.booleans(), label="mutate") else JUNK, label="junk")
    call_must_keep_the_contract(name, position, junk)


# -- junk inside a valid-looking ledger ----------------------------------------------
# The calls that read a ledger's entries, given a ledger of one entry with a wrong-kind value in
# one field; building the entry is part of the call, so it may be what raises.

LEDGER_READERS = ["record_fact", "facts_relative_to", "known_spin_values", "FactLedger.last_step"]


def read_must_keep_the_contract(name: str, position: int, junk) -> None:
    entry = list(VALID["FactEntry"]())
    entry[position] = junk
    _, _, method = name.partition(".")

    def read():
        ledger = obskit.FactLedger((obskit.FactEntry(*entry),))
        return getattr(ledger, method)(*valid_args(name)) if method else target(name)(ledger, *valid_args(name)[1:])
    must_keep_the_contract(read, f"{name} on a ledger entry with a wrong-kind value in position {position}")


@pytest.mark.parametrize("name, position", [pytest.param(n, p, id=f"{n}-{p}") for n in LEDGER_READERS
                                            for p in range(len(VALID["FactEntry"]()))])
def test_each_fixed_nasty_value_in_a_ledger_entry_gives_a_result_or_an_obskit_error(name, position):
    for junk in NASTY.values():
        read_must_keep_the_contract(name, position, junk)


@pytest.mark.parametrize("name", LEDGER_READERS)
@settings(max_examples=8, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_each_generated_value_in_a_ledger_entry_gives_a_result_or_an_obskit_error(name, data):
    position = data.draw(st.integers(0, len(VALID["FactEntry"]()) - 1), label="position")
    read_must_keep_the_contract(name, position, data.draw(JUNK, label="junk"))


# -- round trip: what serializes parses back equal -----------------------------

IDENTIFIER = st.text(min_size=1, max_size=4).filter(lambda s: "," not in s)  # what a document can hold
IDENTIFIERS = st.lists(IDENTIFIER, min_size=1, max_size=4, unique=True)


@st.composite
def observers(draw) -> obskit.Observer:
    states, inputs, outputs = draw(IDENTIFIERS), draw(IDENTIFIERS), draw(IDENTIFIERS)
    transition = {(x, y): draw(st.sampled_from(states)) for x in states for y in inputs}
    output_map = {x: draw(st.sampled_from(outputs)) for x in states}
    return obskit.Observer(states, inputs, outputs, transition, output_map, draw(st.text(max_size=5)))


@st.composite
def environments(draw) -> obskit.Environment:
    states, actions, readings = draw(IDENTIFIERS), draw(IDENTIFIERS), draw(IDENTIFIERS)
    transition = {(s, a): draw(st.sampled_from(states)) for s in states for a in actions}
    return obskit.Environment(states, actions, transition, {s: draw(st.sampled_from(readings)) for s in states})


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(obs=observers(), env=environments())
def test_a_machine_with_serializable_identifiers_parses_back_equal(obs, env):
    for machine, serialize, parse in ((obs, obskit.serialize_observer, obskit.parse_observer),
                                      (env, obskit.serialize_environment, obskit.parse_environment)):
        text = serialize(machine)
        assert parse(text) == machine
        assert parse(text.encode("utf-8")) == machine
        assert serialize(parse(text)) == text
