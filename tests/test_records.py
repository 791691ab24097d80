"""The value contract every public record type keeps.

One instance of each of the 20 record types is checked for equality and
hashing, pickling, immutability, argument binding and ``repr``; then the
sequence fields are checked to be stored as tuples, so the values stay
hashable whatever sequence they were built from, and two literal tables pin
which fields of each type are stored as a mapping or a tuple, and which must
hold a record or a tuple of records.
"""

from __future__ import annotations

import copy
import re
import pickle
from collections.abc import Mapping

import pytest

from obskit.ca import CARule, EmbeddedSystem, transparent_observer
from obskit.composition import (
    FactEntry,
    FactLedger,
    LabScriptRun,
    RuleFamily,
    RuleTable,
    WellFoundedReport,
    Wiring,
    record_fact,
    second_order_wrap,
    stack,
)
from obskit.core import (
    CoupledSystem,
    Environment,
    MinimalityReport,
    Observer,
    Trace,
    TraceRecord,
)
from obskit.errors import DefinitionError, ObskitError
from obskit.machines import thermostat
from obskit.metrics import AdaptationResult, ComplexityReport
from obskit.morphism import BehavioralPartition, MorphismCheck, ObserverMorphism

OBSERVER = dict(states=("a", "b"), inputs=("y",), outputs=("z",),
                transition={("a", "y"): "b", ("b", "y"): "a"}, output_map={"a": "z", "b": "z"},
                boundary="")
ENVIRONMENT = dict(states=("s",), actions=("z",), transition={("s", "z"): "s"}, observation={"s": "y"})
ENTRY = dict(observer_id="obs", step=1, received="y", state="a")

# (type, keyword arguments in field order, number of fields without a default);
# every field after those holds its default
SAMPLES = [
    (Observer, OBSERVER, 5),
    (Environment, ENVIRONMENT, 4),
    (TraceRecord, dict(t=0, y="y", x="b", z="z", s="s"), 5),
    (Trace, dict(steps=()), 0),
    (CoupledSystem, dict(observer=Observer(**OBSERVER), environment=Environment(**ENVIRONMENT)), 2),
    (MinimalityReport, dict(has_inputs=True, has_outputs=True, nontrivial_dynamics=False,
                            actions_can_change_environment=True, readings_track_environment=False), 5),
    (CARule, dict(number=110), 1),
    (EmbeddedSystem, dict(rule=CARule(110), lattice=(0, 1) * 4, block_start=2, block_width=2,
                          observer=transparent_observer(CARule(110), 2)), 5),
    (Wiring, dict(lift={"z": "y"}, drop=None), 1),
    (WellFoundedReport, dict(well_founded=True, cycle=None), 1),
    (RuleTable, dict(transition={("a", "y"): "a"}, output_map={"a": "z"}), 2),
    (RuleFamily, dict(tables=(RuleTable({("a", "y"): "a"}, {"a": "z"}),),
                      meta_update={(0, "a", "y"): 0}), 2),
    (FactEntry, ENTRY, 4),
    (FactLedger, dict(entries=()), 0),
    (LabScriptRun, dict(ledger=FactLedger((FactEntry(**ENTRY),)), insider_id="in",
                        outsider_id="out", measurement_step=1, read_step=5), 5),
    (ComplexityReport, dict(raw_log=1.0, redundancy=0.5, complexity=0.5, reduced_sizes=(2, 1, 1)), 4),
    (AdaptationResult, dict(kind="goal-reached", steps=None, cycle_period=None), 1),
    (ObserverMorphism, dict(state_map={"a": "b", "b": "a"}, input_map={"y": "y"},
                            output_map={"z": "z"}), 3),
    (MorphismCheck, dict(holds=True, transition_failures=(), output_failures=()), 3),
    (BehavioralPartition, dict(classes=(("a",), ("b",))), 1),
]
IDS = [cls.__name__ for cls, _, _ in SAMPLES]


def build(cls, kwargs):
    return cls(*copy.deepcopy(tuple(kwargs.values())))


def test_there_is_one_sample_per_record_type():
    assert len({cls for cls, _, _ in SAMPLES}) == 20


@pytest.mark.parametrize("cls, kwargs, required", SAMPLES, ids=IDS)
def test_equal_values_compare_and_hash_equal(cls, kwargs, required):
    a, b = build(cls, kwargs), build(cls, kwargs)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    for other_cls, other_kwargs, _ in SAMPLES:
        if other_cls is not cls:
            assert a != build(other_cls, other_kwargs)


@pytest.mark.parametrize("cls, kwargs, required", SAMPLES, ids=IDS)
def test_values_survive_pickle_and_deepcopy(cls, kwargs, required):
    value = build(cls, kwargs)
    assert pickle.loads(pickle.dumps(value)) == value
    assert copy.deepcopy(value) == value


@pytest.mark.parametrize("cls, kwargs, required", SAMPLES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, kwargs, required):
    value = build(cls, kwargs)
    name = next(iter(kwargs))
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.not_a_field = None
    assert value == build(cls, kwargs)


@pytest.mark.parametrize("cls, kwargs, required", SAMPLES, ids=IDS)
def test_positional_keyword_and_default_construction_agree(cls, kwargs, required):
    args = tuple(kwargs.values())
    value = cls(*args)
    assert cls(**kwargs) == value
    assert cls(*args[:1], **dict(list(kwargs.items())[1:])) == value
    assert cls(*args[:required]) == value


@pytest.mark.parametrize("cls, kwargs, required", SAMPLES, ids=IDS)
def test_missing_unknown_and_repeated_arguments_are_type_errors(cls, kwargs, required):
    args = tuple(kwargs.values())
    if required:
        with pytest.raises(TypeError):
            cls(*args[:required - 1])
    with pytest.raises(TypeError):
        cls(*args, not_a_field=1)
    with pytest.raises(TypeError):
        cls(*args, **{next(iter(kwargs)): args[0]})
    with pytest.raises(TypeError):
        cls(*args, args[0])


@pytest.mark.parametrize("value, text", [
    (Observer(**OBSERVER),
     "Observer(states=('a', 'b'), inputs=('y',), outputs=('z',), "
     "transition=mappingproxy({('a', 'y'): 'b', ('b', 'y'): 'a'}), "
     "output_map=mappingproxy({'a': 'z', 'b': 'z'}), boundary='')"),
    (ObserverMorphism({"a": "b", "b": "a"}, {"y": "y"}, {"z": "z"}),
     "ObserverMorphism(state_map=mappingproxy({'a': 'b', 'b': 'a'}), "
     "input_map=mappingproxy({'y': 'y'}), output_map=mappingproxy({'z': 'z'}), bijective=True)"),
    (TraceRecord(0, "y", "b", "z", "s"), "TraceRecord(t=0, y='y', x='b', z='z', s='s')"),
    (CARule(110), "CARule(number=110)"),
    (ComplexityReport(1.0, 0.5, 0.5, (2, 1, 1)),
     "ComplexityReport(raw_log=1.0, redundancy=0.5, complexity=0.5, reduced_sizes=(2, 1, 1))"),
], ids=["Observer", "ObserverMorphism", "TraceRecord", "CARule", "ComplexityReport"])
def test_repr_is_pinned(value, text):
    assert repr(value) == text


# -- sequence fields are stored as tuples --------------------------------------

def test_a_ledger_built_from_a_list_takes_new_facts():
    ledger = record_fact(FactLedger([]), "a", 0, "x", "y")
    assert ledger.entries == (FactEntry("a", 0, "x", "y"),)
    assert hash(FactLedger([])) == hash(FactLedger())


@pytest.mark.parametrize("from_list, from_tuple", [
    (Trace([TraceRecord(0, 1, 2, 3, 4)]), Trace((TraceRecord(0, 1, 2, 3, 4),))),
    (FactLedger([FactEntry("a", 0, "x", "y")]), FactLedger((FactEntry("a", 0, "x", "y"),))),
    (BehavioralPartition([("a",)]), BehavioralPartition((("a",),))),
    (BehavioralPartition([["a", "b"]]), BehavioralPartition((("a", "b"),))),
    (MorphismCheck(False, [("a", "y")], ["a"]), MorphismCheck(False, (("a", "y"),), ("a",))),
], ids=["Trace", "FactLedger", "BehavioralPartition", "BehavioralPartition-list-blocks",
        "MorphismCheck"])
def test_values_built_from_lists_equal_and_hash_as_tuples(from_list, from_tuple):
    assert from_list == from_tuple
    assert hash(from_list) == hash(from_tuple)
    assert repr(from_list) == repr(from_tuple)


# -- derived attributes ------------------------------------------------------------

def test_environment_state_index_follows_construction_order_and_stays_out_of_equality():
    env = Environment(states=("s2", "s0", "s1"), actions=("z",),
                      transition={("s2", "z"): "s0", ("s0", "z"): "s1", ("s1", "z"): "s2"},
                      observation={"s2": "y", "s0": "y", "s1": "w"})
    assert list(env.state_index.items()) == [("s2", 0), ("s0", 1), ("s1", 2)]
    with pytest.raises(TypeError):
        env.state_index["s3"] = 3
    with pytest.raises(AttributeError):
        env.state_index = {}
    for copied in (pickle.loads(pickle.dumps(env)), copy.deepcopy(env)):
        assert copied == env and hash(copied) == hash(env)
        assert list(copied.state_index.items()) == list(env.state_index.items())
    assert "state_index" not in Environment._fields and "state_index" not in repr(env)
    assert hash(env) == hash((env.states, env.actions, env.f, env.readings))


# -- mapping fields are read-only views of private copies -----------------------

def wiring_from_dicts():
    lift, drop = {"z": "y"}, {"w": "z"}
    return Wiring(lift, drop), [lift, drop]


def rule_table_from_dicts():
    transition, output_map = {("a", "y"): "a"}, {"a": "z"}
    return RuleTable(transition, output_map), [transition, output_map]


def rule_family_from_dicts():
    table, passed = rule_table_from_dicts()
    meta_update = {(0, "a", "y"): 0}
    return RuleFamily([table], meta_update), [*passed, meta_update]


# (builder returning the record and every dict it was built from, its mapping fields)
FROM_DICTS = [
    (wiring_from_dicts, ("lift", "drop")),
    (rule_table_from_dicts, ("transition", "output_map")),
    (rule_family_from_dicts, ("meta_update",)),
]
FROM_DICTS_IDS = ["Wiring", "RuleTable", "RuleFamily"]


@pytest.mark.parametrize("from_dicts, mappings", FROM_DICTS, ids=FROM_DICTS_IDS)
def test_records_built_from_equal_dicts_hash_equal(from_dicts, mappings):
    (a, _), (b, _) = from_dicts(), from_dicts()
    assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("from_dicts, mappings", FROM_DICTS, ids=FROM_DICTS_IDS)
def test_mapping_fields_refuse_item_assignment(from_dicts, mappings):
    value, _ = from_dicts()
    for name in mappings:
        with pytest.raises(TypeError):
            getattr(value, name)["new"] = "entry"
    assert value == from_dicts()[0]


@pytest.mark.parametrize("from_dicts, mappings", FROM_DICTS, ids=FROM_DICTS_IDS)
def test_mutating_the_dicts_passed_in_leaves_the_record_unchanged(from_dicts, mappings):
    value, passed = from_dicts()
    for table in passed:
        table.clear()
        table["new"] = "entry"
    assert value == from_dicts()[0]


@pytest.mark.parametrize("from_dicts, mappings", FROM_DICTS, ids=FROM_DICTS_IDS)
def test_records_with_mapping_fields_survive_pickle_and_deepcopy_with_their_hash(from_dicts, mappings):
    value, _ = from_dicts()
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert copied == value and hash(copied) == hash(value)


# -- which fields each record type stores as a container ---------------------------

# (field, kind, None allowed) of every field stored as a read-only mapping or a tuple,
# as the evaluated annotation says: an alias (EmbeddedSystem.lattice: ca.Bits) counts,
# and a module that postponed its annotations again would stop storing its fields so
CONTAINER_FIELDS = {
    Observer: [("states", tuple, False), ("inputs", tuple, False), ("outputs", tuple, False),
               ("transition", Mapping, False), ("output_map", Mapping, False)],
    Environment: [("states", tuple, False), ("actions", tuple, False),
                  ("transition", Mapping, False), ("observation", Mapping, False)],
    TraceRecord: [],
    Trace: [("steps", tuple, False)],
    CoupledSystem: [],
    MinimalityReport: [],
    CARule: [],
    EmbeddedSystem: [("lattice", tuple, False)],
    Wiring: [("lift", Mapping, False), ("drop", Mapping, True)],
    WellFoundedReport: [("cycle", tuple, True)],
    RuleTable: [("transition", Mapping, False), ("output_map", Mapping, False)],
    RuleFamily: [("tables", tuple, False), ("meta_update", Mapping, False)],
    FactEntry: [],
    FactLedger: [("entries", tuple, False)],
    LabScriptRun: [],
    ComplexityReport: [("reduced_sizes", tuple, False)],
    AdaptationResult: [],
    ObserverMorphism: [("state_map", Mapping, False), ("input_map", Mapping, False),
                       ("output_map", Mapping, False)],
    MorphismCheck: [("transition_failures", tuple, False), ("output_failures", tuple, False)],
    BehavioralPartition: [("classes", tuple, False)],
}


def refused_as(cls, kwargs, field, value):
    """The kind a record names when ``field`` holds ``value`` and it cannot store it so, else None."""
    try:
        cls(**{**copy.deepcopy(kwargs), field: value})
    except ObskitError as error:
        shape = rf"{cls.__qualname__}\.{field} cannot be stored as a (\w+): {re.escape(repr(value))}"
        if found := re.fullmatch(shape, str(error)):
            return found[1]
    return None


def test_the_container_table_covers_every_record_type():
    assert list(CONTAINER_FIELDS) == [cls for cls, _, _ in SAMPLES]


@pytest.mark.parametrize("cls, kwargs, required", SAMPLES, ids=IDS)
def test_each_record_type_stores_the_pinned_container_fields(cls, kwargs, required):
    stored = [(field, kind, refused_as(cls, kwargs, field, None) is None)
              for field in kwargs if (kind := refused_as(cls, kwargs, field, 5))]
    assert stored == [(field, kind.__name__, optional) for field, kind, optional in CONTAINER_FIELDS[cls]]


# -- which fields each record type checks to hold records ------------------------

# (field, record type, whether it is a tuple of them) of every field that must hold a
# record, or only records, as its evaluated annotation (R, or tuple[R, ...]) says
RECORD_FIELDS = {
    Observer: [],
    Environment: [],
    TraceRecord: [],
    Trace: [("steps", TraceRecord, True)],
    CoupledSystem: [("observer", Observer, False), ("environment", Environment, False)],
    MinimalityReport: [],
    CARule: [],
    EmbeddedSystem: [("rule", CARule, False), ("observer", Observer, False)],
    Wiring: [],
    WellFoundedReport: [],
    RuleTable: [],
    RuleFamily: [("tables", RuleTable, True)],
    FactEntry: [],
    FactLedger: [("entries", FactEntry, True)],
    LabScriptRun: [("ledger", FactLedger, False)],
    ComplexityReport: [],
    AdaptationResult: [],
    ObserverMorphism: [],
    MorphismCheck: [],
    BehavioralPartition: [],
}


def claim(cls, field, record, each):
    """The message a record gives when ``field`` holds 5, or the tuple (5,), and must hold ``record``s."""
    what = f"each {cls.__qualname__}.{field} item" if each else field
    return f"{what} must be {'an' if record.__name__[0] in 'AEIOU' else 'a'} {record.__name__}, got 5"


def held_as(cls, kwargs, field):
    """(record type, tuple of them) whose message a record gives when ``field`` holds 5 or (5,), else None."""
    for value, each in ((5, False), ((5,), True)):
        try:
            cls(**{**copy.deepcopy(kwargs), field: value})
        except ObskitError as error:
            for record in RECORD_FIELDS:
                if str(error) == claim(cls, field, record, each):
                    return record, each
    return None


def test_the_record_field_table_covers_every_record_type():
    assert list(RECORD_FIELDS) == [cls for cls, _, _ in SAMPLES]


@pytest.mark.parametrize("cls, kwargs, required", SAMPLES, ids=IDS)
def test_each_record_type_checks_the_pinned_record_fields(cls, kwargs, required):
    held = [(field, *found) for field in kwargs if (found := held_as(cls, kwargs, field))]
    assert held == RECORD_FIELDS[cls]


# -- a container field that cannot be stored is a DefinitionError -----------------

@pytest.mark.parametrize("call", [
    lambda: Observer(("a",), ("y",), ("z",), 5, {"a": "z"}),
    lambda: ObserverMorphism(5, {}, {}),
    lambda: Trace(5),
    lambda: FactLedger(5),
    lambda: MorphismCheck(True, 5, ()),
    lambda: RuleFamily(5, {}),
    lambda: stack(thermostat(), thermostat(), Wiring(lift=3)),
    lambda: stack(thermostat(), thermostat(), Wiring(lift=None)),  # lift may not be None
    lambda: second_order_wrap(("a",), ("y",), ("z",),
                              RuleFamily((RuleTable(5, {"a": "z"}),), {(0, "a", "y"): 0})),
], ids=["Observer", "ObserverMorphism", "Trace", "FactLedger", "MorphismCheck", "RuleFamily",
        "Wiring-int", "Wiring-None", "RuleTable"])
def test_a_container_field_of_the_wrong_kind_is_a_definition_error(call):
    with pytest.raises(DefinitionError):
        call()


# -- a sequence of records holds records only ------------------------------------------

@pytest.mark.parametrize("call, message", [
    # both used to be accepted, and to fail later with a bare AttributeError
    (lambda: record_fact(FactLedger((5,)), "o", 1, "y", "a"),
     "each FactLedger.entries item must be a FactEntry, got 5"),
    (lambda: Trace([5]).joint_states(), "each Trace.steps item must be a TraceRecord, got 5"),
    (lambda: FactLedger([FactEntry("o", 1, "y", "a"), None]),
     "each FactLedger.entries item must be a FactEntry, got None"),
    (lambda: Trace(steps=(TraceRecord(0, "y", "x", "z", "s"), ("y", "x"))),
     "each Trace.steps item must be a TraceRecord, got ('y', 'x')"),
], ids=["ledger-int", "trace-int", "ledger-none-after-an-entry", "trace-tuple-after-a-step"])
def test_a_ledger_or_trace_entry_that_is_not_its_record_is_a_definition_error(call, message):
    with pytest.raises(DefinitionError, match=f"^{re.escape(message)}$"):
        call()

