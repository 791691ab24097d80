"""Core machine construction, stepping, coupled runs, and minimality checks."""

from __future__ import annotations

import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import obskit.core
from obskit.ca import pbm_bytes, render_text, rule_table
from obskit.composition import (
    FactLedger,
    RuleFamily,
    RuleTable,
    Wiring,
    check_well_founded,
    facts_relative_to,
    record_fact,
    second_order_wrap,
    stack,
)
from obskit.core import (
    CoupledSystem,
    Environment,
    Observer,
    Trace,
    validate_minimal,
)
from obskit.documents import parse_environment, parse_observer, serialize_environment, serialize_observer
from obskit.errors import (
    DefinitionError,
    DocumentParseError,
    IdentifierError,
    IncompatibleAlphabetsError,
    WiringError,
)
from obskit.machines import (
    constant_environment,
    flip_environment,
    redundant_observer,
    scripted_environment,
    thermostat,
)
from obskit.metrics import adaptation_time, expected_hitting_time
from obskit.morphism import BehavioralPartition, ObserverMorphism, equivalence_partition, identity_morphism

from conftest import random_environment, random_observer, random_system, reachable_joints_oracle

DEEP = []  # a list nested 5,000 deep: its repr raises RecursionError
for _ in range(5000):
    DEEP = [DEEP]


# -- construction invariants -------------------------------------------------

def test_duplicate_identifiers_rejected():
    with pytest.raises(DefinitionError):
        Observer(("a", "a"), ("y",), ("z",),
                 {("a", "y"): "a"}, {"a": "z"})


def test_empty_sets_rejected():
    with pytest.raises(DefinitionError):
        Observer((), ("y",), ("z",), {}, {})


def test_partial_transition_rejected():
    with pytest.raises(DefinitionError):
        Observer(("a", "b"), ("y",), ("z",),
                 {("a", "y"): "a"}, {"a": "z", "b": "z"})


def test_transition_target_outside_states_rejected():
    with pytest.raises(DefinitionError):
        Observer(("a",), ("y",), ("z",), {("a", "y"): "ghost"}, {"a": "z"})


def test_environment_totality_enforced():
    with pytest.raises(DefinitionError):
        Environment(("s",), ("go",), {}, {"s": "r"})


def test_incompatible_alphabets_rejected_at_coupling():
    env = Environment(
        states=("s",), actions=("HeaterOff", "HeaterOn"),
        transition={("s", "HeaterOff"): "s", ("s", "HeaterOn"): "s"},
        observation={"s": "Warm"},  # not a thermostat input
    )
    with pytest.raises(IncompatibleAlphabetsError):
        CoupledSystem(thermostat(), env)


def test_observer_actions_the_environment_does_not_accept_are_rejected_at_coupling():
    env = Environment(
        states=("Cold", "Hot"), actions=("HeaterOff",),
        transition={("Cold", "HeaterOff"): "Cold", ("Hot", "HeaterOff"): "Cold"},
        observation={"Cold": "Cold", "Hot": "Hot"},
    )
    with pytest.raises(IncompatibleAlphabetsError, match="does not accept: \\[\"'HeaterOn'\"\\]"):
        CoupledSystem(thermostat(), env)


@pytest.mark.parametrize("observer, environment, message", [
    (None, flip_environment(), "observer must be an Observer, got None"),
    (thermostat(), None, "environment must be an Environment, got None"),
    (flip_environment(), thermostat(), "observer must be an Observer, got Environment"),
], ids=["no-observer", "no-environment", "swapped"])
def test_coupling_what_is_not_an_observer_and_an_environment_is_a_definition_error(
        observer, environment, message):
    with pytest.raises(DefinitionError, match=message):
        CoupledSystem(observer, environment)


def test_environment_observe_and_react():
    env = flip_environment()
    assert env.observe("Hot") == "Hot"
    assert env.react("Cold", "HeaterOn") == "Hot"
    with pytest.raises(IdentifierError, match="unknown environment state 'Warm'"):
        env.observe("Warm")
    with pytest.raises(IdentifierError, match="unknown environment state or action"):
        env.react("Cold", "Fan")


@pytest.mark.parametrize("make, table, key", [
    (thermostat, "transition", ("OFF", "Cold")),
    (thermostat, "output_map", "OFF"),
    (flip_environment, "observation", "Cold"),
    pytest.param(lambda: rule_table(110), "table", (0, 0, 0), id="rule_110-table"),
    pytest.param(lambda: identity_morphism(thermostat()), "state_map", "OFF",
                 id="thermostat_identity-state_map-OFF"),
])
def test_tables_are_read_only(make, table, key):
    machine = make()
    with pytest.raises(TypeError):
        getattr(machine, table)[key] = "BOGUS"
    assert machine == make()


def test_equal_observers_hash_equal():
    assert hash(thermostat()) == hash(thermostat())
    assert len({thermostat(), thermostat(), flip_environment()}) == 2


def test_equal_morphisms_and_rules_hash_equal():
    assert hash(identity_morphism(thermostat())) == hash(identity_morphism(thermostat()))
    assert len({identity_morphism(thermostat()), identity_morphism(redundant_observer())}) == 2
    assert len({rule_table(110), rule_table(110), rule_table(30)}) == 2


@pytest.mark.parametrize("make", [
    thermostat,
    flip_environment,
    pytest.param(lambda: identity_morphism(thermostat()), id="thermostat_identity"),
])
def test_machines_survive_pickle_and_deepcopy(make):
    machine = make()
    assert pickle.loads(pickle.dumps(machine)) == machine
    assert copy.deepcopy(machine) == machine


def test_int_tables_follow_construction_order():
    obs = thermostat()
    assert obs.f == ((1, 0), (1, 0))
    assert obs.g == (0, 1)
    assert flip_environment().f == ((0, 1), (0, 1))
    assert flip_environment().readings == ("Cold", "Hot")


# -- observer stepping ---------------------------------------------------------

def test_thermostat_transition_table():
    obs = thermostat()
    assert obs.step("OFF", "Cold") == "ON"
    assert obs.step("OFF", "Hot") == "OFF"
    assert obs.step("ON", "Cold") == "ON"
    assert obs.step("ON", "Hot") == "OFF"


def test_thermostat_outputs():
    obs = thermostat()
    assert obs.output("ON") == "HeaterOn"
    assert obs.output("OFF") == "HeaterOff"


def test_unknown_input_is_identifier_error():
    with pytest.raises(IdentifierError):
        thermostat().step("OFF", "Warm")


def test_unknown_state_is_identifier_error():
    with pytest.raises(IdentifierError):
        thermostat().step("MAYBE", "Cold")
    with pytest.raises(IdentifierError):
        thermostat().output("MAYBE")


@pytest.mark.parametrize("call, message", [
    (lambda: thermostat().step(["OFF"], "Cold"), "unknown state ['OFF']"),
    (lambda: thermostat().step("OFF", ["Cold"]), "unknown input ['Cold']"),
    (lambda: thermostat().output(["OFF"]), "unknown state ['OFF']"),
    (lambda: thermostat().respond("OFF", ["Cold", ["Hot"]]), "unknown input ['Hot']"),
    (lambda: thermostat().respond({"OFF"}, ["Cold"]), "unknown state {'OFF'}"),
    (lambda: flip_environment().observe(["Cold"]), "unknown environment state ['Cold']"),
    (lambda: flip_environment().react(["Cold"], "HeaterOn"),
     "unknown environment state or action (['Cold'], 'HeaterOn')"),
    (lambda: flip_environment().react("Cold", {"HeaterOn": 1}),
     "unknown environment state or action ('Cold', {'HeaterOn': 1})"),
], ids=["step-state", "step-input", "output", "respond-input", "respond-start", "observe",
        "react-state", "react-action"])
def test_an_unhashable_label_is_an_identifier_error_with_the_unknown_label_message(call, message):
    with pytest.raises(IdentifierError) as caught:
        call()
    assert str(caught.value) == message


def test_unknown_label_messages_are_unchanged():
    obs, env = thermostat(), flip_environment()
    for call, message in [
        (lambda: obs.step("MAYBE", "Warm"), "unknown state 'MAYBE'"),
        (lambda: obs.step("OFF", "Warm"), "unknown input 'Warm'"),
        (lambda: obs.output("MAYBE"), "unknown state 'MAYBE'"),
        (lambda: env.observe("Warm"), "unknown environment state 'Warm'"),
        (lambda: env.react("Cold", "Fan"), "unknown environment state or action ('Cold', 'Fan')"),
    ]:
        with pytest.raises(IdentifierError) as caught:
            call()
        assert str(caught.value) == message


def test_respond_runs_open_loop():
    obs = thermostat()
    assert obs.respond("OFF", ("Cold", "Hot", "Cold")) == ("HeaterOn", "HeaterOff", "HeaterOn")


# -- the coupled loop -----------------------------------------------------------

def test_coupled_step_from_off_cold():
    system = CoupledSystem(thermostat(), flip_environment())
    joint, record = system.step(("OFF", "Cold"))
    assert joint == ("ON", "Hot")
    assert (record.y, record.x, record.z, record.s) == ("Cold", "ON", "HeaterOn", "Hot")


def test_coupled_step_from_on_hot():
    system = CoupledSystem(thermostat(), flip_environment())
    joint, record = system.step(("ON", "Hot"))
    assert joint == ("OFF", "Cold")
    assert (record.y, record.z) == ("Hot", "HeaterOff")


def test_frozen_environment_never_moves():
    obs = thermostat()
    env = Environment(
        states=("Cold", "Hot"),
        actions=obs.outputs,
        transition={(s, z): s for s in ("Cold", "Hot") for z in obs.outputs},
        observation={"Cold": "Cold", "Hot": "Hot"},
    )
    system = CoupledSystem(obs, env)
    for joint in (("OFF", "Cold"), ("ON", "Hot")):
        (_, s2), _ = system.step(joint)
        assert s2 == joint[1]


def test_zero_horizon_gives_empty_trace():
    system = CoupledSystem(thermostat(), flip_environment())
    assert system.run(("OFF", "Cold"), 0) == Trace(())


def test_four_step_run_cycles():
    system = CoupledSystem(thermostat(), flip_environment())
    trace = system.run(("OFF", "Cold"), 4)
    assert trace.joint_states() == (
        ("ON", "Hot"), ("OFF", "Cold"), ("ON", "Hot"), ("OFF", "Cold"),
    )


def test_negative_horizon_rejected():
    system = CoupledSystem(thermostat(), flip_environment())
    with pytest.raises(DefinitionError):
        system.run(("OFF", "Cold"), -1)


def test_runs_are_deterministic():
    system = CoupledSystem(thermostat(), flip_environment())
    assert system.run(("OFF", "Cold"), 9) == system.run(("OFF", "Cold"), 9)


@pytest.mark.parametrize("horizon, message", [
    (2.5, "^horizon must be an integer, got 2.5$"),
    ("3", "^horizon must be an integer, got '3'$"),
    (None, "^horizon must be an integer, got None$"),
    (-1, "^horizon must be non-negative$"),
])
def test_a_horizon_that_is_not_a_count_is_a_definition_error(horizon, message):
    system = CoupledSystem(thermostat(), flip_environment())
    with pytest.raises(DefinitionError, match=message):
        system.run(("OFF", "Cold"), horizon)


@pytest.mark.parametrize("call", [
    lambda system: system.step(("OFF",)),
    lambda system: system.step(7),
    lambda system: system.run("OFF", 1),
    lambda system: system.run((["OFF"], "Cold"), 0),
    lambda system: adaptation_time(system, ("OFF", "Cold", "x")),
    lambda system: system.reachable_joints([(["OFF"], "Cold")]),
    lambda system: validate_minimal(system, [("OFF", {"Cold": 1})]),
], ids=["step-one-item", "step-int", "run-string", "run-list-label", "adapt-three-items",
        "reachable-list-label", "minimal-dict-label"])
def test_a_joint_that_is_not_a_pair_of_hashable_labels_is_an_identifier_error(call):
    system = CoupledSystem(thermostat(), flip_environment())
    with pytest.raises(IdentifierError, match="pair"):
        call(system)


@pytest.mark.parametrize("call, message", [
    (lambda system: expected_hitting_time([[.5, .5, 0], [0, .5, .5], [0, 0, 1]], 0, 5), "goal"),
    (lambda system: expected_hitting_time([[.5, .5, 0], [0, .5, .5], [0, 0, 1]], 0, None), "goal"),
    (lambda system: equivalence_partition(None), "observers"),
    (lambda system: equivalence_partition(5), "observers"),
    (lambda system: system.reachable_joints(None), "starts"),
    (lambda system: validate_minimal(system, None), "starts"),
], ids=["hit-goal-int", "hit-goal-none", "partition-none", "partition-int", "reachable-none",
        "minimal-none"])
def test_a_collection_argument_that_is_not_iterable_is_a_definition_error(call, message):
    system = CoupledSystem(thermostat(), flip_environment())
    with pytest.raises(DefinitionError, match=f"^{message} must be iterable, got "):
        call(system)


@pytest.mark.parametrize("call, message", [
    (lambda system: stack(thermostat(), "x", Wiring({z: z for z in thermostat().outputs})),
     "upper must be an Observer"),
    (lambda system: stack(None, thermostat(), Wiring({})), "lower must be an Observer"),
    (lambda system: stack(thermostat(), thermostat(), 5), "wiring must be a Wiring"),
    (lambda system: record_fact(None, "o", 1, "y", "a"), "ledger must be a FactLedger"),
    (lambda system: facts_relative_to(None, "o", 1), "ledger must be a FactLedger"),
    (lambda system: check_well_founded(5), "meta_graph must be a mapping"),
    (lambda system: check_well_founded({1: 5}), "each meta_graph value must be iterable"),
    (lambda system: serialize_observer(None), "expected an Observer"),
    (lambda system: serialize_environment(None), "expected an Environment"),
    (lambda system: render_text(5), "rows must be iterable"),
    (lambda system: pbm_bytes(5), "rows must be iterable"),
    (lambda system: render_text([5]), "a diagram row must be iterable"),
    (lambda system: pbm_bytes([5]), "a diagram row must be iterable"),
    (lambda system: system.observer.respond("OFF", 5), "word must be iterable"),
    (lambda system: adaptation_time(system, ("OFF", "Cold"), goal="x"), "goal must be callable"),
    (lambda system: Observer((["a"],), ("y",), ("z",), {}, {}), "states must hold hashable identifiers"),
    (lambda system: Observer(("a",), ("y",), ("z",), {("a", "y"): "a"}, {"a": "z"}, 5), "boundary must be a string"),
    (lambda system: Observer(("a",), ("y",), ("z",), {("a", "y"): "a"}, {"a": "z"}, None),
     "boundary must be a string"),
    (lambda system: Environment(("s",), ("a",), {("s", "a"): "s"}, {"s": ["r"]}),
     "observation map must hold hashable readings"),
    (lambda system: second_order_wrap(5, ("y",), ("z",), 5), "states must be iterable"),
    (lambda system: second_order_wrap(("a",), ("y",), ("z",), 5), "family must be a RuleFamily"),
    (lambda system: second_order_wrap(("a",), ("y",), ("z",), RuleFamily((5,), {})),
     "each rule family table must be a RuleTable"),
    (lambda system: record_fact(FactLedger(), "o", "1", "y", "a"), "step must be an integer"),
    (lambda system: facts_relative_to(record_fact(FactLedger(), "o", 1, "y", "a"), "o", "2"),
     "step must be an integer"),
    (lambda system: adaptation_time(5, ("OFF", "Cold")), "system must be a CoupledSystem"),
    (lambda system: validate_minimal(5, [("OFF", "Cold")]), "system must be a CoupledSystem"),
    (lambda system: parse_observer(5), "a document must be str or bytes"),
    (lambda system: parse_environment(5), "a document must be str or bytes"),
    (lambda system: check_well_founded({1: [[2]]}), "meta_graph must hold hashable nodes"),
    (lambda system: check_well_founded(registry=5), "registry must be a MetaRegistry"),
    (lambda system: stack(thermostat(), thermostat(), Wiring({"HeaterOff": "Cold", "HeaterOn": "Hot"}), registry=5),
     "registry must be a MetaRegistry"),
    (lambda system: scripted_environment(None, ("HeaterOff",)), "readings must be iterable"),
    (lambda system: scripted_environment(["Cold"], None), "actions must be iterable"),
    (lambda system: rule_table(110)(2, 0, 0), "a neighborhood must be three bits"),
    (lambda system: rule_table(110)([0], 0, 0), "a neighborhood must be three bits"),
    (lambda system: ObserverMorphism({"OFF": ["ON"]}, {}, {}), "a morphism's maps must hold hashable values"),
    (lambda system: BehavioralPartition([None]), "each block of classes must be iterable"),
    # the message shows a placeholder where repr would raise RecursionError
    (lambda system: check_well_founded(DEEP), "meta_graph must be a mapping"),
    (lambda system: rule_table(DEEP), "rule number must be in 0..255"),
    (lambda system: stack(DEEP, thermostat(), Wiring({})), "lower must be an Observer"),
    (lambda system: expected_hitting_time([[1.0]], DEEP, [0]), "start index must be an integer"),
], ids=["stack-upper-str", "stack-lower-none", "stack-wiring-int", "record-fact-none", "facts-none", "well-founded-int",
        "well-founded-value-int", "serialize-observer-none", "serialize-environment-none", "render-text-int",
        "pbm-int", "render-text-row-int", "pbm-row-int", "respond-int", "adapt-goal-str", "observer-unhashable-state",
        "observer-boundary-int", "observer-boundary-none", "environment-unhashable-reading", "wrap-states-int",
        "wrap-family-int", "rule-family-table-int", "record-fact-step-str", "facts-step-str", "adapt-system-int",
        "minimal-system-int", "parse-observer-int", "parse-environment-int", "well-founded-unhashable-node",
        "well-founded-registry-int", "stack-registry-int", "scripted-readings-none", "scripted-actions-none",
        "rule-call-two", "rule-call-list", "morphism-unhashable-value", "partition-block-none", "well-founded-deep",
        "rule-table-deep", "stack-lower-deep", "hit-start-deep"])
def test_an_argument_of_the_wrong_kind_is_a_definition_error(call, message):
    system = CoupledSystem(thermostat(), flip_environment())
    with pytest.raises(DefinitionError, match=f"^{message}, got "):
        call(system)


def test_a_value_nested_too_deeply_to_show_is_named_by_its_type():
    # showing the value with repr used to raise a bare RecursionError
    system = CoupledSystem(thermostat(), flip_environment())
    shown = "<list nested too deeply to show>"
    with pytest.raises(IdentifierError, match=f"^unknown state {shown}$"):
        system.observer.step(DEEP, "Cold")
    with pytest.raises(IdentifierError, match=f"^a joint is an .* pair, got {shown}$"):
        system.run(DEEP, 3)
    assert str(DocumentParseError(DEEP, DEEP, 2)) == f"{shown} (line {shown}, column 2)"
    assert str(DocumentParseError("bad", 1, 2)) == "bad (line 1, column 2)"


@pytest.mark.parametrize("call, error, message", [
    (lambda: Observer(("a",), ("y",), ("z",), {("a", "y"): ["a"]}, {"a": "z"}), DefinitionError,
     "transition[('a', 'y')] = ['a']"),
    (lambda: Observer(("a",), ("y",), ("z",), {("a", "y"): "a"}, {"a": ["z"]}), DefinitionError,
     "output_map['a'] = ['z']"),
    (lambda: Environment(("s",), ("a",), {("s", "a"): {"s"}}, {"s": "r"}), DefinitionError,
     "environment transition[('s', 'a')] = {'s'}"),
    (lambda: stack(thermostat(), thermostat(), Wiring({"HeaterOff": ["Cold"], "HeaterOn": "Hot"})), WiringError,
     "lift['HeaterOff'] = ['Cold']"),
    (lambda: second_order_wrap(("a",), ("y",), ("z",), RuleFamily(
        (RuleTable({("a", "y"): "a"}, {"a": "z"}),), {(0, "a", "y"): [0]})), DefinitionError,
     "meta_update[(0, 'a', 'y')] = [0]"),
], ids=["observer-transition", "observer-output-map", "environment-transition", "wiring-lift", "meta-update"])
def test_an_unhashable_table_value_is_a_typed_error_naming_the_entry(call, error, message):
    # hashing every value at once used to raise a bare TypeError
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == f"{message} is not a declared target"


def test_a_list_pair_of_known_labels_is_a_joint_everywhere():
    system = CoupledSystem(thermostat(), flip_environment())
    for call in (system.step, lambda j: system.run(j, 5), lambda j: system.reachable_joints([j]),
                 lambda j: adaptation_time(system, j), lambda j: validate_minimal(system, [j])):
        assert call(["OFF", "Cold"]) == call(("OFF", "Cold"))
    assert system.reachable_joints([["OFF", "Cold"]]) == (("OFF", "Cold"), ("ON", "Hot"))
    constant = CoupledSystem(thermostat(), constant_environment("Hot"))
    assert constant.reachable_joints([["OFF", "Hot"]]) == (("OFF", "Hot"),)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_loop_order_law_holds_on_random_systems(seed):
    # replay every record with the raw maps: y from the previous environment
    # state, then the state update, then the output, then the reaction
    rng = random.Random(seed)
    system = random_system(rng)
    obs, env = system.observer, system.environment
    joint = (rng.choice(obs.states), rng.choice(env.states))
    trace = system.run(joint, 12)
    x, s = joint
    for record in trace:
        y = env.observation[s]
        x = obs.transition[(x, y)]
        z = obs.output_map[x]
        s = env.transition[(s, z)]
        assert (record.y, record.x, record.z, record.s) == (y, x, z, s)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_pigeonhole_recurrence(seed):
    rng = random.Random(seed)
    system = random_system(rng)
    bound = len(system.observer.states) * len(system.environment.states)
    joint = (system.observer.states[0], system.environment.states[0])
    joints = (joint,) + system.run(joint, bound + 1).joint_states()
    assert len(set(joints)) < len(joints)


# -- minimality ------------------------------------------------------------------

def test_reachable_joints_match_the_per_start_oracle_in_order():
    rng = random.Random(41)
    for _ in range(200):
        obs = random_observer(rng, max_size=12)
        system = CoupledSystem(obs, random_environment(rng, obs, n_env=rng.randint(1, 12)))
        pool = [(rng.choice(obs.states), rng.choice(system.environment.states))
                for _ in range(rng.randint(1, 8))]
        starts = [rng.choice(pool) for _ in range(rng.randint(1, 20))]
        assert system.reachable_joints(starts) == reachable_joints_oracle(system, starts)


def test_reachable_joints_check_a_start_after_the_walks_have_covered_it():
    system = CoupledSystem(thermostat(), flip_environment())
    assert system.reachable_joints([("OFF", "Cold"), ("ON", "Hot")]) == (("OFF", "Cold"), ("ON", "Hot"))
    with pytest.raises(IdentifierError, match="unknown environment state 'Mars'"):
        system.reachable_joints([("OFF", "Cold"), ("ON", "Hot"), ("ON", "Mars")])


def test_thermostat_with_flip_environment_is_minimal():
    system = CoupledSystem(thermostat(), flip_environment())
    report = validate_minimal(system, [("OFF", "Cold")])
    assert report.passed
    assert all(report.conditions().values())


def test_single_state_observer_fails_dynamics():
    obs = Observer(("only",), ("Cold", "Hot"), ("HeaterOff",),
                   {("only", "Cold"): "only", ("only", "Hot"): "only"},
                   {"only": "HeaterOff"})
    system = CoupledSystem(obs, flip_environment())
    report = validate_minimal(system, [("only", "Cold")])
    assert not report.nontrivial_dynamics
    assert not report.passed


def test_constant_observation_breaks_feedback_closure():
    obs = thermostat()
    env = Environment(
        states=("Cold", "Hot"),
        actions=obs.outputs,
        transition=flip_environment().transition,
        observation={"Cold": "Cold", "Hot": "Cold"},
    )
    report = validate_minimal(CoupledSystem(obs, env), [("OFF", "Cold")])
    assert not report.readings_track_environment
    assert not report.feedback_closure
    assert not report.passed


def test_constant_environment_breaks_action_influence():
    system = CoupledSystem(thermostat(), constant_environment("Hot"))
    report = validate_minimal(system, [("ON", "Hot")])
    assert not report.actions_can_change_environment
    assert not report.passed


def test_minimality_monotone_under_alphabet_extension():
    obs = thermostat()
    env = flip_environment()
    base = validate_minimal(CoupledSystem(obs, env), [("OFF", "Cold")])
    assert base.passed

    extended_obs = Observer(
        states=obs.states + ("SPARE",),
        inputs=obs.inputs + ("Tepid",),
        outputs=obs.outputs,
        transition={
            **obs.transition,
            **{(x, "Tepid"): x for x in obs.states},
            **{("SPARE", y): "SPARE" for y in obs.inputs + ("Tepid",)},
        },
        output_map={**obs.output_map, "SPARE": "HeaterOff"},
    )
    extended_env = Environment(
        states=env.states + ("Vacuum",),
        actions=env.actions + ("Nothing",),
        transition={
            **env.transition,
            **{(s, "Nothing"): s for s in env.states},
            **{("Vacuum", a): "Vacuum" for a in env.actions + ("Nothing",)},
        },
        observation={**env.observation, "Vacuum": "Tepid"},
    )
    extended = validate_minimal(
        CoupledSystem(extended_obs, extended_env), [("OFF", "Cold")]
    )
    for name, value in base.conditions().items():
        if value:
            assert extended.conditions()[name], f"extension flipped {name}"


def test_only_run_builds_trace_records(monkeypatch):
    built = []

    class CountingRecord(obskit.core.TraceRecord):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(obskit.core, "TraceRecord", CountingRecord)
    system = CoupledSystem(thermostat(), flip_environment())
    adaptation_time(system, ("OFF", "Cold"))
    adaptation_time(system, ("OFF", "Cold"), goal=lambda joint: joint[1] == "Mars")
    adaptation_time(system, ("OFF", "Cold"), goal=lambda joint: joint == ("ON", "Hot"))
    validate_minimal(system, [("OFF", "Cold"), ("ON", "Hot")])
    assert built == []
    trace = system.run(("OFF", "Cold"), 7)
    assert len(built) == 7
    assert all(type(record) is CountingRecord for record in trace)
