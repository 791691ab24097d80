"""Stacks, rule-switching wrappers, meta-observation, and the fact ledger."""

from __future__ import annotations

import gc
import pickle
import random
import sys
import threading
import time
import weakref
from collections.abc import Mapping
from itertools import product

import pytest

from obskit import composition
from obskit.composition import (
    FactEntry,
    FactLedger,
    MetaRegistry,
    RuleFamily,
    RuleTable,
    Wiring,
    check_well_founded,
    facts_relative_to,
    known_spin_values,
    record_fact,
    run_lab_script,
    second_order_wrap,
    stack,
)
from obskit.core import Observer
from obskit.errors import DefinitionError, LedgerOrderError, MetaCycleError, WiringError
from obskit.machines import thermostat
from obskit.metrics import complexity
from obskit.morphism import equivalent

from conftest import cycle_oracle, random_observer, second_order_wrap_oracle, stack_oracle


def supervisor() -> Observer:
    """Two-state machine that remembers whether the heater last ran."""
    return Observer(
        states=("Calm", "Alert"),
        inputs=("saw_off", "saw_on"),
        outputs=("note_ok", "note_hot"),
        transition={
            ("Calm", "saw_off"): "Calm",
            ("Calm", "saw_on"): "Alert",
            ("Alert", "saw_off"): "Calm",
            ("Alert", "saw_on"): "Alert",
        },
        output_map={"Calm": "note_ok", "Alert": "note_hot"},
    )


def shared_alphabet_observer(rng: random.Random, alphabet=("0", "1")) -> Observer:
    """Random machine whose inputs and outputs are the same alphabet."""
    states = tuple(f"q{i}" for i in range(2))
    transition = {(x, y): rng.choice(states) for x in states for y in alphabet}
    output_map = {x: rng.choice(alphabet) for x in states}
    return Observer(states, alphabet, alphabet, transition, output_map)


# -- stack -----------------------------------------------------------------

def test_stack_cardinalities():
    lift = {"HeaterOff": "saw_off", "HeaterOn": "saw_on"}
    composite = stack(thermostat(), supervisor(), Wiring(lift=lift))
    assert len(composite.states) == 4
    assert composite.inputs == thermostat().inputs
    assert composite.outputs == thermostat().outputs
    assert len(composite.transition) == len(composite.states) * len(composite.inputs)


def test_stack_with_drop_forces_the_override():
    upper = Observer(
        states=("only",), inputs=("watch",), outputs=("mute",),
        transition={("only", "watch"): "only"},
        output_map={"only": "mute"},
    )
    wiring = Wiring(
        lift={"HeaterOff": "watch", "HeaterOn": "watch"},
        drop={"mute": "HeaterOff"},
    )
    composite = stack(thermostat(), upper, wiring)
    emitted = composite.respond(("OFF", "only"), ("Cold", "Hot", "Cold"))
    assert emitted == ("HeaterOff", "HeaterOff", "HeaterOff")


def test_stack_with_trivial_upper_is_behaviorally_neutral():
    base = thermostat()
    upper = Observer(
        states=("idle",), inputs=("tick",), outputs=("none",),
        transition={("idle", "tick"): "idle"},
        output_map={"idle": "none"},
    )
    composite = stack(base, upper, Wiring(lift={z: "tick" for z in base.outputs}))
    for length in range(7):
        for word in product(base.inputs, repeat=length):
            assert composite.respond(("OFF", "idle"), word) == base.respond("OFF", word)


def test_stack_associativity_up_to_isomorphism():
    rng = random.Random(2718)
    identity = {"0": "0", "1": "1"}
    for _ in range(5):
        a = shared_alphabet_observer(rng)
        b = shared_alphabet_observer(rng)
        c = shared_alphabet_observer(rng)
        wiring = Wiring(lift=dict(identity), drop=dict(identity))
        left = stack(stack(a, b, wiring), c, wiring)
        right = stack(a, stack(b, c, wiring), wiring)
        assert equivalent(left, right)


def test_wiring_must_be_total():
    with pytest.raises(WiringError):
        stack(thermostat(), supervisor(), Wiring(lift={"HeaterOff": "saw_off"}))


def test_wiring_image_must_be_an_upper_input():
    lift = {"HeaterOff": "saw_off", "HeaterOn": "saw_everything"}
    with pytest.raises(WiringError):
        stack(thermostat(), supervisor(), Wiring(lift=lift))


def test_drop_image_must_be_a_lower_output():
    lift = {"HeaterOff": "saw_off", "HeaterOn": "saw_on"}
    drop = {"note_ok": "HeaterOff", "note_hot": "Explode"}
    with pytest.raises(WiringError):
        stack(thermostat(), supervisor(), Wiring(lift=lift, drop=drop))


def layout(obs: Observer) -> list:
    """Every attribute of ``obs`` with its name, in order; a table as its items, in iteration order."""
    return [(name, list(v.items()) if isinstance(v, Mapping) else v) for name, v in vars(obs).items()]


def assert_built_alike(built: Observer, oracle: Observer) -> None:
    """Equal observers whose label tables also iterate in the same order; and ``built``, which a
    builder made from int rows, is indistinguishable from its rebuild through the checked
    constructor and from its pickle round trip."""
    assert built == oracle and built.boundary == oracle.boundary
    assert list(built.transition.items()) == list(oracle.transition.items())
    assert list(built.output_map.items()) == list(oracle.output_map.items())
    rebuilt = Observer(built.states, built.inputs, built.outputs, built.transition, built.output_map, built.boundary)
    for twin in (rebuilt, pickle.loads(pickle.dumps(built))):
        assert twin == built and hash(twin) == hash(built) and repr(twin) == repr(built)
        assert layout(twin) == layout(built)


def test_stack_matches_the_label_table_oracle_on_random_machines():
    rng = random.Random(4242)
    for trial in range(60):
        lower, upper = (Observer(o.states, o.inputs, o.outputs, o.transition, o.output_map, rng.choice(("", name)))
                        for o, name in ((random_observer(rng), "lo"), (random_observer(rng), "up")))
        lift = {z: rng.choice(upper.inputs) for z in lower.outputs}
        drop = {z: rng.choice(lower.outputs) for z in upper.outputs} if trial % 2 else None
        wiring = Wiring(lift, drop)
        assert_built_alike(stack(lower, upper, wiring), stack_oracle(lower, upper, wiring))


def test_second_order_wrap_matches_the_label_table_oracle_on_random_families():
    rng = random.Random(1618)
    for _ in range(60):
        base = random_observer(rng, max_size=4)
        sizes = (len(base.states), len(base.inputs), len(base.outputs))
        n = rng.randint(1, 3)
        tables = tuple(RuleTable(o.transition, o.output_map) for o in (random_observer(rng, sizes=sizes) for _ in range(n)))
        meta = {(k, x, y): rng.randrange(n) for k in range(n) for x in base.states for y in base.inputs}
        family = RuleFamily(tables, meta)
        wrapped = second_order_wrap(list(base.states), iter(base.inputs), list(base.outputs), family)
        assert_built_alike(wrapped, second_order_wrap_oracle(base.states, base.inputs, base.outputs, family))


# -- second-order wrapping ------------------------------------------------------

def therm_tables() -> tuple[RuleTable, RuleTable]:
    base = thermostat()
    straight = RuleTable(transition=base.transition, output_map=base.output_map)
    inverted = RuleTable(
        transition={
            ("OFF", "Cold"): "OFF", ("OFF", "Hot"): "ON",
            ("ON", "Cold"): "OFF", ("ON", "Hot"): "ON",
        },
        output_map=base.output_map,
    )
    return straight, inverted


def test_singleton_family_wraps_to_an_equivalent_machine():
    base = thermostat()
    family = RuleFamily(
        tables=(RuleTable(base.transition, base.output_map),),
        meta_update={(0, x, y): 0 for x in base.states for y in base.inputs},
    )
    wrapped = second_order_wrap(base.states, base.inputs, base.outputs, family)
    assert len(wrapped.states) == 2
    assert equivalent(wrapped, base)


def test_hot_input_switches_to_the_inverted_table():
    base = thermostat()
    straight, inverted = therm_tables()
    family = RuleFamily(
        tables=(straight, inverted),
        meta_update={
            (k, x, y): (1 if y == "Hot" else k)
            for k in (0, 1) for x in base.states for y in base.inputs
        },
    )
    wrapped = second_order_wrap(base.states, base.inputs, base.outputs, family)
    assert len(wrapped.states) == 4
    # hand trace: Cold keeps table 0; the first Hot flips to table 1,
    # after which Cold drives the machine OFF instead of ON
    emitted = wrapped.respond(("OFF", 0), ("Cold", "Hot", "Cold"))
    assert emitted == ("HeaterOn", "HeaterOff", "HeaterOff")
    assert base.respond("OFF", ("Cold", "Hot", "Cold")) == ("HeaterOn", "HeaterOff", "HeaterOn")


def test_switching_between_distinct_tables_grows_complexity():
    base = thermostat()
    straight, inverted = therm_tables()
    family = RuleFamily(
        tables=(straight, inverted),
        meta_update={
            (k, x, y): (1 if y == "Hot" else k)
            for k in (0, 1) for x in base.states for y in base.inputs
        },
    )
    wrapped = second_order_wrap(base.states, base.inputs, base.outputs, family)
    assert complexity(wrapped).complexity >= complexity(base).complexity


def test_empty_family_is_a_construction_error():
    with pytest.raises(DefinitionError):
        RuleFamily(tables=(), meta_update={})


def test_partial_meta_update_is_a_construction_error():
    base = thermostat()
    family = RuleFamily(
        tables=(RuleTable(base.transition, base.output_map),),
        meta_update={},
    )
    with pytest.raises(DefinitionError):
        second_order_wrap(base.states, base.inputs, base.outputs, family)


def test_stray_table_and_meta_update_keys_are_construction_errors():
    base = thermostat()
    straight, _ = therm_tables()
    meta = {(0, x, y): 0 for x in base.states for y in base.inputs}
    ghost = RuleTable({**straight.transition, ("GHOST", "Cold"): "OFF"}, straight.output_map)
    with pytest.raises(DefinitionError):
        second_order_wrap(base.states, base.inputs, base.outputs, RuleFamily((ghost,), meta))
    family = RuleFamily((straight,), {**meta, (5, "x", "y"): 0})
    with pytest.raises(DefinitionError):
        second_order_wrap(base.states, base.inputs, base.outputs, family)


def test_non_integer_meta_update_is_a_construction_error():
    base = thermostat()
    straight, inverted = therm_tables()
    meta = {(k, x, y): k for k in (0, 1) for x in base.states for y in base.inputs}
    meta[(1, "ON", "Hot")] = "a"
    with pytest.raises(DefinitionError):
        second_order_wrap(base.states, base.inputs, base.outputs, RuleFamily((straight, inverted), meta))


def test_stack_and_wrapper_checks_run_in_order_before_any_row_is_built():
    # a lift that is not total is reported before a drop into an unknown lower output
    drop = {"note_ok": "Explode", "note_hot": "HeaterOff"}
    with pytest.raises(WiringError, match=r"^lift is not total, missing 'HeaterOn'$"):
        stack(thermostat(), supervisor(), Wiring({"HeaterOff": "saw_off"}, drop))
    # every table's transition is checked before any output map, and every output map before meta_update
    base = thermostat()
    straight = RuleTable(base.transition, base.output_map)
    bad_step = RuleTable({**base.transition, ("OFF", "Cold"): "NOWHERE"}, base.output_map)
    bad_emit = RuleTable(base.transition, {**base.output_map, "ON": "Smoke"})
    bad_meta = {(k, x, y): 2 for k in (0, 1) for x in base.states for y in base.inputs}
    for tables, expected in (((bad_step, bad_emit), r"table 0 transition\[\('OFF', 'Cold'\)\] = 'NOWHERE'"),
                             ((straight, bad_emit), r"table 1 output_map\['ON'\] = 'Smoke'")):
        with pytest.raises(DefinitionError, match=rf"^{expected} is not a declared target$"):
            second_order_wrap(base.states, base.inputs, base.outputs, RuleFamily(tables, bad_meta))


def test_a_meta_update_value_equal_to_a_table_index_selects_that_table():
    base = thermostat()
    keys = [(k, x, y) for k in (0, 1) for x in base.states for y in base.inputs]
    families = [RuleFamily(therm_tables(), dict.fromkeys(keys, one)) for one in (1, 1.0, True)]
    built = [second_order_wrap(base.states, base.inputs, base.outputs, family) for family in families]
    for other in built[1:]:
        assert_built_alike(other, built[0])


# -- well-foundedness ---------------------------------------------------------------

def test_chain_is_well_founded():
    report = check_well_founded({"A": ["B"], "B": ["C"], "C": []})
    assert report.well_founded and report.cycle is None


def test_two_cycle_is_rejected_with_the_cycle():
    report = check_well_founded({"A": ["B"], "B": ["A"]})
    assert not report.well_founded
    assert report.cycle == ("A", "B")


def test_root_refining_two_children_is_well_founded():
    report = check_well_founded({"root": ["left", "right"], "left": [], "right": []})
    assert report.well_founded


def test_a_cycle_given_through_iterators_is_found():
    report = check_well_founded({1: iter([2]), 2: iter([1])})
    assert not report.well_founded
    assert report.cycle == (1, 2)


def test_stacks_register_edges_in_the_default_registry():
    lift = {"HeaterOff": "saw_off", "HeaterOn": "saw_on"}
    stack(thermostat(), supervisor(), Wiring(lift=lift))
    assert check_well_founded().well_founded


def test_one_root_refining_two_children_builds_a_well_founded_registry():
    rng = random.Random(4)
    identity = {"0": "0", "1": "1"}
    child_a, child_b = shared_alphabet_observer(rng), shared_alphabet_observer(rng)
    root = shared_alphabet_observer(rng)
    stack(child_a, root, Wiring(lift=dict(identity)))
    stack(child_b, root, Wiring(lift=dict(identity)))
    assert check_well_founded().well_founded


def test_opposed_stacks_fail_closed():
    rng = random.Random(1)
    a = shared_alphabet_observer(rng)
    b = shared_alphabet_observer(rng)
    identity = {"0": "0", "1": "1"}
    stack(a, b, Wiring(lift=dict(identity)))
    with pytest.raises(MetaCycleError):
        stack(b, a, Wiring(lift=dict(identity)))
    # the failed construction must not have polluted the registry
    assert check_well_founded().well_founded


def test_isolated_registries_do_not_interact():
    rng = random.Random(2)
    a = shared_alphabet_observer(rng)
    b = shared_alphabet_observer(rng)
    identity = {"0": "0", "1": "1"}
    mine = MetaRegistry()
    stack(a, b, Wiring(lift=dict(identity)), registry=mine)
    stack(b, a, Wiring(lift=dict(identity)))  # default registry: no conflict
    with pytest.raises(MetaCycleError):
        stack(b, a, Wiring(lift=dict(identity)), registry=mine)


def registry_size_after_dropped_stacks(n: int) -> int:
    rng = random.Random(3)
    identity = {"0": "0", "1": "1"}
    mine = MetaRegistry()
    lower = shared_alphabet_observer(rng)
    for _ in range(n):
        stack(lower, shared_alphabet_observer(rng), Wiring(lift=dict(identity)), registry=mine)
    gc.collect()
    mine.register_edge("probe", lower)
    return len(mine.graph())


def test_registry_size_does_not_grow_with_dropped_stacks():
    assert registry_size_after_dropped_stacks(5) == registry_size_after_dropped_stacks(50)


def test_edges_into_a_collected_observer_go_at_the_next_write():
    mine = MetaRegistry()
    watched = thermostat()
    mine.register_edge("watcher", watched)
    gone = mine.graph()["watcher"][0]  # the observer's key, which does not keep it alive
    del watched
    gc.collect()
    mine.register_edge("other", "thing")
    graph = mine.graph()
    assert repr(gone) == "<collected>"
    assert gone not in graph
    assert all(gone not in targets for targets in graph.values())
    assert len(graph) == 3
    assert sum(len(targets) for targets in graph.values()) == 1


def test_dropped_registries_leave_no_weak_references_behind():
    rng = random.Random(5)
    identity = {"0": "0", "1": "1"}
    lower, upper = shared_alphabet_observer(rng), shared_alphabet_observer(rng)
    for _ in range(200):
        stack(lower, upper, Wiring(lift=dict(identity)), registry=MetaRegistry())
    gc.collect()
    assert weakref.getweakrefcount(lower) == 0
    assert weakref.getweakrefcount(upper) == 0


def test_graph_lists_no_collected_observer_even_before_the_next_write():
    mine = MetaRegistry()
    watcher, watched = "watcher", thermostat()
    mine.register_edge(watcher, watched)
    gone = mine.graph()[watcher][0]
    del watched
    gc.collect()
    assert mine.graph() == {watcher: []}
    assert gone not in mine.graph()


def test_clear_then_collecting_the_observers_leaves_only_the_next_edge():
    mine = MetaRegistry()
    a, b = thermostat(), supervisor()
    mine.register_edge(a, b)
    mine.register_edge("label", a)
    mine.clear()
    del a, b
    gc.collect()
    first, second = "first", "second"
    mine.register_edge(first, second)
    assert mine.graph() == {first: [second], second: []}


def test_threads_sharing_one_registry_all_finish_and_keep_it_well_founded():
    mine = MetaRegistry()
    identity = {"0": "0", "1": "1"}
    lower = shared_alphabet_observer(random.Random(6))
    errors = []

    def work(seed: int) -> None:
        rng = random.Random(seed)
        try:
            for _ in range(1000):
                stack(lower, shared_alphabet_observer(rng), Wiring(lift=dict(identity)), registry=mine)
        except Exception as error:  # recorded for the assertion below
            errors.append(repr(error))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert check_well_founded(registry=mine).well_founded


def best_seconds_per_stack(others: int) -> float:
    """Best time of one ``stack`` whose composite was dropped, with ``others`` kept observers registered."""
    rng = random.Random(8)
    identity = {"0": "0", "1": "1"}
    mine = MetaRegistry()
    lower = shared_alphabet_observer(rng)
    kept = [shared_alphabet_observer(rng) for _ in range(others)]
    for observer in kept:
        mine.register_edge(observer, "label")
    uppers = [shared_alphabet_observer(rng) for _ in range(300)]
    best = float("inf")
    gc.disable()  # a full collection walks every kept observer, which is not the cost measured here
    try:
        for start in range(0, len(uppers), 60):
            began = time.perf_counter()
            for upper in uppers[start:start + 60]:
                stack(lower, upper, Wiring(lift=dict(identity)), registry=mine)
            best = min(best, (time.perf_counter() - began) / 60)
    finally:
        gc.enable()
    return best


def test_forgetting_a_dropped_composite_does_not_scan_the_other_live_observers():
    assert best_seconds_per_stack(8000) < 3 * best_seconds_per_stack(0)


def test_register_edge_refuses_exactly_the_edges_that_close_a_cycle():
    rng = random.Random(31)
    nodes = [f"n{i}" for i in range(6)]
    refused = 0
    for _ in range(60):
        mine = MetaRegistry()
        for _ in range(12):
            u, v = rng.choice(nodes), rng.choice(nodes)
            before = mine.graph()
            with_edge = {key: list(targets) for key, targets in before.items()}
            with_edge.setdefault(u, []).append(v)
            if cycle_oracle(with_edge):
                refused += 1
                with pytest.raises(MetaCycleError):
                    mine.register_edge(u, v)
                assert mine.graph() == before
            else:
                mine.register_edge(u, v)
                edges = {key: set(targets) for key, targets in mine.graph().items() if targets}
                assert edges == {key: set(t) for key, t in with_edge.items() if t}
    assert refused > 50


def fresh_label(rng: random.Random, value: int):
    """One of a few labels, each time a new object: an f-string, an int above 256, or a tuple built apart."""
    return rng.choice((lambda: f"n{value}", lambda: int(f"{1000 + value}"), lambda: ("n", str(value))))()


def test_registry_refuses_exactly_the_edges_that_close_a_cycle_whatever_objects_the_labels_are():
    rng = random.Random(41)
    for _ in range(150):
        mine, graph = MetaRegistry(), {}
        for _ in range(rng.randrange(1, 15)):
            u, v = (fresh_label(rng, rng.randrange(5)) for _ in range(2))
            with_edge = {key: list(targets) for key, targets in graph.items()}
            with_edge.setdefault(u, []).append(v)
            if cycle_oracle(with_edge):
                with pytest.raises(MetaCycleError):
                    mine.register_edge(u, v)
            else:
                mine.register_edge(u, v)
                graph = with_edge
        assert check_well_founded(registry=mine).well_founded == check_well_founded(graph).well_founded
        assert {key: set(targets) for key, targets in mine.graph().items() if targets} == \
            {key: set(targets) for key, targets in graph.items()}


def test_equal_labels_built_apart_are_one_node():
    # the registry used to key every node by id(), so these were four nodes and the cycle went unseen
    mine = MetaRegistry()
    mine.register_edge("n" + str(1), "n" + str(2))
    with pytest.raises(MetaCycleError, match=r"cycle: \('n2', 'n1'\)$"):
        mine.register_edge("n" + str(2), "n" + str(1))
    assert check_well_founded(registry=mine).well_founded
    with pytest.raises(MetaCycleError):
        mine.register_edge(10**6, int("1000000"))


def test_observers_are_nodes_by_identity_and_never_equal_a_label():
    mine = MetaRegistry()
    first, second = thermostat(), thermostat()
    assert first == second
    mine.register_edge(first, second)  # two equal observers are two nodes
    mine.register_edge(second, id(first))  # an int label equal to an observer's id is a node of its own
    mine.register_edge(id(first), "label")
    assert len(mine.graph()) == 4
    with pytest.raises(MetaCycleError) as refused:
        mine.register_edge(second, first)
    shown = [f"<Observer {node.boundary!r} at {id(node):#x}>" for node in (second, first)]
    assert str(refused.value).endswith(f"cycle: ({shown[0]}, {shown[1]})")
    before, fresh = mine.graph(), thermostat()
    with pytest.raises(MetaCycleError):
        mine.register_edge(fresh, fresh)  # a new observer's self-edge: one key for both ends
    assert mine.graph() == before


@pytest.mark.parametrize("label", [[1], {"a": 1}, ("a", [1])], ids=["list", "dict", "tuple-of-list"])
def test_an_unhashable_label_is_a_definition_error_and_changes_nothing(label):
    mine = MetaRegistry()
    mine.register_edge("a", "b")
    for edge in ((label, "a"), ("a", label), (label, label)):
        with pytest.raises(DefinitionError, match="registry labels must be hashable"):
            mine.register_edge(*edge)
    assert mine.graph() == {"a": ["b"], "b": []}


def test_detector_matches_closure_oracle_exhaustively_on_three_nodes():
    nodes = ("A", "B", "C")
    pairs = [(u, v) for u in nodes for v in nodes]
    for mask in range(2 ** len(pairs)):
        graph = {n: [] for n in nodes}
        for bit, (u, v) in enumerate(pairs):
            if mask >> bit & 1:
                graph[u].append(v)
        assert check_well_founded(graph).well_founded == (not cycle_oracle(graph))


def test_detector_matches_closure_oracle_on_random_eight_node_graphs():
    rng = random.Random(77)
    nodes = [f"n{i}" for i in range(8)]
    for _ in range(400):
        graph = {
            u: [v for v in nodes if u != v and rng.random() < 0.25] for u in nodes
        }
        assert check_well_founded(graph).well_founded == (not cycle_oracle(graph))


def test_reported_cycle_is_a_real_cycle():
    rng = random.Random(13)
    nodes = [f"n{i}" for i in range(6)]
    seen = 0
    for _ in range(200):
        graph = {u: [v for v in nodes if rng.random() < 0.3] for u in nodes}
        report = check_well_founded(graph)
        if not report.well_founded:
            seen += 1
            cycle = report.cycle
            for here, there in zip(cycle, cycle[1:] + cycle[:1]):
                assert there in graph.get(here, ())
    assert seen > 50


# -- fact ledger ----------------------------------------------------------------------

def test_record_extends_the_ledger():
    ledger = record_fact(FactLedger(), "probe-a", 1, "ping", "heard")
    assert len(ledger.entries) == 1


def test_steps_may_repeat_but_not_go_back():
    ledger = record_fact(FactLedger(), "probe-a", 1, "ping", "heard")
    ledger = record_fact(ledger, "probe-a", 2, "ping", "heard-again")
    ledger = record_fact(ledger, "probe-a", 2, "pong", "echoed")
    with pytest.raises(LedgerOrderError):
        record_fact(ledger, "probe-a", 1, "late", "no")


def test_other_observers_have_independent_clocks():
    ledger = record_fact(FactLedger(), "probe-a", 9, "ping", "heard")
    ledger = record_fact(ledger, "probe-b", 1, "ping", "heard")
    assert len(ledger.entries) == 2


def test_last_step_is_the_latest_step_of_that_observer():
    ledger = FactLedger()
    for who, step in (("a", 1), ("b", 4), ("a", 2), ("b", 7), ("a", 2)):
        ledger = record_fact(ledger, who, step, "ping", "heard")
    assert ledger.last_step("a") == 2
    assert ledger.last_step("b") == 7
    assert ledger.last_step("c") is None


def test_record_fact_checks_no_old_entry_again(monkeypatch):
    # every call used to rebuild the ledger through its constructor, which checks every entry,
    # so n calls made n * n / 2 entry checks; the result must still be the constructor's value
    old = FactLedger(tuple(FactEntry(i % 5, i // 5, "ping", "heard") for i in range(1000)))

    def refuse(self, *args, **kwargs):
        raise AssertionError("record_fact built its ledger through FactLedger.__init__")

    monkeypatch.setattr(FactLedger, "__init__", refuse)
    ledger = record_fact(old, "probe-a", 200, "pong", "echoed")
    monkeypatch.undo()
    built = FactLedger(old.entries + (FactEntry("probe-a", 200, "pong", "echoed"),))
    assert type(ledger) is FactLedger and len(old.entries) == 1000
    assert (ledger, hash(ledger), repr(ledger)) == (built, hash(built), repr(built))
    assert pickle.loads(pickle.dumps(ledger)) == built


def test_facts_relative_to_unknown_observer_is_empty():
    assert facts_relative_to(FactLedger(), "stranger", 10) == ()


def test_lab_script_shows_relational_asymmetry_then_agreement():
    run = run_lab_script(spin="up")
    at_measurement_insider = known_spin_values(run.ledger, run.insider_id, run.measurement_step)
    at_measurement_outsider = known_spin_values(run.ledger, run.outsider_id, run.measurement_step)
    assert at_measurement_insider == frozenset({"spin-up"})
    assert at_measurement_outsider == frozenset()
    assert at_measurement_outsider < at_measurement_insider  # strict containment

    after_read_insider = known_spin_values(run.ledger, run.insider_id, run.read_step)
    after_read_outsider = known_spin_values(run.ledger, run.outsider_id, run.read_step)
    assert after_read_insider == after_read_outsider == frozenset({"spin-up"})


def test_lab_script_down_branch():
    run = run_lab_script(spin="down")
    assert known_spin_values(run.ledger, run.outsider_id, run.read_step) == frozenset({"spin-down"})


@pytest.mark.parametrize("spin, reading, insider_state, seen, outsider_state", [
    ("up", "SpinUp", "UpRecorded", "SeesUp", "KnowsUp"),
    ("down", "SpinDown", "DownRecorded", "SeesDown", "KnowsDown"),
])
def test_lab_script_result_is_pinned(spin, reading, insider_state, seen, outsider_state):
    assert repr(run_lab_script(spin)) == (
        "LabScriptRun(ledger=FactLedger(entries=("
        f"FactEntry(observer_id='insider', step=1, received='{reading}', state='{insider_state}'), "
        f"FactEntry(observer_id='outsider', step=5, received='{seen}', state='{outsider_state}'))), "
        "insider_id='insider', outsider_id='outsider', measurement_step=1, read_step=5)"
    )


def test_the_lab_recorders_match_their_label_tables(monkeypatch):
    recorder, built = composition._recorder, []

    def recording(*args):
        built.append((args, recorder(*args)))
        return built[-1][1]

    monkeypatch.setattr(composition, "_recorder", recording)
    run_lab_script("down")
    assert len(built) == 2
    for (states, inputs, outputs, boundary), obs in built:
        # the waiting state takes the up or the down input to the up or the down state; all else stays put
        transition = {(x, y): x for x in states for y in inputs}
        transition.update({(states[0], inputs[1]): states[1], (states[0], inputs[2]): states[2]})
        assert_built_alike(obs, Observer(states, inputs, outputs, transition, dict(zip(states, outputs)), boundary))
