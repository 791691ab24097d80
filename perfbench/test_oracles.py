"""The benchmark's oracles, on inputs whose answers are known by hand.

    python3 -m pytest perfbench/test_oracles.py
"""

import json
import math
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402

FIXTURES = HERE.parent / "fixtures"


def machine_file(name):
    doc = json.loads((FIXTURES / name).read_text())
    transitions = {tuple(k.split(",")): v for k, v in doc["transitions"].items()}
    return inputs.machine(doc["states"], doc["inputs"], doc["outputs"], transitions, doc["output_map"])


THERMOSTAT = machine_file("thermostat.json")
RENAMED = machine_file("thermostat_renamed.json")
RENAMING = ({"OFF": "A", "ON": "B"}, {"Cold": "c", "Hot": "h"}, {"HeaterOff": "off", "HeaterOn": "on"})


def test_chain2_hitting_time_is_two():
    rows = json.loads((FIXTURES / "chain2.json").read_text())
    assert oracles.hitting_time(rows, 0, [1]) == pytest.approx(2.0)
    assert oracles.hitting_time(rows, 1, [1]) == 0.0


def test_unreachable_absorbing_state_is_left_out():
    # state 2 is closed and absorbing, but the start cannot reach it
    assert oracles.hitting_time([[0, 1, 0], [0, 1, 0], [0, 0, 1]], 0, [1]) == pytest.approx(1.0)


def test_goal_out_of_reach_is_infinite():
    assert math.isinf(oracles.hitting_time([[1, 0], [0, 1]], 0, [1]))


def test_redundant_fixture_reduces_to_one_state():
    m = machine_file("redundant.json")
    assert oracles.reduced_sizes(m) == (1, 1, 1)
    assert workloads.quotient_document(m) == {
        "format_version": "1", "states": ["a"], "inputs": ["tick"], "outputs": ["z0"],
        "transitions": {"a,tick": "a"}, "output_map": {"a": "z0"}, "boundary": ""}


def test_thermostat_is_isomorphic_to_its_renamed_copy():
    assert oracles.brute_force_iso(THERMOSTAT, RENAMED) == RENAMING
    assert oracles.is_morphism(THERMOSTAT, RENAMED, *RENAMING)
    assert oracles.iso_with_minimal(THERMOSTAT, RENAMED)
    assert oracles.paired_states(THERMOSTAT, RENAMED) == RENAMING[0]
    assert oracles.canonical_form(THERMOSTAT) == oracles.canonical_form(RENAMED)


def test_a_swapped_transition_breaks_the_isomorphism():
    broken = inputs.machine(RENAMED["states"], RENAMED["inputs"], RENAMED["outputs"],
                            {**RENAMED["transitions"], ("A", "c"): "A", ("A", "h"): "B"},
                            RENAMED["output_map"])
    assert oracles.brute_force_iso(THERMOSTAT, broken) is None
    assert not oracles.iso_with_minimal(THERMOSTAT, broken)
    assert oracles.canonical_form(THERMOSTAT) != oracles.canonical_form(broken)
    bad_state_map = {"OFF": "B", "ON": "A"}
    assert not oracles.is_morphism(THERMOSTAT, RENAMED, bad_state_map, *RENAMING[1:])


def test_least_isomorphism_of_a_symmetric_pair():
    # two states swapped by the single input: identity and the swap both commute
    flip = inputs.machine(["a", "b"], ["t"], ["z"], {("a", "t"): "b", ("b", "t"): "a"},
                          {"a": "z", "b": "z"})
    state_map, _, _ = oracles.brute_force_iso(flip, flip)
    assert state_map == {"a": "a", "b": "b"}


def test_cycle_lengths_tell_c8_from_two_c4():
    assert oracles.cycle_lengths(inputs.cycles([8], "a")) == [8]
    assert oracles.cycle_lengths(inputs.cycles([4, 4], "b")) == [4, 4]


def test_rule_110_and_rule_90_steps_by_hand():
    assert oracles.eca_step([0, 0, 0, 1, 0, 0, 0], 110) == [0, 0, 1, 1, 0, 0, 0]
    assert oracles.eca_step([0, 0, 0, 1, 0, 0, 0], 90) == [0, 0, 1, 0, 1, 0, 0]
    assert oracles.eca_step([1, 0, 0, 0, 0], 90) == [0, 1, 0, 0, 1]  # the lattice wraps


def test_damped_block_keeps_its_boundary_cells_zero():
    rows = oracles.eca_rows([1] * 8, 90, 3, block=(2, 3))
    assert all(row[2] == 0 and row[4] == 0 for row in rows[1:])


def test_p4_decoder_and_text_renderer():
    assert oracles.decode_pbm(b"P4\n3 2\n\xa0\x40") == [[1, 0, 1], [0, 1, 0]]
    assert oracles.render([[1, 0], [0, 1]]) == "#.\n.#"


def test_thermostat_loop_by_hand():
    room = inputs.FLIP_ROOM
    records = list(oracles.simulate(THERMOSTAT, room, ("OFF", "Cold"), 3))
    assert records == [(0, "Cold", "ON", "HeaterOn", "Hot"), (1, "Hot", "OFF", "HeaterOff", "Cold"),
                       (2, "Cold", "ON", "HeaterOn", "Hot")]
    assert oracles.settle(THERMOSTAT, room, ("OFF", "Cold"))[:3] == ("transient-to-cycle", 2, 2)
    assert oracles.settle(THERMOSTAT, room, ("OFF", "Cold"),
                          lambda j: j[0] == "ON")[:3] == ("goal-reached", 1, None)
    assert oracles.settle(THERMOSTAT, room, ("OFF", "Cold"),
                          lambda j: j == ("ON", "Cold"))[0] == "goal-unreachable"
    assert set(oracles.reachable_joints(THERMOSTAT, room, [("OFF", "Cold")])) == {
        ("OFF", "Cold"), ("ON", "Hot")}


def test_fixed_point_settles_when_entered():
    still = inputs.machine(["s"], ["r"], ["a"], {("s", "r"): "s"}, {"s": "a"})
    env = {"states": ["e0", "e1"], "actions": ["a"], "transitions": {("e0", "a"): "e1", ("e1", "a"): "e1"},
           "observation": {"e0": "r", "e1": "r"}}
    assert oracles.settle(still, env, ("s", "e0"))[:3] == ("transient-to-cycle", 1, 1)


def test_stack_tables_by_hand():
    lower = inputs.machine(["l"], ["y"], ["z"], {("l", "y"): "l"}, {"l": "z"})
    upper = inputs.machine(["u0", "u1"], ["w"], ["v"], {("u0", "w"): "u1", ("u1", "w"): "u0"},
                           {"u0": "v", "u1": "v"})
    transitions, output_map = oracles.stack_tables(lower, upper, {"z": "w"})
    assert transitions == {(("l", "u0"), "y"): ("l", "u1"), (("l", "u1"), "y"): ("l", "u0")}
    assert output_map == {("l", "u0"): "z", ("l", "u1"): "z"}


def test_generated_machines_have_the_sizes_they_promise():
    rng = random.Random(5)
    base = inputs.minimal_machine(rng, 30, 3, 2)
    assert oracles.reduced_sizes(base) == (30, 3, 2)
    assert oracles.reduced_sizes(inputs.planted(rng, base, 4)) == (30, 3, 2)
    twin = inputs.relabel(rng, base, "r")
    assert oracles.iso_with_minimal(base, twin)
