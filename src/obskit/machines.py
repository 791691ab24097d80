"""Small ready-made machines used in docs, fixtures, and tests."""

from __future__ import annotations

from .core import Environment, Observer, _items
from .errors import DefinitionError


def thermostat() -> Observer:
    """Two-state heater controller: senses Cold/Hot, toggles the heater."""
    return Observer(
        states=("OFF", "ON"),
        inputs=("Cold", "Hot"),
        outputs=("HeaterOff", "HeaterOn"),
        transition={
            ("OFF", "Cold"): "ON",
            ("OFF", "Hot"): "OFF",
            ("ON", "Cold"): "ON",
            ("ON", "Hot"): "OFF",
        },
        output_map={"OFF": "HeaterOff", "ON": "HeaterOn"},
        boundary="controller inside; ambient air outside",
    )


def flip_environment() -> Environment:
    """Room that turns Hot whenever heated and Cold whenever not."""
    return Environment(
        states=("Cold", "Hot"),
        actions=("HeaterOff", "HeaterOn"),
        transition={
            ("Cold", "HeaterOff"): "Cold",
            ("Cold", "HeaterOn"): "Hot",
            ("Hot", "HeaterOff"): "Cold",
            ("Hot", "HeaterOn"): "Hot",
        },
        observation={"Cold": "Cold", "Hot": "Hot"},
    )


def constant_environment(reading: str = "Hot") -> Environment:
    """Single-state room that ignores actions and always reads the same."""
    return Environment(
        states=(reading,),
        actions=("HeaterOff", "HeaterOn"),
        transition={(reading, "HeaterOff"): reading, (reading, "HeaterOn"): reading},
        observation={reading: reading},
    )


def redundant_observer() -> Observer:
    """Two states that behave identically; minimizes to a single state."""
    return Observer(
        states=("a", "b"),
        inputs=("tick",),
        outputs=("z0",),
        transition={("a", "tick"): "a", ("b", "tick"): "a"},
        output_map={"a": "z0", "b": "z0"},
        boundary="redundant pair",
    )


def scripted_environment(readings, actions) -> Environment:
    """Counter-machine environment that plays a fixed word of readings.

    State i offers ``readings[i]`` and advances to i+1 whatever the
    observer does; the final state repeats its reading forever.  Feeding an
    observer an open-loop input word is then the closed-loop run against
    this environment.
    """
    readings, actions = _items(readings, "readings"), _items(actions, "actions")
    if not readings:
        raise DefinitionError("the scripted word must not be empty")
    states = tuple(f"w{i}" for i in range(len(readings)))
    transition = {
        (states[i], a): states[min(i + 1, len(states) - 1)]
        for i in range(len(states))
        for a in actions
    }
    observation = {states[i]: readings[i] for i in range(len(states))}
    return Environment(states, actions, transition, observation)
