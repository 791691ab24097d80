"""Seeded input generators for the benchmark workloads.

Everything here is plain data (dicts, lists, JSON text) made with
``random.Random(seed)``; nothing imports obskit or numpy, so a set-up
child can generate its inputs before the timed import starts.  The same
seed gives the same inputs.

A machine is a dict with ``states``, ``inputs``, ``outputs`` (lists of
strings, in construction order), ``transitions`` ({(state, input): state})
and ``output_map`` ({state: output}).  An environment has ``states``,
``actions``, ``transitions`` ({(state, action): state}) and
``observation`` ({state: reading}).
"""

from __future__ import annotations

import json
import random

# -- machines ----------------------------------------------------------------


def machine(states, inputs, outputs, transitions, output_map):
    return {
        "states": list(states),
        "inputs": list(inputs),
        "outputs": list(outputs),
        "transitions": dict(transitions),
        "output_map": dict(output_map),
    }


def _distinct_counts(word, nz):
    counts = [word.count(k) for k in range(nz)]
    return len(set(counts)) == nz


def random_machine(rng, n, ny, nz, prefix="x", unequal_outputs=False):
    """A random machine; optionally no two outputs are emitted equally often.

    obskit's isomorphism search starts its refinement from the sizes of
    the output classes, so when they are all equal it has nothing to
    refine and backtracks through every state ordering (see CHANGES.md).
    Machines meant for ``find_isomorphism`` are made with unequal sizes.
    """
    states = [f"{prefix}{i}" for i in range(n)]
    inputs = [f"y{j}" for j in range(ny)]
    outputs = [f"z{k}" for k in range(nz)]
    transitions = {(x, y): rng.choice(states) for x in states for y in inputs}
    while True:
        word = [rng.randrange(nz) for _ in states]
        if not unequal_outputs or _distinct_counts(word, nz):
            break
    output_map = {x: outputs[k] for x, k in zip(states, word)}
    return machine(states, inputs, outputs, transitions, output_map)


def _primitive_word(rng, m, nz):
    """A word of length m using every letter, each a different number of
    times, and equal to none of its rotations."""
    while True:
        word = list(range(nz)) + [rng.randrange(nz) for _ in range(m - nz)]
        text = ",".join(map(str, word)) + ","
        if _distinct_counts(word, nz) and (text + text).find(text, 1) == len(text):
            return word


def minimal_machine(rng, m, ny, nz, prefix="b"):
    """A machine that is minimal by construction.

    Input y0 walks the cycle 0 -> 1 -> ... -> m-1 -> 0 and the outputs
    along it spell a primitive word, so y0 alone separates every pair of
    states.  No two outputs are emitted equally often.  The other inputs
    are random, except that state 0 steps to a different state on each
    input, so no two inputs act alike.
    """
    word = _primitive_word(rng, m, nz)
    states = [f"{prefix}{i}" for i in range(m)]
    inputs = [f"y{j}" for j in range(ny)]
    outputs = [f"z{k}" for k in range(nz)]
    transitions = {}
    for i, x in enumerate(states):
        for j, y in enumerate(inputs):
            if j == 0:
                target = (i + 1) % m
            elif i == 0:
                target = (j + 1) % m
            else:
                target = rng.randrange(m)
            transitions[(x, y)] = states[target]
    output_map = {x: outputs[word[i]] for i, x in enumerate(states)}
    return machine(states, inputs, outputs, transitions, output_map)


def planted(rng, base, max_copies):
    """Blow up a minimal machine with redundancy whose size is known.

    Every base state gets 1..max_copies behaviourally identical copies, one
    extra input repeats the last base input up to copies, and one extra
    output is never emitted.  Minimizing the result gives back the base
    sizes: (states, inputs, emitted outputs) of ``base``.
    """
    copies = {x: [f"{x}c{c}" for c in range(rng.randint(1, max_copies))] for x in base["states"]}
    states = [s for x in base["states"] for s in copies[x]]
    rng.shuffle(states)
    last = base["inputs"][-1]
    inputs = base["inputs"] + [f"{last}dup"]
    outputs = base["outputs"] + ["znever"]
    transitions = {}
    output_map = {}
    for x in base["states"]:
        for s in copies[x]:
            output_map[s] = base["output_map"][x]
            for y in inputs:
                target = base["transitions"][(x, last if y == inputs[-1] else y)]
                transitions[(s, y)] = rng.choice(copies[target])
    return machine(states, inputs, outputs, transitions, output_map)


def relabel(rng, m, prefix):
    """Fresh names and shuffled construction orders: isomorphic by design."""
    def fresh(items, tag):
        names = [f"{prefix}{tag}{i}" for i in range(len(items))]
        rng.shuffle(names)
        return dict(zip(items, names))

    sx, sy, sz = fresh(m["states"], "s"), fresh(m["inputs"], "i"), fresh(m["outputs"], "o")
    states = [sx[x] for x in m["states"]]
    inputs = [sy[y] for y in m["inputs"]]
    outputs = [sz[z] for z in m["outputs"]]
    rng.shuffle(states)
    rng.shuffle(inputs)
    rng.shuffle(outputs)
    transitions = {(sx[x], sy[y]): sx[t] for (x, y), t in m["transitions"].items()}
    output_map = {sx[x]: sz[z] for x, z in m["output_map"].items()}
    return machine(states, inputs, outputs, transitions, output_map)


def near_miss(rng, m):
    """Swap the targets of two transitions on one input other than the first."""
    out = machine(m["states"], m["inputs"], m["outputs"], m["transitions"], m["output_map"])
    y = rng.choice(m["inputs"][1:])
    while True:
        a, b = rng.sample(m["states"], 2)
        ta, tb = out["transitions"][(a, y)], out["transitions"][(b, y)]
        if ta != tb:
            out["transitions"][(a, y)], out["transitions"][(b, y)] = tb, ta
            return out


def cycles(lengths, prefix):
    """Disjoint directed cycles with one input and one output."""
    states, transitions = [], {}
    for c, length in enumerate(lengths):
        ring = [f"{prefix}{c}_{i}" for i in range(length)]
        states += ring
        for i, x in enumerate(ring):
            transitions[(x, "t")] = ring[(i + 1) % length]
    return machine(states, ["t"], ["z"], transitions, {x: "z" for x in states})


def document(m, boundary=""):
    """Observer document text (not canonical: keys in generation order)."""
    return json.dumps({
        "format_version": "1",
        "states": m["states"],
        "inputs": m["inputs"],
        "outputs": m["outputs"],
        "transitions": {f"{x},{y}": t for (x, y), t in m["transitions"].items()},
        "output_map": m["output_map"],
        "boundary": boundary,
    })


def environment_document(env):
    observations = list(dict.fromkeys(env["observation"].values()))
    return json.dumps({
        "format_version": "1",
        "env_states": env["states"],
        "actions": env["actions"],
        "observations": observations,
        "env_transitions": {f"{s},{a}": t for (s, a), t in env["transitions"].items()},
        "observation": env["observation"],
    })


# -- environments and chains -------------------------------------------------


def random_environment(rng, m, n_env, prefix="e"):
    """An environment whose actions are the machine's outputs."""
    states = [f"{prefix}{i}" for i in range(n_env)]
    transitions = {(s, z): rng.choice(states) for s in states for z in m["outputs"]}
    observation = {s: rng.choice(m["inputs"]) for s in states}
    return {"states": states, "actions": list(m["outputs"]),
            "transitions": transitions, "observation": observation}


THERMOSTAT = machine(
    ["OFF", "ON"], ["Cold", "Hot"], ["HeaterOff", "HeaterOn"],
    {("OFF", "Cold"): "ON", ("OFF", "Hot"): "OFF", ("ON", "Cold"): "ON", ("ON", "Hot"): "OFF"},
    {"OFF": "HeaterOff", "ON": "HeaterOn"},
)
FLIP_ROOM = {
    "states": ["Cold", "Hot"],
    "actions": ["HeaterOff", "HeaterOn"],
    "transitions": {("Cold", "HeaterOff"): "Cold", ("Cold", "HeaterOn"): "Hot",
                    ("Hot", "HeaterOff"): "Cold", ("Hot", "HeaterOn"): "Hot"},
    "observation": {"Cold": "Cold", "Hot": "Hot"},
}


def _normalize(row):
    total = sum(row)
    return [v / total for v in row]


def dense_chain(rng, n):
    """Every entry positive: every state reaches every other in one step."""
    return [_normalize([rng.random() + 1e-3 for _ in range(n)]) for _ in range(n)]


def banded_chain(rng, n, band):
    """Positive entries only within ``band`` of the diagonal (cyclically)."""
    rows = []
    for i in range(n):
        row = [0.0] * n
        for d in range(-band, band + 1):
            row[(i + d) % n] += rng.random() + 1e-3
        rows.append(_normalize(row))
    return rows


def chain_with_closed_trap(n, seed=3):
    """A dense chain on states 0..n-2 plus state n-1, absorbing and unreachable.

    State n-1 only returns to itself and nothing leads into it, so the
    answer from state 0 to goal {1} is finite.  The inputs are fixed: they
    do not depend on the workload seed.
    """
    rng = random.Random(seed)
    rows = [_normalize([rng.random() + 1e-3 for _ in range(n - 1)]) + [0.0] for _ in range(n - 1)]
    rows.append([0.0] * (n - 1) + [1.0])
    return rows


# -- lattices ----------------------------------------------------------------


def random_bits(rng, width):
    return [rng.randrange(2) for _ in range(width)]


def single_bit(width):
    return [1 if i == width // 2 else 0 for i in range(width)]
