"""Independent computations the benchmark checks obskit's outputs against.

None of this calls obskit: each oracle works straight from the plain
dict tables of ``inputs.py`` (or from raw bytes and text), so a fault in
the program cannot hide behind the same fault in its check.
"""

from __future__ import annotations

import math
from itertools import permutations


class CheckError(AssertionError):
    """An output of the program disagrees with its oracle."""


def require(condition, message):
    if not condition:
        raise CheckError(message)


# -- machines ----------------------------------------------------------------


def moore_blocks(m):
    """Behavioural block of every state by Moore refinement.

    Start from the output classes and split blocks by the blocks of the
    successors until the number of blocks stops growing.  Returns a dict
    state -> block number, numbered by first appearance in construction
    order.
    """
    states, inputs = m["states"], m["inputs"]
    block = {x: m["output_map"][x] for x in states}
    count = len(set(block.values()))
    while True:
        signature = {x: (block[x],) + tuple(block[m["transitions"][(x, y)]] for y in inputs)
                     for x in states}
        numbering = {}
        for x in states:
            numbering.setdefault(signature[x], len(numbering))
        block = {x: numbering[signature[x]] for x in states}
        if len(numbering) == count:
            return block
        count = len(numbering)


def reduced_sizes(m):
    """(states, inputs, outputs) left after quotienting by behaviour."""
    block = moore_blocks(m)
    columns = {tuple(block[m["transitions"][(x, y)]] for x in m["states"]) for y in m["inputs"]}
    return len(set(block.values())), len(columns), len(set(m["output_map"].values()))


def is_morphism(a, b, state_map, input_map, output_map):
    """Both commutation squares hold and all three maps are bijections."""
    for mapping, src, dst in ((state_map, a["states"], b["states"]),
                              (input_map, a["inputs"], b["inputs"]),
                              (output_map, a["outputs"], b["outputs"])):
        if sorted(mapping) != sorted(src) or sorted(mapping.values()) != sorted(dst):
            return False
    for (x, y), t in a["transitions"].items():
        if state_map[t] != b["transitions"][(state_map[x], input_map[y])]:
            return False
    return all(output_map[z] == b["output_map"][state_map[x]] for x, z in a["output_map"].items())


def brute_force_iso(a, b):
    """The least isomorphism in construction order, by full enumeration.

    Triples are tried in lexicographic order of (state images, input
    images, output images), each given as indices into b's sets, so the
    first that commutes is the least.  Only for machines of a few states.
    """
    sa, ya, za = a["states"], a["inputs"], a["outputs"]
    sb, yb, zb = b["states"], b["inputs"], b["outputs"]
    if (len(sa), len(ya), len(za)) != (len(sb), len(yb), len(zb)):
        return None
    for px in permutations(range(len(sb))):
        sm = {x: sb[px[i]] for i, x in enumerate(sa)}
        for py in permutations(range(len(yb))):
            im = {y: yb[py[j]] for j, y in enumerate(ya)}
            if any(sm[a["transitions"][(x, y)]] != b["transitions"][(sm[x], im[y])]
                   for x in sa for y in ya):
                continue
            for pz in permutations(range(len(zb))):
                om = {z: zb[pz[k]] for k, z in enumerate(za)}
                if all(om[a["output_map"][x]] == b["output_map"][sm[x]] for x in sa):
                    return sm, im, om
    return None


def canonical_form(m):
    """A complete isomorphism invariant of a small machine.

    For each ordering of the states, the transition columns are sorted
    (which forgets the input names) and the outputs are renamed by first
    appearance (which forgets the output names); the least such encoding
    over all orderings is the same exactly for isomorphic machines.
    Costs n! encodings, so only for machines of a few states.
    """
    states = m["states"]
    best = None
    for order in permutations(range(len(states))):
        pos = {states[o]: i for i, o in enumerate(order)}
        ranked = [states[o] for o in order]
        columns = sorted(tuple(pos[m["transitions"][(x, y)]] for x in ranked) for y in m["inputs"])
        names = {}
        outputs = tuple(names.setdefault(m["output_map"][x], len(names)) for x in ranked)
        code = (tuple(columns), outputs)
        if best is None or code < best:
            best = code
    return len(states), len(m["inputs"]), len(m["outputs"]), best


def paired_states(a, b):
    """The state bijection of an isomorphism between minimal a and b, or None.

    For each bijection of the inputs and of the outputs, refine the
    disjoint union of a and the renamed b.  With both machines minimal, an
    isomorphism exists exactly when every block holds one state of each,
    and the blocks then give its state map.  Costs |Y|!|Z|! refinements,
    so only for small alphabets.
    """
    for ys in permutations(b["inputs"]):
        for zs in permutations(b["outputs"]):
            rename_y = dict(zip(ys, a["inputs"]))
            rename_z = dict(zip(zs, a["outputs"]))
            union = {
                "states": [("a", x) for x in a["states"]] + [("b", x) for x in b["states"]],
                "inputs": a["inputs"],
                "transitions": {**{(("a", x), y): ("a", t) for (x, y), t in a["transitions"].items()},
                                **{(("b", x), rename_y[y]): ("b", t)
                                   for (x, y), t in b["transitions"].items()}},
                "output_map": {**{("a", x): z for x, z in a["output_map"].items()},
                               **{("b", x): rename_z[z] for x, z in b["output_map"].items()}},
            }
            blocks = {}
            for (side, x), k in moore_blocks(union).items():
                blocks.setdefault(k, {})[side] = x
            if all(len(pair) == 2 for pair in blocks.values()):
                return {pair["a"]: pair["b"] for pair in blocks.values()}
    return None


def iso_with_minimal(a, b):
    """Decide whether b is isomorphic to a, given that a is minimal.

    An isomorphism preserves minimality, so b must have as many blocks as
    states before ``paired_states`` can decide.
    """
    n = len(a["states"])
    require(len(set(moore_blocks(a).values())) == n, "the reference machine is not minimal")
    if (n, len(a["inputs"]), len(a["outputs"])) != (len(b["states"]), len(b["inputs"]), len(b["outputs"])):
        return False
    if len(set(moore_blocks(b).values())) != n:
        return False
    return paired_states(a, b) is not None


def cycle_lengths(m):
    """Sorted cycle lengths of a one-input machine's functional graph."""
    (y,) = m["inputs"]
    on_cycle = set()
    lengths = []
    for start in m["states"]:
        path, seen = [], {}
        x = start
        while x not in seen and x not in on_cycle:
            seen[x] = len(path)
            path.append(x)
            x = m["transitions"][(x, y)]
        if x in seen:
            ring = path[seen[x]:]
            on_cycle.update(ring)
            lengths.append(len(ring))
    return sorted(lengths)


def stack_tables(lower, upper, lift):
    """Transition and output tables of the composite of ``stack``."""
    transitions, output_map = {}, {}
    for xl in lower["states"]:
        for xu in upper["states"]:
            output_map[(xl, xu)] = lower["output_map"][xl]
            for y in lower["inputs"]:
                nl = lower["transitions"][(xl, y)]
                nu = upper["transitions"][(xu, lift[lower["output_map"][nl]])]
                transitions[((xl, xu), y)] = (nl, nu)
    return transitions, output_map


# -- closed loops -------------------------------------------------------------


def joint_step(obs, env, joint):
    x, s = joint
    y = env["observation"][s]
    x2 = obs["transitions"][(x, y)]
    z = obs["output_map"][x2]
    return y, x2, z, env["transitions"][(s, z)]


def simulate(obs, env, joint, horizon):
    """Yield the loop records (t, y, x, z, s) straight from the dict tables."""
    for t in range(horizon):
        y, x, z, s = joint_step(obs, env, joint)
        yield t, y, x, z, s
        joint = (x, s)


def settle(obs, env, joint, goal=None):
    """How the deterministic loop from ``joint`` settles, by Brent's method.

    Brent's cycle detection gives the period lam and the index mu of the
    first joint state on the cycle.  A free run settles at mu when the
    cycle is a fixed point and at the first revisit mu + lam otherwise.  A
    goal run meets its goal at the first index below mu + lam whose state
    satisfies it, or never.  Returns (kind, steps, period, walked), where
    walked counts the loop steps a first-revisit search would take.
    """
    def step(j):
        _, x, _, s = joint_step(obs, env, j)
        return x, s

    power = lam = 1
    tortoise, hare = joint, step(joint)
    while tortoise != hare:
        if power == lam:
            tortoise, power, lam = hare, power * 2, 0
        hare = step(hare)
        lam += 1
    tortoise = hare = joint
    for _ in range(lam):
        hare = step(hare)
    mu = 0
    while tortoise != hare:
        tortoise, hare = step(tortoise), step(hare)
        mu += 1
    if goal is None:
        return ("transient-to-cycle", mu if lam == 1 else mu + lam, lam, mu + lam)
    state = joint
    for t in range(mu + lam):
        if goal(state):
            return ("goal-reached", t, None, t)
        state = step(state)
    return ("goal-unreachable", None, None, mu + lam)


def reachable_joints(obs, env, starts):
    """Joint states each start's run passes through, in order of discovery."""
    found = {}
    for joint in starts:
        walked = set()
        while joint not in walked:
            walked.add(joint)
            found.setdefault(joint, None)
            _, x, _, s = joint_step(obs, env, joint)
            joint = (x, s)
    return tuple(found)


def minimality(obs, env, starts):
    """The five minimality verdicts, from the dict tables."""
    env_states = {s for _, s in reachable_joints(obs, env, starts)}
    return {
        "has_inputs": len(obs["inputs"]) >= 1,
        "has_outputs": len(obs["outputs"]) >= 1,
        "nontrivial_dynamics": len(obs["states"]) > 1,
        "actions_can_change_environment": any(
            len({env["transitions"][(s, a)] for a in env["actions"]}) > 1 for s in env_states),
        "readings_track_environment": len({env["observation"][s] for s in env_states}) > 1,
    }


# -- Markov chains -------------------------------------------------------------


def hitting_time(rows, start, goal):
    """Expected steps to the goal, solved on the reachable non-goal states only.

    States the chain cannot reach from ``start`` without passing the goal
    cannot change the answer, so they are left out of the system.
    """
    import numpy as np

    goal = set(goal)
    if start in goal:
        return 0.0
    reach, frontier = [start], [start]
    seen = {start}
    while frontier:
        i = frontier.pop()
        for j, p in enumerate(rows[i]):
            if p > 0.0 and j not in seen:
                seen.add(j)
                if j not in goal:
                    reach.append(j)
                    frontier.append(j)
    if not seen & goal:
        return math.inf
    index = {s: k for k, s in enumerate(reach)}
    a = np.eye(len(reach))
    for s, k in index.items():
        for t, p in enumerate(rows[s]):
            if t in index:
                a[k, index[t]] -= p
    return float(np.linalg.solve(a, np.ones(len(reach)))[0])


# -- lattices ------------------------------------------------------------------


def eca_step(row, rule):
    """One synchronous update of a cyclic row, from the rule number's bits."""
    w = len(row)
    return [(rule >> (4 * row[i - 1] + 2 * row[i] + row[(i + 1) % w])) & 1 for i in range(w)]


def eca_rows(row, rule, steps, block=None):
    """Rows of a bare run, or of a damped one when ``block`` = (start, width).

    A damping block runs the bare rule and then pins its two boundary
    cells to zero, which is what the transparent transition followed by
    the (0, 0) action does.
    """
    row = list(row)
    rows = [row]
    for _ in range(steps):
        row = eca_step(row, rule)
        if block is not None:
            start, width = block
            row[start] = row[start + width - 1] = 0
        rows.append(row)
    return rows


def render(rows):
    return "\n".join("".join("#" if b else "." for b in row) for row in rows)


def decode_pbm(data):
    """Rows of a binary P4 image: header, then rows MSB first, byte padded."""
    magic, dims, body = data.split(b"\n", 2)
    require(magic == b"P4", f"PBM magic is {magic!r}")
    width, height = map(int, dims.split())
    stride = (width + 7) // 8
    require(len(body) == stride * height, "PBM body has the wrong length")
    return [[(body[r * stride + c // 8] >> (7 - c % 8)) & 1 for c in range(width)]
            for r in range(height)]
