"""Shared fixtures, random machine generators, and independent oracles.

The oracles here deliberately re-derive results from first principles
(exhaustive enumeration, transitive closure, Monte-Carlo simulation, a
fresh cellular-automaton implementation) so the tests check the library
against something it does not share code with.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import numpy as np
import pytest

from obskit.composition import default_registry
from obskit.core import CoupledSystem, Environment, Observer
from obskit.errors import CapExceededError
from obskit.metrics import GOAL_REACHED, GOAL_UNREACHABLE, TRANSIENT_TO_CYCLE, AdaptationResult

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(autouse=True)
def _fresh_registry():
    default_registry().clear()
    yield
    default_registry().clear()


# -- random machine generators -------------------------------------------------

def random_observer(rng: random.Random, max_size: int = 5, sizes=None) -> Observer:
    if sizes is None:
        sizes = (rng.randint(1, max_size), rng.randint(1, max_size), rng.randint(1, max_size))
    nx, ny, nz = sizes
    states = tuple(f"x{i}" for i in range(nx))
    inputs = tuple(f"y{j}" for j in range(ny))
    outputs = tuple(f"z{k}" for k in range(nz))
    transition = {(x, y): rng.choice(states) for x in states for y in inputs}
    output_map = {x: rng.choice(outputs) for x in states}
    return Observer(states, inputs, outputs, transition, output_map)


def duplicated_inputs_observer(rng: random.Random, nx: int, columns: int, copies: int, nz: int) -> Observer:
    """A random machine whose inputs repeat ``columns`` random columns ``copies``
    times each, in shuffled order, and whose outputs split the states as evenly
    as possible (equally when ``nz`` divides ``nx``)."""
    table = [[rng.randrange(nx) for _ in range(columns)] for _ in range(nx)]
    source = [j % columns for j in range(columns * copies)]
    rng.shuffle(source)
    emitted = [i % nz for i in range(nx)]
    rng.shuffle(emitted)
    states = tuple(f"x{i}" for i in range(nx))
    inputs = tuple(f"y{j}" for j in range(len(source)))
    outputs = tuple(f"z{k}" for k in range(nz))
    transition = {(states[i], y): states[table[i][c]] for i in range(nx) for y, c in zip(inputs, source)}
    return Observer(states, inputs, outputs, transition, {x: outputs[k] for x, k in zip(states, emitted)})


def relabeled(obs: Observer, rng: random.Random, prefix: str = "r") -> Observer:
    """Fresh names and a shuffled construction order; isomorphic by design."""
    def fresh(items, tag):
        names = [f"{prefix}{tag}{i}" for i in range(len(items))]
        rng.shuffle(names)
        return dict(zip(items, names))

    sx = fresh(obs.states, "s")
    sy = fresh(obs.inputs, "i")
    sz = fresh(obs.outputs, "o")
    new_states = [sx[x] for x in obs.states]
    new_inputs = [sy[y] for y in obs.inputs]
    new_outputs = [sz[z] for z in obs.outputs]
    rng.shuffle(new_states)
    rng.shuffle(new_inputs)
    rng.shuffle(new_outputs)
    return Observer(
        states=tuple(new_states),
        inputs=tuple(new_inputs),
        outputs=tuple(new_outputs),
        transition={(sx[x], sy[y]): sx[v] for (x, y), v in obs.transition.items()},
        output_map={sx[x]: sz[z] for x, z in obs.output_map.items()},
        boundary=obs.boundary,
    )


def random_environment(rng: random.Random, obs: Observer, n_env: int = 3) -> Environment:
    states = tuple(f"s{i}" for i in range(n_env))
    transition = {(s, z): rng.choice(states) for s in states for z in obs.outputs}
    observation = {s: rng.choice(obs.inputs) for s in states}
    return Environment(states, obs.outputs, transition, observation)


def random_system(rng: random.Random, max_size: int = 4, n_env: int = 4) -> CoupledSystem:
    obs = random_observer(rng, max_size=max_size)
    env = random_environment(rng, obs, n_env=rng.randint(1, n_env))
    return CoupledSystem(obs, env)


def relabel_environment(env: Environment, state_names: dict, action_map: dict,
                        reading_map: dict) -> Environment:
    """Rename environment states and translate alphabets via the given maps."""
    return Environment(
        states=tuple(state_names[s] for s in env.states),
        actions=tuple(action_map[a] for a in env.actions),
        transition={
            (state_names[s], action_map[a]): state_names[v]
            for (s, a), v in env.transition.items()
        },
        observation={state_names[s]: reading_map[r] for s, r in env.observation.items()},
    )


# -- isomorphism oracle ---------------------------------------------------------

def _tables(obs: Observer):
    si = {x: i for i, x in enumerate(obs.states)}
    zi = {z: k for k, z in enumerate(obs.outputs)}
    f = [[si[obs.transition[(x, y)]] for y in obs.inputs] for x in obs.states]
    g = [zi[obs.output_map[x]] for x in obs.states]
    return f, g


def brute_force_isomorphism(a: Observer, b: Observer, anchor: tuple[int, int] | None = None):
    """Exhaustive search over every bijection triple, in lexicographic order.

    Returns the first valid (state, input, output) index-permutation triple
    or None; with ``anchor`` = (i, u), only triples sending state index i to
    u count.  The transition check does not involve the output permutation,
    so it is hoisted out of the innermost loop.
    """
    shape = (len(a.states), len(a.inputs), len(a.outputs))
    if shape != (len(b.states), len(b.inputs), len(b.outputs)):
        return None
    nx, ny, nz = shape
    fa, ga = _tables(a)
    fb, gb = _tables(b)
    for px in permutations(range(nx)):
        if anchor is not None and px[anchor[0]] != anchor[1]:
            continue
        for py in permutations(range(ny)):
            if all(px[fa[i][j]] == fb[px[i]][py[j]] for i in range(nx) for j in range(ny)):
                for pz in permutations(range(nz)):
                    if all(pz[ga[i]] == gb[px[i]] for i in range(nx)):
                        return px, py, pz
    return None


def morphism_vectors(a: Observer, b: Observer, morphism):
    """Express a morphism as index-permutation vectors for oracle comparison."""
    px = tuple(b.states.index(morphism.state_map[x]) for x in a.states)
    py = tuple(b.inputs.index(morphism.input_map[y]) for y in a.inputs)
    pz = tuple(b.outputs.index(morphism.output_map[z]) for z in a.outputs)
    return px, py, pz


# -- behavioral-partition oracle ------------------------------------------------------

def behavioral_partition_oracle(obs: Observer) -> tuple[tuple, ...]:
    """Moore's pair table (1956), on the label tables: mark each pair of states
    with different outputs, then, until a pass marks nothing, each pair that
    some input steps into a marked pair.  Unmarked pairs are behaviorally equal.
    Blocks come in order of their first state, members in construction order."""
    states, step, out = obs.states, obs.transition, obs.output_map
    marked = {(p, q) for p in states for q in states if out[p] != out[q]}
    changed = True
    while changed:
        changed = False
        for p in states:
            for q in states:
                if (p, q) not in marked and any((step[(p, y)], step[(q, y)]) in marked for y in obs.inputs):
                    marked.add((p, q))
                    changed = True
    blocks: list[list] = []
    for p in states:
        block = next((b for b in blocks if (b[0], p) not in marked), None)
        if block is None:
            blocks.append([p])
        else:
            block.append(p)
    return tuple(map(tuple, blocks))


# -- cycle-detection oracle ------------------------------------------------------

def cycle_oracle(graph: dict) -> bool:
    """Transitive closure by Floyd-Warshall; cyclic iff some node reaches itself."""
    nodes = list(graph)
    for targets in graph.values():
        for t in targets:
            if t not in nodes:
                nodes.append(t)
    index = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    reach = [[False] * n for _ in range(n)]
    for u, targets in graph.items():
        for v in targets:
            reach[index[u]][index[v]] = True
    for k in range(n):
        rk = reach[k]
        for i in range(n):
            if reach[i][k]:
                ri = reach[i]
                for j in range(n):
                    if rk[j]:
                        ri[j] = True
    return any(reach[i][i] for i in range(n))


# -- closed-loop reachability oracle -----------------------------------------------

def reachable_joints_oracle(system: CoupledSystem, starts) -> tuple:
    """Walk the label tables from each start until that walk repeats a joint
    state, keeping every joint state in the order some walk first met it."""
    obs, env = system.observer, system.environment
    seen = {}
    for x, s in starts:
        walked = set()
        while (x, s) not in walked:
            walked.add((x, s))
            seen.setdefault((x, s), None)
            x = obs.transition[(x, env.observation[s])]
            s = env.transition[(s, obs.output_map[x])]
    return tuple(seen)


def adaptation_time_oracle(system: CoupledSystem, joint, goal=None, cap=None) -> AdaptationResult:
    """Walk the label tables from ``joint`` until a joint state repeats, then
    read the result off that whole orbit: the first goal joint of a goal run,
    else the revisit; past ``cap`` steps (|X|*|S| + 1 by default) the run is
    ``CapExceededError`` instead."""
    obs, env = system.observer, system.environment
    orbit, (x, s) = [], joint
    while (x, s) not in orbit:
        orbit.append((x, s))
        x = obs.transition[(x, env.observation[s])]
        s = env.transition[(s, obs.output_map[x])]
    tail, revisit = orbit.index((x, s)), len(orbit)
    hits = [t for t, j in enumerate(orbit) if goal is not None and goal(j)]
    if hits:
        decided, result = hits[0], AdaptationResult(GOAL_REACHED, hits[0])
    elif goal is not None:
        decided, result = revisit, AdaptationResult(GOAL_UNREACHABLE)
    else:
        period = revisit - tail
        decided, result = revisit, AdaptationResult(TRANSIENT_TO_CYCLE, tail if period == 1 else revisit, period)
    limit = len(obs.states) * len(env.states) + 1 if cap is None else cap
    if decided > limit:
        raise CapExceededError(f"decided at step {decided}, past the cap {limit}")
    return result


# -- Monte-Carlo hitting-time oracle ----------------------------------------------

def mc_hitting_oracle(matrix, start: int, goal, trials: int, seed: int):
    """Simulate the chain; returns (mean hitting time, standard error)."""
    P = np.asarray(matrix, dtype=float)
    cumulative = np.cumsum(P, axis=1)
    goal_set = np.zeros(P.shape[0], dtype=bool)
    goal_set[list(goal)] = True
    rng = np.random.default_rng(seed)

    position = np.full(trials, start, dtype=np.int64)
    steps = np.zeros(trials, dtype=np.int64)
    active = ~goal_set[position]
    guard = 0
    while active.any():
        guard += 1
        if guard > 1_000_000:
            raise RuntimeError("oracle runaway: chain does not hit the goal")
        draws = rng.random(int(active.sum()))
        rows = cumulative[position[active]]
        position[active] = (rows < draws[:, None]).sum(axis=1)
        steps[active] += 1
        active[active] = ~goal_set[position[active]]
    mean = float(steps.mean())
    stderr = float(steps.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return mean, stderr


def random_dense_chain(rng: np.random.Generator, n: int):
    """Row-stochastic matrix with strictly positive entries (fast mixing)."""
    raw = rng.random((n, n)) + 0.05
    return raw / raw.sum(axis=1, keepdims=True)


def random_chain(rng: random.Random, n: int, band: int | None = None) -> list[list[float]]:
    """Row-stochastic rows: every entry positive, or only those within ``band`` of the diagonal (cyclically)."""
    rows = []
    for i in range(n):
        row = [0.0] * n
        for j in range(n) if band is None else {(i + d) % n for d in range(-band, band + 1)}:
            row[j] = rng.random() + 0.05
        total = sum(row)
        rows.append([p / total for p in row])
    return rows


# -- exact first-passage oracle ------------------------------------------------------

def exact_hitting_time(rows, start: int, goal) -> Fraction | float:
    """The expected steps from ``start`` to ``goal``, exactly, as a Fraction; ``math.inf`` if none.

    Every float is a dyadic rational, so the first-passage system (I - Q) t = 1
    over the non-goal states reachable from the start, scaled by a power of
    two, is an integer system.  Fraction-free (Bareiss) elimination solves it
    exactly; ordering the start last leaves its time as the ratio of the last
    row's two remaining entries (Cramer's rule).  No pivoting is needed: when
    every such state can reach the goal, I - Q is a nonsingular M-matrix, all
    of whose leading minors are positive.  Elimination over Fractions gives the
    same answer, but reducing by a gcd after every operation makes it about six
    times slower on a dense 96-state chain.
    """
    goal = set(goal)
    if start in goal:
        return Fraction(0)
    seen, stack = {start}, [start]
    while stack:
        i = stack.pop()
        for j, p in enumerate(rows[i]):
            if p > 0 and j not in seen:
                seen.add(j)
                if j not in goal:
                    stack.append(j)
    if not seen & goal:
        return math.inf
    order = sorted(seen - goal - {start}) + [start]
    system = [[Fraction(int(s == t)) - Fraction(rows[s][t]) for t in order] + [Fraction(1)] for s in order]
    scale = max(x.denominator for row in system for x in row)
    a = [[int(x * scale) for x in row] for row in system]
    previous = 1
    for k in range(len(a) - 1):
        pivot = a[k]
        if pivot[k] <= 0:
            raise ValueError("a state the start reaches cannot reach the goal")
        for r in range(k + 1, len(a)):
            f = a[r][k]
            a[r] = [(pivot[k] * x - f * y) // previous for x, y in zip(a[r], pivot)]
        previous = pivot[k]
    last = a[-1]
    return Fraction(last[-1], last[-2])


# -- independent cellular-automaton oracle ------------------------------------------

def eca_oracle_step(cells, number: int):
    """Fresh rule application straight from the number's bits."""
    w = len(cells)
    return tuple(
        (number >> (4 * cells[(i - 1) % w] + 2 * cells[i] + cells[(i + 1) % w])) & 1
        for i in range(w)
    )


def eca_oracle_run(cells, number: int, steps: int):
    rows = [tuple(cells)]
    for _ in range(steps):
        rows.append(eca_oracle_step(rows[-1], number))
    return rows


def embedded_oracle_run(cells, number: int, start: int, obs: Observer, steps: int):
    """Fresh embedded loop, one cell at a time, through the observer's label tables.

    Returns the rows and, per step, (t, reading, held state, action, row).
    """
    k = len(obs.states).bit_length() - 1
    w = len(cells)

    def state_at(row):
        code = 0
        for i in range(start, start + k):
            code = 2 * code + row[i]
        return obs.states[code]

    rows, records = [tuple(cells)], []
    for t in range(steps):
        pre = rows[-1]
        reading = obs.inputs[2 * pre[(start - 1) % w] + pre[(start + k) % w]]
        state = obs.transition[(state_at(pre), reading)]
        action = obs.output_map[state]
        code, pair = obs.states.index(state), obs.outputs.index(action)
        nxt = list(eca_oracle_step(pre, number))
        for i in range(k):
            nxt[start + i] = (code >> (k - 1 - i)) & 1
        nxt[start] = pair >> 1
        nxt[start + k - 1] = pair & 1  # for k = 1 the right bit wins
        row = tuple(nxt)
        rows.append(row)
        records.append((t, reading, state_at(row), action, row))
    return rows, records


# -- composite-builder oracles ------------------------------------------------------

def stack_oracle(lower: Observer, upper: Observer, wiring) -> Observer:
    """``stack``'s composite built straight from the label tables, registering nothing:
    the lower machine steps, the upper steps on the lifted new lower action, and the
    pair emits the lower action or, under ``drop``, the dropped upper action."""
    states = tuple((xl, xu) for xl in lower.states for xu in upper.states)
    transition = {}
    for xl, xu in states:
        for y in lower.inputs:
            xl2 = lower.transition[(xl, y)]
            transition[((xl, xu), y)] = (xl2, upper.transition[(xu, wiring.lift[lower.output_map[xl2]])])
    if wiring.drop is None:
        output_map = {(xl, xu): lower.output_map[xl] for xl, xu in states}
    else:
        output_map = {(xl, xu): wiring.drop[upper.output_map[xu]] for xl, xu in states}
    return Observer(states, lower.inputs, lower.outputs, transition, output_map,
                    f"stack({lower.boundary or 'lower'} < {upper.boundary or 'upper'})")


def second_order_wrap_oracle(states, inputs, outputs, family) -> Observer:
    """``second_order_wrap``'s observer on the pairs (base state, table index), base state major."""
    tables, meta = family.tables, family.meta_update
    wrapped = tuple((x, k) for x in states for k in range(len(tables)))
    transition = {((x, k), y): (tables[k].transition[(x, y)], meta[(k, x, y)]) for x, k in wrapped for y in inputs}
    output_map = {(x, k): tables[k].output_map[x] for x, k in wrapped}
    return Observer(wrapped, tuple(inputs), tuple(outputs), transition, output_map, "rule-switching wrapper")


def block_observer_oracle(number: int, k: int, damping: bool = False) -> Observer:
    """The CA block observer built in two steps: the transparent block, whose state
    is the block's bits, moved by ``eca_oracle_step`` on the block padded with the
    two sensed bits and acting its new edge bits; then, for a damping block, that
    machine rebuilt with every action (0, 0)."""
    states = tuple(product((0, 1), repeat=k))
    pairs = tuple(product((0, 1), repeat=2))
    transition = {(bits, (l, r)): eca_oracle_step((l, *bits, r), number)[1:-1] for bits in states for l, r in pairs}
    base = Observer(states, pairs, pairs, transition, {bits: (bits[0], bits[-1]) for bits in states},
                    f"transparent block of {k} cells")
    if not damping:
        return base
    return Observer(base.states, base.inputs, base.outputs, base.transition,
                    dict.fromkeys(base.states, (0, 0)), f"damping block of {k} cells")


# -- fixed observer corpus -----------------------------------------------------------

def observer_corpus(seed: int = 2024, size: int = 50) -> list[Observer]:
    """Fixed mix of random machines and relabelings for oracle comparisons."""
    rng = random.Random(seed)
    corpus: list[Observer] = []
    while len(corpus) < size:
        nx = rng.choice((2, 2, 3, 3, 4))
        ny = rng.choice((1, 2, 2, 3))
        nz = rng.choice((1, 2, 2, 3))
        base = random_observer(rng, sizes=(nx, ny, nz))
        corpus.append(base)
        if len(corpus) < size and rng.random() < 0.4:
            corpus.append(relabeled(base, rng, prefix=f"c{len(corpus)}"))
    return corpus[:size]
