"""Structure-preserving maps between observers.

A morphism is a triple of maps (states, inputs, outputs) that makes the
transition and output diagrams commute.  Bijective morphisms witness that
two observers differ only by relabeling, and that relation is an
equivalence.  This module checks morphisms, searches for isomorphisms,
partitions observer collections into equivalence classes, and computes the
behavioral quotient that drives the redundancy metric.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import product
from types import MappingProxyType

from .core import Ident, Observer, _Machine, check_total
from .errors import IdentifierError, MorphismShapeError


@dataclass(frozen=True, eq=False)
class ObserverMorphism(_Machine):
    """A triple of maps from one observer's sets into another's.

    The maps are read-only ``types.MappingProxyType`` views of private
    copies, so a morphism is an immutable, hashable value that pickles
    through its constructor.  ``bijective`` is derived: it is true when all
    three maps are injective, which for maps between equal-size finite sets
    is the same as being bijections.
    """

    state_map: Mapping
    input_map: Mapping
    output_map: Mapping
    bijective: bool = field(init=False)

    def __post_init__(self) -> None:
        for name in ("state_map", "input_map", "output_map"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))
        injective = all(
            len(set(m.values())) == len(m)
            for m in (self.state_map, self.input_map, self.output_map)
        )
        object.__setattr__(self, "bijective", injective)

    def __hash__(self) -> int:
        return hash(tuple(frozenset(m.items()) for m in (self.state_map, self.input_map, self.output_map)))

    def inverse(self) -> "ObserverMorphism":
        """Componentwise inverse; only defined for bijective morphisms."""
        if not self.bijective:
            raise MorphismShapeError("cannot invert a non-bijective morphism")
        return ObserverMorphism(
            state_map={v: k for k, v in self.state_map.items()},
            input_map={v: k for k, v in self.input_map.items()},
            output_map={v: k for k, v in self.output_map.items()},
        )


def identity_morphism(obs: Observer) -> ObserverMorphism:
    return ObserverMorphism(
        state_map={x: x for x in obs.states},
        input_map={y: y for y in obs.inputs},
        output_map={z: z for z in obs.outputs},
    )


@dataclass(frozen=True)
class MorphismCheck:
    """Outcome of a commutation check, with every violating witness."""

    holds: bool
    transition_failures: tuple[tuple[Ident, Ident], ...]
    output_failures: tuple[Ident, ...]

    def __bool__(self) -> bool:
        return self.holds


def check_homomorphism(src: Observer, dst: Observer, morphism: ObserverMorphism) -> MorphismCheck:
    """Verify both commutation conditions, collecting all violations.

    The transition condition requires mapping-then-stepping to agree with
    stepping-then-mapping for every (state, input) pair; the output
    condition requires the mapped state to emit the mapped action.
    """
    check_total("state map", morphism.state_map, src.states, dst.states, MorphismShapeError)
    check_total("input map", morphism.input_map, src.inputs, dst.inputs, MorphismShapeError)
    check_total("output map", morphism.output_map, src.outputs, dst.outputs, MorphismShapeError)

    mx, my, mz = morphism.state_map, morphism.input_map, morphism.output_map
    bad_transitions = tuple(
        (x, y)
        for x, y in product(src.states, src.inputs)
        if mx[src.transition[(x, y)]] != dst.transition[(mx[x], my[y])]
    )
    bad_outputs = tuple(x for x in src.states if mz[src.output_map[x]] != dst.output_map[mx[x]])
    return MorphismCheck(
        holds=not bad_transitions and not bad_outputs,
        transition_failures=bad_transitions,
        output_failures=bad_outputs,
    )


# -- partition refinement ----------------------------------------------------

def _refine(colors: list[int], keys) -> list[int]:
    """Split color classes by ``keys(colors)`` until the class count stops growing.

    Each key must include the element's current color, so every round
    refines the last.  Colors are renumbered by the sorted order of the
    keys, so they depend on structure alone, never on element order.
    """
    count = len(set(colors))
    while True:
        round_keys = keys(colors)
        palette = {k: n for n, k in enumerate(sorted(set(round_keys)))}
        colors = [palette[k] for k in round_keys]
        if len(palette) == count:
            return colors
        count = len(palette)


def find_isomorphism(
    a: Observer,
    b: Observer,
    anchors: tuple[Ident, Ident] | None = None,
) -> ObserverMorphism | None:
    """Search for a bijective morphism from ``a`` to ``b``.

    Returns the lexicographically least isomorphism under the sets'
    construction order (states first, then inputs, then outputs), or None.
    With ``anchors`` given, the state map is pinned to send the first
    anchor to the second, which usually collapses the search to a single
    branch.  Candidates are pre-filtered by the joint signature refinement,
    so the worst case stays exponential but routine instances resolve
    without backtracking.
    """
    if anchors is not None:
        ax, bx = anchors
        if ax not in a.state_index:
            raise IdentifierError(f"anchor {ax!r} is not a state of the first observer")
        if bx not in b.state_index:
            raise IdentifierError(f"anchor {bx!r} is not a state of the second observer")

    nx, ny, nz = len(a.states), len(a.inputs), len(a.outputs)
    if (nx, ny, nz) != (len(b.states), len(b.inputs), len(b.outputs)):
        return None
    if canonical_invariants(a) != canonical_invariants(b):
        return None

    fa, ga, fb, gb = a.f, a.g, b.f, b.g
    n = nx + ny + nz

    def keys(c: list[int]) -> list[tuple]:
        # one key per element of the disjoint union: a's states, inputs and
        # outputs, then b's; equal final colors mean "not yet distinguishable
        # by structure", so they are a sound candidate filter for the search
        out: list[tuple] = []
        for base, f, g in ((0, fa, ga), (n, fb, gb)):
            sc, ic, oc = c[base:base + nx], c[base + nx:base + nx + ny], c[base + nx + ny:base + n]
            out += [(sc[i], oc[g[i]], tuple(sorted(zip(ic, (sc[t] for t in f[i])))))
                    for i in range(nx)]
            out += [(ic[j], tuple(sorted((sc[i], sc[f[i][j]]) for i in range(nx))))
                    for j in range(ny)]
            out += [(oc[k], tuple(sorted(sc[i] for i in range(nx) if g[i] == k)))
                    for k in range(nz)]
        return out

    colors = _refine(([0] * nx + [1] * ny + [2] * nz) * 2, keys)
    if sorted(colors[:n]) != sorted(colors[n:]):
        return None
    state_cands = [[u for u in range(nx) if colors[n + u] == colors[i]] for i in range(nx)]
    input_cands = [[v for v in range(ny) if colors[n + nx + v] == colors[nx + j]] for j in range(ny)]
    if anchors is not None:
        i0, u0 = a.state_index[ax], b.state_index[bx]
        if u0 not in state_cands[i0]:
            return None
        state_cands[i0] = [u0]

    px = [-1] * nx
    x_used = [False] * nx

    def complete_outputs(py: list[int]) -> list[int] | None:
        forced: dict[int, int] = {}
        for i in range(nx):
            want = gb[px[i]]
            have = forced.setdefault(ga[i], want)
            if have != want:
                return None
        if len(set(forced.values())) != len(forced):
            return None
        reserved = set(forced.values())
        pz = [-1] * nz
        free = iter([w for w in range(nz) if w not in reserved])
        for k in range(nz):
            pz[k] = forced[k] if k in forced else next(free)
        return pz

    def match_inputs(j: int, py: list[int], y_used: list[bool]) -> list[int] | None:
        if j == ny:
            return list(py)
        for v in input_cands[j]:
            if y_used[v]:
                continue
            if all(fb[px[i]][v] == px[fa[i][j]] for i in range(nx)):
                py[j] = v
                y_used[v] = True
                result = match_inputs(j + 1, py, y_used)
                y_used[v] = False
                if result is not None:
                    return result
        return None

    def extend_states(i: int) -> ObserverMorphism | None:
        if i == nx:
            py = match_inputs(0, [-1] * ny, [False] * ny)
            if py is None:
                return None
            pz = complete_outputs(py)
            if pz is None:
                return None
            return ObserverMorphism(
                state_map={a.states[i]: b.states[px[i]] for i in range(nx)},
                input_map={a.inputs[j]: b.inputs[py[j]] for j in range(ny)},
                output_map={a.outputs[k]: b.outputs[pz[k]] for k in range(nz)},
            )
        for u in state_cands[i]:
            if x_used[u]:
                continue
            px[i] = u
            x_used[u] = True
            found = extend_states(i + 1)
            x_used[u] = False
            if found is not None:
                return found
        return None

    return extend_states(0)


def equivalent(a: Observer, b: Observer) -> bool:
    """True when the two observers differ only by a relabeling."""
    return find_isomorphism(a, b) is not None


def equivalence_partition(observers: list[Observer]) -> list[list[int]]:
    """Group indices of pairwise-equivalent observers.

    Each observer is compared with one member of each class already found
    among the observers with its invariant vector, and joins the first it
    is equivalent to; observers with different vectors are never compared.
    """
    by_invariant: dict[tuple, list[list[int]]] = {}
    for i, obs in enumerate(observers):
        classes = by_invariant.setdefault(canonical_invariants(obs), [])
        for group in classes:
            if equivalent(observers[group[0]], obs):
                group.append(i)
                break
        else:
            classes.append([i])
    return sorted((g for classes in by_invariant.values() for g in classes), key=lambda g: g[0])


def canonical_invariants(obs: Observer) -> tuple:
    """A relabeling-invariant fingerprint of an observer.

    Equal vectors are necessary (not sufficient) for equivalence, which
    makes this a sound prefilter: differing vectors prove non-equivalence.
    """
    reduced, _, _ = minimize(obs)
    indegree = [0] * len(obs.states)
    for row in obs.f:
        for target in row:
            indegree[target] += 1
    return (
        len(obs.states),
        len(obs.inputs),
        len(obs.outputs),
        (len(reduced.states), len(reduced.inputs), len(reduced.outputs)),
        tuple(sorted(Counter(obs.g).values())),
        tuple(sorted(indegree)),
    )


@dataclass(frozen=True)
class BehavioralPartition:
    """Greatest partition of states into behaviorally equivalent blocks.

    Two states share a block exactly when they emit the same action and,
    for every input, step into the same block.
    """

    classes: tuple[tuple[Ident, ...], ...]

    def block_of(self, state: Ident) -> tuple[Ident, ...]:
        for block in self.classes:
            if state in block:
                return block
        raise IdentifierError(f"unknown state {state!r}")


def minimize(obs: Observer) -> tuple[Observer, BehavioralPartition, ObserverMorphism]:
    """Quotient an observer by behavioral redundancy.

    States merge by the greatest behavioral partition.  Inputs merge when,
    for every state, they step into the same block.  Outputs shrink to the
    image of the output map.  Every surviving element is named by the
    earliest merged member, so an observer with no redundancy minimizes to
    itself, identically.

    Returns the quotient observer, the state partition, and the quotient
    morphism, which always passes ``check_homomorphism``.  Outputs that
    were never emitted have no constraint from the commutation conditions;
    the quotient morphism sends them to the first surviving output.
    """
    f, g = obs.f, obs.g
    states, inputs, outputs = obs.states, obs.inputs, obs.outputs
    block = _refine(list(g), lambda b: [(b[i], tuple(b[t] for t in row)) for i, row in enumerate(f)])

    # members of each block, in order of their first member
    blocks: dict[int, list[int]] = {}
    for i, c in enumerate(block):
        blocks.setdefault(c, []).append(i)
    ordered_blocks = list(blocks.values())
    rep = [blocks[c][0] for c in block]

    input_groups: dict[tuple, list[int]] = {}
    for j in range(len(inputs)):
        input_groups.setdefault(tuple(block[row[j]] for row in f), []).append(j)

    kept_states = [members[0] for members in ordered_blocks]
    kept_inputs = [members[0] for members in input_groups.values()]
    emitted = set(g)
    new_outputs = tuple(z for k, z in enumerate(outputs) if k in emitted)
    quotient = Observer(
        states=tuple(states[i] for i in kept_states),
        inputs=tuple(inputs[j] for j in kept_inputs),
        outputs=new_outputs,
        transition={
            (states[i], inputs[j]): states[rep[f[i][j]]] for i in kept_states for j in kept_inputs
        },
        output_map={states[i]: outputs[g[i]] for i in kept_states},
        boundary=obs.boundary,
    )

    partition = BehavioralPartition(
        tuple(tuple(states[i] for i in members) for members in ordered_blocks)
    )
    fallback = new_outputs[0]
    quotient_map = ObserverMorphism(
        state_map={states[i]: states[members[0]] for members in ordered_blocks for i in members},
        input_map={
            inputs[j]: inputs[members[0]] for members in input_groups.values() for j in members
        },
        output_map={z: (z if k in emitted else fallback) for k, z in enumerate(outputs)},
    )
    return quotient, partition, quotient_map
