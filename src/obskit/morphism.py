"""Structure-preserving maps between observers.

A morphism is a triple of maps (states, inputs, outputs) that makes the
transition and output diagrams commute.  Bijective morphisms witness that
two observers differ only by relabeling, and that relation is an
equivalence.  This module checks morphisms, searches for isomorphisms,
partitions observer collections into equivalence classes, and computes the
behavioral quotient that drives the redundancy metric.  The quotient is
computed once, on the int tables (``_quotient``); ``minimize`` builds its
machine from int rows, and callers that need only its sizes
(``complexity``, ``canonical_invariants``) read them there, building none.
"""

from bisect import bisect_right
from collections import Counter
from collections.abc import Mapping
from itertools import permutations, product

from .core import Ident, Observer, _items, _of_type, _Record, check_total
from .errors import DefinitionError, IdentifierError, MorphismShapeError, _shown


class ObserverMorphism(_Record):
    """A triple of maps from one observer's sets into another's.

    ``bijective`` is derived: it is true when all three maps are injective,
    which for maps between equal-size finite sets is the same as being
    bijections.
    """

    state_map: Mapping
    input_map: Mapping
    output_map: Mapping

    def __post_init__(self) -> None:
        maps = self.state_map, self.input_map, self.output_map
        try:
            self._assign(bijective=all(len(set(m.values())) == len(m) for m in maps))
        except TypeError:
            raise DefinitionError(f"a morphism's maps must hold hashable values, got {_shown(maps)}") from None

    def __repr__(self) -> str:
        return f"{super().__repr__()[:-1]}, bijective={self.bijective!r})"

    def inverse(self) -> "ObserverMorphism":
        """Componentwise inverse; only defined for bijective morphisms."""
        if not self.bijective:
            raise MorphismShapeError("cannot invert a non-bijective morphism")
        maps = self.state_map, self.input_map, self.output_map
        return ObserverMorphism(*[{v: k for k, v in m.items()} for m in maps])


def identity_morphism(obs: Observer) -> ObserverMorphism:
    _of_type(obs, Observer, "expected an Observer")
    return ObserverMorphism(*[{x: x for x in items} for items in (obs.states, obs.inputs, obs.outputs)])


class MorphismCheck(_Record):
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
    for value, cls in ((src, Observer), (dst, Observer), (morphism, ObserverMorphism)):
        _of_type(value, cls, f"expected an {cls.__name__}")
    check_total("state map", morphism.state_map, src.states, dst.states, MorphismShapeError)
    check_total("input map", morphism.input_map, src.inputs, dst.inputs, MorphismShapeError)
    check_total("output map", morphism.output_map, src.outputs, dst.outputs, MorphismShapeError)

    mx, my, mz = morphism.state_map, morphism.input_map, morphism.output_map
    bad_transitions = [(x, y) for x, y in product(src.states, src.inputs)
                       if mx[src.transition[(x, y)]] != dst.transition[(mx[x], my[y])]]
    bad_outputs = [x for x in src.states if mz[src.output_map[x]] != dst.output_map[mx[x]]]
    return MorphismCheck(not bad_transitions and not bad_outputs, bad_transitions, bad_outputs)


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


def _positions(keys) -> dict:
    """Each distinct key, in order of first occurrence, with the positions holding it."""
    out: dict = {}
    for i, key in enumerate(keys):
        out.setdefault(key, []).append(i)
    return out


def _indegrees(f) -> list[int]:
    """How many (state, input) pairs step into each state of the int table ``f``."""
    count = Counter(t for row in f for t in row)
    return [count[i] for i in range(len(f))]


def _seed(f) -> list[tuple[int, int, int]]:
    """Each state's first color: 0, the size of its weakly connected component in ``f``, its in-degree."""
    root = list(range(len(f)))  # a union-find forest

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = i = root[root[i]]  # path halving: i's parent and then i become its grandparent
        return i

    for i, row in enumerate(f):
        for t in row:
            root[find(t)] = find(i)
    size = Counter(map(find, range(len(f))))
    return [(0, size[find(i)], d) for i, d in enumerate(_indegrees(f))]


def find_isomorphism(
    a: Observer,
    b: Observer,
    anchors: tuple[Ident, Ident] | None = None,
) -> ObserverMorphism | None:
    """Search for a bijective morphism from ``a`` to ``b``.

    Returns the lexicographically least isomorphism under the sets'
    construction order (states first, then inputs, then outputs), or None.
    With ``anchors`` given, the state map is pinned to send the first
    anchor to the second.  The joint color refinement starts each state
    from its component's size and in-degree; each input map it allows is
    tried, inputs with equal columns mapping as one class.  One state's
    image forces its successors' images, so the least state map comes from
    a depth-first search on an explicit stack that propagates each choice
    and drops it at the first clash.  The worst case stays exponential.
    """
    for obs in (a, b):
        _of_type(obs, Observer, "expected an Observer")
    if anchors is not None:
        try:
            first, second = anchors
            for obs, x, which in ((a, first, "first"), (b, second, "second")):
                if x not in obs.state_index:
                    raise IdentifierError(f"anchor {_shown(x)} is not a state of the {which} observer")
        except (TypeError, ValueError):
            raise IdentifierError(f"anchors must be a pair of hashable states, got {_shown(anchors)}") from None

    nx, ny, nz = len(a.states), len(a.inputs), len(a.outputs)
    if (nx, ny, nz) != (len(b.states), len(b.inputs), len(b.outputs)):
        return None

    fa, ga, fb, gb, n = a.f, a.g, b.f, b.g, nx + ny + nz

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

    colors = _refine([c for f in (fa, fb) for c in _seed(f) + [(1,)] * ny + [(2,)] * nz], keys)
    if sorted(colors[:n]) != sorted(colors[n:]):
        return None
    # nodes: the states, then the outputs, each state stepping to its output on one extra input
    ca, cb = colors[:nx] + colors[nx + ny:n], colors[n:n + nx] + colors[n + nx + ny:]
    sa, sb = ([row + (nx + k,) for row, k in zip(f, g)] + [()] * nz for f, g in ((fa, ga), (fb, gb)))
    by_color = _positions(cb[:nx])
    cands = [by_color[c] for c in ca[:nx]]

    def input_classes(f, base: int) -> dict[tuple[int, int], list[list[int]]]:
        # inputs with equal columns, grouped by (color, class size)
        classes = list(_positions(zip(*f)).values())
        keyed = _positions((colors[base + m[0]], len(m)) for m in classes)
        return {key: [classes[t] for t in where] for key, where in keyed.items()}

    def least_states(route: list[int], bound: list[int]) -> list[int] | None:
        """The least node map along ``route`` whose states are not above ``bound``."""
        px, used, trail = [-1] * (nx + nz), [False] * (nx + nz), []  # trail: assigned nodes

        def force(todo: list[tuple[int, int]]) -> bool:  # assign all that follows; False on a clash
            while todo:
                i, u = todo.pop()
                if px[i] != u:
                    if px[i] >= 0 or used[u] or ca[i] != cb[u]:
                        return False
                    px[i], used[u] = u, True
                    trail.append(i)
                    todo += zip(sa[i], (sb[u][v] for v in route))
            return True

        if anchors is not None and not force([(a.state_index[first], b.state_index[second])]):
            return None
        i, frames = 0, []  # frames: (state, its untried candidates, trail length before it)
        while True:
            i = next((s for s in range(i, nx) if px[s] < 0), nx)
            if px[:i] <= bound[:i]:
                if i == nx:
                    return px
                options = cands[i][:bisect_right(cands[i], bound[i])] if px[:i] == bound[:i] else cands[i]
                frames.append((i, iter(options), len(trail)))
            while frames:
                i, options, mark = frames[-1]
                while len(trail) > mark:
                    t = trail.pop()
                    used[px[t]], px[t] = False, -1
                u = next(options, -1)
                if u < 0:
                    frames.pop()
                elif not used[u] and force([(i, u)]):
                    break
            else:
                return None

    # classes map whole, members in order; too few classes of b's give no permutation
    a_classes, b_classes = input_classes(fa, nx), input_classes(fb, n + nx)
    order = [j for c in a_classes for members in a_classes[c] for j in members]
    best: tuple[list[int], list[int]] | None = None
    for choice in product(*(permutations(b_classes.get(c, []), len(a_classes[c])) for c in a_classes)):
        image = [v for targets in choice for members in targets for v in members]
        py = [v for _, v in sorted(zip(order, image))]
        found = least_states(py + [ny], best[0] if best else [nx] * nx)
        if found is not None and (best is None or (found, py) < best):
            best = found, py
    if best is None:
        return None

    px, py = best
    free = iter(sorted(set(range(nx, nx + nz)).difference(px)))
    px = [u if u >= 0 else next(free) for u in px]
    return ObserverMorphism(
        state_map={x: b.states[u] for x, u in zip(a.states, px)},
        input_map={y: b.inputs[v] for y, v in zip(a.inputs, py)},
        output_map={z: b.outputs[w - nx] for z, w in zip(a.outputs, px[nx:])},
    )


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
    observers = _items(observers, "observers")
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
    reduced_sizes = tuple(map(len, _quotient(obs)[1:]))
    return (
        len(obs.states),
        len(obs.inputs),
        len(obs.outputs),
        reduced_sizes,
        tuple(sorted(Counter(obs.g).values())),
        tuple(sorted(_indegrees(obs.f))),
    )


class BehavioralPartition(_Record):
    """Greatest partition of states into behaviorally equivalent blocks.

    Two states share a block exactly when they emit the same action and,
    for every input, step into the same block.
    """

    classes: tuple[tuple[Ident, ...], ...]

    def __post_init__(self) -> None:
        try:
            self._assign(classes=tuple(map(tuple, self.classes)))
        except TypeError:
            raise DefinitionError(f"each block of classes must be iterable, got {_shown(self.classes)}") from None

    def block_of(self, state: Ident) -> tuple[Ident, ...]:
        for block in self.classes:
            if state in block:
                return block
        raise IdentifierError(f"unknown state {_shown(state)}")


def _quotient(obs: Observer) -> tuple[list[int], list[list[int]], list[list[int]], set[int]]:
    """The behavioral quotient of ``obs``, on its int tables.

    Returns each state's block; the states of every block and the inputs of
    every input group (inputs that step each state into the same block),
    both numbered in order of their first member; and the emitted outputs.
    The reduced sizes are the lengths of the last three.
    """
    columns = list(zip(*_of_type(obs, Observer, "expected an Observer").f))
    # a state's key: its color, then its successors' colors, one input after another
    colors = _refine(list(obs.g), lambda c: list(zip(c, *(map(c.__getitem__, column) for column in columns))))
    first: dict[int, int] = {}  # color -> its block's number
    block = [first.setdefault(c, len(first)) for c in colors]
    groups = _positions(tuple(map(block.__getitem__, column)) for column in columns)
    return block, list(_positions(block).values()), list(groups.values()), set(obs.g)


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
    block, blocks, groups, emitted = _quotient(obs)
    f, g, states, inputs, outputs = obs.f, obs.g, obs.states, obs.inputs, obs.outputs
    kept_states, kept_inputs = [members[0] for members in blocks], [members[0] for members in groups]
    rank = {k: n for n, k in enumerate(sorted(emitted))}  # each kept output's index in the quotient
    quotient = Observer._of_rows(tuple([states[i] for i in kept_states]), tuple([inputs[j] for j in kept_inputs]),
                                 tuple([outputs[k] for k in rank]),
                                 tuple([tuple([block[f[i][j]] for j in kept_inputs]) for i in kept_states]),
                                 tuple([rank[g[i]] for i in kept_states]), obs.boundary)
    quotient_map = ObserverMorphism(
        state_map={states[i]: quotient.states[b] for b, members in enumerate(blocks) for i in members},
        input_map={inputs[j]: inputs[members[0]] for members in groups for j in members},
        output_map={z: (z if k in emitted else quotient.outputs[0]) for k, z in enumerate(outputs)},
    )
    partition = BehavioralPartition(tuple(tuple(states[i] for i in members) for members in blocks))
    return quotient, partition, quotient_map
