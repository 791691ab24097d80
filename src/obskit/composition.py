"""Observer composition: stacks, rule-switching wrappers, and fact ledgers.

``stack`` places one observer above another: the upper machine watches the
lower machine's actions and may override what the pair emits.  A
``second_order_wrap`` turns a finite family of rule tables plus a
table-selection rule into an ordinary observer that switches its own rules
as it runs; ``_product`` builds both on pairs of states.  ``stack`` records
who-watches-whom edges in a meta registry that refuses to become cyclic and
holds observers only weakly, forgetting them once they are collected;
``check_well_founded`` tests arbitrary observation graphs.  ``FactLedger``
keeps the observer-relative record of which interactions crossed which
boundary, exercised end to end by the bundled two-observer lab script.
"""

from __future__ import annotations

import threading
import weakref
from collections.abc import Hashable, Iterable, Mapping
from itertools import chain

from .core import Ident, Observer, _index, _integer, _items, _of_type, _Record, check_total
from .errors import (
    DefinitionError,
    LedgerOrderError,
    MetaCycleError,
    WiringError,
)


class Wiring(_Record):
    """How a lower observer feeds an upper one.

    ``lift`` translates every lower action into an upper input.  ``drop``,
    when present, translates every upper action into the lower action the
    composite emits instead of the lower observer's own.
    """

    lift: Mapping
    drop: Mapping | None = None


class WellFoundedReport(_Record):
    well_founded: bool
    cycle: tuple | None = None

    def __bool__(self) -> bool:
        return self.well_founded


class MetaRegistry:
    """Mutable record of who observes or modifies whom, safe to share between threads.

    Nodes are tracked by identity.  Observers are held by weak references whose
    callbacks only append the dead id to a list and never hold the registry, so a
    dropped registry leaves nothing behind; ``register_edge`` and ``graph`` first
    drop collected observers and their edges, before an id can be reused.  Edges
    are kept both ways, so that costs only the dead observers' own edges.
    Labels that cannot be weakly referenced (strings, ints, tuples) are held until
    ``clear``.  An edge that would close a directed cycle raises ``MetaCycleError``
    and leaves the graph unchanged.  One lock serializes the public methods; the
    callbacks never take it, as garbage collection can run them under it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._watches: dict[int, dict[int, None]] = {}
        self._watchers: dict[int, dict[int, None]] = {}  # the same edges, reversed
        self._held: dict[int, object] = {}  # the label itself, or a weak reference to the observer
        self._dead: list[int] = []  # appended to by callbacks only, drained under the lock

    def _node(self, node) -> int:
        key, dead = id(node), self._dead
        if key not in self._watches:
            try:
                held = weakref.ref(node, lambda _: dead.append(key))  # never holds the registry
            except TypeError:
                held = node
            self._held[key] = held
            self._watches[key], self._watchers[key] = {}, {}
        return key

    def _forget_dead(self) -> None:
        while self._dead:
            key = self._dead.pop()
            self._held.pop(key, None)  # pop: a callback already running when clear() ran appends after it
            for target in self._watches.pop(key, ()):
                self._watchers[target].pop(key, None)
            for watcher in self._watchers.pop(key, ()):
                self._watches[watcher].pop(key, None)

    def register_edge(self, watcher, watched) -> None:
        """Record that ``watcher`` observes/modifies ``watched``; fail closed.

        The graph is acyclic, so the edge closes a cycle exactly when
        ``watched`` already reaches ``watcher``; only that search runs.
        """
        with self._lock:
            self._forget_dead()
            a, b = id(watcher), id(watched)
            reached = {b: None}  # node -> the node the search reached it from
            todo = [b]
            while todo:
                node = todo.pop()
                for nxt in self._watches.get(node, ()):
                    if nxt not in reached:
                        reached[nxt] = node
                        todo.append(nxt)
            if a in reached:
                path = [a]
                while path[-1] != b:
                    path.append(reached[path[-1]])
                raise MetaCycleError(f"edge would close an observation cycle: {tuple(path[::-1])!r}")
            self._watches[self._node(watcher)][self._node(watched)] = None
            self._watchers[b][a] = None

    def graph(self) -> dict[int, list[int]]:
        """A copy of the edges, by node id."""
        with self._lock:
            self._forget_dead()
            return {key: list(targets) for key, targets in self._watches.items()}

    def clear(self) -> None:
        with self._lock:
            self._held.clear()  # first: a weak reference that is gone calls nothing back
            self._dead.clear()
            self._watches.clear(), self._watchers.clear()


_default_registry = MetaRegistry()


def default_registry() -> MetaRegistry:
    return _default_registry


def check_well_founded(
    meta_graph: Mapping | None = None,
    registry: MetaRegistry | None = None,
) -> WellFoundedReport:
    """Decide whether an observation graph is free of directed cycles.

    ``meta_graph`` maps each node to the nodes it observes; missing keys
    are treated as sinks.  Without an explicit graph, the given registry
    (or the process-wide default) is checked.  On failure the report
    carries one offending cycle, listed in traversal order.
    """
    if meta_graph is None:
        meta_graph = (registry or _default_registry).graph()
    _of_type(meta_graph, Mapping, "meta_graph must be a mapping")
    # read each value once: an iterator read twice would come back empty
    graph = {node: _items(targets, "each meta_graph value") for node, targets in meta_graph.items()}
    nodes = dict.fromkeys(chain(graph, chain.from_iterable(graph.values())))

    WHITE, GREY, BLACK = 0, 1, 2
    color = dict.fromkeys(nodes, WHITE)

    for root in nodes:
        if color[root] != WHITE:
            continue
        color[root] = GREY
        frames = [(root, iter(graph.get(root, ())))]
        while frames:
            node, it = frames[-1]
            for nxt in it:
                if color[nxt] == GREY:
                    path = [n for n, _ in frames]
                    return WellFoundedReport(False, tuple(path[path.index(nxt):]))
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    frames.append((nxt, iter(graph.get(nxt, ()))))
                    break
            else:
                color[node] = BLACK
                frames.pop()
    return WellFoundedReport(True, None)


def _product(left, right, inputs, outputs, step, emit, boundary: str) -> Observer:
    """The observer on the pairs (l, r) of ``left`` and ``right``, l major: on input y the
    pair (l, r) moves to ``step(l, r, y)``, and it emits ``emit(l, r)``."""
    states = tuple([(l, r) for l in left for r in right])
    return Observer(states, inputs, outputs, {((l, r), y): step(l, r, y) for l, r in states for y in inputs},
                    {(l, r): emit(l, r) for l, r in states}, boundary)


def stack(lower: Observer, upper: Observer, wiring: Wiring,
          registry: MetaRegistry | None = None) -> Observer:
    """Compose two observers into one, the upper refining the lower.

    The composite state is the pair (lower state, upper state).  On each
    input the lower machine steps first, the upper machine steps on the
    lifted lower action, and the composite emits the lower action, or the
    dropped upper action when the wiring overrides.  The result is a plain
    observer, so every analysis in the package applies to it unchanged.
    """
    _of_type(lower, Observer, "lower must be an Observer")
    _of_type(upper, Observer, "upper must be an Observer")
    _of_type(wiring, Wiring, "wiring must be a Wiring")
    lift = check_total("lift", wiring.lift, lower.outputs, upper.inputs, WiringError)
    drop = None if wiring.drop is None else check_total(
        "drop", wiring.drop, upper.outputs, lower.outputs, WiringError)

    def step(xl, xu, y):
        xl2 = lower.transition[(xl, y)]
        return xl2, upper.transition[(xu, lift[lower.output_map[xl2]])]

    emit = (lambda xl, xu: lower.output_map[xl]) if drop is None else (lambda xl, xu: drop[upper.output_map[xu]])
    composite = _product(lower.states, upper.states, lower.inputs, lower.outputs, step, emit,
                         f"stack({lower.boundary or 'lower'} < {upper.boundary or 'upper'})")
    reg = registry or _default_registry
    reg.register_edge(upper, lower)
    reg.register_edge(composite, lower)
    reg.register_edge(composite, upper)
    return composite


class RuleTable(_Record):
    """One (transition, output) table over a fixed state/input/output frame."""

    transition: Mapping
    output_map: Mapping


class RuleFamily(_Record):
    """An indexed family of rule tables plus the table-selection rule.

    ``meta_update`` maps (table index, state, input) to the index of the
    table used for the next step.
    """

    tables: tuple[RuleTable, ...]
    meta_update: Mapping

    def __post_init__(self) -> None:
        if not self.tables:
            raise DefinitionError("rule family must contain at least one table")
        for table in self.tables:
            _of_type(table, RuleTable, "each rule family table must be a RuleTable")


def second_order_wrap(
    states: Iterable[Ident],
    inputs: Iterable[Ident],
    outputs: Iterable[Ident],
    family: RuleFamily,
) -> Observer:
    """Build an observer that switches among its own rule tables.

    The wrapped state is (base state, active table index); each step
    applies the active table to the base state and the selection rule to
    the index.  Self-modification stays inside one machine, so nothing is
    registered in the meta registry.
    """
    states = tuple(_index("states", states))
    inputs = tuple(_index("inputs", inputs))
    outputs = tuple(_index("outputs", outputs))
    indices = range(len(_of_type(family, RuleFamily, "family must be a RuleFamily").tables))
    keys = [(x, y) for x in states for y in inputs]
    steps = [check_total(f"table {k} transition", t.transition, keys, states)
             for k, t in enumerate(family.tables)]
    emits = [check_total(f"table {k} output_map", t.output_map, states, outputs)
             for k, t in enumerate(family.tables)]
    meta = check_total("meta_update", family.meta_update,
                       [(k, x, y) for k in indices for x, y in keys], indices)
    return _product(states, indices, inputs, outputs, lambda x, k, y: (steps[k][(x, y)], meta[(k, x, y)]),
                    lambda x, k: emits[k][x], "rule-switching wrapper")


# -- observer-relative facts -------------------------------------------------

class FactEntry(_Record):
    """One boundary crossing: who recorded what, and when."""

    observer_id: Hashable
    step: int
    received: Ident
    state: Ident


class FactLedger(_Record):
    """Append-only record of boundary crossings, per observer."""

    entries: tuple[FactEntry, ...] = ()

    def last_step(self, observer_id: Hashable) -> int | None:
        return next((e.step for e in reversed(self.entries) if e.observer_id == observer_id), None)


def record_fact(
    ledger: FactLedger,
    observer_id: Hashable,
    step: int,
    received: Ident,
    state: Ident,
) -> FactLedger:
    """Extend the ledger by one entry; steps per observer must not go back."""
    last = _of_type(ledger, FactLedger, "ledger must be a FactLedger").last_step(observer_id)
    step = _integer(step, "step")
    if last is not None and step < last:
        raise LedgerOrderError(
            f"step {step} precedes already recorded step {last} for {observer_id!r}"
        )
    return FactLedger(ledger.entries + (FactEntry(observer_id, step, received, state),))


def facts_relative_to(
    ledger: FactLedger, observer_id: Hashable, step: int
) -> tuple[FactEntry, ...]:
    """Everything the observer has recorded by the given step, inclusive."""
    entries = _of_type(ledger, FactLedger, "ledger must be a FactLedger").entries
    step = _integer(step, "step")
    return tuple(e for e in entries if e.observer_id == observer_id and e.step <= step)


# -- two-observer measurement script -----------------------------------------

_SPIN_MEANING = {
    "UpRecorded": "spin-up",
    "DownRecorded": "spin-down",
    "KnowsUp": "spin-up",
    "KnowsDown": "spin-down",
}


class LabScriptRun(_Record):
    """Result of the sealed-lab script: a ledger plus the key step indices."""

    ledger: FactLedger
    insider_id: str
    outsider_id: str
    measurement_step: int
    read_step: int


def known_spin_values(ledger: FactLedger, observer_id: Hashable, step: int) -> frozenset[str]:
    """Spin facts an observer can read off its own records at a step."""
    return frozenset(
        _SPIN_MEANING[e.state]
        for e in facts_relative_to(ledger, observer_id, step)
        if e.state in _SPIN_MEANING
    )


def _recorder(states: tuple, inputs: tuple, outputs: tuple, boundary: str) -> Observer:
    """A waiting state that records the first up or down input and keeps it for good.

    Each triple lists its waiting (or quiet) name, then its up name, then its down name.
    """
    transition = {(x, y): x for x in states for y in inputs}
    transition.update({(states[0], inputs[1]): states[1], (states[0], inputs[2]): states[2]})
    return Observer(states, inputs, outputs, transition, dict(zip(states, outputs)), boundary)


def run_lab_script(spin: str = "up") -> LabScriptRun:
    """Run the classic sealed-lab scenario with two observers.

    An insider measures a spin at step 1 and records the outcome inside her
    own boundary.  An outsider stays isolated until step 5, when he reads
    the insider's display; only then does the outcome become a fact
    relative to him.  Nothing is recorded for interactions that carry no
    information, so before the read the outsider's fact set is empty.
    """
    if spin not in ("up", "down"):
        raise DefinitionError("spin must be 'up' or 'down'")

    insider = _recorder(("Ready", "UpRecorded", "DownRecorded"), ("Quiet", "SpinUp", "SpinDown"),
                        ("Blank", "ShowsUp", "ShowsDown"), "insider: lab bench and apparatus inside")
    outsider = _recorder(("Waiting", "KnowsUp", "KnowsDown"), ("Nothing", "SeesUp", "SeesDown"),
                         ("Idle", "ReportsUp", "ReportsDown"), "outsider: everything outside the sealed lab")

    ledger = FactLedger()
    measurement_step, read_step = 1, 5

    # step 1: the spin outcome crosses the insider's boundary
    reading = "SpinUp" if spin == "up" else "SpinDown"
    insider_state = insider.step("Ready", reading)
    ledger = record_fact(ledger, "insider", measurement_step, reading, insider_state)

    # steps 2..4: the outsider stays sealed off; nothing crosses, nothing recorded
    outsider_state = "Waiting"
    for _ in range(measurement_step + 1, read_step):
        outsider_state = outsider.step(outsider_state, "Nothing")

    # step 5: the insider's display crosses the outsider's boundary
    display = insider.output(insider_state)
    seen = {"ShowsUp": "SeesUp", "ShowsDown": "SeesDown"}[display]
    outsider_state = outsider.step(outsider_state, seen)
    ledger = record_fact(ledger, "outsider", read_step, seen, outsider_state)

    return LabScriptRun(
        ledger=ledger,
        insider_id="insider",
        outsider_id="outsider",
        measurement_step=measurement_step,
        read_step=read_step,
    )
