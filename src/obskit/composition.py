"""Observer composition: stacks, rule-switching wrappers, and fact ledgers.

``stack`` places one observer above another: the upper machine watches the
lower machine's actions and may override what the pair emits.  A
``second_order_wrap`` turns a finite family of rule tables plus a
table-selection rule into an ordinary observer that switches its own rules
as it runs; ``_product`` builds both on index pairs of states, through
``Observer._of_rows``.  ``stack`` records who-watches-whom edges in a meta
registry that refuses to become cyclic and holds observers only weakly,
forgetting them once they are collected; ``check_well_founded`` tests
arbitrary observation graphs with the same depth-first search, ``_cycle``,
which the registry runs only on an edge that can close a cycle.
``FactLedger`` keeps the observer-relative record of which interactions
crossed which boundary, exercised end to end by the bundled two-observer
lab script.
"""

import threading
import weakref
from collections import defaultdict
from collections.abc import Hashable, Iterable, Mapping
from itertools import chain, product

from .core import Ident, Observer, _index, _integer, _items, _of_type, _Record, check_total
from .errors import (
    DefinitionError,
    LedgerOrderError,
    MetaCycleError,
    WiringError,
    _shown,
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


class _Held(weakref.ref):
    """A weakly held node's key in a registry: hashed and compared by identity, where a weakref compares referents."""

    __hash__, __eq__, __ne__, __lt__, __le__, __gt__, __ge__ = (
        object.__hash__, object.__eq__, object.__ne__, object.__lt__, object.__le__, object.__gt__, object.__ge__)

    def __repr__(self) -> str:
        node = self()
        if node is None:
            return "<collected>"
        return f"<{type(node).__name__} {getattr(node, 'boundary', '')!r} at {id(node):#x}>"


class MetaRegistry:
    """Mutable record of who observes or modifies whom, safe to share between threads.

    A node that can be weakly referenced, such as an observer, is tracked by identity, under a
    ``_Held`` weak reference to it whose callback only appends it to a list and never holds the
    registry, so a dropped registry leaves nothing behind.  ``register_edge`` and ``graph``
    first drop collected nodes and their edges; as edges are kept both ways, that costs only
    those nodes' own edges.  Any other node is a label (a string, int or tuple), tracked by
    value and held until ``clear``.  An edge that would close a directed cycle raises
    ``MetaCycleError`` and leaves the graph unchanged.  One lock serializes the public methods;
    the callbacks never take it, as garbage collection can run them under it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._watches: defaultdict[Hashable, dict[Hashable, None]] = defaultdict(dict)
        self._watchers: defaultdict[Hashable, dict[Hashable, None]] = defaultdict(dict)  # the same edges, reversed
        self._dead: list[_Held] = []  # appended to by callbacks only, drained under the lock

    def _key(self, node) -> Hashable:
        if not type(node).__weakrefoffset__:  # a label: its type's instances cannot be weakly referenced
            try:
                hash(node)
            except TypeError:
                raise DefinitionError(f"registry labels must be hashable, got {_shown(node)}") from None
            return node
        for key in weakref.getweakrefs(node):
            if type(key) is _Held and key.__callback__.__self__ is self._dead:  # this registry's key for it
                return key
        return _Held(node, self._dead.append)  # never holds the registry

    def _forget_dead(self) -> None:
        while self._dead:
            key = self._dead.pop()
            for target in self._watches.pop(key, ()):  # pop: clear() may have dropped the key
                self._watchers[target].pop(key, None)
            for watcher in self._watchers.pop(key, ()):
                self._watches[watcher].pop(key, None)

    def register_edge(self, watcher, watched) -> None:
        """Record that ``watcher`` observes/modifies ``watched``; fail closed.

        The graph is acyclic, so a cycle must run through the new edge: ``watched`` is ``watcher``,
        or ``watcher`` has a watcher and ``watched`` watches something.  Only then does the search of
        ``check_well_founded``, ``_cycle``, run, from ``watcher``, with ``watched`` its one successor.
        """
        with self._lock:
            self._forget_dead()
            a, b = self._key(watcher), self._key(watched)
            if a == b or self._watchers.get(a) and self._watches.get(b):
                cycle = _cycle(self._watches, a, (b,))
                if cycle:
                    raise MetaCycleError(f"edge would close an observation cycle: {tuple(cycle)!r}")
            self._watches[a][b] = None
            self._watchers[b][a] = None

    def graph(self) -> dict[Hashable, list[Hashable]]:
        """A copy of the edges: labels as themselves, weakly held nodes by their keys."""
        with self._lock:
            self._forget_dead()
            return {key: list(self._watches.get(key, ())) for key in self._watches | self._watchers}

    def clear(self) -> None:
        with self._lock:
            self._dead.clear(), self._watches.clear(), self._watchers.clear()


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
        registry = _default_registry if registry is None else registry
        meta_graph = _of_type(registry, MetaRegistry, "registry must be a MetaRegistry").graph()
    _of_type(meta_graph, Mapping, "meta_graph must be a mapping")
    # read each value once: an iterator read twice would come back empty
    graph = {node: _items(targets, "each meta_graph value") for node, targets in meta_graph.items()}
    try:
        nodes = dict.fromkeys(chain(graph, chain.from_iterable(graph.values())))
    except TypeError:
        raise DefinitionError(f"meta_graph must hold hashable nodes, got {_shown(meta_graph)}") from None

    cycle = _cycle(graph, object(), nodes)  # a fresh origin, whose successors are all the nodes
    return WellFoundedReport(not cycle, cycle)


def _cycle(graph: Mapping, origin, successors: Iterable) -> list | None:
    """The first cycle a depth-first search along ``graph`` meets from ``origin``, taking ``successors``
    for its successors, listed from its first node in traversal order; None when there is none."""
    on_path = {origin: True}  # each node met: True while the search is below it, then False
    path, todo = [origin], [iter(successors)]  # the nodes on the path, and the successors each has left
    while todo:
        for nxt in todo[-1]:
            met = on_path.get(nxt)
            if met is None:
                on_path[nxt] = True
                path.append(nxt)
                todo.append(iter(graph.get(nxt, ())))
                break
            if met:
                return path[path.index(nxt):]
        else:
            on_path[path.pop()] = False
            todo.pop()
    return None


def _product(left, right, inputs, outputs, step, emit, boundary: str) -> Observer:
    """The observer on the pairs of ``left`` and ``right`` states, l major, built on index pairs: on
    input j the pair (l, r) moves to the pair ``step(l, r, j)``, and it emits output ``emit(l, r)``."""
    n, js, pairs = len(right), range(len(inputs)), list(product(range(len(left)), range(len(right))))
    f = tuple([tuple([l2 * n + r2 for l2, r2 in [step(l, r, j) for j in js]]) for l, r in pairs])
    return Observer._of_rows(tuple(product(left, right)), inputs, outputs, f,
                             tuple([emit(l, r) for l, r in pairs]), boundary)


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
    registry = _default_registry if registry is None else registry
    _of_type(registry, MetaRegistry, "registry must be a MetaRegistry")
    lift = check_total("lift", wiring.lift, lower.outputs, upper.inputs, WiringError)
    drop = None if wiring.drop is None else check_total(
        "drop", wiring.drop, upper.outputs, lower.outputs, WiringError)
    fl, gl, fu, gu = lower.f, lower.g, upper.f, upper.g
    lift = [upper.input_index[lift[z]] for z in lower.outputs]  # each lower output's upper input
    if drop is not None:
        index = {z: k for k, z in enumerate(lower.outputs)}
        drop = [index[drop[z]] for z in upper.outputs]  # each upper output's lower output

    def step(l, r, j):
        l2 = fl[l][j]
        return l2, fu[r][lift[gl[l2]]]

    emit = (lambda l, r: gl[l]) if drop is None else (lambda l, r: drop[gu[r]])
    composite = _product(lower.states, upper.states, lower.inputs, lower.outputs, step, emit,
                         f"stack({lower.boundary or 'lower'} < {upper.boundary or 'upper'})")
    registry.register_edge(upper, lower)
    registry.register_edge(composite, lower)
    registry.register_edge(composite, upper)
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
    states, inputs, outputs = _index("states", states), _index("inputs", inputs), _index("outputs", outputs)
    tables = _of_type(family, RuleFamily, "family must be a RuleFamily").tables
    indices, keys = range(len(tables)), [(x, y) for x in states for y in inputs]
    steps = [check_total(f"table {k} transition", t.transition, keys, states) for k, t in enumerate(tables)]
    emits = [check_total(f"table {k} output_map", t.output_map, states, outputs) for k, t in enumerate(tables)]
    meta = check_total("meta_update", family.meta_update, [(k, x, y) for k in indices for x, y in keys], indices)
    # table k's move from state x on input j, (next state, next table), is moves[k][x * len(inputs) + j];
    # the next table is read back as its index, since a 1.0 or a True passes the check as table 1
    moves = [[(states[step[x, y]], indices.index(meta[k, x, y])) for x, y in keys]
             for k, step in enumerate(steps)]
    emits, ny = [[outputs[emit[x]] for x in states] for emit in emits], len(inputs)
    return _product(tuple(states), indices, tuple(inputs), tuple(outputs), lambda x, k, j: moves[k][x * ny + j],
                    lambda x, k: emits[k][x], "rule-switching wrapper")


# -- observer-relative facts -------------------------------------------------

class FactEntry(_Record):
    """One boundary crossing: who recorded what, and when; the step is stored as a plain int."""

    observer_id: Hashable
    step: int
    received: Ident
    state: Ident

    def __post_init__(self) -> None:
        self._assign(step=_integer(self.step, "step"))
        try:  # the ledger functions compare steps and look states up
            hash((self.observer_id, self.received, self.state))
        except TypeError:
            raise DefinitionError("a fact entry's observer, reading and state must be hashable, got "
                                  f"{_shown((self.observer_id, self.received, self.state))}") from None


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
    entry = FactEntry(observer_id, step, received, state)
    if last is not None and entry.step < last:
        raise LedgerOrderError(
            f"step {entry.step} precedes already recorded step {last} for {_shown(observer_id)}"
        )
    extended = FactLedger.__new__(FactLedger)  # the old entries were checked when their ledger was built
    extended._assign(entries=ledger.entries + (entry,))
    return extended


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
    return Observer._of_rows(states, inputs, outputs, ((0, 1, 2), (1, 1, 1), (2, 2, 2)), (0, 1, 2), boundary)


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
