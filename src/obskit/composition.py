"""Observer composition: stacks, rule-switching wrappers, and fact ledgers.

``stack`` places one observer above another: the upper machine watches the
lower machine's actions and may override what the pair emits.  A
``second_order_wrap`` turns a finite family of rule tables plus a
table-selection rule into an ordinary observer that switches its own rules
as it runs.  Both constructions register who-watches-whom edges in a meta
registry that refuses to become cyclic, and ``check_well_founded`` tests
arbitrary observation graphs.  ``FactLedger`` keeps the observer-relative
record of which interactions crossed which boundary, exercised end to end
by the bundled two-observer measurement script.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping
from dataclasses import dataclass

from .core import Ident, Observer, check_total
from .errors import (
    DefinitionError,
    LedgerOrderError,
    MetaCycleError,
    WiringError,
)


@dataclass(frozen=True)
class Wiring:
    """How a lower observer feeds an upper one.

    ``lift`` translates every lower action into an upper input.  ``drop``,
    when present, translates every upper action into the lower action the
    composite emits instead of the lower observer's own.
    """

    lift: dict
    drop: dict | None = None


@dataclass(frozen=True)
class WellFoundedReport:
    well_founded: bool
    cycle: tuple | None = None

    def __bool__(self) -> bool:
        return self.well_founded


class MetaRegistry:
    """Mutable record of who observes or modifies whom.

    Nodes are observer instances (tracked by identity) or arbitrary labels.
    Adding an edge that would close a directed cycle raises
    ``MetaCycleError`` and leaves the registry unchanged.  Writers must be
    serialized externally; concurrent readers are fine.
    """

    def __init__(self) -> None:
        self._tokens: dict[int, int] = {}
        self._keep: list = []
        self._edges: set[tuple[int, int]] = set()

    def _token(self, node) -> int:
        key = id(node)
        if key not in self._tokens:
            self._tokens[key] = len(self._keep)
            self._keep.append(node)
        return self._tokens[key]

    def register_node(self, node) -> None:
        self._token(node)

    def register_edge(self, watcher, watched) -> None:
        """Record that ``watcher`` observes/modifies ``watched``; fail closed."""
        a, b = self._token(watcher), self._token(watched)
        self._edges.add((a, b))
        report = check_well_founded(self.graph())
        if not report.well_founded:
            self._edges.discard((a, b))
            raise MetaCycleError(
                f"edge would close an observation cycle: {report.cycle!r}"
            )

    def graph(self) -> dict[int, list[int]]:
        adjacency: dict[int, list[int]] = {t: [] for t in range(len(self._keep))}
        for a, b in sorted(self._edges):
            adjacency[a].append(b)
        return adjacency

    def clear(self) -> None:
        self._tokens.clear()
        self._keep.clear()
        self._edges.clear()


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

    nodes = list(meta_graph)
    for targets in meta_graph.values():
        for t in targets:
            if t not in meta_graph and t not in nodes:
                nodes.append(t)

    WHITE, GREY, BLACK = 0, 1, 2
    color = {n: WHITE for n in nodes}

    def successors(n):
        return tuple(meta_graph.get(n, ()))

    for root in nodes:
        if color[root] != WHITE:
            continue
        frames = [(root, iter(successors(root)))]
        path = [root]
        color[root] = GREY
        while frames:
            node, it = frames[-1]
            advanced = False
            for nxt in it:
                if color.get(nxt, WHITE) == GREY:
                    cycle = tuple(path[path.index(nxt):])
                    return WellFoundedReport(False, cycle)
                if color.get(nxt, WHITE) == WHITE:
                    color[nxt] = GREY
                    frames.append((nxt, iter(successors(nxt))))
                    path.append(nxt)
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                frames.pop()
                path.pop()
    return WellFoundedReport(True, None)


def stack(lower: Observer, upper: Observer, wiring: Wiring,
          registry: MetaRegistry | None = None) -> Observer:
    """Compose two observers into one, the upper refining the lower.

    The composite state is the pair (lower state, upper state).  On each
    input the lower machine steps first, the upper machine steps on the
    lifted lower action, and the composite emits the lower action, or the
    dropped upper action when the wiring overrides.  The result is a plain
    observer, so every analysis in the package applies to it unchanged.
    """
    lift = check_total("lift", wiring.lift, lower.outputs, upper.inputs, WiringError)
    drop = None if wiring.drop is None else check_total(
        "drop", wiring.drop, upper.outputs, lower.outputs, WiringError)

    states = tuple((xl, xu) for xl in lower.states for xu in upper.states)
    transition = {}
    for (xl, xu), y in ((s, y) for s in states for y in lower.inputs):
        xl2 = lower.transition[(xl, y)]
        xu2 = upper.transition[(xu, lift[lower.output_map[xl2]])]
        transition[((xl, xu), y)] = (xl2, xu2)
    if drop is None:
        output_map = {(xl, xu): lower.output_map[xl] for (xl, xu) in states}
    else:
        output_map = {(xl, xu): drop[upper.output_map[xu]] for (xl, xu) in states}

    composite = Observer(
        states=states,
        inputs=lower.inputs,
        outputs=lower.outputs,
        transition=transition,
        output_map=output_map,
        boundary=f"stack({lower.boundary or 'lower'} < {upper.boundary or 'upper'})",
    )
    reg = registry or _default_registry
    reg.register_edge(upper, lower)
    reg.register_edge(composite, lower)
    reg.register_edge(composite, upper)
    return composite


@dataclass(frozen=True)
class RuleTable:
    """One (transition, output) table over a fixed state/input/output frame."""

    transition: dict
    output_map: dict


@dataclass(frozen=True)
class RuleFamily:
    """An indexed family of rule tables plus the table-selection rule.

    ``meta_update`` maps (table index, state, input) to the index of the
    table used for the next step.
    """

    tables: tuple[RuleTable, ...]
    meta_update: dict

    def __post_init__(self) -> None:
        object.__setattr__(self, "tables", tuple(self.tables))
        object.__setattr__(self, "meta_update", dict(self.meta_update))
        if not self.tables:
            raise DefinitionError("rule family must contain at least one table")


def second_order_wrap(
    states: Iterable[Ident],
    inputs: Iterable[Ident],
    outputs: Iterable[Ident],
    family: RuleFamily,
    registry: MetaRegistry | None = None,
) -> Observer:
    """Build an observer that switches among its own rule tables.

    The wrapped state is (base state, active table index); each step
    applies the active table to the base state and the selection rule to
    the index.  Self-modification stays inside one machine, so no
    observation edge is added; the composite is only registered as a node.
    """
    states = tuple(states)
    inputs = tuple(inputs)
    outputs = tuple(outputs)
    n_tables = len(family.tables)

    wrapped_states = tuple((x, k) for x in states for k in range(n_tables))
    transition = {}
    output_map = {}
    for (x, k) in wrapped_states:
        table = family.tables[k]
        try:
            output_map[(x, k)] = table.output_map[x]
        except KeyError:
            raise DefinitionError(f"table {k} has no output for state {x!r}") from None
        for y in inputs:
            try:
                nxt = table.transition[(x, y)]
            except KeyError:
                raise DefinitionError(f"table {k} has no transition for ({x!r}, {y!r})") from None
            try:
                k2 = family.meta_update[(k, x, y)]
            except KeyError:
                raise DefinitionError(f"meta update undefined for ({k}, {x!r}, {y!r})") from None
            if not 0 <= k2 < n_tables:
                raise DefinitionError(f"meta update points at missing table {k2!r}")
            transition[((x, k), y)] = (nxt, k2)

    wrapped = Observer(
        states=wrapped_states,
        inputs=inputs,
        outputs=outputs,
        transition=transition,
        output_map=output_map,
        boundary="rule-switching wrapper",
    )
    (registry or _default_registry).register_node(wrapped)
    return wrapped


# -- observer-relative facts -------------------------------------------------

@dataclass(frozen=True)
class FactEntry:
    """One boundary crossing: who recorded what, and when."""

    observer_id: Hashable
    step: int
    received: Ident
    state: Ident


@dataclass(frozen=True)
class FactLedger:
    """Append-only record of boundary crossings, per observer."""

    entries: tuple[FactEntry, ...] = ()

    def last_step(self, observer_id: Hashable) -> int | None:
        steps = [e.step for e in self.entries if e.observer_id == observer_id]
        return steps[-1] if steps else None


def record_fact(
    ledger: FactLedger,
    observer_id: Hashable,
    step: int,
    received: Ident,
    state: Ident,
) -> FactLedger:
    """Extend the ledger by one entry; steps per observer must not go back."""
    last = ledger.last_step(observer_id)
    if last is not None and step < last:
        raise LedgerOrderError(
            f"step {step} precedes already recorded step {last} for {observer_id!r}"
        )
    return FactLedger(ledger.entries + (FactEntry(observer_id, step, received, state),))


def facts_relative_to(
    ledger: FactLedger, observer_id: Hashable, step: int
) -> tuple[FactEntry, ...]:
    """Everything the observer has recorded by the given step, inclusive."""
    return tuple(
        e for e in ledger.entries if e.observer_id == observer_id and e.step <= step
    )


# -- two-observer measurement script -----------------------------------------

_SPIN_MEANING = {
    "UpRecorded": "spin-up",
    "DownRecorded": "spin-down",
    "KnowsUp": "spin-up",
    "KnowsDown": "spin-down",
}


@dataclass(frozen=True)
class LabScriptRun:
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

    insider = Observer(
        states=("Ready", "UpRecorded", "DownRecorded"),
        inputs=("SpinUp", "SpinDown", "Quiet"),
        outputs=("Blank", "ShowsUp", "ShowsDown"),
        transition={
            ("Ready", "SpinUp"): "UpRecorded",
            ("Ready", "SpinDown"): "DownRecorded",
            ("Ready", "Quiet"): "Ready",
            ("UpRecorded", "SpinUp"): "UpRecorded",
            ("UpRecorded", "SpinDown"): "UpRecorded",
            ("UpRecorded", "Quiet"): "UpRecorded",
            ("DownRecorded", "SpinUp"): "DownRecorded",
            ("DownRecorded", "SpinDown"): "DownRecorded",
            ("DownRecorded", "Quiet"): "DownRecorded",
        },
        output_map={
            "Ready": "Blank",
            "UpRecorded": "ShowsUp",
            "DownRecorded": "ShowsDown",
        },
        boundary="insider: lab bench and apparatus inside",
    )
    outsider = Observer(
        states=("Waiting", "KnowsUp", "KnowsDown"),
        inputs=("Nothing", "SeesUp", "SeesDown"),
        outputs=("Idle", "ReportsUp", "ReportsDown"),
        transition={
            ("Waiting", "Nothing"): "Waiting",
            ("Waiting", "SeesUp"): "KnowsUp",
            ("Waiting", "SeesDown"): "KnowsDown",
            ("KnowsUp", "Nothing"): "KnowsUp",
            ("KnowsUp", "SeesUp"): "KnowsUp",
            ("KnowsUp", "SeesDown"): "KnowsUp",
            ("KnowsDown", "Nothing"): "KnowsDown",
            ("KnowsDown", "SeesUp"): "KnowsDown",
            ("KnowsDown", "SeesDown"): "KnowsDown",
        },
        output_map={
            "Waiting": "Idle",
            "KnowsUp": "ReportsUp",
            "KnowsDown": "ReportsDown",
        },
        boundary="outsider: everything outside the sealed lab",
    )

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
