"""Quantitative measures over observers and coupled runs.

Complexity is the log-capacity of the behaviorally reduced machine;
redundancy is whatever the reduction removed.  Adaptation time counts loop
steps until a deterministic coupled run settles, and the hitting-time
solver bounds the stochastic analog through the standard first-passage
linear system.  That solver has two paths, chosen by the chain's size: up
to ``_STDLIB_STATES`` states the standard library checks and solves it, so
a short process never loads numpy; a larger chain goes to numpy.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Sequence

from .core import _DIGITS, CoupledSystem, JointState, Observer, _integer, _items, _of_type, _Record
from .errors import CapExceededError, DefinitionError, IdentifierError, NumericalError

ROW_SUM_TOLERANCE = 1e-9

TRANSIENT_TO_CYCLE = "transient-to-cycle"
GOAL_REACHED = "goal-reached"
GOAL_UNREACHABLE = "goal-unreachable"


class ComplexityReport(_Record):
    """Log-capacity split into genuine complexity and redundancy (nats)."""

    raw_log: float
    redundancy: float
    complexity: float
    reduced_sizes: tuple[int, int, int]


def complexity(obs: Observer) -> ComplexityReport:
    """Measure an observer's capacity after removing behavioral redundancy.

    The raw capacity is ln(|states| * |inputs| * |outputs|).  Reducing the
    machine gives the complexity ln of the reduced product; redundancy is
    the difference.  Relabeled observers get bit-identical reports.
    """
    from .morphism import _quotient  # only this function needs it, so `obskit hit` and `adapt` do not load it
    sizes = tuple(map(len, _quotient(obs)[1:]))
    raw = math.log(len(obs.states) * len(obs.inputs) * len(obs.outputs))
    kept = math.log(math.prod(sizes))
    return ComplexityReport(raw_log=raw, redundancy=raw - kept, complexity=kept, reduced_sizes=sizes)


class AdaptationResult(_Record):
    """How a deterministic coupled run settled.

    ``steps`` is the adaptation count: for a goal run, the first step index
    satisfying the predicate; for a free run, the step at which the joint
    state either stops changing (a fixed point) or completes its first
    return to an earlier state (a cycle of period > 1).
    """

    kind: str
    steps: int | None = None
    cycle_period: int | None = None


def adaptation_time(
    system: CoupledSystem,
    joint: JointState,
    goal: Callable[[JointState], bool] | None = None,
    cap: int | None = None,
) -> AdaptationResult:
    """Count loop steps until the coupled run settles or meets a goal.

    Without a goal the run always settles: a deterministic finite loop
    revisits a joint state within |states| * |env states| steps.  With a
    goal, a revisit before satisfaction proves the goal unreachable.  The
    cap guards goal runs over state spaces too large to exhaust; exceeding
    it raises ``CapExceededError``.
    """
    if goal is not None and not callable(goal):
        raise DefinitionError(f"goal must be callable, got {goal!r}")
    system = _of_type(system, CoupledSystem, "system must be a CoupledSystem")
    x, s = system.observer.states, system.environment.states
    cap = _integer(len(x) * len(s) + 1 if cap is None else cap, "cap", 1)
    seen: dict[tuple[int, int], int] = {}
    for t, (i, e) in enumerate(system._walk(joint)):
        if goal is not None and goal((x[i], s[e])):
            return AdaptationResult(kind=GOAL_REACHED, steps=t)
        first = seen.setdefault((i, e), t)
        if first != t:
            if goal is not None:
                return AdaptationResult(kind=GOAL_UNREACHABLE)
            period = t - first
            return AdaptationResult(kind=TRANSIENT_TO_CYCLE, steps=first if period == 1 else t,
                                    cycle_period=period)
        if t == cap:
            raise CapExceededError(f"no revisit or goal within {cap} steps")


# Chains of up to this many states are solved by the standard library alone, so the call does
# not import numpy.  Measured with Python 3.11 and numpy 2.4 on a 2-vCPU x86-64 container: in a
# fresh process that import costs 50-65 ms, more than the pure-Python solve of a 64-state chain
# (about 10 ms); at 800 states the pure-Python checks and reachability alone take about 215 ms,
# against about 40-50 ms for the whole numpy call.
_STDLIB_STATES = 64


def expected_hitting_time(
    transition_matrix: Sequence[Sequence[float]],
    start: int,
    goal: Sequence[int],
) -> float:
    """Expected steps for a Markov chain to first reach the goal set.

    Solves t = 1 + Q t by Gaussian elimination with partial pivoting, on
    the non-goal states the chain can visit from the start before it hits
    the goal; no other state can change the answer.  Returns ``math.inf``
    when no positive-probability path connects the start to the goal.  If
    one of those states cannot reach the goal (a closed non-goal
    component), the system is singular and ``NumericalError`` is raised.

    A chain of at most 64 states is checked and solved in pure Python and
    does not import numpy, which a fresh process would spend longer loading
    than solving; a larger chain goes to numpy's LU solve.  Both paths make
    the same checks in the same order, with the same messages, except that
    numpy reads a None entry as NaN and a sequence entry as another axis.
    In a process that has numpy loaded already the small path is the
    slower one: a 50-state call takes about 5 ms against 0.3 ms, and a
    64-state call about 10 ms against 0.4 ms.
    """
    try:
        small = len(transition_matrix) <= _STDLIB_STATES
    except TypeError:  # an iterator, say: the small path reads it once and checks what it holds
        small = True
    return (_stdlib_hitting_time if small else _numpy_hitting_time)(transition_matrix, start, goal)


def _square(transition_matrix) -> list:
    """The rows of ``transition_matrix``, once there are n > 0 of them with n entries each."""
    try:
        rows = list(transition_matrix)
        square = rows and all(len(row) == len(rows) for row in rows)
    except TypeError:
        square = False
    if not square:
        raise DefinitionError("transition matrix must be square and non-empty")
    return rows


def _not_numbers(exc: Exception) -> DefinitionError:
    """The error for a matrix entry that ``float`` cannot convert, raising ``exc``."""
    return DefinitionError(f"transition matrix must be a rectangular array of numbers: {exc}")


def _endpoints(start, goal, n: int) -> tuple[int, set[int]]:
    """The start index and the goal set, once both are checked to address one of ``n`` rows."""
    start = _integer(start, "start index")
    goal_set = {_integer(i, "goal index") for i in _items(goal, "goal")}
    if not goal_set:
        raise DefinitionError("goal set must not be empty")
    if not all(0 <= i < n for i in goal_set) or not 0 <= start < n:
        raise IdentifierError("start and goal indices must address matrix rows")
    return start, goal_set


def _stdlib_hitting_time(transition_matrix, start, goal) -> float:
    """``expected_hitting_time`` by the standard library alone, for small chains.

    Reachability runs on int bitsets, each row packed as ``ca`` packs a row
    of cells: state i is bit n - 1 - i.
    """
    rows = _square(transition_matrix)
    try:
        P = [[float(p) for p in row] for row in rows]
    except (TypeError, ValueError, OverflowError) as exc:
        raise _not_numbers(exc) from None
    n, flat = len(P), [p for row in P for p in row]
    if not all(map(math.isfinite, flat)):
        raise DefinitionError("transition probabilities must be finite")
    if min(flat) < 0.0:
        raise DefinitionError("transition probabilities must be non-negative")
    for i, row in enumerate(P):
        if abs(math.fsum(row) - 1.0) > ROW_SUM_TOLERANCE:
            raise DefinitionError(f"row {i} does not sum to 1")
    start, goal_set = _endpoints(start, goal, n)
    if start in goal_set:
        return 0.0

    digits = bytes(map(bool, flat)).translate(_DIGITS)
    successors = [int(digits[i * n:(i + 1) * n], 2) for i in range(n)]
    predecessors = [int(digits[j::n], 2) for j in range(n)]
    goal_bits = sum(1 << (n - 1 - i) for i in goal_set)
    visited = _reach(successors, 1 << (n - 1 - start), goal_bits)
    if not visited & goal_bits:
        return math.inf
    if visited & ~goal_bits & ~_reach(predecessors, goal_bits, 0):
        raise NumericalError("a closed non-goal component is reachable from the start")
    region = [i for i, bit in enumerate(f"{visited & ~goal_bits:0{n}b}") if bit == "1"]

    # (I - Q | 1), reduced to upper-triangular form in place, then solved from the bottom up
    A = [[float(i == j) - P[i][j] for j in region] + [1.0] for i in region]
    m = len(A)
    for k in range(m):
        p = max(range(k, m), key=lambda i: abs(A[i][k]))
        A[k], A[p] = A[p], A[k]
        pivot = A[k]
        if pivot[k] == 0.0:
            raise NumericalError("reduced first-passage system is singular")
        tail = pivot[k + 1:]
        for row in A[k + 1:]:
            if row[k]:
                f = row[k] / pivot[k]
                row[k + 1:] = [a - f * b for a, b in zip(row[k + 1:], tail)]
    t = [0.0] * m
    for k in reversed(range(m)):
        row = A[k]
        t[k] = (row[m] - sum(map(operator.mul, row[k + 1:m], t[k + 1:]))) / row[k]
    return t[region.index(start)]


def _reach(edges: list[int], seeds: int, blocked: int) -> int:
    """The bitset of states reachable from ``seeds`` along ``edges``, not searching past ``blocked``."""
    n, reached, frontier = len(edges), seeds, seeds & ~blocked
    while frontier:
        new = 0
        while frontier:
            low = frontier & -frontier
            new |= edges[n - low.bit_length()]
            frontier ^= low
        frontier = new & ~reached
        reached |= frontier
        frontier &= ~blocked
    return reached


def _closure(edges: np.ndarray, seeds: list[int], blocked: np.ndarray) -> np.ndarray:
    """Mask of the states reachable from ``seeds`` along ``edges``, not searching past ``blocked``."""
    import numpy as np
    reached = np.zeros(len(edges), dtype=bool)
    reached[seeds] = True
    frontier = reached & ~blocked
    while frontier.any():
        new = edges[frontier].any(axis=0) & ~reached
        reached |= new
        frontier = new & ~blocked
    return reached


def _numpy_hitting_time(transition_matrix, start, goal) -> float:
    """``expected_hitting_time`` by numpy's reachability masks and LU solve, for large chains."""
    import numpy as np  # only this path needs numpy, so importing obskit does not load it
    rows = _square(transition_matrix)
    try:
        P = np.asarray(rows, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise _not_numbers(exc) from None
    if P.ndim != 2:
        raise DefinitionError("transition matrix must be square and non-empty")
    n = P.shape[0]
    if not np.isfinite(P).all():
        raise DefinitionError("transition probabilities must be finite")
    if np.any(P < 0.0):
        raise DefinitionError("transition probabilities must be non-negative")
    bad = np.nonzero(np.abs(P.sum(axis=1) - 1.0) > ROW_SUM_TOLERANCE)[0]
    if bad.size:
        raise DefinitionError(f"row {int(bad[0])} does not sum to 1")
    start, goal_set = _endpoints(start, goal, n)
    if start in goal_set:
        return 0.0

    edges = P > 0.0
    is_goal = np.isin(np.arange(n), sorted(goal_set))
    visited = _closure(edges, [start], is_goal)
    if not (visited & is_goal).any():
        return math.inf
    region = visited & ~is_goal
    if (region & ~_closure(edges.T, sorted(goal_set), np.zeros(n, dtype=bool))).any():
        raise NumericalError("a closed non-goal component is reachable from the start")
    region = np.nonzero(region)[0]
    A = np.eye(len(region)) - P[np.ix_(region, region)]
    try:
        t = np.linalg.solve(A, np.ones(len(region)))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"reduced first-passage system is singular: {exc}") from None
    return float(t[np.searchsorted(region, start)])
