"""Quantitative measures over observers and coupled runs.

Complexity is the log-capacity of the behaviorally reduced machine;
redundancy is whatever the reduction removed.  Adaptation time counts loop
steps until a deterministic coupled run settles, and the hitting-time
solver bounds the stochastic analog through the standard first-passage
linear system.  Every chain takes the same checks and reachability; only
the number conversion and the final solve use numpy, and only above
``_STDLIB_STATES`` states, so a short process never loads it.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Sequence

from .core import _DIGITS, CoupledSystem, JointState, Observer, _integer, _items, _of_type, _Record
from .errors import CapExceededError, DefinitionError, IdentifierError, NumericalError, _shown

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
        raise DefinitionError(f"goal must be callable, got {_shown(goal)}")
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


# Chains of up to this many states are converted, checked and solved by the standard library
# alone, so the call does not import numpy.  Measured with Python 3.11 and numpy 2.4 on a 2-vCPU
# x86-64 container: in a fresh process that import costs 50-65 ms, more than the pure-Python solve
# of a 64-state chain (about 7 ms); at 800 states the pure-Python conversion and checks alone take
# about 125 ms, against about 45 ms for the whole call with numpy.
_STDLIB_STATES = 64


def expected_hitting_time(
    transition_matrix: Sequence[Sequence[float]],
    start: int,
    goal: Sequence[int],
) -> float:
    """Expected steps for a Markov chain to first reach the goal set.

    Solves t = 1 + Q t on the non-goal states the chain can visit from the
    start before it hits the goal; no other state can change the answer.
    Returns ``math.inf`` when no positive-probability path connects the
    start to the goal.  If one of those states cannot reach the goal (a
    closed non-goal component), the system is singular and
    ``NumericalError`` is raised.

    Every chain gets the same checks, messages and int-bitset reachability.
    A chain of at most 64 states is converted in pure Python and solved by
    Gaussian elimination with partial pivoting, without importing numpy; a
    larger one is converted by numpy and solved by its LU solve.  With numpy
    loaded already, the small path is the slower: a 50-state call takes
    about 5 ms against 0.3 ms, a 64-state call about 7 ms against 0.4 ms.
    """
    try:
        rows = list(transition_matrix)
        square = rows and all(len(row) == len(rows) for row in rows)
    except TypeError:
        square = False
    if not square:
        raise DefinitionError("transition matrix must be square and non-empty")
    n = len(rows)
    small = n <= _STDLIB_STATES
    P, digits = _checked(rows, small)
    start = _integer(start, "start index")
    goal_set = {_integer(i, "goal index") for i in _items(goal, "goal")}
    if not goal_set:
        raise DefinitionError("goal set must not be empty")
    if not all(0 <= i < n for i in goal_set) or not 0 <= start < n:
        raise IdentifierError("start and goal indices must address matrix rows")
    if start in goal_set:
        return 0.0

    # a state's successors are its row and its predecessors its column, each read as an int bitset when the
    # search first leaves that state, packed as ``ca`` packs a row of cells: state i is bit n - 1 - i
    goal_bits = sum(1 << (n - 1 - i) for i in goal_set)
    visited = _reach(lambda i: int(digits[i * n:(i + 1) * n], 2), n, 1 << (n - 1 - start), goal_bits, (1 << n) - 1)
    if not visited & goal_bits:
        return math.inf
    region = visited & ~goal_bits
    if region & ~_reach(lambda j: int(digits[j::n], 2), n, goal_bits, 0, region):
        raise NumericalError("a closed non-goal component is reachable from the start")
    region = [i for i, bit in enumerate(f"{region:0{n}b}") if bit == "1"]
    return (_eliminate if small else _lu)(P, region)[region.index(start)]


def _floats(rows: list) -> tuple[list, list]:
    """``rows`` as lists of finite floats, and those floats row-major, or the error naming a bad entry."""
    try:
        P = [[float(p) for p in row] for row in rows]
    except (TypeError, ValueError, OverflowError) as exc:
        raise DefinitionError(f"transition matrix must be a rectangular array of numbers: {exc}") from None
    flat = [p for row in P for p in row]
    if not all(map(math.isfinite, flat)):
        raise DefinitionError("transition probabilities must be finite")
    return P, flat


def _checked(rows: list, small: bool) -> tuple:
    """The rows as float lists (small) or a numpy array, and the positive entries as binary digits, row-major."""
    if small:
        P, flat = _floats(rows)
        low, sums, digits = min(flat), map(_fsum, P), bytes(map(bool, flat)).translate(_DIGITS)
    else:
        import numpy as np  # only a large chain needs numpy, so importing obskit does not load it
        try:
            P = np.asarray(rows, dtype=float)
            numbers = P.ndim == 2 and np.isfinite(P).all()
        except (TypeError, ValueError, OverflowError):
            numbers = False
        if not numbers:  # numpy reads None as NaN and sequences as an axis: name the entry as the small side does
            P = np.array(_floats(rows)[0])
        with np.errstate(over="ignore"):  # a row whose sum overflows sums to inf, as on the small side
            sums = P.sum(axis=1).tolist()
        low, digits = P.min(), ((P > 0.0).view(np.uint8) + ord("0")).tobytes()
    if low < 0.0:
        raise DefinitionError("transition probabilities must be non-negative")
    for i, total in enumerate(sums):
        if abs(total - 1.0) > ROW_SUM_TOLERANCE:
            raise DefinitionError(f"row {i} does not sum to 1")
    return P, digits


def _fsum(row: list) -> float:
    """``math.fsum(row)``, or inf when the exact sum of the finite ``row`` is beyond the float range."""
    try:
        return math.fsum(row)
    except OverflowError:
        return math.inf


def _reach(edges: Callable[[int], int], n: int, seeds: int, blocked: int, wanted: int) -> int:
    """States reachable from ``seeds`` along ``edges``, not searching past ``blocked``, as a bitset.

    The search stops once it holds all of ``wanted``, and asks ``edges`` for each state at most once.
    """
    reached, frontier = seeds, seeds & ~blocked
    while frontier and wanted & ~reached:
        new = 0
        while frontier:
            low = frontier & -frontier
            new |= edges(n - low.bit_length())
            frontier ^= low
        frontier = new & ~reached
        reached |= frontier
        frontier &= ~blocked
    return reached


def _eliminate(P: list, region: list[int]) -> list[float]:
    """The solution t of (I - Q) t = 1 on ``region``, by Gaussian elimination with partial pivoting."""
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
    return t


def _lu(P, region: list[int]) -> list[float]:
    """The solution t of (I - Q) t = 1 on ``region``, by numpy's LU solve."""
    import numpy as np
    A = np.eye(len(region)) - P[np.ix_(region, region)]
    try:
        t = np.linalg.solve(A, np.ones(len(region)))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"reduced first-passage system is singular: {exc}") from None
    return t.tolist()
