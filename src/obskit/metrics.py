"""Quantitative measures over observers and coupled runs.

Complexity is the log-capacity of the behaviorally reduced machine;
redundancy is whatever the reduction removed.  Adaptation time counts loop
steps until a deterministic coupled run settles, and the hitting-time
solver bounds the stochastic analog through the first-passage system
t = 1 + Q t by one subtraction-free state reduction: in pure Python up to
``_STDLIB_STATES`` states, so a short process never loads numpy, and in
numpy, 64 states at a time, above.  Every chain takes the same checks and
reachability.
"""

import math
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

    Every chain gets the same checks, messages and int-bitset reachability,
    and the same solve: state reduction (GTH), whose pivots 1 - P_kk are read
    as each state's mass out, so every step adds non-negative numbers.  It
    runs in pure Python up to 64 states and in numpy above.  A zero pivot
    raises ``NumericalError`` as singular, and so does an answer that
    overflows.  The pure-Python path costs about 3 ms at 50 states and 5 ms
    at 64, against 0.7 and 1.0 ms in numpy once it is loaded.
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
    bits = f"{region:0{n}b}"  # the states to fold, the start first; outside them, the goal and states none moves to
    order = [start] + [i for i in range(n) if bits[i] == "1" and i != start]
    t = (_eliminate if small else _reduce)(P, order, [i for i in range(n) if bits[i] == "0"])
    if not math.isfinite(t):
        raise NumericalError("expected hitting time overflows")
    return t


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


def _eliminate(P: list, order: list[int], outside: list[int]) -> float:
    """The expected steps from ``order[0]``, by subtraction-free state reduction (Grassmann, Taksar and Heyman, 1985)."""
    # each row: the state's reward, its exit mass into the goal, and its moves to the states in ``order``; the last
    # state is folded into each other one, adding its row times the move into it over its pivot, until the start is left
    A = [[1.0, sum([P[i][j] for j in outside])] + [P[i][j] for j in order] for i in order]
    while A:
        row = A.pop()
        del row[-1]  # its move to itself: 1 - P_kk is read as the mass it moves out instead
        pivot = sum(row[1:])
        if not pivot:
            raise NumericalError("reduced first-passage system is singular")
        for other in A:
            if f := other.pop() / pivot:
                other[:] = [a + f * b for a, b in zip(other, row)]
    return row[0] / pivot  # the start's reward over its exit


def _reduce(P, order: list[int], outside: list[int]) -> float:
    """``_eliminate``'s reduction in numpy, 64 states at a time from the end of ``order``.

    Each block's rows fold among themselves as narrow rows [reward | mass out of the block | moves within it |
    identity], whose identity part T says what each folded row is made of.  The rest's multipliers on the block
    form a lower-triangular S, one column per state, so the rest take the whole fold in one product.  Every step
    adds non-negative numbers; an overflow leaves a non-finite answer, which the caller refuses.
    """
    import numpy as np
    A = np.column_stack([np.ones(len(order)), P[np.ix_(order, outside)].sum(axis=1), P[np.ix_(order, order)]])
    with np.errstate(all="ignore"):
        for hi in range(len(order), 0, -64):
            lo = max(hi - 64, 0)
            W = np.hstack([A[lo:, :1], A[lo:, 1:lo + 2].sum(axis=1, keepdims=True), A[lo:, lo + 2:], np.eye(hi - lo)])
            S = np.eye(hi - lo)
            for k in reversed(range(hi - lo)):
                pivot = W[k, 1:k + 2].sum()  # the row's mass out, as in ``_eliminate``
                if not pivot:
                    raise NumericalError("reduced first-passage system is singular")
                W[:k] += np.outer(W[:k, k + 2] / pivot, W[k])
                S[k:, k] = (S[k:, k] + S[k:, k + 1:] @ W[k + 1:, k + 2]) / pivot
            A = A[:lo, :lo + 2] + (A[:lo, lo + 2:] @ S) @ (W[:, hi - lo + 2:] @ A[lo:, :lo + 2])
        return float(W[0, 0] / pivot)
