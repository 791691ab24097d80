"""Quantitative measures over observers and coupled runs.

Complexity is the log-capacity of the behaviorally reduced machine;
redundancy is whatever the reduction removed.  Adaptation time counts loop
steps until a deterministic coupled run settles, and the hitting-time
solver bounds the stochastic analog through the standard first-passage
linear system.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

from .core import CoupledSystem, JointState, Observer, _integer, _items, _Record
from .errors import CapExceededError, DefinitionError, IdentifierError, NumericalError
from .morphism import _quotient

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


def expected_hitting_time(
    transition_matrix: Sequence[Sequence[float]],
    start: int,
    goal: Sequence[int],
) -> float:
    """Expected steps for a Markov chain to first reach the goal set.

    Solves t = 1 + Q t by dense LU elimination with partial pivoting, on
    the non-goal states the chain can visit from the start before it hits
    the goal; no other state can change the answer.  Returns ``math.inf``
    when no positive-probability path connects the start to the goal.  If
    one of those states cannot reach the goal (a closed non-goal
    component), the system is singular and ``NumericalError`` is raised.
    """
    import numpy as np  # only this solver needs numpy, so importing obskit does not load it
    try:
        P = np.asarray(transition_matrix, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DefinitionError(f"transition matrix must be a rectangular array of numbers: {exc}") from None
    if P.ndim != 2 or P.shape[0] != P.shape[1] or P.shape[0] == 0:
        raise DefinitionError("transition matrix must be square and non-empty")
    n = P.shape[0]
    if not np.isfinite(P).all():
        raise DefinitionError("transition probabilities must be finite")
    if np.any(P < 0.0):
        raise DefinitionError("transition probabilities must be non-negative")
    bad = np.nonzero(np.abs(P.sum(axis=1) - 1.0) > ROW_SUM_TOLERANCE)[0]
    if bad.size:
        raise DefinitionError(f"row {int(bad[0])} does not sum to 1")

    start = _integer(start, "start index")
    goal_set = {_integer(i, "goal index") for i in _items(goal, "goal")}
    if not goal_set:
        raise DefinitionError("goal set must not be empty")
    if not all(0 <= i < n for i in goal_set) or not 0 <= start < n:
        raise IdentifierError("start and goal indices must address matrix rows")

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
