"""Complexity, adaptation time, and expected hitting times."""

from __future__ import annotations

import functools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obskit.core import CoupledSystem, Observer
from obskit import metrics
from obskit.errors import (
    CapExceededError,
    DefinitionError,
    IdentifierError,
    NumericalError,
    ObskitError,
)
from obskit.machines import (
    constant_environment,
    flip_environment,
    redundant_observer,
    scripted_environment,
    thermostat,
)
from obskit.metrics import (
    GOAL_REACHED,
    GOAL_UNREACHABLE,
    TRANSIENT_TO_CYCLE,
    adaptation_time,
    complexity,
    expected_hitting_time,
)

from conftest import (
    adaptation_time_oracle,
    exact_hitting_time,
    exact_sum_chain,
    mc_hitting_oracle,
    random_chain,
    random_dense_chain,
    random_environment,
    random_observer,
    random_system,
    relabel_environment,
    relabeled,
)


# -- complexity -------------------------------------------------------------

def test_thermostat_complexity_is_log_eight():
    report = complexity(thermostat())
    assert abs(report.complexity - math.log(8)) <= 1e-12
    assert report.redundancy == 0.0
    assert report.reduced_sizes == (2, 2, 2)


def test_redundant_pair_has_zero_complexity():
    report = complexity(redundant_observer())
    assert report.complexity == 0.0
    assert report.redundancy == math.log(2)
    assert report.reduced_sizes == (1, 1, 1)


def test_complexity_is_never_negative_and_redundancy_never_negative():
    rng = random.Random(5150)
    for _ in range(150):
        obs = random_observer(rng)
        report = complexity(obs)
        rx, ry, rz = report.reduced_sizes
        assert report.complexity >= 0.0
        assert report.redundancy >= 0.0
        assert report.complexity == math.log(rx * ry * rz)
        assert abs(report.complexity - (report.raw_log - report.redundancy)) <= 1e-12


def test_lower_bound_when_reduction_keeps_two_states():
    rng = random.Random(51)
    checked = 0
    for _ in range(200):
        report = complexity(random_observer(rng))
        if report.reduced_sizes[0] > 1:
            checked += 1
            assert report.complexity >= math.log(2) - 1e-12
    assert checked > 100


def test_zero_redundancy_means_raw_capacity():
    report = complexity(thermostat())
    assert report.complexity == report.raw_log


def test_isomorphic_observers_have_identical_reports():
    rng = random.Random(99)
    for _ in range(30):
        obs = random_observer(rng, max_size=4)
        assert complexity(obs) == complexity(relabeled(obs, rng))


def test_adding_a_distinguishable_state_grows_complexity():
    rng = random.Random(123)
    for _ in range(30):
        obs = random_observer(rng, max_size=4)
        grown = Observer(
            states=obs.states + ("fresh_state",),
            inputs=obs.inputs,
            outputs=obs.outputs + ("fresh_output",),
            transition={
                **obs.transition,
                **{("fresh_state", y): "fresh_state" for y in obs.inputs},
            },
            output_map={**obs.output_map, "fresh_state": "fresh_output"},
        )
        assert complexity(grown).complexity >= complexity(obs).complexity


# -- adaptation_time -----------------------------------------------------------

def test_flip_environment_settles_into_period_two_cycle():
    system = CoupledSystem(thermostat(), flip_environment())
    result = adaptation_time(system, ("OFF", "Cold"))
    assert result.kind == TRANSIENT_TO_CYCLE
    assert result.steps == 2
    assert result.cycle_period == 2


def test_constant_hot_reaches_fixed_point_in_one_step():
    system = CoupledSystem(thermostat(), constant_environment("Hot"))
    result = adaptation_time(system, ("ON", "Hot"))
    assert result.kind == TRANSIENT_TO_CYCLE
    assert result.steps == 1
    assert result.cycle_period == 1


def test_goal_met_at_start_costs_zero_steps():
    system = CoupledSystem(thermostat(), flip_environment())
    result = adaptation_time(system, ("OFF", "Cold"), goal=lambda j: j[0] == "OFF")
    assert result.kind == GOAL_REACHED
    assert result.steps == 0


def test_goal_met_after_one_step():
    system = CoupledSystem(thermostat(), flip_environment())
    result = adaptation_time(system, ("OFF", "Cold"), goal=lambda j: j[0] == "ON")
    assert result.kind == GOAL_REACHED
    assert result.steps == 1


def test_unreachable_goal_is_detected_by_revisit():
    system = CoupledSystem(thermostat(), flip_environment())
    result = adaptation_time(system, ("OFF", "Cold"), goal=lambda j: j[1] == "Mars")
    assert result.kind == GOAL_UNREACHABLE
    assert result.steps is None


def test_tight_cap_with_goal_raises():
    system = CoupledSystem(thermostat(), flip_environment())
    with pytest.raises(CapExceededError):
        adaptation_time(system, ("OFF", "Cold"), goal=lambda j: j[1] == "Mars", cap=1)


def test_nonpositive_cap_rejected():
    system = CoupledSystem(thermostat(), flip_environment())
    with pytest.raises(DefinitionError):
        adaptation_time(system, ("OFF", "Cold"), cap=0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_settling_within_pigeonhole_bound(seed):
    rng = random.Random(seed)
    system = random_system(rng)
    joint = (system.observer.states[0], system.environment.states[0])
    result = adaptation_time(system, joint)
    bound = len(system.observer.states) * len(system.environment.states)
    assert result.kind == TRANSIENT_TO_CYCLE
    assert result.steps <= bound
    assert 1 <= result.cycle_period <= bound


@pytest.mark.parametrize("cap, message", [
    (2.5, "^cap must be an integer, got 2.5$"),
    ("3", "^cap must be an integer, got '3'$"),
    (0, "^cap must be at least 1$"),
])
def test_a_cap_that_is_not_a_positive_count_is_a_definition_error(cap, message):
    system = CoupledSystem(thermostat(), flip_environment())
    with pytest.raises(DefinitionError, match=message):
        adaptation_time(system, ("OFF", "Cold"), cap=cap)


def test_adaptation_time_matches_the_label_table_oracle():
    rng = random.Random(1913)
    outcomes = []
    for _ in range(200):
        obs = random_observer(rng, max_size=10)
        system = CoupledSystem(obs, random_environment(rng, obs, n_env=rng.randint(1, 10)))
        env_states = system.environment.states
        joint = (rng.choice(obs.states), rng.choice(env_states))
        x, s = rng.choice(obs.states), rng.choice(env_states)
        for goal in (None, lambda j: j[0] == x, lambda j: j[1] == s):
            for cap in (None, rng.randint(1, 4), rng.randint(1, 30)):
                try:
                    want = adaptation_time_oracle(system, joint, goal=goal, cap=cap)
                except CapExceededError:
                    with pytest.raises(CapExceededError):
                        adaptation_time(system, joint, goal=goal, cap=cap)
                    outcomes.append("cap")
                    continue
                assert adaptation_time(system, joint, goal=goal, cap=cap) == want
                outcomes.append(want.kind)
    # every outcome is well represented, tight caps included
    assert min(outcomes.count(kind) for kind in
               ("cap", GOAL_REACHED, GOAL_UNREACHABLE, TRANSIENT_TO_CYCLE)) >= 50


def test_adaptation_is_isomorphism_invariant():
    rng = random.Random(31337)
    for _ in range(20):
        obs = random_observer(rng, max_size=4)
        env = random_environment(rng, obs, n_env=3)
        system = CoupledSystem(obs, env)

        state_names = {x: f"S_{x}" for x in obs.states}
        input_names = {y: f"I_{y}" for y in obs.inputs}
        output_names = {z: f"O_{z}" for z in obs.outputs}
        twin = Observer(
            states=tuple(state_names[x] for x in reversed(obs.states)),
            inputs=tuple(input_names[y] for y in reversed(obs.inputs)),
            outputs=tuple(output_names[z] for z in reversed(obs.outputs)),
            transition={
                (state_names[x], input_names[y]): state_names[v]
                for (x, y), v in obs.transition.items()
            },
            output_map={state_names[x]: output_names[z] for x, z in obs.output_map.items()},
        )
        env_names = {s: f"env_{s}" for s in env.states}
        twin_env = relabel_environment(env, env_names, output_names, input_names)
        twin_system = CoupledSystem(twin, twin_env)

        joint = (obs.states[0], env.states[0])
        twin_joint = (state_names[obs.states[0]], env_names[env.states[0]])
        assert adaptation_time(system, joint) == adaptation_time(twin_system, twin_joint)


def test_unknown_joint_state_is_identifier_error():
    system = CoupledSystem(thermostat(), flip_environment())
    with pytest.raises(IdentifierError):
        adaptation_time(system, ("OFF", "Venus"))


def test_scripted_environment_expresses_open_loop_words():
    # feeding an input word open-loop is the closed loop against the
    # counter machine that plays the word
    obs = thermostat()
    word = ("Cold", "Hot", "Cold", "Hot")
    env = scripted_environment(word, obs.outputs)
    system = CoupledSystem(obs, env)
    trace = system.run(("OFF", "w0"), len(word))
    assert tuple(r.y for r in trace) == word
    assert tuple(r.z for r in trace) == obs.respond("OFF", word)
    reached = adaptation_time(system, ("OFF", "w0"), goal=lambda j: j[0] == "ON")
    assert reached.kind == GOAL_REACHED
    assert reached.steps == 1


def test_empty_scripted_word_is_a_definition_error():
    with pytest.raises(DefinitionError):
        scripted_environment([], thermostat().outputs)


# -- expected_hitting_time ---------------------------------------------------------

def test_two_state_chain_closed_form():
    value = expected_hitting_time([[0.5, 0.5], [0.0, 1.0]], start=0, goal=[1])
    assert abs(value - 2.0) <= 1e-9


def test_start_inside_goal_costs_nothing():
    value = expected_hitting_time([[0.5, 0.5], [0.0, 1.0]], start=1, goal=[1])
    assert value == 0.0


def test_unreachable_goal_returns_infinity():
    matrix = [[1.0, 0.0], [0.0, 1.0]]
    assert math.isinf(expected_hitting_time(matrix, start=0, goal=[1]))


def test_non_stochastic_row_rejected():
    with pytest.raises(DefinitionError):
        expected_hitting_time([[0.5, 0.4], [0.0, 1.0]], start=0, goal=[1])


def test_negative_probability_rejected():
    with pytest.raises(DefinitionError):
        expected_hitting_time([[1.5, -0.5], [0.0, 1.0]], start=0, goal=[1])


def test_empty_goal_rejected():
    with pytest.raises(DefinitionError):
        expected_hitting_time([[1.0]], start=0, goal=[])


def test_out_of_range_indices_rejected():
    with pytest.raises(IdentifierError):
        expected_hitting_time([[1.0]], start=3, goal=[0])


@pytest.mark.parametrize("start, goal", [
    (0, [1.2]), (0, ["2"]), (0, [None]), (0.5, [2]), ("1", [2]), (None, [2]),
], ids=["float-goal", "str-goal", "none-goal", "float-start", "str-start", "none-start"])
def test_a_start_or_goal_that_is_not_an_integer_is_a_definition_error(start, goal):
    # int() used to cut the goal 1.2 down to 1 and answer 2.0, the time to reach state 1
    with pytest.raises(DefinitionError):
        expected_hitting_time([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]], start, goal)


def test_closed_non_goal_component_is_numerical_error():
    # start can reach the goal, but state 1 is absorbing and non-goal
    matrix = [
        [0.0, 0.5, 0.5],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
    ]
    with pytest.raises(NumericalError):
        expected_hitting_time(matrix, start=0, goal=[2])


@pytest.mark.parametrize("matrix", [
    [[math.nan, 1.0], [0.0, 1.0]],
    [[math.inf, 0.0], [0.0, 1.0]],
    [[0.5, 0.5], [1.0]],
])
def test_non_finite_or_ragged_matrix_rejected(matrix):
    with pytest.raises(DefinitionError):
        expected_hitting_time(matrix, 0, [1])


def test_absorbing_state_the_start_cannot_reach_is_ignored():
    assert expected_hitting_time([[0, 1, 0], [0, 1, 0], [0, 0, 1]], 0, [1]) == 1.0


def test_reachable_closed_component_is_numerical_error_whatever_its_weights():
    # states 1 and 2 trap the chain; the elimination alone does not see an exact zero pivot
    matrix = [
        [0.0, 0.5, 0.0, 0.5],
        [0.0, 0.1, 0.9, 0.0],
        [0.0, 0.7, 0.3, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
    with pytest.raises(NumericalError):
        expected_hitting_time(matrix, start=0, goal=[3])


def test_solve_ignores_unrelated_absorbing_component():
    rng = np.random.default_rng(20240607)
    for n in (3, 6, 10):
        # a dense chain on states 0..n-1, then a two-state closed component
        # and an absorbing state that the start can never reach
        matrix = np.zeros((n + 3, n + 3))
        matrix[:n, :n] = random_dense_chain(rng, n)
        matrix[n:n + 2, n:n + 2] = [[0.25, 0.75], [0.5, 0.5]]
        matrix[n + 2, n + 2] = 1.0
        start, goal = 0, [n - 1]
        exact = expected_hitting_time(matrix.tolist(), start, goal)
        mean, stderr = mc_hitting_oracle(matrix, start, goal, trials=40_000, seed=int(rng.integers(2**31)))
        assert abs(exact - mean) <= 3 * stderr + 1e-12


def test_linear_solve_matches_monte_carlo():
    rng = np.random.default_rng(8675309)
    for n in (2, 5, 9, 14):
        matrix = random_dense_chain(rng, n)
        start, goal = 0, [n - 1]
        exact = expected_hitting_time(matrix, start, goal)
        mean, stderr = mc_hitting_oracle(matrix, start, goal, trials=40_000, seed=int(rng.integers(2**31)))
        assert abs(exact - mean) <= 3 * stderr + 1e-12


@pytest.mark.parametrize("n", [2, 70])
def test_an_integer_too_large_for_a_float_is_a_definition_error(n):
    # it used to escape as a bare OverflowError, on either side of the size cutoff
    matrix = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    matrix[0][0] = 10**400
    with pytest.raises(DefinitionError, match="int too large to convert to float$"):
        expected_hitting_time(matrix, 0, [1])


# -- the stdlib and numpy solve paths -------------------------------------------------

SIDES = {"stdlib": 10**9, "numpy": 0}  # a size cutoff that sends every chain to that side


def forced(side: str):
    """``expected_hitting_time`` with every chain converted, checked and solved on ``side``."""
    def solve(*args):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(metrics, "_STDLIB_STATES", SIDES[side])
            return expected_hitting_time(*args)
    return solve


SOLVERS = [pytest.param(forced(side), id=side) for side in SIDES]


@functools.cache
def seeded_chain(n: int, band: int | None):
    """A seeded chain, a start, a goal set that excludes it, and the exact answer."""
    rng = random.Random(1000 * n + (band or 0))
    rows = random_chain(rng, n, band)
    goal = rng.sample(range(n), 1 + n % 3 if n > 3 else 1)
    start = rng.choice([i for i in range(n) if i not in goal])
    return rows, start, goal, exact_hitting_time(rows, start, goal)


@pytest.mark.parametrize("solve", SOLVERS)
@pytest.mark.parametrize("n, band", [(n, None) for n in (2, 3, 8, 27, 50, 64, 65, 80)]
                         + [(n, 2) for n in (4, 16, 41, 63, 64, 65, 96)])
def test_each_solve_path_matches_the_exact_oracle_on_both_sides_of_the_cutoff(solve, n, band):
    rows, start, goal, exact = seeded_chain(n, band)
    assert math.isclose(solve(rows, start, goal), exact, rel_tol=1e-9)


def path_chain(n: int) -> list[list[float]]:
    """State i moves to i + 1, and the last state is absorbing: every state up to n - 2 reaches the solve."""
    return [[float(j == min(i + 1, n - 1)) for j in range(n)] for i in range(n)]


def test_the_public_call_takes_the_stdlib_path_up_to_64_states(monkeypatch):
    monkeypatch.setattr(metrics, "_eliminate", lambda P, region, start: "eliminate")
    monkeypatch.setattr(metrics, "_lu", lambda P, region, start: "lu")
    for n, kernel in ((2, "eliminate"), (64, "eliminate"), (65, "lu"), (800, "lu")):
        assert expected_hitting_time(path_chain(n), 0, [n - 1]) == kernel
    assert expected_hitting_time(iter(path_chain(3)), 0, [2]) == "eliminate"
    monkeypatch.undo()
    assert [expected_hitting_time(path_chain(n), 0, [n - 1]) for n in (64, 65)] == [63.0, 64.0]


@functools.cache
def exact_sum_case(n: int, leak: int):
    """An exact-sum chain that leaks 2**-leak into its goal, a start, and the exact answer."""
    rng = random.Random(100 * n + leak)
    rows = exact_sum_chain(rng, n, leak)
    start = rng.randrange(n - 1)
    return rows, start, exact_hitting_time(rows, start, [n - 1])


EXACT_SUM = pytest.mark.parametrize("n, leak", [(n, leak) for n in (3, 4, 7, 12, 20, 33, 50)
                                                for leak in (20, 28, 36, 44, 52, 56)])


@EXACT_SUM
def test_the_stdlib_side_is_accurate_on_chains_that_leak_little_into_the_goal(n, leak):
    # pivots formed as 1 - P_kk lose most of their digits here: Gaussian elimination was off by up to 312 %
    rows, start, exact = exact_sum_case(n, leak)
    assert math.isclose(forced("stdlib")(rows, start, [n - 1]), exact, rel_tol=1e-12)


@EXACT_SUM
def test_the_numpy_side_is_accurate_or_says_it_cannot_be(n, leak):
    rows, start, exact = exact_sum_case(n, leak)
    try:
        value = forced("numpy")(rows, start, [n - 1])
    except NumericalError:  # the LU answer cannot be trusted to 1e-6, or LU met an exactly singular pivot
        return
    assert math.isclose(value, exact, rel_tol=1e-6)


def test_a_row_that_sums_to_1_within_the_tolerance_counts_as_its_mass_out():
    # row 1 sums to 1 + 1.67e-17 exactly; read as (I - Q) t = 1 this chain's time is 2.40e16, while 1 - P_11 read as
    # the mass row 1 moves out gives 2.0e16.  Elimination used to give 1.80e16 on both sides
    chain = [[0, 1, 0, 0], [0.1, 0, 0.9 - 1e-16, 1e-16], [0, 1, 0, 0], [0, 0, 0, 1]]
    assert math.isclose(expected_hitting_time(chain, 0, [3]), 2.0e16, rel_tol=1e-12)
    with pytest.raises(NumericalError, match="ill-conditioned"):
        forced("numpy")(chain, 0, [3])


@pytest.mark.parametrize("solve", SOLVERS)
def test_a_leak_that_a_float_barely_holds_is_a_numerical_error_not_infinity(solve):
    # infinity means the goal cannot be reached; here it can, in about 2e323 steps, more than a float holds
    with pytest.raises(NumericalError):
        solve([[1.0, 5e-324], [0.0, 1.0]], 0, [1])


THREE = [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]]


def with_entry(n: int, entry) -> list:
    """``path_chain(n)`` with ``entry`` at (0, 0); a one-item list makes every entry such a list."""
    matrix = path_chain(n)
    if isinstance(entry, list) and len(entry) == 1:
        matrix = [[[p] for p in row] for row in matrix]
    matrix[0][0] = entry
    return matrix


@pytest.mark.parametrize("matrix, start, goal", [
    pytest.param([[0.5, 0.4], [0.0, 1.0]], 0, [1], id="not-stochastic"),
    pytest.param([[1.5, -0.5], [0.0, 1.0]], 0, [1], id="negative"),
    pytest.param([[1.0]], 0, [], id="empty-goal"),
    pytest.param([[1.0]], 3, [0], id="start-out-of-range"),
    pytest.param(THREE, 0, [1.2], id="float-goal"),
    pytest.param(THREE, 0, ["2"], id="str-goal"),
    pytest.param(THREE, 0, [None], id="none-goal"),
    pytest.param(THREE, 0.5, [2], id="float-start"),
    pytest.param(THREE, "1", [2], id="str-start"),
    pytest.param(THREE, None, [2], id="none-start"),
    pytest.param([[0.0, 0.5, 0.5], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], 0, [2], id="closed-state"),
    pytest.param([[0.0, 0.5, 0.0, 0.5], [0.0, 0.1, 0.9, 0.0], [0.0, 0.7, 0.3, 0.0], [0.0, 0.0, 0.0, 1.0]], 0, [3],
                 id="closed-pair"),
    pytest.param([[math.nan, 1.0], [0.0, 1.0]], 0, [1], id="nan"),
    pytest.param([[math.inf, 0.0], [0.0, 1.0]], 0, [1], id="inf"),
    pytest.param([[0.5, 0.5], [1.0]], 0, [1], id="ragged"),
    pytest.param([[10**400, 0.0], [0.0, 1.0]], 0, [1], id="int-too-large"),
    pytest.param([[0.5, 0.5], [0.0, 1.0]], 1, [1], id="start-in-goal"),
    pytest.param([[1.0, 0.0], [0.0, 1.0]], 0, [1], id="unreachable-goal"),
    pytest.param([[0, 1, 0], [0, 1, 0], [0, 0, 1]], 0, [1], id="unreachable-absorbing-state"),
    # numpy used to read None as NaN and equal-length sequences as a third axis, whatever the size
    *(pytest.param(with_entry(n, entry), 0, [n - 1], id=f"{name}-entry-{n}") for n in (2, 70)
      for name, entry in (("none", None), ("equal-length-sequence", [0.5]), ("unequal-length-sequence", [0.5, 0.5]))),
    # finite rows whose sum overflows: math.fsum used to raise OverflowError, and numpy to warn
    *(pytest.param([[1e308, 1e308] + [0.0] * (n - 2), *path_chain(n)[1:]], 0, [n - 1], id=f"sum-overflows-{n}")
      for n in (2, 70)),
])
@pytest.mark.filterwarnings("error")
def test_both_solve_paths_give_the_same_value_or_the_same_error(matrix, start, goal):
    outcomes = []
    for solve in (*map(forced, SIDES), expected_hitting_time):
        try:
            outcomes.append(solve(matrix, start, goal))
        except ObskitError as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1] == outcomes[2]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [2, 70])
@pytest.mark.parametrize("solve", SOLVERS)
def test_a_finite_row_whose_sum_overflows_does_not_sum_to_1(solve, n):
    with pytest.raises(DefinitionError, match="^row 0 does not sum to 1$"):
        solve([[1e308, 1e308] + [0.0] * (n - 2), *path_chain(n)[1:]], 0, [n - 1])

