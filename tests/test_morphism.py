"""Morphism checking, isomorphism search, equivalence laws, minimization."""

from __future__ import annotations

import random
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obskit.core import Observer
from obskit.errors import DefinitionError, IdentifierError, MorphismShapeError
from obskit.machines import redundant_observer, thermostat
from obskit.metrics import complexity
from obskit.morphism import (
    ObserverMorphism,
    canonical_invariants,
    check_homomorphism,
    equivalence_partition,
    equivalent,
    find_isomorphism,
    identity_morphism,
    minimize,
)

from conftest import (
    behavioral_partition_oracle,
    brute_force_isomorphism,
    duplicated_inputs_observer,
    morphism_vectors,
    random_observer,
    relabeled,
)
from test_composition import assert_built_alike


def constant_output_observer() -> Observer:
    return Observer(
        states=("p", "q"),
        inputs=("u", "v"),
        outputs=("w0", "w1"),
        transition={("p", "u"): "q", ("p", "v"): "p", ("q", "u"): "p", ("q", "v"): "q"},
        output_map={"p": "w0", "q": "w0"},
    )


# -- check_homomorphism ---------------------------------------------------------

def test_identity_is_a_homomorphism():
    obs = thermostat()
    assert check_homomorphism(obs, obs, identity_morphism(obs)).holds


def test_quotient_of_redundant_pair_is_a_homomorphism():
    source = redundant_observer()
    reduced, _, quotient = minimize(source)
    assert len(reduced.states) == 1
    assert check_homomorphism(source, reduced, quotient).holds


def test_state_swap_fails_with_witness():
    obs = thermostat()
    swap = ObserverMorphism(
        state_map={"OFF": "ON", "ON": "OFF"},
        input_map={y: y for y in obs.inputs},
        output_map={z: z for z in obs.outputs},
    )
    verdict = check_homomorphism(obs, obs, swap)
    assert not verdict.holds
    assert ("OFF", "Cold") in verdict.transition_failures


def test_partial_state_map_is_shape_error():
    obs = thermostat()
    broken = ObserverMorphism(
        state_map={"OFF": "OFF"},
        input_map={y: y for y in obs.inputs},
        output_map={z: z for z in obs.outputs},
    )
    with pytest.raises(MorphismShapeError):
        check_homomorphism(obs, obs, broken)


def test_image_outside_target_is_shape_error():
    obs = thermostat()
    broken = ObserverMorphism(
        state_map={"OFF": "ELSEWHERE", "ON": "ON"},
        input_map={y: y for y in obs.inputs},
        output_map={z: z for z in obs.outputs},
    )
    with pytest.raises(MorphismShapeError):
        check_homomorphism(obs, obs, broken)


# -- find_isomorphism -------------------------------------------------------------

def test_pure_relabeling_is_found_and_verifies():
    rng = random.Random(11)
    first = thermostat()
    second = relabeled(first, rng)
    morphism = find_isomorphism(first, second)
    assert morphism is not None and morphism.bijective
    assert check_homomorphism(first, second, morphism).holds


def test_thermostat_not_equivalent_to_constant_output_machine():
    a, b = thermostat(), constant_output_observer()
    assert brute_force_isomorphism(a, b) is None
    assert find_isomorphism(a, b) is None


def test_anchored_identity_search():
    obs = thermostat()
    morphism = find_isomorphism(obs, obs, anchors=("OFF", "OFF"))
    assert morphism is not None
    assert morphism.state_map["OFF"] == "OFF"


def test_unknown_anchor_is_identifier_error():
    with pytest.raises(IdentifierError):
        find_isomorphism(thermostat(), thermostat(), anchors=("NOPE", "OFF"))
    with pytest.raises(IdentifierError):
        find_isomorphism(thermostat(), thermostat(), anchors=("OFF", "NOPE"))


@pytest.mark.parametrize("anchors", [(["OFF"], "OFF"), ("OFF", ["OFF"]), ("OFF",), ("OFF", "ON", "OFF"), 5],
                         ids=["unhashable-first", "unhashable-second", "one-item", "three-items", "int"])
def test_anchors_that_are_not_a_pair_of_hashable_labels_are_an_identifier_error(anchors):
    with pytest.raises(IdentifierError, match="anchors must be a pair of hashable states"):
        find_isomorphism(thermostat(), thermostat(), anchors=anchors)


def test_an_unknown_anchor_keeps_its_message():
    with pytest.raises(IdentifierError) as caught:
        find_isomorphism(thermostat(), thermostat(), anchors=("GHOST", "OFF"))
    assert str(caught.value) == "anchor 'GHOST' is not a state of the first observer"
    with pytest.raises(IdentifierError) as caught:
        find_isomorphism(thermostat(), thermostat(), anchors=["OFF", "GHOST"])
    assert str(caught.value) == "anchor 'GHOST' is not a state of the second observer"


def test_anchor_selects_the_swap_automorphism():
    # swapping states, inputs, and outputs together commutes with both tables
    swapped = find_isomorphism(thermostat(), thermostat(), anchors=("OFF", "ON"))
    assert swapped is not None
    assert swapped.state_map == {"OFF": "ON", "ON": "OFF"}
    assert swapped.input_map == {"Cold": "Hot", "Hot": "Cold"}
    assert swapped.output_map == {"HeaterOff": "HeaterOn", "HeaterOn": "HeaterOff"}
    assert check_homomorphism(thermostat(), thermostat(), swapped).holds


def test_anchor_can_rule_out_all_isomorphisms():
    sink = Observer(
        states=("s0", "s1"), inputs=("y",), outputs=("w0", "w1"),
        transition={("s0", "y"): "s0", ("s1", "y"): "s0"},
        output_map={"s0": "w0", "s1": "w1"},
    )
    assert find_isomorphism(sink, sink, anchors=("s0", "s1")) is None


def test_search_matches_brute_force_on_random_pairs():
    rng = random.Random(404)
    pairs = []
    for trial in range(120):
        a = random_observer(rng, max_size=3)
        if trial % 3 == 0:
            b = relabeled(a, rng, prefix=f"t{trial}")
        elif trial % 3 == 1:
            b = random_observer(rng, sizes=(len(a.states), len(a.inputs), len(a.outputs)))
        else:
            b = random_observer(rng, max_size=3)
        pairs.append((a, b))
    # equal-size output classes and repeated input columns, which map as classes
    folded = random.Random(405)
    for trial in range(90):
        shape = (folded.choice((2, 4)), folded.randint(1, 2), 2, folded.choice((1, 2)))
        a = duplicated_inputs_observer(folded, *shape)
        if trial % 3 == 0:
            b = relabeled(a, folded, prefix=f"d{trial}")
        elif trial % 3 == 1:
            b = duplicated_inputs_observer(folded, *shape)
        else:
            b = duplicated_inputs_observer(folded, shape[0], 2 // shape[1], shape[1] ** 2, shape[3])
        pairs.append((a, b))
    for a, b in pairs:
        expected = brute_force_isomorphism(a, b)
        got = find_isomorphism(a, b)
        if expected is None:
            assert got is None
        else:
            assert got is not None
            assert morphism_vectors(a, b, got) == expected


def test_search_matches_brute_force_on_five_element_sets():
    rng = random.Random(55)
    for trial in range(6):
        a = random_observer(rng, sizes=(5, 5, 5))
        b = relabeled(a, rng, prefix=f"f{trial}")
        expected = brute_force_isomorphism(a, b)
        got = find_isomorphism(a, b)
        assert expected is not None and got is not None
        assert morphism_vectors(a, b, got) == expected


def test_anchored_search_matches_brute_force_restricted_to_the_anchor():
    rng = random.Random(406)
    for trial in range(150):
        if trial % 2:
            a = random_observer(rng, max_size=4)
        else:
            a = duplicated_inputs_observer(rng, rng.choice((2, 4)), rng.randint(1, 2), 2, 2)
        b = a if trial % 3 == 0 else relabeled(a, rng, prefix=f"n{trial}")
        i, u = rng.randrange(len(a.states)), rng.randrange(len(b.states))
        expected = brute_force_isomorphism(a, b, anchor=(i, u))
        got = find_isomorphism(a, b, anchors=(a.states[i], b.states[u]))
        if expected is None:
            assert got is None
        else:
            assert got is not None
            assert morphism_vectors(a, b, got) == expected


def cycles(sizes: list[int], inputs: int = 1, prefix: str = "c") -> Observer:
    """Disjoint cycles of the given lengths, every input stepping forward."""
    states = [f"{prefix}{k}_{i}" for k, m in enumerate(sizes) for i in range(m)]
    succ, start = {}, 0
    for m in sizes:
        for i in range(m):
            succ[states[start + i]] = states[start + (i + 1) % m]
        start += m
    ys = tuple(f"y{j}" for j in range(inputs))
    return Observer(tuple(states), ys, ("z",), {(x, y): succ[x] for x in states for y in ys},
                    {x: "z" for x in states})


@pytest.mark.parametrize("inputs", [1, 8])
def test_a_ten_cycle_is_told_from_two_five_cycles_at_once(inputs):
    started = perf_counter()
    assert find_isomorphism(cycles([10], inputs), cycles([5, 5], inputs, "d")) is None
    assert perf_counter() - started < 1.0


def components(parts: list[list[int]], prefix: str = "c", seed: int | None = None) -> Observer:
    """One input, one output, on the disjoint union of ``parts``, each a successor list.

    With ``seed`` given, the states are listed in a shuffled order.
    """
    succ: list[int] = []
    for part in parts:
        succ += [len(succ) + t for t in part]
    place = list(range(len(succ)))
    if seed is not None:
        random.Random(seed).shuffle(place)
    states = [""] * len(succ)
    for i, p in enumerate(place):
        states[p] = f"{prefix}{i}"
    return Observer(tuple(states), ("y",), ("z",),
                    {(f"{prefix}{i}", "y"): f"{prefix}{t}" for i, t in enumerate(succ)},
                    {x: "z" for x in states})


C3, C6 = [1, 2, 0], [1, 2, 3, 4, 5, 0]
TAILED_C3 = [1, 2, 0, 0, 3, 4]  # a 3-cycle, and a 3-state path into its first state
UNION_30 = [random.Random(30).choice((C3, C6)) for _ in range(30)]
NEAR_30 = [TAILED_C3 if k == UNION_30.index(C6) else part for k, part in enumerate(UNION_30)]


# color refinement alone cannot tell C_6 from 2 x C_3, so unless states start
# apart by component size the search retries every placement of the triangles
@pytest.mark.parametrize("a_parts, b_parts, isomorphic", [
    ([C3] * 4 + [C6], [C3] * 6, False),
    ([C3] * 5 + [C6], [C3] * 7, False),
    ([C3] * 6 + [C6], [C3] * 8, False),
    ([C6] * 4 + [TAILED_C3], [C6] * 5, False),
    (UNION_30, UNION_30, True),
    (UNION_30, NEAR_30, False),
], ids=["4C3+C6-6C3", "5C3+C6-7C3", "6C3+C6-8C3", "4C6+tailed-5C6", "30-shuffled", "30-near-miss"])
def test_unions_of_cycles_resolve_without_a_stall(a_parts, b_parts, isomorphic):
    a, b = components(a_parts), components(b_parts, "d", seed=1)
    started = perf_counter()
    morphism = find_isomorphism(a, b)
    elapsed = perf_counter() - started
    assert (morphism is not None) == isomorphic
    assert morphism is None or check_homomorphism(a, b, morphism).holds
    assert elapsed < 1.0


def test_a_5000_state_cycle_matches_a_relabeled_copy():
    a = cycles([5000])
    b = relabeled(a, random.Random(5), prefix="e")
    started = perf_counter()
    morphism = find_isomorphism(a, b)
    elapsed = perf_counter() - started
    assert morphism is not None and check_homomorphism(a, b, morphism).holds
    assert elapsed < 10.0


def test_a_random_1000_state_machine_matches_a_relabeled_copy():
    rng = random.Random(1000)
    a = random_observer(rng, sizes=(1000, 3, 3))
    b = relabeled(a, rng, prefix="m")
    started = perf_counter()
    morphism = find_isomorphism(a, b)
    elapsed = perf_counter() - started
    assert morphism is not None and check_homomorphism(a, b, morphism).holds
    assert elapsed < 10.0


# -- equivalence laws ----------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_equivalence_is_reflexive(seed):
    obs = random_observer(random.Random(seed))
    assert equivalent(obs, obs)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_equivalence_is_symmetric_with_verifying_inverse(seed):
    rng = random.Random(seed)
    a = random_observer(rng, max_size=4)
    b = relabeled(a, rng)
    forward = find_isomorphism(a, b)
    assert forward is not None
    assert check_homomorphism(b, a, forward.inverse()).holds
    assert equivalent(b, a)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_symmetry_agrees_on_arbitrary_pairs(seed):
    rng = random.Random(seed)
    a = random_observer(rng, max_size=3)
    b = random_observer(rng, max_size=3)
    assert equivalent(a, b) == equivalent(b, a)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_equivalence_is_transitive_along_relabelings(seed):
    rng = random.Random(seed)
    a = random_observer(rng, max_size=4)
    b = relabeled(a, rng, prefix="m")
    c = relabeled(b, rng, prefix="n")
    assert equivalent(a, b) and equivalent(b, c)
    assert equivalent(a, c)


# -- equivalence_partition -------------------------------------------------------------

def test_partition_groups_relabelings_together():
    rng = random.Random(3)
    group = [thermostat(), relabeled(thermostat(), rng), constant_output_observer()]
    assert equivalence_partition(group) == [[0, 1], [2]]


def test_partition_of_empty_list():
    assert equivalence_partition([]) == []


def test_partition_of_singleton():
    assert equivalence_partition([thermostat()]) == [[0]]


# -- canonical_invariants -----------------------------------------------------------------

def test_invariants_equal_for_isomorphic_pairs():
    rng = random.Random(77)
    for _ in range(25):
        a = random_observer(rng, max_size=4)
        assert canonical_invariants(a) == canonical_invariants(relabeled(a, rng))


def test_thermostat_invariants():
    vector = canonical_invariants(thermostat())
    assert vector[0:3] == (2, 2, 2)
    assert vector[3] == (2, 2, 2)


def test_redundant_observer_reduces_to_one_state():
    vector = canonical_invariants(redundant_observer())
    assert vector[3] == (1, 1, 1)


def test_differing_invariants_imply_non_equivalence():
    rng = random.Random(909)
    checked = 0
    for _ in range(200):
        a = random_observer(rng, max_size=3)
        b = random_observer(rng, max_size=3)
        if canonical_invariants(a) != canonical_invariants(b):
            checked += 1
            assert brute_force_isomorphism(a, b) is None
    assert checked > 50


# -- minimize ----------------------------------------------------------------------------

def test_thermostat_is_already_minimal():
    reduced, partition, quotient = minimize(thermostat())
    assert reduced == thermostat()
    assert partition.classes == (("OFF",), ("ON",))
    assert check_homomorphism(thermostat(), reduced, quotient).holds


def test_redundant_pair_collapses():
    source = redundant_observer()
    reduced, partition, quotient = minimize(source)
    assert reduced.states == ("a",)
    assert partition.classes == (("a", "b"),)
    assert quotient.state_map == {"a": "a", "b": "a"}
    assert check_homomorphism(source, reduced, quotient).holds


def test_block_of_finds_a_state_and_rejects_an_unknown_one():
    _, partition, _ = minimize(redundant_observer())
    assert partition.block_of("b") == ("a", "b")
    with pytest.raises(IdentifierError, match="unknown state 'c'"):
        partition.block_of("c")


def test_a_non_bijective_morphism_has_no_inverse():
    _, _, quotient = minimize(redundant_observer())
    with pytest.raises(MorphismShapeError, match="cannot invert a non-bijective morphism"):
        quotient.inverse()


def test_behaviorally_equal_inputs_merge():
    obs = Observer(
        states=("s0", "s1"),
        inputs=("go", "run"),  # identical columns
        outputs=("out0", "out1"),
        transition={("s0", "go"): "s1", ("s0", "run"): "s1",
                    ("s1", "go"): "s0", ("s1", "run"): "s0"},
        output_map={"s0": "out0", "s1": "out1"},
    )
    reduced, _, quotient = minimize(obs)
    assert reduced.inputs == ("go",)
    assert quotient.input_map == {"go": "go", "run": "go"}
    assert check_homomorphism(obs, reduced, quotient).holds


def test_unused_outputs_are_dropped():
    obs = Observer(
        states=("s",), inputs=("y",), outputs=("used", "never"),
        transition={("s", "y"): "s"}, output_map={"s": "used"},
    )
    reduced, _, quotient = minimize(obs)
    assert reduced.outputs == ("used",)
    assert quotient.output_map == {"used": "used", "never": "used"}
    assert check_homomorphism(obs, reduced, quotient).holds


def _oracle_sizes(obs: Observer, blocks: tuple[tuple, ...]) -> tuple[int, int, int]:
    """Reduced sizes read off the oracle's blocks: one input per distinct column of blocks."""
    block_of = {x: n for n, block in enumerate(blocks) for x in block}
    columns = {tuple(block_of[obs.transition[(x, y)]] for x in obs.states) for y in obs.inputs}
    return len(blocks), len(columns), len(set(obs.output_map.values()))


def _chain_observer(n: int, outputs: list[str], closed: bool) -> Observer:
    """One input stepping along n states, the last back to the first (a cycle) or to itself (a path)."""
    states = tuple(f"x{i}" for i in range(n))
    step = {(x, "y"): states[i + 1] if i + 1 < n else states[0 if closed else i] for i, x in enumerate(states)}
    return Observer(states, ("y",), tuple(dict.fromkeys(outputs)), step, dict(zip(states, outputs)))


def _adversarial_observers():
    for n in range(1, 13):
        yield _chain_observer(n, ["z0"] * (n - 1) + ["z1"], closed=False)  # only the last state differs
        yield _chain_observer(n, ["z0"] * n, closed=False)
        for period in (1, 2, 3, 4):
            yield _chain_observer(n, [f"z{i % period}" for i in range(n)], closed=True)
    rng = random.Random(16)
    for _ in range(40):
        nz = rng.randint(1, 4)
        yield duplicated_inputs_observer(rng, rng.randint(nz, 8), rng.randint(1, 3), rng.randint(1, 3), nz)


def _oracle_corpus():
    rng = random.Random(1956)
    for _ in range(600):
        yield random_observer(rng, sizes=(rng.randint(1, 8), rng.randint(1, 3), rng.randint(1, 3)))
    yield from _adversarial_observers()


def _quotient_oracle(obs: Observer, blocks: tuple[tuple, ...]) -> Observer:
    """The quotient ``minimize`` documents, built on labels from the oracle's blocks: every block, every
    group of inputs with equal columns of blocks, and every emitted output is kept by its first member."""
    first = {x: block[0] for block in blocks for x in block}
    groups: dict[tuple, str] = {}
    for y in obs.inputs:
        groups.setdefault(tuple(first[obs.transition[(x, y)]] for x in obs.states), y)
    states, inputs, emitted = tuple(b[0] for b in blocks), tuple(groups.values()), set(obs.output_map.values())
    return Observer(states, inputs, tuple(z for z in obs.outputs if z in emitted),
                    {(x, y): first[obs.transition[(x, y)]] for x in states for y in inputs},
                    {x: obs.output_map[x] for x in states}, obs.boundary)


def test_minimize_builds_the_label_quotient_of_the_moore_blocks():
    for obs in (thermostat(), redundant_observer(), *_oracle_corpus()):
        assert_built_alike(minimize(obs)[0], _quotient_oracle(obs, behavioral_partition_oracle(obs)))


def test_minimize_complexity_and_invariants_match_the_moore_oracle():
    checked = 0
    for obs in _oracle_corpus():
        blocks = behavioral_partition_oracle(obs)
        sizes = _oracle_sizes(obs, blocks)
        reduced, partition, _ = minimize(obs)
        assert partition.classes == blocks, obs
        assert (len(reduced.states), len(reduced.inputs), len(reduced.outputs)) == sizes, obs
        assert complexity(obs).reduced_sizes == sizes, obs
        assert canonical_invariants(obs)[3] == sizes, obs
        checked += len(blocks) < len(obs.states)
    assert checked > 200  # most machines do merge states


@pytest.mark.parametrize("call", [
    lambda: minimize(None),
    lambda: complexity("x"),
    lambda: canonical_invariants(5),
    lambda: equivalence_partition([thermostat(), 3]),
    lambda: find_isomorphism(thermostat(), "b"),
    lambda: find_isomorphism(None, thermostat(), anchors=("OFF", "OFF")),
    lambda: check_homomorphism(thermostat(), thermostat(), None),
    lambda: check_homomorphism("a", thermostat(), identity_morphism(thermostat())),
    lambda: identity_morphism(None),
], ids=["minimize", "complexity", "canonical_invariants", "equivalence_partition", "find_isomorphism",
        "find_isomorphism_anchored", "check_homomorphism_morphism", "check_homomorphism_source", "identity_morphism"])
def test_a_non_observer_argument_is_a_definition_error(call):
    with pytest.raises(DefinitionError):
        call()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_minimize_is_idempotent_up_to_isomorphism(seed):
    obs = random_observer(random.Random(seed), max_size=4)
    reduced, _, _ = minimize(obs)
    again, _, _ = minimize(reduced)
    assert equivalent(reduced, again)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_quotient_map_is_surjective_homomorphism(seed):
    obs = random_observer(random.Random(seed), max_size=4)
    reduced, _, quotient = minimize(obs)
    assert check_homomorphism(obs, reduced, quotient).holds
    assert set(quotient.state_map.values()) == set(reduced.states)
    assert set(quotient.input_map.values()) == set(reduced.inputs)
    assert set(quotient.output_map.values()) == set(reduced.outputs)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_minimized_forms_of_equivalent_observers_are_isomorphic(seed):
    rng = random.Random(seed)
    a = random_observer(rng, max_size=4)
    b = relabeled(a, rng)
    ra, _, _ = minimize(a)
    rb, _, _ = minimize(b)
    assert equivalent(ra, rb)
