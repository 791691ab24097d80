"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned in the assertions, and the criteria with
runtime budgets assert them.
"""

from __future__ import annotations

import math
import random
from itertools import product
from time import perf_counter

import numpy as np

from obskit.ca import ca_evolution, embed, rule_table, run_embedded, transparent_observer
from obskit.cli import dispatch
from obskit.composition import (
    Wiring,
    check_well_founded,
    default_registry,
    known_spin_values,
    run_lab_script,
    stack,
)
from obskit.core import CoupledSystem, Observer
from obskit.documents import parse_environment, parse_observer, serialize_observer
from obskit.metrics import (
    TRANSIENT_TO_CYCLE,
    adaptation_time,
    complexity,
    expected_hitting_time,
)
from obskit.morphism import (
    ObserverMorphism,
    check_homomorphism,
    equivalent,
    find_isomorphism,
)

from conftest import (
    FIXTURES,
    brute_force_isomorphism,
    cycle_flags,
    cycle_oracle,
    eca_oracle_run,
    mc_hitting_oracle,
    morphism_vectors,
    observer_corpus,
    random_dense_chain,
    random_observer,
    relabeled,
)

LN2 = math.log(2)


def test_criterion_1_thermostat_fidelity():
    started = perf_counter()
    obs = parse_observer((FIXTURES / "thermostat.json").read_bytes())

    assert obs.step("OFF", "Cold") == "ON"
    assert obs.step("OFF", "Hot") == "OFF"
    assert obs.step("ON", "Cold") == "ON"
    assert obs.step("ON", "Hot") == "OFF"
    assert obs.output("ON") == "HeaterOn"
    assert obs.output("OFF") == "HeaterOff"

    system = CoupledSystem(obs, parse_environment((FIXTURES / "flip_env.json").read_bytes()))
    trace = system.run(("OFF", "Cold"), 4)
    assert trace.joint_states() == (
        ("ON", "Hot"), ("OFF", "Cold"), ("ON", "Hot"), ("OFF", "Cold"),
    )
    settled = adaptation_time(system, ("OFF", "Cold"))
    assert settled.kind == TRANSIENT_TO_CYCLE
    assert settled.steps == 2
    assert settled.cycle_period == 2

    elapsed = perf_counter() - started
    assert elapsed < 1.0
    print(f"PASS criterion 1: thermostat fidelity and period-2 loop ({elapsed:.3f}s)")


def test_criterion_2_equivalence_relation_laws():
    started = perf_counter()
    rng = random.Random(420)
    violations = 0

    for _ in range(1000):
        obs = random_observer(rng, max_size=5)
        if find_isomorphism(obs, obs) is None:
            violations += 1

    for i in range(350):
        a = random_observer(rng, max_size=5)
        b = relabeled(a, rng, prefix=f"s{i}")
        forward = find_isomorphism(a, b)
        if forward is None or not check_homomorphism(b, a, forward.inverse()).holds:
            violations += 1

    for _ in range(250):
        a = random_observer(rng, max_size=4)
        b = random_observer(rng, max_size=4)
        if equivalent(a, b) != equivalent(b, a):
            violations += 1

    for i in range(200):
        a = random_observer(rng, max_size=5)
        b = relabeled(a, rng, prefix=f"t{i}")
        c = relabeled(b, rng, prefix=f"u{i}")
        if not (equivalent(a, b) and equivalent(b, c) and equivalent(a, c)):
            violations += 1

    elapsed = perf_counter() - started
    assert violations == 0
    assert elapsed < 30.0
    print(f"PASS criterion 2: reflexive/symmetric/transitive, 0 violations ({elapsed:.1f}s)")


def test_criterion_3_isomorphism_matches_brute_force_oracle():
    started = perf_counter()
    corpus = observer_corpus(seed=2024, size=50)
    compared = 0
    for i in range(len(corpus)):
        for j in range(i, len(corpus)):
            expected = brute_force_isomorphism(corpus[i], corpus[j])
            got = find_isomorphism(corpus[i], corpus[j])
            compared += 1
            if expected is None:
                assert got is None, f"search found an isomorphism the oracle denies ({i},{j})"
            else:
                assert got is not None, f"search missed an isomorphism the oracle found ({i},{j})"
                assert morphism_vectors(corpus[i], corpus[j], got) == expected, (i, j)
    elapsed = perf_counter() - started
    assert compared == 50 * 51 // 2
    assert elapsed < 60.0
    print(f"PASS criterion 3: {compared} pairs agree with exhaustive enumeration ({elapsed:.1f}s)")


def test_criterion_4_complexity_bounds_and_fixtures():
    rng = random.Random(0xC0)
    for _ in range(400):
        report = complexity(random_observer(rng, max_size=5))
        if report.reduced_sizes[0] > 1:
            assert report.complexity >= LN2 - 1e-12

    redundant = parse_observer((FIXTURES / "redundant.json").read_bytes())
    report = complexity(redundant)
    assert report.complexity == 0.0
    assert report.redundancy == LN2

    thermo_report = complexity(parse_observer((FIXTURES / "thermostat.json").read_bytes()))
    assert abs(thermo_report.complexity - math.log(8)) <= 1e-12
    assert thermo_report.redundancy == 0.0

    for i in range(30):
        obs = random_observer(rng, max_size=5)
        assert complexity(obs) == complexity(relabeled(obs, rng, prefix=f"c{i}"))

    print("PASS criterion 4: C >= ln 2 when |X^| > 1; fixtures exact; reports invariant")


def test_criterion_5_hitting_times_match_monte_carlo():
    closed_form = expected_hitting_time([[0.5, 0.5], [0.0, 1.0]], 0, [1])
    assert abs(closed_form - 2.0) <= 1e-9

    rng = np.random.default_rng(314159)
    worst = 0.0
    for index in range(20):
        n = int(rng.integers(2, 21))
        matrix = random_dense_chain(rng, n)
        start = int(rng.integers(0, n))
        goal = [int(g) for g in rng.choice(n, size=max(1, n // 6), replace=False)]
        exact = expected_hitting_time(matrix, start, goal)
        mean, stderr = mc_hitting_oracle(
            matrix, start, goal, trials=100_000, seed=int(rng.integers(2**31))
        )
        if start in set(goal):
            assert exact == mean == 0.0
            continue
        gap = abs(exact - mean)
        worst = max(worst, gap / stderr if stderr else 0.0)
        assert gap <= 3.0 * stderr, f"chain {index}: |{exact} - {mean}| > 3 SE ({stderr})"
    print(f"PASS criterion 5: 20 chains within 3 SE of Monte-Carlo (worst {worst:.2f} SE)")


def test_criterion_6_rule_110_and_transparent_embedding():
    started = perf_counter()
    rule = rule_table(110)
    assert rule.table == {
        (1, 1, 1): 0, (1, 1, 0): 1, (1, 0, 1): 1, (1, 0, 0): 0,
        (0, 1, 1): 1, (0, 1, 0): 1, (0, 0, 1): 1, (0, 0, 0): 0,
    }

    seed = tuple(1 if i == 15 else 0 for i in range(31))
    rows = ca_evolution(seed, rule, 15)
    assert list(rows) == eca_oracle_run(seed, 110, 15)

    clear = transparent_observer(rule, 1)
    for width in range(3, 11):
        for cells in product((0, 1), repeat=width):
            system = embed(rule, cells, 1, clear)
            diagram, _ = run_embedded(system, 8)
            assert diagram == ca_evolution(cells, rule, 8)

    rng = random.Random(60902)
    for _ in range(100):
        k = rng.choice((1, 2, 3, 4))
        width = rng.randint(11, 40)
        cells = tuple(rng.randint(0, 1) for _ in range(width))
        start = rng.randint(0, width - k)
        system = embed(rule, cells, start, transparent_observer(rule, k))
        diagram, _ = run_embedded(system, 16)
        assert diagram == ca_evolution(cells, rule, 16)

    elapsed = perf_counter() - started
    assert elapsed < 10.0
    print(f"PASS criterion 6: rule table, 15-step oracle, transparency ({elapsed:.1f}s)")


def test_criterion_7_composition_and_relational_facts():
    # associativity up to isomorphism on 20 random compatible triples
    rng = random.Random(2718)
    alphabet = ("0", "1")
    identity = {"0": "0", "1": "1"}

    def machine():
        states = tuple(f"q{i}" for i in range(2))
        return Observer(
            states, alphabet, alphabet,
            {(x, y): rng.choice(states) for x in states for y in alphabet},
            {x: rng.choice(alphabet) for x in states},
        )

    for _ in range(20):
        default_registry().clear()
        a, b, c = machine(), machine(), machine()
        wiring = Wiring(lift=dict(identity), drop=dict(identity))
        left = stack(stack(a, b, wiring), c, wiring)
        right = stack(a, stack(b, c, wiring), wiring)
        assert equivalent(left, right)

    # cycle detection against the transitive-closure oracle: every digraph on
    # up to 4 nodes (self-loops included), where the batched matrix-power
    # oracle is checked against it too; every loop-free digraph on 5 nodes,
    # against the batched oracle; and sampled 5-node digraphs with self-loops
    for size in range(1, 5):
        nodes = tuple(f"n{i}" for i in range(size))
        pairs = [(u, v) for u in nodes for v in nodes]
        cyclic = cycle_flags(size, [(u, v) for u in range(size) for v in range(size)])
        for mask in range(2 ** len(pairs)):
            graph = {n: [] for n in nodes}
            m = mask
            for (u, v) in pairs:
                if m & 1:
                    graph[u].append(v)
                m >>= 1
            assert cyclic[mask] == cycle_oracle(graph)
            assert check_well_founded(graph).well_founded == (not cyclic[mask])

    # bits 4u..4u+3 of a mask are node u's edges to the other four nodes, in order,
    # so each node's targets are read from a table of its 16 edge sets
    nodes = tuple(f"n{i}" for i in range(5))
    others = [[v for v in range(5) if v != u] for u in range(5)]
    cyclic = cycle_flags(5, [(u, v) for u in range(5) for v in others[u]])
    tables = [(node, 4 * u, [[nodes[v] for k, v in enumerate(others[u]) if bits >> k & 1] for bits in range(16)])
              for u, node in enumerate(nodes)]
    for mask in range(2 ** 20):
        graph = {node: table[mask >> shift & 15] for node, shift, table in tables}
        assert check_well_founded(graph).well_founded == (not cyclic[mask])

    sampler = random.Random(9090)
    for _ in range(5000):
        graph = {u: [v for v in nodes if sampler.random() < 0.3] for u in nodes}
        if not any(u in graph[u] for u in nodes):
            graph[sampler.choice(nodes)].append(sampler.choice(nodes))
        assert check_well_founded(graph).well_founded == (not cycle_oracle(graph))

    # the sealed-lab script: strict containment, then agreement after the read
    run = run_lab_script(spin="up")
    insider_facts = known_spin_values(run.ledger, run.insider_id, run.measurement_step)
    outsider_facts = known_spin_values(run.ledger, run.outsider_id, run.measurement_step)
    assert outsider_facts < insider_facts
    assert known_spin_values(run.ledger, run.insider_id, run.read_step) == \
        known_spin_values(run.ledger, run.outsider_id, run.read_step) == frozenset({"spin-up"})

    print("PASS criterion 7: associativity, cycle oracle agreement, relational facts")


def test_criterion_8_cli_contract(capsys, tmp_path):
    # canonical round trip is byte-identical on every shipped document
    for name in ("thermostat.json", "thermostat_renamed.json", "redundant.json",
                 "eca_transparent_k1.json"):
        text = (FIXTURES / name).read_text()
        assert serialize_observer(parse_observer(text)) == text

    thermo = str(FIXTURES / "thermostat.json")
    renamed = str(FIXTURES / "thermostat_renamed.json")
    redundant = str(FIXTURES / "redundant.json")

    # equiv on the renamed pair: exit 0 and a verifying morphism on stdout
    code = dispatch(["equiv", thermo, renamed])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "EQUIVALENT"

    def parse_map(line, prefix):
        assert line.startswith(prefix)
        return dict(pair.split("->") for pair in line[len(prefix):].split())

    printed = ObserverMorphism(
        state_map=parse_map(lines[1], "states: "),
        input_map=parse_map(lines[2], "inputs: "),
        output_map=parse_map(lines[3], "outputs: "),
    )
    first = parse_observer((FIXTURES / "thermostat.json").read_bytes())
    second = parse_observer((FIXTURES / "thermostat_renamed.json").read_bytes())
    assert printed.bijective
    assert check_homomorphism(first, second, printed).holds

    # documented exit codes: 1 for a domain negative, 2 for usage errors
    assert dispatch(["equiv", thermo, redundant]) == 1
    capsys.readouterr()
    assert dispatch(["no-such-command"]) == 2
    capsys.readouterr()
    assert dispatch(["complexity", thermo, "--made-up-flag"]) == 2
    capsys.readouterr()

    print("PASS criterion 8: canonical round trip, exit codes, verifying morphism")
