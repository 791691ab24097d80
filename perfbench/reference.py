"""Reference figures to read the benchmark's numbers against.

    python3 perfbench/reference.py

Prints the start-up cost of a bare interpreter and of ``import
obskit.cli``, the fixed pure-Python loop every run also times, and the
ROADMAP baseline rows re-measured, each the median of a few repeats.
"""

import os
import random
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import bench  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from run import pinned_env  # noqa: E402


def median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def child_wall(code, repeats=10):
    return median_time(lambda: subprocess.run([sys.executable, "-c", code], check=True,
                                              env=workloads.child_env()), repeats)


def main():
    from obskit import ca, composition, metrics, morphism

    rng = random.Random(7)
    tr = spans.NoTracer()
    big = workloads.build_observer(tr, inputs.random_machine(rng, 2000, 4, 3))
    c8, c44 = (workloads.build_observer(tr, m) for m in (inputs.cycles([8], "a"), inputs.cycles([4, 4], "b")))
    deep = inputs.cycles([1200], "d")
    deep_pair = [workloads.build_observer(tr, m) for m in (deep, inputs.relabel(random.Random(0), deep, "e"))]
    row = inputs.random_bits(rng, 1024)
    rule = ca.rule_table(110)
    dense = {n: inputs.dense_chain(rng, n) for n in (500, 1500)}
    thermostat = workloads.Dynamics(1)
    thermostat.setup(tr)

    def record_5000():
        ledger = composition.FactLedger()
        for k in range(5000):
            ledger = composition.record_fact(ledger, f"o{k % 5}", k // 5, "y", "x")

    def deep_iso():
        try:
            morphism.find_isomorphism(*deep_pair)
        except RecursionError:
            pass

    rows = [
        ("python -c pass (child wall)", child_wall("pass")),
        ("python -c 'import obskit.cli' (child wall)", child_wall("import obskit.cli")),
        ("reference loop (1e6 iterations, in every run)", median_time(bench.reference_loop, 5)),
        ("minimize, random, n=2000, |Y|=4, |Z|=3", median_time(lambda: morphism.minimize(big), 3)),
        ("find_isomorphism C_8 vs C_4+C_4", median_time(lambda: morphism.find_isomorphism(c8, c44), 3)),
        ("find_isomorphism C_1200 vs relabeled (RecursionError)", median_time(deep_iso, 3)),
        ("ca_evolution rule 110, w=1024, 1024 steps", median_time(lambda: ca.ca_evolution(row, rule, 1024), 3)),
        ("expected_hitting_time dense n=500", median_time(
            lambda: metrics.expected_hitting_time(dense[500], 0, [1]), 3)),
        ("expected_hitting_time dense n=1500", median_time(
            lambda: metrics.expected_hitting_time(dense[1500], 0, [1]), 3)),
        ("5000 record_fact calls", median_time(record_5000, 3)),
        ("CoupledSystem.run thermostat, 200k steps", median_time(
            lambda: thermostat.thermostat_obj.run(("OFF", "Cold"), 200_000), 3)),
    ]
    for label, seconds in rows:
        print(f"{label:55s} {seconds:9.4f} s")


if __name__ == "__main__":
    if pinned_env() != os.environ:
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)], pinned_env())
    main()
