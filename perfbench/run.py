"""obskit benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

With ``--trace 0`` the run repeats whole passes over the named
workload's fixed batch of operations for ``--seconds`` seconds, times the
set-up in fresh interpreters between passes (``setup_s``, the median of
15), and reports ``run_s``, ``op_p50_ms`` and ``op_tail_ms`` from each
operation's best time over the passes, plus ``peak_rss_mb``.  With ``--trace 1`` it traces one pass of every
workload, so that each layer is measured on the workload that exercises
it, and reports the per-layer metrics.  Every operation's output is
checked against an independent oracle on the first pass and against the
first pass's digest on later ones.  The last line of standard output is
one JSON object: correct, attempted, failed and metrics.

The run re-executes itself once with PYTHONHASHSEED=0 and one BLAS thread,
so dict and set order and the linear solves behave alike in every run, and
without PYTHONDONTWRITEBYTECODE, so that obskit is compiled once and then
imported from its bytecode as an installed package is.
"""

import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PINNED_ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
# unset, so that obskit's bytecode is written next to its sources and no timed import compiles it
UNSET_ENV = ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")


def pinned_env():
    """This process's environment with PINNED_ENV set and UNSET_ENV removed."""
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    env.update(PINNED_ENV)
    return env


def setup_child(generated):
    """Time ``import obskit`` and the build of the program objects, fresh.

    ``generated`` is a pickle of the unbuilt workload, whose inputs the
    parent run made once from the seed.  Nothing but os and sys is
    imported before the timed import.
    """
    start = perf_counter()
    import obskit  # noqa: F401
    imported = perf_counter() - start
    import pickle

    import spans

    with open(generated, "rb") as f:
        w = pickle.load(f)
    start = perf_counter()
    w.setup(spans.NoTracer())
    built = perf_counter() - start
    print(f'{{"setup_s": {imported + built!r}, "import_s": {imported!r}}}')


def main(argv):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("structure", "dynamics", "lattice", "cli", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    import bench

    result = bench.trace_run(args.seed) if args.trace else bench.timed_run(args.workload, args.seed,
                                                                          args.seconds)
    import json

    print(json.dumps(result))


def run_all(args):
    """Every workload to its end, one child run at a time."""
    import json
    import subprocess

    for workload in ("structure", "dynamics", "lattice", "cli"):
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        lines = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        print(f"  -> correct {result['correct']}, attempted {result['attempted']}, "
              f"failed {result['failed']}\n")


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "obskit", "__init__.py")):
        sys.exit(f"no obskit sources under {SRC}")
    if pinned_env() != os.environ:
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], pinned_env())
    sys.path.insert(0, SRC)
    if sys.argv[1:2] == ["--setup-child"]:
        setup_child(sys.argv[2])
    else:
        main(sys.argv[1:])
