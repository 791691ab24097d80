"""The harness: set-up in fresh interpreters, timed passes, traced passes.

The load is closed-loop from this one process: each operation is called
only after the previous one has returned, with no threads and at most one
child process at a time.
"""

from __future__ import annotations

import gc
import hashlib
import json
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import spans
import workloads

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
ORDER = ("structure", "dynamics", "lattice", "cli")
SETUP_RUNS = 15  # fresh interpreters per run behind setup_s
TAIL_BEYOND = 10  # op_tail_ms is the slowest operation but ten
CLI_IMPORT = ("from time import perf_counter; t = perf_counter(); import obskit.cli; "
              "print(perf_counter() - t)")

UNITS = {"setup_s": "s", "run_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mb": "MB"}


@dataclass
class Pass:
    durations: list
    failures: list   # "layer.function: ExceptionType" per failed operation
    digests: list
    problems: list   # check failures


def reference_loop():
    """A fixed pure-Python loop, timed in every run so machine drift shows."""
    start = perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i & 7
    elapsed = perf_counter() - start
    if total != 3_500_000:
        raise RuntimeError("reference loop miscounted")
    return elapsed


def digest(value, h=None):
    """A short hash of an output, to compare later passes with the first."""
    top = h is None
    h = h or hashlib.blake2b(digest_size=16)
    if type(value).__name__ == "Trace":
        steps = value.steps
        for i in range(0, len(steps), 4096):
            h.update(pickle.dumps([(r.t, r.y, r.x, r.z, r.s) for r in steps[i:i + 4096]], 5))
    elif isinstance(value, tuple) and any(type(v).__name__ == "Trace" for v in value):
        for v in value:
            digest(v, h)
    else:
        h.update(pickle.dumps(value, 5))
    return h.digest() if top else None


def run_pass(w, ops, tracer=None, reference=None):
    """One pass over the operations.

    The first pass (no ``reference``) checks every output against its
    oracle; later passes compare each output's digest with the first's.
    Only the call itself is inside an operation's time.
    """
    w.reset()
    gc.collect()  # every pass starts from the same collector state
    slot = {}
    done = Pass([], [], [], [])
    with tracer.span("bench.pass") if tracer else nullcontext():
        for i, op in enumerate(ops):
            span = tracer.span(op.name, i, **op.work) if tracer else nullcontext()
            start = perf_counter()
            try:
                with span:
                    result, error = op.call(slot), None
            except Exception as exc:  # an operation that fails is counted, not fatal
                result, error = None, exc
            done.durations.append(perf_counter() - start)
            if error is not None:
                done.failures.append(f"{op.name}: {type(error).__name__}")
                if type(error).__name__ != op.expect:
                    done.problems.append(f"operation {i} ({op.name}) raised {error!r}, "
                                         f"expected {op.expect or 'no exception'}")
                mark = type(error).__name__.encode()
            else:
                if op.keep:
                    slot[op.keep] = result
                if reference is None:
                    try:
                        op.check(result, slot)
                    except Exception as exc:  # a check that cannot read the output fails too
                        done.problems.append(f"operation {i} ({op.name}): {exc!r}")
                mark = (op.digest or digest)(result)
            if reference is not None and mark != reference[i]:
                done.problems.append(f"operation {i} ({op.name}): output differs from the first pass")
            done.digests.append(mark)
            result = error = None  # free this output now, not inside the next operation's time
    return done


def warm_bytecode():
    """Compile obskit once, untimed, so no timed import pays for compiling it."""
    subprocess.run([sys.executable, "-c", "import obskit.cli"], check=True, env=workloads.child_env())


def fresh_setup(workload, generated=None, tracer=None):
    """Set-up timing from one fresh interpreter.

    ``generated`` is the pickled unbuilt workload that a library
    workload's interpreter builds, so that it does not make the inputs
    again from the seed, which takes longer than the set-up itself.
    """
    if workload == "cli":
        cmd = [sys.executable, "-c", CLI_IMPORT]
    else:
        cmd = [sys.executable, str(HERE / "run.py"), "--setup-child", str(generated)]
    with tracer.span("cli.import") if tracer else nullcontext() as record:
        out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True,
                             env=workloads.child_env()).stdout
    timing = {"setup_s": float(out), "import_s": float(out)} if workload == "cli" else json.loads(out)
    if record is not None:
        record["import_s"] = timing["import_s"]
    return timing


def tail_percentile(n):
    return 100 * (n - TAIL_BEYOND) / n


def timed_run(name, seed, seconds):
    """setup_s, run_s, op_p50_ms, op_tail_ms and peak_rss_mb of one workload.

    The set-up interpreters run between passes, spread evenly over the
    run's window, so that setup_s samples the whole run and not one moment
    of it; setup_s is their median.  Each operation's time is its best
    over the run's passes: on a shared machine whose speed drifts within
    seconds, the best of several tries is the number that repeats from run
    to run.
    """
    drift = reference_loop()
    warm_bytecode()
    w = workloads.WORKLOADS[name](seed)
    generated = None
    if name != "cli":
        OUT.mkdir(exist_ok=True)
        generated = OUT / f"inputs-{name}-{seed}.pickle"
        with open(generated, "wb") as f:  # streamed, so the run's peak memory holds no copy
            pickle.dump(w, f, 5)
    w.setup(spans.NoTracer())
    ops = w.ops()
    n = len(ops)
    if n < 4 * TAIL_BEYOND:
        raise RuntimeError(f"{name} has {n} operations per pass; op_tail_ms needs 40")
    passes, walls, setups = [], [], []
    started = perf_counter()
    try:
        # whole passes while the next one is expected to end inside the window
        while not passes or perf_counter() - started + statistics.median(walls) <= seconds:
            begun = perf_counter()
            passes.append(run_pass(w, ops, reference=passes[0].digests if passes else None))
            walls.append(perf_counter() - begun)
            while len(setups) < SETUP_RUNS * min(1.0, (perf_counter() - started) / seconds):
                setups.append(fresh_setup(name, generated))
        while len(setups) < SETUP_RUNS:
            setups.append(fresh_setup(name, generated))
    finally:
        cleanup(w)
        if generated is not None:
            generated.unlink(missing_ok=True)
    rss = w.max_rss_mb if name == "cli" else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    best = [min(p.durations[i] for p in passes) for i in range(n)]
    profile = sorted(best)
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "run_s": sum(best),
        "op_p50_ms": 1000 * statistics.median(profile),
        "op_tail_ms": 1000 * profile[n - 1 - TAIL_BEYOND],
        "peak_rss_mb": rss,
    }
    failures = [f for p in passes for f in p.failures]
    problems = [m for p in passes for m in p.problems]
    report(name, seed, len(passes), n, failures, problems, values, drift, setups)
    write(f"result-{name}-{seed}.json", {
        "workload": name, "seed": seed, "passes": len(passes), "operations": n,
        "reference_loop_s": drift, "setups": setups, "metrics": values,
        "pass_durations": [p.durations for p in passes], "failures": failures, "problems": problems,
    })
    return {"correct": not problems, "attempted": n * len(passes), "failed": len(failures),
            "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}}


def trace_run(seed):
    """Trace one pass of every workload; report the per-layer metrics.

    Each workload is set up under spans and then run three times: a
    checked pass that also warms caches, an untraced pass and a traced
    pass (compared with the first).  The tracing overhead is reported two
    ways: the ratio of the last two pass times, and the measured cost of
    one span times the spans in a pass.
    """
    warm_bytecode()
    tracer = spans.Tracer()
    attempted, failures, problems, overhead = 0, [], [], {}
    for name in ORDER:
        w = workloads.WORKLOADS[name](seed)
        try:
            with tracer.span("bench.setup", workload=name):
                if name == "cli":
                    for _ in range(SETUP_RUNS):
                        fresh_setup(name, tracer=tracer)
                w.setup(tracer)
            ops = w.ops()
            checked = run_pass(w, ops)
            plain = run_pass(w, ops, reference=checked.digests)
            traced = run_pass(w, ops, tracer, reference=checked.digests)
        finally:
            cleanup(w)
        overhead[name] = {"untraced_run_s": sum(plain.durations), "traced_run_s": sum(traced.durations),
                          "spans_per_pass": len(ops) + 1}
        attempted += 3 * len(ops)
        for p in (checked, plain, traced):
            failures += p.failures
            problems += p.problems
    metrics = spans.layer_metrics(tracer.spans)
    cost = span_cost()
    print(f"traced seed {seed}: a checked, an untraced and a traced pass of each workload; "
          f"one span costs {1e6 * cost:.2f} us")
    for name, o in overhead.items():
        o["span_cost_s"] = o["spans_per_pass"] * cost
        print(f"  tracing overhead on {name}: run_s {o['untraced_run_s']:.4f} s untraced, "
              f"{o['traced_run_s']:.4f} s traced ({100 * (o['traced_run_s'] / o['untraced_run_s'] - 1):+.1f}%); "
              f"{o['spans_per_pass']} spans cost {1000 * o['span_cost_s']:.3f} ms "
              f"({100 * o['span_cost_s'] / o['untraced_run_s']:.3f}%)")
    for key, metric in metrics.items():
        print(f"  {key:34s} {metric['value']:14.6g} {metric['unit']}")
    for message in problems:
        print(f"  CHECK FAILED: {message}")
    write(f"trace-{seed}.json", {"seed": seed, "overhead": overhead, "metrics": metrics,
                                 "spans": tracer.spans})
    return {"correct": not problems, "attempted": attempted, "failed": len(failures), "metrics": metrics}


def span_cost(n=20_000):
    """Seconds that opening and closing one span adds to an operation."""
    tracer = spans.Tracer()
    start = perf_counter()
    for i in range(n):
        with tracer.span("bench.empty", i):
            pass
    return (perf_counter() - start) / n


def cleanup(w):
    work = getattr(w, "work", None)
    if work is not None:
        shutil.rmtree(work, ignore_errors=True)


def report(name, seed, n_passes, n, failures, problems, values, drift, setups):
    counts = {}
    for f in failures:
        counts[f] = counts.get(f, 0) + 1
    kept = ", ".join(f"{k} x{v}" for k, v in counts.items()) or "none"
    print(f"{name} seed {seed}: {n_passes} pass(es) of {n} operations; "
          f"attempted {n * n_passes}, failed {len(failures)} ({kept})")
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "run_s": "a pass, each operation at its best over passes",
        "op_p50_ms": "median operation, each at its best over passes",
        "op_tail_ms": f"p{tail_percentile(n):.1f}, {TAIL_BEYOND} operations beyond it",
        "peak_rss_mb": "largest CLI process" if name == "cli" else "this process",
    }
    for key, value in values.items():
        print(f"  {key:12s} {value:12.6g} {UNITS[key]:3s} ({notes[key]})")
    print(f"  reference loop {drift:.4f} s (machine drift; not a metric)")
    for message in problems:
        print(f"  CHECK FAILED: {message}")


def write(filename, data):
    OUT.mkdir(exist_ok=True)
    (OUT / filename).write_text(json.dumps(data, default=repr) + "\n", encoding="utf-8")
