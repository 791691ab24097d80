"""Two sets of benchmark runs of the same commit, and whether they agree.

    python3 perfbench/compare.py --runs 10 --first-seed 1

Runs ``run.py`` once per seed and workload, one run at a time: set 1
takes seeds first..first+runs-1 and set 2 the next ``runs`` seeds, every
workload of BENCHMARK.json in a set before the next set starts.  For each
workload and end-to-end metric it prints each set's median and quartiles
(``statistics.quantiles(n=4)``), the spread (q3 - q1) / median, and
whether the sets agree within the metric's bound from BENCHMARK.json:
both spreads within the bound, the two medians apart by no more than the
bound, the same share of failed operations in both sets, and correct
outputs in every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True, cwd=ROOT).stdout
    return json.loads(out.splitlines()[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    results = {}
    seed = args.first_seed
    for s in range(2):
        for w in names:
            for k in range(args.runs):
                result = run_once(w, seed + k, args.seconds)
                results.setdefault(w, [[], []])[s].append(result)
                print(f"set {s + 1} {w} seed {seed + k}: "
                      + " ".join(f"{m}={v['value']:.5g}" for m, v in result["metrics"].items()),
                      file=sys.stderr, flush=True)
        seed += args.runs

    agree = True
    print(f"{'workload':10s} {'metric':12s} {'bound':>6s}  "
          + "  ".join(f"set {s + 1}: median [q1, q3] spread" for s in range(2)))
    for w in names:
        sets = results[w]
        shares = {Fraction(r["failed"], r["attempted"]) for runs in sets for r in runs}
        correct = all(r["correct"] for runs in sets for r in runs)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summary([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            cells = "  ".join(f"{st['median']:.5g} [{st['q1']:.5g}, {st['q3']:.5g}] {st['spread']:.3f}"
                              for st in stats)
            change = stats[1]["median"] / stats[0]["median"] - 1
            ok = all(st["spread"] <= bound for st in stats) and abs(change) <= bound
            steady = all(st["spread"] < bound / 3 for st in stats)
            verdict = [f"change {change:+.3f}", "agree" if ok else "DISAGREE"]
            if not steady:
                verdict.append("(spread above a third of the bound)")
            agree = agree and ok
            print(f"{w:10s} {name:12s} {bound:6.2f}  {cells}  {' '.join(verdict)}")
        same_share = len(shares) == 1
        agree = agree and same_share and correct
        print(f"{w:10s} failed share {'the same in every run' if same_share else 'DIFFERS'}: "
              f"{sorted(shares)}; outputs {'correct' if correct else 'INCORRECT'} in every run")
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"compare-{args.first_seed}.json").write_text(json.dumps(results) + "\n")
    print("the sets agree" if agree else "the sets DO NOT agree")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
