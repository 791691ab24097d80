"""The four workloads: inputs, set-up, and the fixed batch of operations.

Each workload is built from a seed.  ``setup(tr)`` imports obskit and
turns the generated inputs into program objects; ``ops()`` returns the
operations of one pass.  An operation is one call into a public function
of obskit (or, for ``cli``, one ``python -m obskit.cli`` process) plus a
check of its result against ``oracles``.  Operations of a pass may read
earlier results of the same pass from ``slot``.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import oracles
from oracles import require

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Op:
    name: str                 # the span name, "layer.function"
    call: object              # call(slot) -> result
    check: object             # check(result, slot); raises oracles.CheckError
    keep: str | None = None   # store the result as slot[keep]
    work: dict = field(default_factory=dict)
    expect: str | None = None  # the exception a kept failure raises today
    digest: object = None     # digest(result) -> bytes, when pickling all of it is too dear


def plain(obs):
    """An obskit Observer as the plain dict the oracles read."""
    return inputs.machine(obs.states, obs.inputs, obs.outputs, obs.transition, obs.output_map)


def build_observer(tr, m, boundary=""):
    from obskit.core import Observer

    return tr.call("core.Observer", Observer, tuple(m["states"]), tuple(m["inputs"]),
                   tuple(m["outputs"]), m["transitions"], m["output_map"], boundary)


def build_environment(tr, e):
    from obskit.core import Environment

    return tr.call("core.Environment", Environment, tuple(e["states"]), tuple(e["actions"]),
                   e["transitions"], e["observation"])


def check_same_machine(obs, m):
    require(plain(obs) == inputs.machine(m["states"], m["inputs"], m["outputs"],
                                         m["transitions"], m["output_map"]),
            "parsed observer differs from its document")


def morphism_maps(morphism):
    return morphism.state_map, morphism.input_map, morphism.output_map


# -- structure ---------------------------------------------------------------


class Structure:
    """Reduce, compare and serialize a catalogue; partition a corpus."""

    def __init__(self, seed):
        rng = random.Random(seed)
        self.catalogue = []  # (kind, a, b, reference for the comparison)
        for m, ny, nz in ((40, 2, 2), (200, 3, 2), (800, 4, 3)):
            base = inputs.minimal_machine(rng, m, ny, nz)
            self.catalogue.append(("planted", inputs.planted(rng, base, 4),
                                   inputs.relabel(rng, base, "r"), base))
        for n, ny, nz in ((50, 2, 2), (300, 3, 2), (800, 4, 3)):
            a = inputs.random_machine(rng, n, ny, nz, unequal_outputs=True)
            self.catalogue.append(("twin", a, inputs.relabel(rng, a, "r"), a))
        for m, ny, nz in ((100, 2, 2), (400, 3, 2)):
            base = inputs.minimal_machine(rng, m, ny, nz)
            self.catalogue.append(("near", base, inputs.near_miss(rng, inputs.relabel(rng, base, "r")),
                                   base))
        self.docs = [(inputs.document(a), inputs.document(b)) for _, a, b, _ in self.catalogue]
        self.pairs = []
        for i in range(16):
            sizes = small_sizes(i)
            a = inputs.random_machine(rng, *sizes)
            b = (inputs.relabel(rng, a, f"p{i}") if i % 2 == 0
                 else inputs.random_machine(rng, *sizes, prefix="w"))
            self.pairs.append((a, b))
        self.corpus = []
        for i in range(250):
            a = inputs.random_machine(rng, *small_sizes(i), prefix=f"c{i}_")
            self.corpus += [a] + [inputs.relabel(rng, a, f"c{i}r{k}_") for k in range(3)]
        rng.shuffle(self.corpus)
        # fixed inputs, the same for every seed
        self.adversarial = (inputs.cycles([8], "a"), inputs.cycles([4, 4], "b"))
        deep = inputs.cycles([1200], "d")
        self.deep = (deep, inputs.relabel(random.Random(0), deep, "e"))

    def setup(self, tr):
        import obskit.documents as documents

        # the catalogue is loaded once, as a program that reads its documents would; passes parse it again
        self.parsed = [tuple(tr.call("documents.parse_observer", documents.parse_observer, d,
                                     bytes=len(d)) for d in pair) for pair in self.docs]
        self.pair_objs = [(build_observer(tr, a), build_observer(tr, b)) for a, b in self.pairs]
        self.corpus_objs = [build_observer(tr, m) for m in self.corpus]
        self.adversarial_objs = tuple(build_observer(tr, m) for m in self.adversarial)
        self.deep_objs = tuple(build_observer(tr, m) for m in self.deep)

    def reset(self):
        pass

    def ops(self):
        from obskit.documents import parse_observer, serialize_observer
        from obskit.metrics import complexity
        from obskit.morphism import equivalence_partition, find_isomorphism, minimize

        out = []
        for i, ((kind, a, b, ref), (da, db)) in enumerate(zip(self.catalogue, self.docs)):
            n = len(a["states"])
            out += [
                Op("documents.parse_observer", lambda s, d=da: parse_observer(d),
                   lambda r, s, m=a: check_same_machine(r, m), keep=f"A{i}", work={"bytes": len(da)}),
                Op("documents.parse_observer", lambda s, d=db: parse_observer(d),
                   lambda r, s, m=b: check_same_machine(r, m), keep=f"B{i}", work={"bytes": len(db)}),
                Op("metrics.complexity", lambda s, i=i: complexity(s[f"A{i}"]),
                   lambda r, s, m=a, kind=kind, ref=ref: check_complexity(r, m, kind, ref),
                   keep=f"CA{i}", work={"states": n}),
                Op("metrics.complexity", lambda s, i=i: complexity(s[f"B{i}"]),
                   lambda r, s, m=b, kind=kind, i=i: check_complexity_twin(r, m, kind, s[f"CA{i}"]),
                   work={"states": len(b["states"])}),
                Op("morphism.minimize", lambda s, i=i: minimize(s[f"A{i}"]),
                   lambda r, s, m=a: check_minimize(r, m), keep=f"R{i}", work={"states": n}),
                Op("morphism.find_isomorphism",
                   lambda s, i=i, kind=kind: find_isomorphism(
                       s[f"R{i}"][0] if kind == "planted" else s[f"A{i}"], s[f"B{i}"]),
                   lambda r, s, i=i, kind=kind, b=b, ref=ref: check_catalogue_iso(r, s, i, kind, b, ref),
                   work={"states": len(b["states"])}),
                Op("documents.serialize_observer", lambda s, i=i: serialize_observer(s[f"R{i}"][0]),
                   lambda r, s, i=i: check_serialized(r, s[f"R{i}"][0])),
            ]
        for (a, b), (oa, ob) in zip(self.pairs, self.pair_objs):
            out.append(Op("morphism.find_isomorphism", lambda s, oa=oa, ob=ob: find_isomorphism(oa, ob),
                          lambda r, s, a=a, b=b: check_least_iso(r, a, b),
                          work={"states": len(a["states"])}))
        out.append(Op("morphism.equivalence_partition",
                      lambda s: equivalence_partition(self.corpus_objs),
                      lambda r, s: check_partition(r, self.corpus)))
        out.append(Op("morphism.find_isomorphism",
                      lambda s: find_isomorphism(*self.adversarial_objs),
                      lambda r, s: check_cycles_iso(r, *self.adversarial),
                      work={"states": 8, "label": "C8 vs C4+C4"}))
        out.append(Op("morphism.find_isomorphism",
                      lambda s: find_isomorphism(*self.deep_objs),
                      lambda r, s: check_cycles_iso(r, *self.deep),
                      work={"states": 1200, "label": "C1200 vs relabeled C1200"},
                      expect="RecursionError"))
        return out


def small_sizes(i):
    """(|X|, |Y|, |Z|) of the i-th small machine: a fixed mix of 3..5, 2..3, 2..3.

    The seed picks the tables, not the mix of sizes, so the amount of work
    does not drift with the seed.
    """
    return 3 + i % 3, 2 + i // 3 % 2, 2 + i // 6 % 2


def check_complexity(report, m, kind, ref):
    import math

    sizes = oracles.reduced_sizes(m)
    if kind == "planted":
        require(sizes == (len(ref["states"]), len(ref["inputs"]), len(ref["outputs"])),
                "oracle reduced sizes differ from the planted base")
    require(report.reduced_sizes == sizes, f"reduced sizes {report.reduced_sizes} != {sizes}")
    raw = math.log(len(m["states"]) * len(m["inputs"]) * len(m["outputs"]))
    kept = math.log(sizes[0] * sizes[1] * sizes[2])
    require(math.isclose(report.raw_log, raw, rel_tol=1e-12), "raw log-capacity is wrong")
    require(math.isclose(report.complexity, kept, rel_tol=1e-12), "complexity is wrong")
    require(math.isclose(report.redundancy, raw - kept, rel_tol=1e-12, abs_tol=1e-12),
            "redundancy is wrong")


def check_complexity_twin(report, m, kind, first):
    check_complexity(report, m, "twin", None)
    if kind == "twin":
        require(report == first, "relabeled twins got different complexity reports")
    elif kind == "planted":
        require(report.complexity == first.complexity,
                "the planted machine and its base differ in complexity")


def check_minimize(result, m):
    reduced, partition, quotient = result
    block = oracles.moore_blocks(m)
    groups = {}
    for x in m["states"]:
        groups.setdefault(block[x], []).append(x)
    require(sorted(map(sorted, partition.classes)) == sorted(map(sorted, groups.values())),
            "behavioural partition differs from Moore refinement")
    r = plain(reduced)
    require((len(r["states"]), len(r["inputs"]), len(r["outputs"])) == oracles.reduced_sizes(m),
            "reduced sizes differ from Moore refinement")
    require(len(set(oracles.moore_blocks(r).values())) == len(r["states"]),
            "the reduced machine is not minimal")
    sm, im, om = morphism_maps(quotient)
    require(all(sm[t] == r["transitions"][(sm[x], im[y])] for (x, y), t in m["transitions"].items()),
            "quotient map does not commute with the transitions")
    require(all(om[z] == r["output_map"][sm[x]] for x, z in m["output_map"].items()),
            "quotient map does not commute with the outputs")


def check_catalogue_iso(result, slot, i, kind, b, ref):
    left = plain(slot[f"R{i}"][0] if kind == "planted" else slot[f"A{i}"])
    if kind == "near":
        exists = oracles.iso_with_minimal(ref, b)
    else:
        exists = True  # a relabeled copy, or the quotient of a planted copy
    require((result is not None) == exists, f"isomorphism {'missed' if exists else 'invented'}")
    if result is not None:
        require(oracles.is_morphism(left, b, *morphism_maps(result)), "returned maps are no isomorphism")


def check_serialized(text, reduced):
    from obskit.documents import parse_observer

    doc = json.loads(text)
    require(text == json.dumps(doc, sort_keys=True, indent=2) + "\n", "document is not canonical")
    require(doc["states"] == list(reduced.states) and doc["inputs"] == list(reduced.inputs)
            and doc["outputs"] == list(reduced.outputs), "document sets differ")
    again = parse_observer(text)
    require(again == reduced, "parse(serialize(o)) does not give o back")


def check_least_iso(result, a, b):
    want = oracles.brute_force_iso(a, b)
    if want is None:
        require(result is None, "isomorphism invented")
    else:
        require(result is not None and morphism_maps(result) == want,
                "not the lexicographically least isomorphism")


def check_partition(groups, corpus):
    by_form = {}
    for i, m in enumerate(corpus):
        by_form.setdefault(oracles.canonical_form(m), []).append(i)
    want = sorted(by_form.values(), key=lambda g: g[0])
    require(groups == want, "equivalence classes differ from the canonical-form classes")


def check_cycles_iso(result, a, b):
    if oracles.cycle_lengths(a) != oracles.cycle_lengths(b):
        require(result is None, "isomorphism invented between different cycle structures")
    else:
        require(result is not None, "isomorphism missed between relabeled cycles")
        require(oracles.is_morphism(a, b, *morphism_maps(result)), "returned maps are no isomorphism")


# -- dynamics ----------------------------------------------------------------


class Dynamics:
    """Closed loops, hitting times, a stack tower and a fact ledger."""

    TOWER = 300
    LEDGER = 3000
    BATCH = 50  # record_fact calls per operation
    READS = 60

    def __init__(self, seed):
        rng = random.Random(seed)
        self.thermostat = (inputs.THERMOSTAT, inputs.FLIP_ROOM)
        self.systems = []
        for i in range(8):
            # one size for all, so the eight runs cost alike and op_tail_ms sits among them
            m = inputs.random_machine(rng, 300, 3, 2, prefix=f"x{i}_")
            e = inputs.random_environment(rng, m, 200, prefix=f"e{i}_")
            starts = [(rng.choice(m["states"]), rng.choice(e["states"])) for _ in range(16)]
            goals = [("x", rng.choice(m["states"])) if k % 2 else ("s", rng.choice(e["states"]))
                     for k in range(8)]
            self.systems.append((m, e, starts, goals))
        self.chains = []
        for n in (200, 400, 800):
            self.chains.append((inputs.dense_chain(rng, n), rng.randrange(n), [rng.randrange(n)]))
            self.chains.append((inputs.banded_chain(rng, n, 3), rng.randrange(n),
                                rng.sample(range(n), 2)))
        self.trap = inputs.chain_with_closed_trap(300)  # fixed: the same for every seed
        self.lower = inputs.random_machine(rng, 3, 2, 2, prefix="l")
        self.uppers = []
        for i in range(self.TOWER):
            upper = inputs.random_machine(rng, rng.randint(2, 3), 2, 2, prefix=f"u{i}_")
            lift = dict(zip(self.lower["outputs"], rng.sample(upper["inputs"], 2)))
            self.uppers.append((upper, lift))
        self.facts = []
        steps = {}
        for _ in range(self.LEDGER):
            who = f"o{rng.randrange(5)}"
            steps[who] = steps.get(who, 0) + rng.randrange(3)
            self.facts.append((who, steps[who], f"y{rng.randrange(4)}", f"x{rng.randrange(6)}"))
        self.reads = [(f"o{rng.randrange(5)}", rng.randrange(max(steps.values()) + 1))
                      for _ in range(self.READS)]

    def setup(self, tr):
        from obskit.composition import Wiring
        from obskit.core import CoupledSystem

        def system(m, e):
            return tr.call("core.CoupledSystem", CoupledSystem, build_observer(tr, m),
                           build_environment(tr, e))

        self.thermostat_obj = system(*self.thermostat)
        self.system_objs = [system(m, e) for m, e, _, _ in self.systems]
        self.goal_fns = [[goal_predicate(g) for g in goals] for _, _, _, goals in self.systems]
        self.lower_obj = build_observer(tr, self.lower)
        self.upper_objs = [(build_observer(tr, u), Wiring(lift)) for u, lift in self.uppers]

    def reset(self):
        from obskit.composition import default_registry

        default_registry().clear()

    def ops(self):
        from obskit.composition import FactLedger, facts_relative_to, stack
        from obskit.core import validate_minimal
        from obskit.metrics import adaptation_time, expected_hitting_time

        th_obs, th_env = self.thermostat
        out = [Op("core.run", lambda s: self.thermostat_obj.run(("OFF", "Cold"), 200_000),
                  lambda r, s: check_trace(r, th_obs, th_env, ("OFF", "Cold"), 200_000),
                  work={"steps": 200_000})]
        for (m, e, starts, goals), system, goal_fns in zip(self.systems, self.system_objs, self.goal_fns):
            out.append(Op("core.run", lambda s, sy=system, j=starts[0]: sy.run(j, 5000),
                          lambda r, s, m=m, e=e, j=starts[0]: check_trace(r, m, e, j, 5000),
                          work={"steps": 5000}))
            for k, joint in enumerate(starts[:8]):
                walked = oracles.settle(m, e, joint)[3]
                out.append(Op("metrics.adaptation_time",
                              lambda s, sy=system, j=joint: adaptation_time(sy, j),
                              lambda r, s, m=m, e=e, j=joint: check_settle(r, m, e, j, None),
                              work={"steps": walked}))
                goal, fn = goals[k], goal_fns[k]
                walked = oracles.settle(m, e, joint, goal_predicate(goal))[3]
                out.append(Op("metrics.adaptation_time",
                              lambda s, sy=system, j=joint, fn=fn: adaptation_time(sy, j, goal=fn),
                              lambda r, s, m=m, e=e, j=joint, g=goal: check_settle(r, m, e, j, g),
                              work={"steps": walked}))
            out.append(Op("core.reachable_joints", lambda s, sy=system, j=starts: sy.reachable_joints(j),
                          lambda r, s, m=m, e=e, j=starts: require(
                              r == oracles.reachable_joints(m, e, j), "reachable joint states differ")))
            out.append(Op("core.validate_minimal", lambda s, sy=system, j=starts: validate_minimal(sy, j),
                          lambda r, s, m=m, e=e, j=starts: require(
                              r.conditions() == oracles.minimality(m, e, j), "minimality verdicts differ")))
        for rows, start, goal in self.chains:
            out.append(Op("metrics.expected_hitting_time",
                          lambda s, p=rows, a=start, g=goal: expected_hitting_time(p, a, g),
                          lambda r, s, p=rows, a=start, g=goal: check_hit(r, p, a, g)))
        out.append(Op("metrics.expected_hitting_time",
                      lambda s: expected_hitting_time(self.trap, 0, [1]),
                      lambda r, s: check_hit(r, self.trap, 0, [1]), expect="NumericalError"))
        for k, (upper_obj, wiring) in enumerate(self.upper_objs):
            upper, lift = self.uppers[k]
            out.append(Op("composition.stack",
                          lambda s, u=upper_obj, w=wiring: stack(self.lower_obj, u, w),
                          lambda r, s, u=upper, lift=lift: check_stack(r, self.lower, u, lift)))
        out.append(Op("composition.FactLedger", lambda s: FactLedger(),
                      lambda r, s: require(r.entries == (), "a new ledger is not empty"), keep="ledger"))
        for k in range(0, self.LEDGER, self.BATCH):
            batch = self.facts[k:k + self.BATCH]
            out.append(Op("composition.record_fact", lambda s, b=batch: record_facts(s["ledger"], b),
                          lambda r, s, k=k: check_ledger(r, self.facts[:k + self.BATCH], k),
                          keep="ledger", work={"entries": len(batch)}, digest=ledger_digest))
        for who, step in self.reads:
            want = tuple(f for f in self.facts if f[0] == who and f[1] <= step)
            out.append(Op("composition.facts_relative_to",
                          lambda s, w=who, t=step: facts_relative_to(s["ledger"], w, t),
                          lambda r, s, want=want: require(
                              tuple((e.observer_id, e.step, e.received, e.state) for e in r) == want,
                              "facts relative to an observer differ"),
                          work={"entries": len(want)}))
        return out


def goal_predicate(goal):
    side, value = goal
    if side == "x":
        return lambda joint: joint[0] == value
    return lambda joint: joint[1] == value


def check_trace(trace, obs, env, joint, horizon):
    require(len(trace) == horizon, "trace length differs from the horizon")
    for r, want in zip(trace, oracles.simulate(obs, env, joint, horizon)):
        require((r.t, r.y, r.x, r.z, r.s) == want, "trace differs from the loop simulated from the tables")


def check_settle(result, obs, env, joint, goal):
    kind, steps, period, _ = oracles.settle(obs, env, joint, goal and goal_predicate(goal))
    require((result.kind, result.steps, result.cycle_period) == (kind, steps, period),
            f"adaptation {result} != {(kind, steps, period)}")


def check_hit(value, rows, start, goal):
    import math

    want = oracles.hitting_time(rows, start, goal)
    require(math.isclose(value, want, rel_tol=1e-8), f"hitting time {value} != {want}")


def check_stack(composite, lower, upper, lift):
    transitions, output_map = oracles.stack_tables(lower, upper, lift)
    require(composite.transition == transitions and composite.output_map == output_map,
            "stacked tables differ from the product construction")


def record_facts(ledger, facts):
    from obskit.composition import record_fact

    for fact in facts:
        ledger = record_fact(ledger, *fact)
    return ledger


def check_ledger(ledger, facts, first_new):
    # each operation is checked for the entries it appends; the reads check the rest
    require(len(ledger.entries) == len(facts)
            and [(e.observer_id, e.step, e.received, e.state) for e in ledger.entries[first_new:]]
            == facts[first_new:], "ledger entries differ from the recorded facts")


def ledger_digest(ledger):
    return repr([(e.observer_id, e.step, e.received, e.state) for e in ledger.entries[-50:]]
                + [len(ledger.entries)]).encode()


# -- lattice -----------------------------------------------------------------


class Lattice:
    """Bare and embedded elementary CA runs, rendered as text and P4."""

    STEPS = 256

    def __init__(self, seed):
        rng = random.Random(seed)
        self.bare = [(rule, inputs.random_bits(rng, width))
                     for rule in (30, 90, 110, 184) for width in (256, 1024)]
        self.embedded = []
        for rule in (110, 30, 184):
            for k in (2, 3, 4):
                for damping in (False, True):
                    width = 256 if damping else 512
                    self.embedded.append((rule, k, damping, inputs.random_bits(rng, width),
                                          rng.randrange(1, width - k - 1)))

    def setup(self, tr):
        from obskit import ca

        self.rules = {r: tr.call("ca.rule_table", ca.rule_table, r) for r in (30, 90, 110, 184)}
        self.systems = []
        for rule, k, damping, cells, start in self.embedded:
            make = ca.damping_observer if damping else ca.transparent_observer
            name = "ca.damping_observer" if damping else "ca.transparent_observer"
            observer = tr.call(name, make, self.rules[rule], k)
            self.systems.append(tr.call("ca.embed", ca.embed, self.rules[rule], cells, start, observer,
                                        cells=len(cells)))

    def reset(self):
        pass

    def ops(self):
        from obskit.ca import ca_evolution, pbm_bytes, render_text, run_embedded

        out = []
        steps = self.STEPS
        for i, (rule, cells) in enumerate(self.bare):
            out.append(Op("ca.ca_evolution", lambda s, c=cells, r=rule: ca_evolution(c, self.rules[r], steps),
                          lambda r, s, c=cells, n=rule: check_rows(r, oracles.eca_rows(c, n, steps)),
                          keep=f"D{i}", work={"cells": len(cells) * steps}))
        for j, ((rule, k, damping, cells, start), system) in enumerate(zip(self.embedded, self.systems)):
            out.append(Op("ca.run_embedded", lambda s, sy=system: run_embedded(sy, steps),
                          lambda r, s, e=self.embedded[j]: check_embedded(r, *e, steps),
                          keep=f"E{j}", work={"cells": len(cells) * steps}))
        diagrams = [(f"D{i}", len(cells), False) for i, (_, cells) in enumerate(self.bare)]
        diagrams += [(f"E{j}", len(e[3]), True) for j, e in enumerate(self.embedded)]
        for key, width, embedded in diagrams:
            rows_of = (lambda s, key=key: s[key][0]) if embedded else (lambda s, key=key: s[key])
            out.append(Op("ca.render_text", lambda s, f=rows_of: render_text(f(s)),
                          lambda r, s, f=rows_of: require(r == oracles.render(f(s)), "text rendering differs"),
                          work={"bytes": (width + 1) * (steps + 1) - 1}))
            out.append(Op("ca.pbm_bytes", lambda s, f=rows_of: pbm_bytes(f(s)),
                          lambda r, s, f=rows_of: require(oracles.decode_pbm(r) == [list(x) for x in f(s)],
                                                          "P4 image does not decode to the diagram"),
                          work={"bytes": (width + 7) // 8 * (steps + 1)}))
        return out


def check_rows(rows, want):
    require(len(rows) == len(want) and all(list(r) == w for r, w in zip(rows, want)),
            "rows differ from the fresh ECA run")


def check_embedded(result, rule, k, damping, cells, start, steps):
    rows, trace = result
    want = oracles.eca_rows(cells, rule, steps, (start, k) if damping else None)
    check_rows(rows, want)
    if damping:
        require(all(r[start] == 0 and r[start + k - 1] == 0 for r in rows[1:]),
                "damped boundary cells are not 0")
    require(len(trace) == steps, "trace length differs from the step count")
    for t, record in enumerate(trace):
        pre, row = want[t], want[t + 1]
        block = tuple(row[start:start + k])
        action = (0, 0) if damping else (block[0], block[-1])
        require((record.y, record.x, record.z, record.s)
                == ((pre[start - 1], pre[(start + k) % len(pre)]), block, action, tuple(row)),
                "embedded trace record differs")


# -- cli ---------------------------------------------------------------------


class Cli:
    """One short ``python -m obskit.cli`` process per operation."""

    PER_SUBCOMMAND = 6

    def __init__(self, seed):
        rng = random.Random(seed)
        self.seed = seed
        self.files = {}     # name -> text
        self.commands = []  # (subcommand, argv, expectation)

        def put(name, text):
            self.files[name] = text
            return name

        th = put("thermostat.json", inputs.document(inputs.THERMOSTAT, "controller"))
        room = put("room.json", inputs.environment_document(inputs.FLIP_ROOM))
        renamed = inputs.relabel(rng, inputs.THERMOSTAT, "t")
        put("renamed.json", inputs.document(renamed))

        systems = [(th, room, inputs.THERMOSTAT, inputs.FLIP_ROOM, ("OFF", "Cold"))]
        for i in range(3):
            m = inputs.random_machine(rng, rng.randint(20, 50), rng.randint(2, 3), rng.randint(2, 3),
                                      prefix=f"x{i}_")
            e = inputs.random_environment(rng, m, rng.randint(10, 30), prefix=f"e{i}_")
            systems.append((put(f"obs{i}.json", inputs.document(m)),
                            put(f"env{i}.json", inputs.environment_document(e)), m, e,
                            (rng.choice(m["states"]), rng.choice(e["states"]))))

        for k in range(self.PER_SUBCOMMAND):
            fo, fe, m, e, joint = systems[k % len(systems)]
            steps = rng.randint(100, 400)
            form = ("tsv", "jsonl")[k % 2]
            self.commands.append(("simulate", ["--observer", fo, "--env", fe, "--init", ",".join(joint),
                                               "--steps", str(steps), "--trace", form],
                                  ("simulate", m, e, joint, steps, form)))

        pairs = [("thermostat.json", "renamed.json", inputs.THERMOSTAT, renamed, None)]
        for i in range(2):
            a = inputs.random_machine(rng, rng.randint(10, 50), rng.randint(2, 3), rng.randint(2, 3),
                                      prefix=f"q{i}_", unequal_outputs=True)
            pairs.append((put(f"twin{i}a.json", inputs.document(a)), None, a, inputs.relabel(rng, a, f"v{i}"),
                          None))
        base = inputs.minimal_machine(rng, 30, 2, 2)
        pairs.append((put("near_a.json", inputs.document(base)), None, base,
                      inputs.near_miss(rng, inputs.relabel(rng, base, "n")), "minimal"))
        small = inputs.random_machine(rng, 4, 2, 2, prefix="s")
        pairs.append((put("small_a.json", inputs.document(small)), None, small,
                      inputs.random_machine(rng, 4, 2, 2, prefix="w"), "small"))
        a = inputs.minimal_machine(rng, 30, 2, 2, prefix="h")
        pairs.append((put("anchor_a.json", inputs.document(a)), None, a, inputs.relabel(rng, a, "k"), "anchor"))
        for i, (fa, fb, a, b, how) in enumerate(pairs):
            fb = fb or put(f"pair{i}b.json", inputs.document(b))
            argv = [fa, fb]
            image = None
            if how == "anchor":
                image = oracles.paired_states(a, b)[a["states"][0]]
                argv += ["--anchors", f"{a['states'][0]},{image}"]
            self.commands.append(("equiv", argv, ("equiv", a, b, how, image)))

        machines = [("redundant.json", inputs.machine(["a", "b"], ["tick"], ["z0"],
                                                      {("a", "tick"): "a", ("b", "tick"): "a"},
                                                      {"a": "z0", "b": "z0"}))]
        for i in range(3):
            base = inputs.minimal_machine(rng, rng.randint(8, 15), rng.randint(2, 3), 2, prefix=f"m{i}_")
            machines.append((f"planted{i}.json", inputs.planted(rng, base, 3)))
        for i in range(2):
            machines.append((f"random{i}.json", inputs.random_machine(rng, rng.randint(20, 50), 3, 3,
                                                                     prefix=f"r{i}_")))
        for k, (name, m) in enumerate(machines):
            put(name, inputs.document(m))
            argv = [name] + (["--bits"] if k % 2 else [])
            self.commands.append(("complexity", argv, ("complexity", m, k % 2 == 1)))
        for k, (name, m) in enumerate(machines):
            argv = [name] + (["-o", f"reduced{k}.json"] if k % 2 else [])
            self.commands.append(("minimize", argv, ("minimize", m, f"reduced{k}.json" if k % 2 else None)))

        for k in range(self.PER_SUBCOMMAND):
            fo, fe, m, e, joint = systems[k % len(systems)]
            argv = ["--observer", fo, "--env", fe, "--init", ",".join(joint)]
            goal = None
            if k >= len(systems):
                goal = ("x", rng.choice(m["states"])) if k % 2 else ("s", rng.choice(e["states"]))
                argv += ["--goal", f"{goal[0]}={goal[1]}"]
            self.commands.append(("adapt", argv, ("adapt", m, e, joint, goal)))

        chains = [("chain2.json", [[0.5, 0.5], [0.0, 1.0]], 0, [1], False)]
        for k, n in enumerate((20, 30, 40, 50)):
            rows = inputs.dense_chain(rng, n) if k % 2 else inputs.banded_chain(rng, n, 2)
            chains.append((f"chain{n}.json", rows, rng.randrange(n), rng.sample(range(n), 1 + k % 2), k == 1))
        chains.append(("split.json", [[0.0, 0.5, 0.5, 0.0], [0.0, 1.0, 0.0, 0.0],
                                      [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]], 0, [3], False))
        for name, rows, start, goal, wrapped in chains:
            put(name, json.dumps({"matrix": rows} if wrapped else rows))
            self.commands.append(("hit", ["--chain", name, "--start", str(start),
                                          "--goal", ",".join(map(str, goal))],
                                  ("hit", rows, start, goal)))

        runs = [(110, 31, 15, "single", None), (30, 256, 128, None, None), (90, 128, 64, "single", None),
                (184, 200, 100, None, None), (110, 64, 48, None, (1, False)), (30, 128, 64, None, (2, True))]
        for k, (rule, width, steps, init, block) in enumerate(runs):
            cells = inputs.single_bit(width) if init == "single" else inputs.random_bits(rng, width)
            argv = ["--rule", str(rule), "--width", str(width), "--steps", str(steps),
                    "--init", init or "".join(map(str, cells))]
            embed = None
            if block:
                width_k, damping = block
                start = rng.randrange(1, width - width_k - 1)
                doc = put(f"block{k}.json", json.dumps(block_document(rule, width_k, damping)))
                argv += ["--embed", doc, "--at", str(start)]
                embed = (start, width_k, damping)
            pbm = f"diagram{k}.pbm" if k % 2 == 0 else None
            if pbm:
                argv += ["--pbm", pbm]
            self.commands.append(("ca", argv, ("ca", rule, cells, steps, embed, pbm)))

    def setup(self, tr):
        self.work = ROOT / "perfbench" / "out" / f"cli-{self.seed}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        for name, text in self.files.items():
            (self.work / name).write_text(text, encoding="utf-8")
        self.max_rss_mb = 0.0

    def reset(self):
        pass

    def ops(self):
        return [Op(f"cli.{sub}", lambda s, sub=sub, argv=argv: self.invoke([sub] + argv),
                   lambda r, s, want=want: check_cli(r, want))
                for sub, argv, want in self.commands]

    def invoke(self, argv):
        """Run one CLI process to its end; returns (exit code, stdout, files written)."""
        with tempfile.TemporaryFile(dir=self.work) as out, tempfile.TemporaryFile(dir=self.work) as err:
            proc = subprocess.Popen([sys.executable, "-m", "obskit.cli", *argv], cwd=self.work,
                                    stdout=out, stderr=err, env=child_env())
            try:
                _, status, usage = os.wait4(proc.pid, 0)  # wait4 also gives the child's peak RSS
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.max_rss_mb = max(self.max_rss_mb, usage.ru_maxrss / 1024)
            out.seek(0)
            err.seek(0)
            written = {}
            for flag in ("-o", "--pbm"):
                if flag in argv:
                    path = self.work / argv[argv.index(flag) + 1]
                    written[flag] = path.read_bytes()
                    path.unlink()
            return proc.returncode, out.read().decode(), err.read().decode(), written


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def block_document(rule, k, damping):
    """An observer document owning k cells of a rule-``rule`` lattice."""
    from itertools import product

    codes = list(product((0, 1), repeat=k))
    name = {bits: "b" + "".join(map(str, bits)) for bits in codes}
    pairs = [f"p{l}{r}" for l, r in product((0, 1), repeat=2)]
    transitions = {}
    for bits in codes:
        for l, r in product((0, 1), repeat=2):
            padded = (l,) + bits + (r,)
            nxt = tuple((rule >> (4 * padded[i] + 2 * padded[i + 1] + padded[i + 2])) & 1 for i in range(k))
            transitions[f"{name[bits]},p{l}{r}"] = name[nxt]
    output_map = {name[bits]: "p00" if damping else f"p{bits[0]}{bits[-1]}" for bits in codes}
    return {"format_version": "1", "states": [name[b] for b in codes], "inputs": pairs, "outputs": pairs,
            "transitions": transitions, "output_map": output_map,
            "boundary": f"{'damping' if damping else 'transparent'} block of {k} cells"}


def check_cli(result, want):
    import math

    code, out, err, written = result
    kind = want[0]
    if kind == "simulate":
        _, m, e, joint, steps, form = want
        records = oracles.simulate(m, e, joint, steps)
        if form == "tsv":
            text = "t\ty\tx\tz\ts\n" + "".join("\t".join(map(str, r)) + "\n" for r in records)
        else:
            text = "".join(json.dumps(dict(zip("tyxzs", r))) + "\n" for r in records)
        require(code == 0 and out == text, "simulate output differs from the simulated loop")
    elif kind == "equiv":
        _, a, b, how, image = want
        if how == "small":
            exists = oracles.brute_force_iso(a, b) is not None
        elif how == "minimal":
            exists = oracles.iso_with_minimal(a, b)
        else:
            exists = True  # relabeled copies
        if not exists:
            require(code == 1 and out == "NOT-EQUIVALENT\n", "equiv invented an isomorphism")
            return
        lines = out.splitlines()
        require(code == 0 and lines[0] == "EQUIVALENT", "equiv missed an isomorphism")
        maps = [dict(p.split("->") for p in line.split(": ", 1)[1].split(" ")) for line in lines[1:4]]
        require(oracles.is_morphism(a, b, *maps), "equiv printed maps that are no isomorphism")
        if image is not None:
            require(maps[0][a["states"][0]] == image, "equiv did not keep the anchor")
        if len(a["states"]) <= 5:
            require(tuple(maps) == oracles.brute_force_iso(a, b), "not the least isomorphism")
    elif kind == "complexity":
        _, m, bits = want
        rx, ry, rz = oracles.reduced_sizes(m)
        kept = math.log(rx * ry * rz)
        lam = math.log(len(m["states"]) * len(m["inputs"]) * len(m["outputs"])) - kept
        scale, unit = (1 / math.log(2), "bits") if bits else (1.0, "nats")
        text = (f"C = {kept * scale:.4f} {unit}\nlambda = {lam * scale:.4f} {unit}\n"
                f"reduced: |X|={rx} |Y|={ry} |Z|={rz}\n")
        require(code == 0 and out == text, "complexity output differs")
    elif kind == "minimize":
        _, m, to_file = want
        text = written["-o"].decode() if to_file else out
        require(code == 0 and json.loads(text) == quotient_document(m), "minimized document differs")
        require(text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n",
                "minimized document is not canonical")
    elif kind == "adapt":
        _, m, e, joint, goal = want
        got = oracles.settle(m, e, joint, goal and goal_predicate(goal))
        dash = lambda v: "-" if v is None else v  # noqa: E731
        text = f"kind = {got[0]}\nsteps = {dash(got[1])}\ncycle_period = {dash(got[2])}\n"
        require(code == 0 and out == text, "adapt output differs")
    elif kind == "hit":
        _, rows, start, goal = want
        value = oracles.hitting_time(rows, start, goal)
        if math.isinf(value):
            require(code == 0 and out == "INF\n", "hit should print INF")
        else:
            require(code == 0 and math.isclose(float(out), value, rel_tol=1e-9), "hit value differs")
    elif kind == "ca":
        _, rule, cells, steps, embed, pbm = want
        rows = oracles.eca_rows(cells, rule, steps, embed[:2] if embed and embed[2] else None)
        require(code == 0 and out == oracles.render(rows) + "\n", "ca text differs from the fresh run")
        if pbm:
            require(oracles.decode_pbm(written["--pbm"]) == rows, "ca P4 image differs")


def quotient_document(m):
    """The minimized document: each block named by its earliest member."""
    block = oracles.moore_blocks(m)
    first = {}
    for x in m["states"]:
        first.setdefault(block[x], x)
    states = list(first.values())
    columns = {}
    for y in m["inputs"]:
        columns.setdefault(tuple(block[m["transitions"][(x, y)]] for x in m["states"]), y)
    inputs_ = list(columns.values())
    emitted = set(m["output_map"].values())
    return {
        "format_version": "1",
        "states": states,
        "inputs": inputs_,
        "outputs": [z for z in m["outputs"] if z in emitted],
        "transitions": {f"{x},{y}": first[block[m["transitions"][(x, y)]]] for x in states for y in inputs_},
        "output_map": {x: m["output_map"][x] for x in states},
        "boundary": "",
    }


WORKLOADS = {"structure": Structure, "dynamics": Dynamics, "lattice": Lattice, "cli": Cli}

