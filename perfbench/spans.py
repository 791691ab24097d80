"""In-memory spans around the benchmark's calls into obskit's layers.

A span records its name (``layer.function``), start, end, the id of the
span open around it and the id of the operation it belongs to, plus any
work counts the caller attaches (bytes, states, steps, cells...).  Spans
stay in memory and are written out when the run ends.  ``NoTracer`` has
the same interface and records nothing.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, op=None, **work):
        record = {"id": len(self.spans), "parent": self._open[-1] if self._open else None,
                  "op": op, "name": name, "start": perf_counter(), "end": None, **work}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._open.pop()

    def call(self, name, fn, *args, op=None, **work):
        with self.span(name, op, **work):
            return fn(*args)


class NoTracer:
    @contextmanager
    def span(self, name, op=None, **work):
        yield {}

    def call(self, name, fn, *args, op=None, **work):
        return fn(*args)


def self_times(spans):
    """Each span's duration minus the part its child spans cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _rate(key, names, scale=1.0):
    def metric(spans, own):
        chosen = [s for s in spans if s["name"] in names]
        busy = sum(own[s["id"]] for s in chosen)
        return sum(s.get(key, 0) for s in chosen) * scale / busy
    return metric


def _busy(names):
    def metric(spans, own):
        return sum(own[s["id"]] for s in spans if s["name"] in names)
    return metric


def _median_ms(names):
    def metric(spans, own):
        return 1000 * statistics.median(own[s["id"]] for s in spans if s["name"] in names)
    return metric


def _last_ms(names):
    def metric(spans, own):
        return 1000 * [own[s["id"]] for s in spans if s["name"] in names][-1]
    return metric


def _labelled_ms(label):
    def metric(spans, own):
        (value,) = [own[s["id"]] for s in spans if s.get("label") == label]
        return 1000 * value
    return metric


def _import_ms(spans, own):
    return 1000 * statistics.median(s["import_s"] for s in spans if s["name"] == "cli.import")


PARSE = {"documents.parse_observer", "documents.parse_environment"}
CONSTRUCT = {"core.Observer", "core.Environment", "core.CoupledSystem"}
REACH = {"core.reachable_joints", "core.validate_minimal"}
EMBED = {"ca.embed", "ca.run_embedded"}
RENDER = {"ca.render_text", "ca.pbm_bytes"}
LEDGER = {"composition.record_fact", "composition.facts_relative_to"}
SUBCOMMANDS = ("simulate", "equiv", "complexity", "minimize", "adapt", "hit", "ca")

# name -> (unit, better, how it is computed from the spans)
LAYER_METRICS = {
    "documents.parse_s": ("s", "lower", _busy(PARSE)),
    "documents.serialize_s": ("s", "lower", _busy({"documents.serialize_observer"})),
    "documents.parse_mb_per_s": ("MB/s", "higher", _rate("bytes", PARSE, 1e-6)),
    "core.construct_s": ("s", "lower", _busy(CONSTRUCT)),
    "core.loop_s": ("s", "lower", _busy({"core.run"})),
    "core.reach_s": ("s", "lower", _busy(REACH)),
    "core.loop_steps_per_s": ("steps/s", "higher", _rate("steps", {"core.run"})),
    "morphism.minimize_s": ("s", "lower", _busy({"morphism.minimize"})),
    "morphism.iso_s": ("s", "lower", _busy({"morphism.find_isomorphism"})),
    "morphism.partition_s": ("s", "lower", _busy({"morphism.equivalence_partition"})),
    "morphism.iso_p50_ms": ("ms", "lower", _median_ms({"morphism.find_isomorphism"})),
    "morphism.iso_adversarial_ms": ("ms", "lower", _labelled_ms("C8 vs C4+C4")),
    "morphism.minimize_states_per_s": ("states/s", "higher", _rate("states", {"morphism.minimize"})),
    "metrics.complexity_s": ("s", "lower", _busy({"metrics.complexity"})),
    "metrics.adapt_s": ("s", "lower", _busy({"metrics.adaptation_time"})),
    "metrics.hit_s": ("s", "lower", _busy({"metrics.expected_hitting_time"})),
    "metrics.hit_p50_ms": ("ms", "lower", _median_ms({"metrics.expected_hitting_time"})),
    "metrics.adapt_steps_per_s": ("steps/s", "higher", _rate("steps", {"metrics.adaptation_time"})),
    "ca.evolve_s": ("s", "lower", _busy({"ca.ca_evolution"})),
    "ca.embed_s": ("s", "lower", _busy(EMBED)),
    "ca.render_s": ("s", "lower", _busy(RENDER)),
    "ca.evolve_cells_per_s": ("cells/s", "higher", _rate("cells", {"ca.ca_evolution"})),
    "ca.embed_cells_per_s": ("cells/s", "higher", _rate("cells", EMBED)),
    "ca.render_mb_per_s": ("MB/s", "higher", _rate("bytes", RENDER, 1e-6)),
    "composition.stack_s": ("s", "lower", _busy({"composition.stack"})),
    "composition.stack_last_ms": ("ms", "lower", _last_ms({"composition.stack"})),
    "composition.ledger_s": ("s", "lower", _busy(LEDGER)),
    "composition.ledger_entries_per_s": ("entries/s", "higher", _rate("entries", LEDGER)),
    "cli.import_ms": ("ms", "lower", _import_ms),
    **{f"cli.{sub}_p50_ms": ("ms", "lower", _median_ms({f"cli.{sub}"})) for sub in SUBCOMMANDS},
}


def layer_metrics(spans):
    own = self_times(spans)
    return {name: {"value": fn(spans, own), "unit": unit}
            for name, (unit, _, fn) in LAYER_METRICS.items()}
