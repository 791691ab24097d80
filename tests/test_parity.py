"""CLI parity corpus: every subcommand's output, pinned by digest.

Each case runs ``cli.dispatch`` in process, from a scratch directory that
holds a copy of ``fixtures/`` and the documents this module generates from
seeded ``random.Random`` instances, so every path a message can show is
relative.  A case is pinned in ``tests/parity.json`` by its exit code and
the SHA-256 digests of its stdout, its stderr and each file it writes.
``hit`` on a chain of more than 64 states prints the result of a state
reduction in numpy, whose matrix products may round differently between
numpy builds; on a smaller chain, that of the same reduction in pure
Python, which adds in another order.  So its value is compared to 1e-9
relative, and the rest of its stdout by digest.

The digests are a contract.  They change only through

    PYTHONPATH=src python tests/test_parity.py --regenerate

and a change that regenerates them lists each changed case in CHANGES.md.
Usage errors (exit 2) are left out: their text is argparse's, which
differs between Python versions.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from obskit.cli import dispatch

from conftest import FIXTURES

PINNED = Path(__file__).resolve().parent / "parity.json"
HIT_TOLERANCE = 1e-9


# -- documents -----------------------------------------------------------------

def _names(rng: random.Random, prefix: str, n: int) -> list[str]:
    names = [f"{prefix}{i}" for i in range(n)]
    rng.shuffle(names)
    return names


def _observer_doc(rng: random.Random, boundary: str) -> dict:
    states = _names(rng, "x", rng.randint(1, 6))
    inputs, outputs = _names(rng, "y", rng.randint(1, 3)), _names(rng, "z", rng.randint(1, 3))
    targets = rng.sample(states, rng.randint(1, len(states)))  # few targets: more to merge
    return {"format_version": "1", "states": states, "inputs": inputs, "outputs": outputs,
            "transitions": {f"{x},{y}": rng.choice(targets) for x in states for y in inputs},
            "output_map": {x: rng.choice(outputs) for x in states}, "boundary": boundary}


def _relabeled_doc(rng: random.Random, doc: dict) -> dict:
    new = {}
    for field, prefix in (("states", "a"), ("inputs", "b"), ("outputs", "c")):
        names = _names(rng, prefix, len(doc[field]))
        new.update(zip(doc[field], names))
    out = {field: [new[v] for v in doc[field]] for field in ("states", "inputs", "outputs")}
    for order in out.values():
        rng.shuffle(order)
    pairs = (key.split(",") + [value] for key, value in doc["transitions"].items())
    return {"format_version": "1", **out, "boundary": doc["boundary"],
            "transitions": {f"{new[x]},{new[y]}": new[v] for x, y, v in pairs},
            "output_map": {new[x]: new[z] for x, z in doc["output_map"].items()}}


def _environment_doc(rng: random.Random, observer: dict) -> dict:
    states = _names(rng, "s", rng.randint(1, 4))
    actions = rng.sample(observer["outputs"], len(observer["outputs"])) + ["idle"] * rng.randint(0, 1)
    observation = {s: rng.choice(observer["inputs"]) for s in states}
    return {"format_version": "1", "env_states": states, "actions": actions,
            "observations": list(dict.fromkeys(observation.values())), "observation": observation,
            "env_transitions": {f"{s},{a}": rng.choice(states) for s in states for a in actions}}


def _chain(rng: random.Random) -> list[list[float]]:
    n, rows = rng.randint(2, 5), []
    for i in range(n):
        weights = [rng.choice((0, 0, 1, 2, 3)) for _ in range(n)]
        weights[i] += not any(weights)
        rows.append([w / sum(weights) for w in weights])
    return rows


def _without(doc: dict, field: str, key: str) -> dict:
    return {**doc, field: {k: v for k, v in doc[field].items() if k != key}}


def _with(doc: dict, field: str, key: str, value: str) -> dict:
    return {**doc, field: {**doc[field], key: value}}


def _corpus() -> tuple[dict[str, str], list[list[str]]]:
    """The generated documents, by file name, and every case's argv."""
    docs: dict[str, str] = {}
    cases: list[list[str]] = []
    observers, environments, chains = [], [], []
    for path in sorted(FIXTURES.glob("*.json")):
        raw = json.loads(path.read_text(encoding="utf-8"))
        name = f"fixtures/{path.name}"
        if isinstance(raw, list):
            chains.append((name, len(raw)))
        elif "env_states" in raw:
            environments.append((name, raw))
        else:
            observers.append((name, raw))

    # every fixture with every subcommand and flag that applies to it
    for name, doc in observers:
        cases += [["complexity", name], ["complexity", name, "--bits"],
                  ["minimize", name], ["minimize", name, "-o", "reduced.json"]]
        for other, odoc in observers:
            cases += [["equiv", name, other],
                      ["equiv", name, other, "--anchors", f"{doc['states'][0]},{odoc['states'][-1]}"]]
        for env, edoc in environments:
            loop = ["--observer", name, "--env", env, "--init", f"{doc['states'][0]},{edoc['env_states'][0]}"]
            cases += [["simulate", *loop, "--steps", "6"], ["simulate", *loop, "--steps", "6", "--trace", "jsonl"],
                      ["adapt", *loop], ["adapt", *loop, "--cap", "1"],
                      ["adapt", *loop, "--goal", f"x={doc['states'][-1]}"],
                      ["adapt", *loop, "--goal", f"s={edoc['env_states'][-1]}"],
                      ["adapt", *loop, "--goal", f"x={doc['states'][-1]},s={edoc['env_states'][-1]}"],
                      ["adapt", *loop, "--goal", f"x={doc['states'][-1]}", "--cap", "1"]]
        cases += [["ca", "--rule", "110", "--width", "15", "--steps", "10", "--init", "single",
                   "--embed", name, "--at", "2"]]
    for name, n in chains:
        cases += [["hit", "--chain", name, "--start", str(i), "--goal", str(j)]
                  for i in range(n) for j in range(n)]
        cases += [["hit", "--chain", name, "--start", "0", "--goal", ",".join(map(str, range(n)))]]
    for rule in (30, 90, 110, 184):
        cases += [["ca", "--rule", str(rule), "--width", "31", "--steps", "15", "--init", "single"]]
    cases += [["ca", "--rule", "110", "--width", "31", "--steps", "15", "--init", "single", "--pbm", "diagram.pbm"],
              ["ca", "--rule", "54", "--width", "8", "--steps", "4", "--init", "zero"],
              ["ca", "--rule", "150", "--width", "9", "--steps", "5", "--init", "100110101"],
              ["ca", "--rule", "110", "--width", "15", "--steps", "10", "--init", "single",
               "--embed", "fixtures/eca_transparent_k1.json", "--at", "2", "--pbm", "diagram.pbm"]]

    # seeded random documents
    for seed in range(30):
        rng = random.Random(seed)
        obs = _observer_doc(rng, f"random observer {seed}")
        env, twin, stranger = _environment_doc(rng, obs), _relabeled_doc(rng, obs), _observer_doc(rng, "")
        o, e, t, s, c = (f"r{seed}{kind}.json" for kind in ("obs", "env", "twin", "other", "chain"))
        docs[o], docs[e], docs[t], docs[s] = (json.dumps(d, indent=1) for d in (obs, env, twin, stranger))
        chain = _chain(rng)
        docs[c] = json.dumps(chain)
        x0, s0 = rng.choice(obs["states"]), rng.choice(env["env_states"])
        loop = ["--observer", o, "--env", e, "--init", f"{x0},{s0}"]
        goal = f"x={rng.choice(obs['states'])}"
        n = len(chain)
        bits = "".join(rng.choice("01") for _ in range(rng.randint(3, 24)))
        cases += [["complexity", o], ["complexity", o, "--bits"], ["minimize", o],
                  ["equiv", o, t], ["equiv", t, o], ["equiv", o, s],
                  ["equiv", o, t, "--anchors", f"{obs['states'][0]},{twin['states'][0]}"],
                  ["simulate", *loop, "--steps", str(rng.randint(0, 12))],
                  ["simulate", *loop, "--steps", "5", "--trace", "jsonl"],
                  ["adapt", *loop], ["adapt", *loop, "--goal", goal],
                  ["hit", "--chain", c, "--start", str(rng.randrange(n)),
                   "--goal", ",".join(map(str, rng.sample(range(n), rng.randint(1, 2))))],
                  ["ca", "--rule", str(rng.randrange(256)), "--width", str(len(bits)),
                   "--steps", str(rng.randint(0, 10)), "--init", bits]]
        if seed % 5 == 0:
            cases += [["minimize", o, "-o", "reduced.json"]]

    # error paths: exit 1 with a message on stderr
    thermo = json.loads((FIXTURES / "thermostat.json").read_text(encoding="utf-8"))
    flip = json.loads((FIXTURES / "flip_env.json").read_text(encoding="utf-8"))
    bad = {
        "non_total.json": json.dumps(_without(thermo, "transitions", "ON,Hot")),
        "no_output.json": json.dumps(_without(thermo, "output_map", "OFF")),
        "unknown_target.json": json.dumps(_with(thermo, "transitions", "ON,Hot", "NOPE")),
        "unknown_output.json": json.dumps(_with(thermo, "output_map", "OFF", "Blast")),
        "stray_key.json": json.dumps(_with(thermo, "transitions", "ON,Warm", "ON")),
        "duplicate.json": json.dumps({**thermo, "states": ["OFF", "ON", "OFF"]}),
        "comma.json": json.dumps({**thermo, "inputs": ["Cold", "Hot,Warm"]}),
        "version.json": json.dumps({**thermo, "format_version": "2"}),
        "malformed.json": '{"states": ["OFF", "ON"',
        "not_object.json": "[1, 2]",
        "env_unknown.json": json.dumps(_with(flip, "observation", "Hot", "Warm")),
        "env_non_total.json": json.dumps(_without(flip, "env_transitions", "Hot,HeaterOn")),
        "not_stochastic.json": "[[0.5, 0.4], [0.0, 1.0]]",
        "malformed_chain.json": "[[0.5, 0.5], [0.0,",
        "no_matrix.json": '{"rows": [[1.0]]}',
        "closed.json": "[[0.0, 0.5, 0.5], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]",
    }
    docs.update(bad)
    for name in list(bad)[:10]:
        cases += [["complexity", name], ["minimize", name], ["equiv", "fixtures/thermostat.json", name]]
    thermo_loop = ["--observer", "fixtures/thermostat.json", "--env", "fixtures/flip_env.json"]
    cases += [["simulate", *thermo_loop[:2], "--env", env, "--init", "OFF,Cold", "--steps", "2"]
              for env in ("env_unknown.json", "env_non_total.json", "fixtures/thermostat.json")]
    cases += [["hit", "--chain", chain, "--start", "0", "--goal", "1"]
              for chain in ("not_stochastic.json", "malformed_chain.json", "no_matrix.json", "closed.json",
                            "fixtures/thermostat.json", "missing.json")]
    cases += [["simulate", *thermo_loop, "--init", "NOPE,Cold", "--steps", "2"],
              ["simulate", *thermo_loop, "--init", "OFF,Warm", "--steps", "2"],
              ["simulate", *thermo_loop, "--init", "OFF", "--steps", "2"],
              ["simulate", *thermo_loop, "--init", "OFF,Cold", "--steps", "-1"],
              ["adapt", *thermo_loop, "--init", "OFF,Cold", "--goal", "q=ON"],
              ["adapt", *thermo_loop, "--init", "OFF,Cold", "--cap", "0"],
              ["equiv", "fixtures/thermostat.json", "fixtures/thermostat.json", "--anchors", "NOPE,OFF"],
              ["equiv", "fixtures/thermostat.json", "fixtures/thermostat.json", "--anchors", "OFF"],
              ["complexity", "missing.json"],
              ["hit", "--chain", "fixtures/chain2.json", "--start", "5", "--goal", "1"],
              ["hit", "--chain", "fixtures/chain2.json", "--start", "0", "--goal", "7"],
              ["hit", "--chain", "fixtures/chain2.json", "--start", "0", "--goal", "a"],
              ["hit", "--chain", "fixtures/chain2.json", "--start", "0", "--goal", ","],
              ["ca", "--rule", "110", "--width", "5", "--steps", "2", "--init", "0101"],
              ["ca", "--rule", "110", "--width", "5", "--steps", "2", "--init", "abc"],
              ["ca", "--rule", "256", "--width", "5", "--steps", "2", "--init", "single"],
              ["ca", "--rule", "110", "--width", "0", "--steps", "2", "--init", "zero"],
              ["ca", "--rule", "110", "--width", "5", "--steps", "-1", "--init", "zero"],
              ["ca", "--rule", "110", "--width", "15", "--steps", "2", "--init", "single",
               "--embed", "fixtures/eca_transparent_k1.json", "--at", "99"]]
    return docs, cases


DOCUMENTS, ARGVS = _corpus()
CASES = {" ".join(argv): argv for argv in ARGVS}


# -- running and pinning -----------------------------------------------------------

def _digest(data: str | bytes) -> str:
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def make_workspace(root: Path) -> Path:
    """Write ``fixtures/`` and the generated documents into ``root``."""
    shutil.copytree(FIXTURES, root / "fixtures")
    for name, text in DOCUMENTS.items():
        (root / name).write_text(text, encoding="utf-8")
    return root


def run_case(root: Path, argv: list[str]) -> dict:
    """One call of ``dispatch`` from ``root``, as its pinned record."""
    before = set(os.listdir(root))
    out, err, here = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(root)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = dispatch(list(argv))
    finally:
        os.chdir(here)
    stdout = out.getvalue()
    record = {"code": code, "stderr": _digest(err.getvalue())}
    if argv[0] == "hit" and code == 0:
        record["value"] = stdout.strip()
        stdout = stdout.replace(record["value"], "<value>")
    record["stdout"] = _digest(stdout)
    for name in sorted(set(os.listdir(root)) - before):
        record.setdefault("files", {})[name] = _digest((root / name).read_bytes())
        (root / name).unlink()
    return record


def _same_value(got: str, want: str) -> bool:
    """Equal text, or two finite numbers within the tolerance; ``INF`` must match as text."""
    try:
        numbers = float(got), float(want)
    except ValueError:
        return got == want
    return got == want or all(map(math.isfinite, numbers)) and math.isclose(*numbers, rel_tol=HIT_TOLERANCE)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory) -> Path:
    return make_workspace(tmp_path_factory.mktemp("parity"))


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(PINNED.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", list(CASES))
def test_cli_output_matches_its_pinned_digests(workspace, pinned, name):
    assert name in pinned, f"no digests pinned for {name!r}; see this module's docstring"
    got, want = run_case(workspace, CASES[name]), dict(pinned[name])
    if "value" in want:
        assert _same_value(got.pop("value", ""), want.pop("value")), (name, got)
    assert got == want


def test_every_pinned_case_is_still_run(pinned):
    assert sorted(set(pinned) - set(CASES)) == []


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        root = make_workspace(Path(scratch))
        records = {name: run_case(root, argv) for name, argv in CASES.items()}
    lines = (f"{json.dumps(name)}: {json.dumps(record, sort_keys=True)}" for name, record in records.items())
    PINNED.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"pinned {len(records)} cases in {PINNED}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: python {sys.argv[0]} --regenerate  (rewrites {PINNED.name}; a contract change)")
    regenerate()
