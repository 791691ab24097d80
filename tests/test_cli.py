"""Command-line behavior: outputs, exit codes, file side effects."""

from __future__ import annotations

import io
import json
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

import obskit
from obskit import ca
from obskit.cli import _COMMANDS, _parse, build_parser, dispatch
from obskit.documents import parse_observer

from conftest import FIXTURES
from test_parity import ARGVS as PARITY_ARGVS

THERMO = str(FIXTURES / "thermostat.json")
RENAMED = str(FIXTURES / "thermostat_renamed.json")
REDUNDANT = str(FIXTURES / "redundant.json")
FLIP = str(FIXTURES / "flip_env.json")
CHAIN2 = str(FIXTURES / "chain2.json")
ECA_OBS = str(FIXTURES / "eca_transparent_k1.json")


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- simulate -----------------------------------------------------------------

def test_simulate_tsv_rows(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--observer", THERMO, "--env", FLIP,
        "--init", "OFF,Cold", "--steps", "4",
    )
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "t\ty\tx\tz\ts"
    assert lines[1] == "0\tCold\tON\tHeaterOn\tHot"
    assert lines[2] == "1\tHot\tOFF\tHeaterOff\tCold"
    assert len(lines) == 5


def test_simulate_jsonl(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--observer", THERMO, "--env", FLIP,
        "--init", "OFF,Cold", "--steps", "2", "--trace", "jsonl",
    )
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert code == 0
    assert rows[0] == {"t": 0, "y": "Cold", "x": "ON", "z": "HeaterOn", "s": "Hot"}


def test_simulate_bad_init_is_domain_error(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--observer", THERMO, "--env", FLIP,
        "--init", "NOPE,Cold", "--steps", "1",
    )
    assert code == 1
    assert "error" in err


# -- equiv -----------------------------------------------------------------------

def test_equiv_relabeled_pair_exits_zero_with_maps(capsys):
    code, out, _ = run_cli(capsys, "equiv", THERMO, RENAMED)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "EQUIVALENT"
    assert lines[1].startswith("states: ")
    assert "OFF->A" in lines[1] and "ON->B" in lines[1]
    assert "Cold->c" in lines[2] and "Hot->h" in lines[2]
    assert "HeaterOff->off" in lines[3] and "HeaterOn->on" in lines[3]


def test_equiv_negative_exits_one(capsys):
    code, out, _ = run_cli(capsys, "equiv", THERMO, REDUNDANT)
    assert code == 1
    assert out.strip() == "NOT-EQUIVALENT"


def test_equiv_with_anchors(capsys):
    code, out, _ = run_cli(capsys, "equiv", THERMO, RENAMED, "--anchors", "OFF,A")
    assert code == 0
    assert "OFF->A" in out


# -- complexity ------------------------------------------------------------------------

def test_complexity_in_nats(capsys):
    code, out, _ = run_cli(capsys, "complexity", THERMO)
    assert code == 0
    assert f"C = {math.log(8):.4f} nats" in out
    assert "lambda = 0.0000 nats" in out
    assert "reduced: |X|=2 |Y|=2 |Z|=2" in out


def test_complexity_in_bits(capsys):
    code, out, _ = run_cli(capsys, "complexity", THERMO, "--bits")
    assert code == 0
    assert "C = 3.0000 bits" in out


def test_complexity_of_redundant_fixture(capsys):
    code, out, _ = run_cli(capsys, "complexity", REDUNDANT)
    assert code == 0
    assert "C = 0.0000 nats" in out
    assert f"lambda = {math.log(2):.4f} nats" in out


# -- minimize -------------------------------------------------------------------------------

def test_document_with_a_list_value_is_domain_error(tmp_path, capsys):
    doc = json.loads((FIXTURES / "thermostat.json").read_text())
    doc["transitions"]["OFF,Cold"] = ["ON"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "complexity", str(bad))
    assert code == 1
    assert "error" in err


def test_minimize_writes_a_reduced_document(tmp_path, capsys):
    target = tmp_path / "reduced.json"
    code, _, _ = run_cli(capsys, "minimize", REDUNDANT, "-o", str(target))
    assert code == 0
    reduced = parse_observer(target.read_bytes())
    assert len(reduced.states) == 1


def test_minimize_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "minimize", THERMO)
    assert code == 0
    assert parse_observer(out) == parse_observer((FIXTURES / "thermostat.json").read_bytes())


# -- adapt ------------------------------------------------------------------------------------

def test_adapt_reports_cycle_entry(capsys):
    code, out, _ = run_cli(
        capsys, "adapt", "--observer", THERMO, "--env", FLIP, "--init", "OFF,Cold",
    )
    assert code == 0
    assert "kind = transient-to-cycle" in out
    assert "steps = 2" in out
    assert "cycle_period = 2" in out


def test_adapt_with_goal(capsys):
    code, out, _ = run_cli(
        capsys, "adapt", "--observer", THERMO, "--env", FLIP,
        "--init", "OFF,Cold", "--goal", "x=ON,s=Hot",
    )
    assert code == 0
    assert "kind = goal-reached" in out
    assert "steps = 1" in out


def test_adapt_with_unreachable_goal(capsys):
    code, out, _ = run_cli(
        capsys, "adapt", "--observer", THERMO, "--env", FLIP,
        "--init", "OFF,Cold", "--goal", "s=Mars",
    )
    assert code == 0
    assert "kind = goal-unreachable" in out
    assert "steps = -" in out


def test_adapt_bad_goal_expression(capsys):
    code, _, err = run_cli(
        capsys, "adapt", "--observer", THERMO, "--env", FLIP,
        "--init", "OFF,Cold", "--goal", "q=ON",
    )
    assert code == 1
    assert "goal clause" in err


# -- hit ------------------------------------------------------------------------------------------

def test_hit_two_state_chain(capsys):
    code, out, _ = run_cli(capsys, "hit", "--chain", CHAIN2, "--start", "0", "--goal", "1")
    assert code == 0
    assert abs(float(out.strip()) - 2.0) <= 1e-9


def test_hit_unreachable_prints_inf(tmp_path, capsys):
    chain = tmp_path / "frozen.json"
    chain.write_text(json.dumps([[1.0, 0.0], [0.0, 1.0]]))
    code, out, _ = run_cli(capsys, "hit", "--chain", str(chain), "--start", "0", "--goal", "1")
    assert code == 0
    assert out.strip() == "INF"


def test_hit_bad_matrix_is_domain_error(tmp_path, capsys):
    chain = tmp_path / "bad.json"
    chain.write_text(json.dumps([[0.9, 0.0], [0.0, 1.0]]))
    code, _, err = run_cli(capsys, "hit", "--chain", str(chain), "--start", "0", "--goal", "1")
    assert code == 1
    assert "error" in err


def test_hit_object_without_matrix_is_domain_error(tmp_path, capsys):
    chain = tmp_path / "rows.json"
    chain.write_text(json.dumps({"rows": [[0.5, 0.5], [0.0, 1.0]]}))
    code, _, err = run_cli(capsys, "hit", "--chain", str(chain), "--start", "0", "--goal", "1")
    assert code == 1
    assert "'matrix' entry" in err


def test_hit_non_integer_goal_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "hit", "--chain", CHAIN2, "--start", "0", "--goal", "1,two")
    assert code == 1
    assert "--goal" in err


def test_hit_non_utf8_chain_is_domain_error(tmp_path, capsys):
    chain = tmp_path / "latin1.json"
    chain.write_bytes(b"[[\xff]]")
    code, _, err = run_cli(capsys, "hit", "--chain", str(chain), "--start", "0", "--goal", "1")
    assert code == 1
    assert "UTF-8" in err


@pytest.mark.parametrize("text, message", [
    ('{"x', "Unterminated string starting at: line 1 column 2 (char 1)"),
    ("{x", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
])
def test_hit_malformed_json_chain_is_domain_error(tmp_path, capsys, text, message):
    chain = tmp_path / "cut.json"
    chain.write_text(text)
    code, out, err = run_cli(capsys, "hit", "--chain", str(chain), "--start", "0", "--goal", "1")
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("command, what", [
    (("complexity", "{file}"), "document"),
    (("hit", "--chain", "{file}", "--start", "0", "--goal", "1"), "chain file"),
], ids=["complexity", "hit"])
def test_a_deeply_nested_input_file_is_a_domain_error(tmp_path, capsys, command, what):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    code, out, err = run_cli(capsys, *[part.format(file=deep) for part in command])
    assert (code, out, err) == (1, "", f"error: {what} is nested too deeply to parse\n")


def test_internal_errors_are_not_reported_as_user_errors(monkeypatch):
    import obskit.cli as cli

    def broken(args):
        raise KeyError("x0")

    monkeypatch.setitem(cli._COMMANDS, "hit", (broken, *cli._COMMANDS["hit"][1:]))
    with pytest.raises(KeyError):
        dispatch(["hit", "--chain", CHAIN2, "--start", "0", "--goal", "1"])


# -- ca ----------------------------------------------------------------------------------------------

def test_ca_single_seed_rows(capsys):
    code, out, _ = run_cli(
        capsys, "ca", "--rule", "110", "--width", "31", "--steps", "15", "--init", "single",
    )
    lines = out.strip().splitlines()
    assert code == 0
    assert len(lines) == 16
    assert lines[0] == "...............#..............."
    assert lines[1] == "..............##..............."
    assert lines[15] == "##.#.##..#####.#..............."


def test_ca_explicit_bit_string(capsys):
    code, out, _ = run_cli(
        capsys, "ca", "--rule", "0", "--width", "5", "--steps", "1", "--init", "10101",
    )
    lines = out.strip().splitlines()
    assert code == 0
    assert lines == ["#.#.#", "....."]


def test_ca_with_embedded_observer_document(capsys):
    # transparent single-cell block: diagram must equal the bare rule run
    code, out, _ = run_cli(
        capsys, "ca", "--rule", "110", "--width", "15", "--steps", "10",
        "--init", "single", "--embed", ECA_OBS, "--at", "2",
    )
    pure_code, pure_out, _ = run_cli(
        capsys, "ca", "--rule", "110", "--width", "15", "--steps", "10", "--init", "single",
    )
    assert code == pure_code == 0
    assert out == pure_out


def test_ca_writes_pbm(tmp_path, capsys):
    image = tmp_path / "diagram.pbm"
    code, _, _ = run_cli(
        capsys, "ca", "--rule", "110", "--width", "8", "--steps", "3",
        "--init", "single", "--pbm", str(image),
    )
    assert code == 0
    payload = image.read_bytes()
    assert payload.startswith(b"P4\n8 4\n")
    assert len(payload) == len(b"P4\n8 4\n") + 4  # one byte per 8-cell row


@pytest.mark.parametrize("embedded", [False, True], ids=["bare", "embedded"])
def test_ca_output_is_byte_identical_to_rendering_a_plain_tuple_copy(tmp_path, capsys, embedded):
    # 1001 cells: each P4 row ends in a partial byte
    rng = random.Random(1001)
    init = "".join(rng.choice("01") for _ in range(1001))
    argv = ["ca", "--rule", "110", "--width", "1001", "--steps", "40", "--init", init,
            "--pbm", str(tmp_path / "d.pbm")]
    cells, rule = tuple(map(int, init)), ca.rule_table(110)
    if embedded:
        argv += ["--embed", ECA_OBS, "--at", "500"]
        observer = parse_observer((FIXTURES / "eca_transparent_k1.json").read_bytes())
        rows, _ = ca.run_embedded(ca.embed(rule, cells, 500, observer), 40)
    else:
        rows = ca.ca_evolution(cells, rule, 40)
    plain = tuple(map(tuple, rows))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == ca.render_text(plain) + "\n"
    assert (tmp_path / "d.pbm").read_bytes() == ca.pbm_bytes(plain)


def test_ca_bad_pattern_is_domain_error(capsys):
    code, _, err = run_cli(
        capsys, "ca", "--rule", "110", "--width", "8", "--steps", "1", "--init", "banana",
    )
    assert code == 1
    assert "error" in err


# -- start-up ----------------------------------------------------------------------------------------
# Each check runs in a fresh interpreter: the test process has already loaded
# numpy, which conftest.py imports.

def fresh_interpreter(code, *options):
    result = subprocess.run(
        [sys.executable, *options, "-c", f"import sys\n{code}\nprint('numpy' in sys.modules)"],
        capture_output=True, text=True, check=True,
    )
    return result.stdout.splitlines()


def dispatching(*argv):
    return f"from obskit.cli import dispatch; assert dispatch({list(argv)!r}) == 0"


@pytest.mark.parametrize("code", [
    pytest.param("import obskit", id="import-obskit"),
    pytest.param("import obskit.cli", id="import-cli"),
    pytest.param(dispatching("complexity", THERMO), id="complexity"),
    pytest.param(dispatching("ca", "--rule", "110", "--width", "15", "--steps", "10",
                             "--init", "single", "--embed", ECA_OBS, "--at", "2"), id="ca-embed"),
])
def test_numpy_free_paths_do_not_load_numpy(code):
    assert fresh_interpreter(code)[-1] == "False"


def test_start_up_loads_neither_dataclasses_nor_inspect():
    # one interpreter runs every path in turn: none of them may load the two
    code = "\n".join([
        "import obskit", "import obskit.cli", dispatching("complexity", THERMO),
        dispatching("ca", "--rule", "110", "--width", "15", "--steps", "10",
                    "--init", "single", "--embed", ECA_OBS, "--at", "2"),
        "print(sorted({'dataclasses', 'inspect'}.intersection(sys.modules)))",
    ])
    assert fresh_interpreter(code)[-2] == "[]"


# every name `import obskit` exported before the package loaded its modules on first use
EXPORTED = [
    "AdaptationResult", "BehavioralPartition", "CARule", "CapExceededError", "ComplexityReport",
    "CoupledSystem", "DefinitionError", "DocumentCompletenessError", "DocumentError",
    "DocumentParseError", "DocumentReferenceError", "EmbeddedSystem", "EncodingError", "Environment",
    "FactEntry", "FactLedger", "GOAL_REACHED", "GOAL_UNREACHABLE", "IdentifierError",
    "IncompatibleAlphabetsError", "LabScriptRun", "LedgerOrderError", "MetaCycleError",
    "MetaRegistry", "MinimalityReport", "MorphismCheck", "MorphismShapeError", "NumericalError",
    "Observer", "ObserverMorphism", "ObskitError", "RuleFamily", "RuleTable", "TRANSIENT_TO_CYCLE",
    "Trace", "TraceRecord", "WellFoundedReport", "Wiring", "WiringError", "adaptation_time", "ca",
    "ca_evolution", "ca_step", "canonical_invariants", "check_homomorphism", "check_well_founded",
    "complexity", "composition", "core", "damping_observer", "default_registry", "documents",
    "embed", "equivalence_partition", "equivalent", "errors", "expected_hitting_time",
    "facts_relative_to", "find_isomorphism", "identity_morphism", "known_spin_values", "metrics",
    "minimize", "morphism", "parse_environment", "parse_observer", "pbm_bytes", "record_fact",
    "render_text", "rule_table", "run_embedded", "run_lab_script", "second_order_wrap",
    "serialize_environment", "serialize_observer", "stack", "transparent_observer",
    "validate_minimal",
]
SUBMODULES = ["ca", "composition", "core", "documents", "errors", "metrics", "morphism"]


def loaded_after(code):
    # the obskit modules that a fresh interpreter holds after running code, and which of
    # json, argparse and the gettext and locale that argparse imports
    shown = ("print(sorted(m for m in sys.modules if m in ('json', 'argparse', 'gettext', 'locale') "
             "or m.split('.')[0] == 'obskit'))")
    return fresh_interpreter(f"{code}\n{shown}")[-2]


def test_start_up_loads_only_the_modules_a_call_runs():
    assert loaded_after("import obskit") == "['obskit']"
    assert loaded_after("import obskit.cli") == "['obskit', 'obskit.cli', 'obskit.errors']"
    # a call spelled in full loads no argparse; help and usage errors do
    for argv, code in ((["--help"], 0), (["frobnicate"], 2)):
        assert "'argparse'" in loaded_after(f"from obskit.cli import dispatch; assert dispatch({argv!r}) == {code}")
    bare_ca = dispatching("ca", "--rule", "110", "--width", "15", "--steps", "10", "--init", "single")
    assert loaded_after(bare_ca) == "['obskit', 'obskit.ca', 'obskit.cli', 'obskit.core', 'obskit.errors']"
    # neither loads obskit.morphism, which only complexity, equiv and minimize run
    hit = dispatching("hit", "--chain", CHAIN2, "--start", "0", "--goal", "1")
    assert loaded_after(hit) == "['json', 'obskit', 'obskit.cli', 'obskit.core', 'obskit.errors', 'obskit.metrics']"
    adapt = dispatching("adapt", "--observer", THERMO, "--env", FLIP, "--init", "OFF,Cold")
    assert loaded_after(adapt) == ("['json', 'obskit', 'obskit.cli', 'obskit.core', 'obskit.documents', "
                                   "'obskit.errors', 'obskit.metrics']")


def test_cli_loads_no_pathlib_where_site_does_not():
    # -S skips site, which on some installations imports pathlib through a .pth file
    found = f"sys.path.insert(0, {os.path.dirname(os.path.dirname(obskit.__file__))!r})"
    bare_ca = dispatching("ca", "--rule", "110", "--width", "15", "--steps", "10", "--init", "single")
    assert fresh_interpreter(f"{found}\n{bare_ca}\nprint('pathlib' in sys.modules)", "-S")[-2] == "False"


def test_every_exported_name_resolves_to_its_module_attribute():
    checks = f"""
import obskit
assert sorted(obskit.__all__) == {EXPORTED!r} and set(obskit.__all__) <= set(dir(obskit))
assert obskit.core is sys.modules["obskit.core"]
modules = [getattr(obskit, name) for name in {SUBMODULES!r}]
assert modules == [sys.modules[f"obskit.{{name}}"] for name in {SUBMODULES!r}]
for name in set(obskit.__all__) - set({SUBMODULES!r}):
    value = getattr(obskit, name)
    assert all(vars(m).get(name, value) is value for m in modules), name
    assert any(vars(m).get(name) is value for m in modules), name
namespace = {{}}
exec("from obskit import *", namespace)
assert all(namespace[name] is getattr(obskit, name) for name in obskit.__all__)
try:
    obskit.no_such_name
except AttributeError as exc:
    print(exc)
"""
    assert fresh_interpreter(checks)[-2] == "module 'obskit' has no attribute 'no_such_name'"


def test_hit_on_a_small_chain_leaves_numpy_unloaded_and_prints_the_in_process_value(capsys):
    argv = ("hit", "--chain", CHAIN2, "--start", "0", "--goal", "1")
    *printed, loaded = fresh_interpreter(dispatching(*argv))
    assert loaded == "False"
    _, out, _ = run_cli(capsys, *argv)
    assert printed == out.splitlines()
    assert abs(float(printed[0]) - 2.0) <= 1e-9


@pytest.mark.parametrize("states, loaded", [(64, "False"), (65, "True")])
def test_hit_loads_numpy_only_for_a_chain_of_more_than_64_states(tmp_path, states, loaded):
    # a cycle that moves to the next state surely: the last state is states - 1 steps from the first
    chain = tmp_path / "cycle.json"
    chain.write_text(json.dumps([[float(j == (i + 1) % states) for j in range(states)] for i in range(states)]))
    argv = ("hit", "--chain", str(chain), "--start", "0", "--goal", str(states - 1))
    assert fresh_interpreter(dispatching(*argv)) == [str(states - 1), loaded]


# -- usage and plumbing ------------------------------------------------------------------------------

def reference_parser():
    """The whole parser, one add_argument call at a time; simulate and adapt each declare
    the options that cli.py shares between them."""
    import argparse
    parser = argparse.ArgumentParser(prog="obskit", description="Simulate, compare, and measure finite observers.")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("simulate", help="run an observer against an environment")
    p.add_argument("--observer", required=True, metavar="FILE")
    p.add_argument("--env", required=True, metavar="FILE")
    p.add_argument("--init", required=True, metavar="X0,S0")
    p.add_argument("--steps", required=True, type=int, metavar="N")
    p.add_argument("--trace", choices=("tsv", "jsonl"), default="tsv")
    p = sub.add_parser("equiv", help="decide whether two observers are relabelings")
    p.add_argument("first", metavar="A.json")
    p.add_argument("second", metavar="B.json")
    p.add_argument("--anchors", metavar="XA,XB")
    p = sub.add_parser("complexity", help="capacity, redundancy, and reduced sizes")
    p.add_argument("observer", metavar="FILE")
    p.add_argument("--bits", action="store_true", help="report in bits instead of nats")
    p = sub.add_parser("minimize", help="write the behaviorally reduced observer")
    p.add_argument("observer", metavar="FILE")
    p.add_argument("-o", "--output", metavar="OUT")
    p = sub.add_parser("adapt", help="steps until a coupled run settles or meets a goal")
    p.add_argument("--observer", required=True, metavar="FILE")
    p.add_argument("--env", required=True, metavar="FILE")
    p.add_argument("--init", required=True, metavar="X0,S0")
    p.add_argument("--goal", metavar="EXPR", help="e.g. 'x=ON', 's=Hot', or 'x=ON,s=Hot'")
    p.add_argument("--cap", type=int, metavar="N")
    p = sub.add_parser("hit", help="expected hitting time of a Markov chain")
    p.add_argument("--chain", required=True, metavar="M.json")
    p.add_argument("--start", required=True, type=int, metavar="I")
    p.add_argument("--goal", required=True, metavar="J,K")
    p = sub.add_parser("ca", help="run an elementary cellular automaton")
    p.add_argument("--rule", required=True, type=int, metavar="R")
    p.add_argument("--width", required=True, type=int, metavar="W")
    p.add_argument("--steps", required=True, type=int, metavar="T")
    p.add_argument("--init", required=True, metavar="PATTERN", help="'single', 'zero', or an explicit bit string")
    p.add_argument("--embed", metavar="FILE", help="observer document to embed")
    p.add_argument("--at", type=int, default=0, metavar="POS", help="block start index")
    p.add_argument("--pbm", metavar="OUT", help="also write the diagram as a P4 image")
    return parser


@pytest.mark.parametrize("argv", [
    ["--help"], ["simulate", "--help"], ["adapt", "--help"], ["simulate"], ["adapt", "--observer", "x"],
    ["simulate", "--observer", "a", "--env", "b", "--init", "c"], ["adapt", "--init", "x0,s0"],
    ["adapt", "--observer", "a", "--env", "b", "--init", "c", "--cap", "many"],
    ["equiv", "--help"], ["equiv", "a"], ["complexity", "--help"], ["complexity", "a", "b"],
    ["minimize", "--help"], ["minimize", "a", "-o"], ["hit", "--help"], ["hit", "--start", "x"],
    ["ca", "--help"], ["ca", "--rule", "110", "--width", "8", "--steps", "4", "--init", "single", "--at", "two"],
], ids=["help", "simulate-help", "adapt-help", "simulate-bare", "adapt-observer-only", "simulate-no-steps",
        "adapt-init-only", "adapt-cap-not-int", "equiv-help", "equiv-one-file", "complexity-help",
        "complexity-two-files", "minimize-help", "minimize-output-missing", "hit-help", "hit-start-only",
        "ca-help", "ca-at-not-int"])
def test_help_and_usage_errors_of_the_loop_subcommands_are_pinned(capsys, argv):
    try:
        reference_parser().parse_args(argv)
    except SystemExit as exc:
        expected = (int(exc.code or 0), *capsys.readouterr())
    assert run_cli(capsys, *argv) == expected
    assert expected[0] == (0 if "--help" in argv else 2)


# the table's option names; then values, and spellings that _parse leaves to argparse
OPTION_NAMES = sorted({name for *_, arguments in _COMMANDS.values() for names, _ in arguments for name in names
                       if name[0] == "-"})
NEAR_MISSES = ["--ste", "--steps=5", "--", "-h", "--help", "-3", "-", "", " 8 ", "1_0", "x y", "frobnicate",
               "-o=x", "7", "0", "tsv", "jsonl", "xml", "a.json", "OFF,Cold"]


def fuzzed_argvs(rng, count):
    """Parity argvs with words repeated, dropped, replaced or added, and argvs drawn from the words alone."""
    words = [*_COMMANDS, *OPTION_NAMES, *NEAR_MISSES]
    for _ in range(count):
        argv = list(rng.choice(PARITY_ARGVS))
        for _ in range(rng.randint(1, 2)):
            i, edit = rng.randrange(len(argv) + 1), rng.randrange(4)
            if edit == 0 or i == len(argv):
                argv.insert(i, rng.choice(words))
            elif edit == 1:
                del argv[i]
            elif edit == 2:
                argv.insert(i, argv[i])
            else:
                argv[i] = rng.choice(words)
        yield argv
        yield [rng.choice([*_COMMANDS, "frobnicate"])] + rng.choices(words, k=rng.randint(0, 9))


def test_a_call_read_without_argparse_is_read_as_argparse_reads_it():
    parser, rng = build_parser(), random.Random(29)
    read = 0
    for argv in [*PARITY_ARGVS, *fuzzed_argvs(rng, 20_000)]:
        fast = _parse(argv)
        if fast is None:
            continue
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                slow = vars(parser.parse_args(argv))
            except SystemExit:
                slow = "a usage error"
        assert vars(fast) == slow, argv
        read += 1
    assert read > len(PARITY_ARGVS) + 1000


def test_every_parity_call_without_a_value_starting_with_a_dash_is_read_without_argparse():
    dashed = [argv for argv in PARITY_ARGVS if any(w[:1] == "-" and w not in OPTION_NAMES for w in argv)]
    assert [argv for argv in PARITY_ARGVS if _parse(argv) is None] == dashed


def test_unknown_subcommand_is_usage_error(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2


def test_unknown_flag_is_usage_error(capsys):
    assert run_cli(capsys, "complexity", THERMO, "--nats-please")[0] == 2


@pytest.mark.parametrize("path, message", [
    ("no-such-file.json", "[Errno 2] No such file or directory: 'no-such-file.json'"),
    ("./no-such-file.json", "[Errno 2] No such file or directory: './no-such-file.json'"),
    ("", "[Errno 2] No such file or directory: ''"),
    (f"{THERMO}/", f"[Errno 20] Not a directory: '{THERMO}/'"),
], ids=["missing", "missing-as-given", "empty", "file-as-directory"])
def test_missing_file_is_domain_error(capsys, path, message):
    # the path is opened and quoted as given
    assert run_cli(capsys, "complexity", path) == (1, "", f"error: {message}\n")


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "obskit.cli", "complexity", THERMO, "--bits"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "C = 3.0000 bits" in result.stdout
