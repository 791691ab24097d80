"""Command-line front end.

Exit codes are stable for scripting: 0 for success (and for "equivalent"),
1 for domain errors or negative verdicts, 2 for usage errors.  Each subcommand
imports only the modules it runs, and no pathlib; argparse is imported only for
``--help``, a usage error or a spelling ``_parse`` leaves to it.
"""

import math
import sys
from types import SimpleNamespace

from .errors import ObskitError

LN2 = math.log(2)


def _split_pair(text: str, what: str) -> tuple[str, str]:
    head, sep, tail = text.partition(",")
    if not sep or not head or not tail:
        raise ObskitError(f"{what} must be two comma-separated identifiers, got {text!r}")
    return head, tail


def _read(path: str) -> bytes:
    with open(path, "rb") as file:
        return file.read()


def _loop(args):
    """The coupled system of ``--observer`` and ``--env``, and the joint state ``--init`` names."""
    from .core import CoupledSystem
    from .documents import parse_environment, parse_observer
    observer = parse_observer(_read(args.observer))
    environment = parse_environment(_read(args.env))
    return CoupledSystem(observer, environment), _split_pair(args.init, "--init")


def _cmd_simulate(args) -> int:
    import json
    system, joint = _loop(args)
    trace = system.run(joint, args.steps)
    if args.trace == "tsv":
        print("t\ty\tx\tz\ts")
        for r in trace:
            print(f"{r.t}\t{r.y}\t{r.x}\t{r.z}\t{r.s}")
    else:
        for r in trace:
            print(json.dumps({"t": r.t, "y": r.y, "x": r.x, "z": r.z, "s": r.s}))
    return 0


def _cmd_equiv(args) -> int:
    from .documents import parse_observer
    from .morphism import find_isomorphism
    first = parse_observer(_read(args.first))
    second = parse_observer(_read(args.second))
    anchors = _split_pair(args.anchors, "--anchors") if args.anchors else None
    morphism = find_isomorphism(first, second, anchors=anchors)
    if morphism is None:
        print("NOT-EQUIVALENT")
        return 1
    print("EQUIVALENT")
    print("states: " + " ".join(f"{x}->{morphism.state_map[x]}" for x in first.states))
    print("inputs: " + " ".join(f"{y}->{morphism.input_map[y]}" for y in first.inputs))
    print("outputs: " + " ".join(f"{z}->{morphism.output_map[z]}" for z in first.outputs))
    return 0


def _cmd_complexity(args) -> int:
    from .documents import parse_observer
    from .metrics import complexity
    observer = parse_observer(_read(args.observer))
    report = complexity(observer)
    scale, unit = (1 / LN2, "bits") if args.bits else (1.0, "nats")
    print(f"C = {report.complexity * scale:.4f} {unit}")
    print(f"lambda = {report.redundancy * scale:.4f} {unit}")
    rx, ry, rz = report.reduced_sizes
    print(f"reduced: |X|={rx} |Y|={ry} |Z|={rz}")
    return 0


def _cmd_minimize(args) -> int:
    from .documents import parse_observer, serialize_observer
    from .morphism import minimize
    observer = parse_observer(_read(args.observer))
    reduced, _, _ = minimize(observer)
    text = serialize_observer(reduced)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as file:
            file.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _parse_goal(expr: str):
    clauses = []
    for part in expr.split(","):
        side, sep, value = part.partition("=")
        if not sep or side not in ("x", "s") or not value:
            raise ObskitError(f"goal clause {part!r} must look like x=STATE or s=ENV_STATE")
        clauses.append((side, value))

    def goal(joint):
        x, s = joint
        return all((x == v) if side == "x" else (s == v) for side, v in clauses)

    return goal


def _cmd_adapt(args) -> int:
    from .metrics import adaptation_time
    system, joint = _loop(args)
    goal = _parse_goal(args.goal) if args.goal else None
    result = adaptation_time(system, joint, goal=goal, cap=args.cap)
    print(f"kind = {result.kind}")
    print(f"steps = {result.steps if result.steps is not None else '-'}")
    print(f"cycle_period = {result.cycle_period if result.cycle_period is not None else '-'}")
    return 0


def _cmd_hit(args) -> int:
    import json
    from .metrics import expected_hitting_time
    try:
        with open(args.chain, encoding="utf-8") as file:
            raw = json.load(file)
    except UnicodeDecodeError as exc:
        raise ObskitError(f"chain file is not UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ObskitError(str(exc)) from None
    except RecursionError:
        raise ObskitError("chain file is nested too deeply to parse") from None
    if isinstance(raw, dict) and "matrix" not in raw:
        raise ObskitError("a chain object must have a 'matrix' entry")
    matrix = raw["matrix"] if isinstance(raw, dict) else raw
    try:
        goal = [int(part) for part in args.goal.split(",") if part]
    except ValueError:
        raise ObskitError(f"--goal must be comma-separated integers, got {args.goal!r}") from None
    value = expected_hitting_time(matrix, args.start, goal)
    print("INF" if math.isinf(value) else f"{value:.12g}")
    return 0


def _parse_pattern(pattern: str, width: int) -> tuple[int, ...]:
    if pattern == "single":
        return tuple(1 if i == width // 2 else 0 for i in range(width))
    if pattern == "zero":
        return (0,) * width
    if set(pattern) <= {"0", "1"} and pattern:
        if len(pattern) != width:
            raise ObskitError(f"--init bit string must have length {width}")
        return tuple(int(c) for c in pattern)
    raise ObskitError(f"unrecognized --init pattern {pattern!r}")


def _cmd_ca(args) -> int:
    from . import ca as ca_mod
    rule = ca_mod.rule_table(args.rule)
    cells = _parse_pattern(args.init, args.width)
    if args.embed:
        from .documents import parse_observer
        observer = parse_observer(_read(args.embed))
        system = ca_mod.embed(rule, cells, args.at, observer)
        rows, _ = ca_mod.run_embedded(system, args.steps)
    else:
        rows = ca_mod.ca_evolution(cells, rule, args.steps)
    print(ca_mod.render_text(rows))
    if args.pbm:
        with open(args.pbm, "wb") as file:
            file.write(ca_mod.pbm_bytes(rows))
    return 0


# each subcommand's handler, help and add_argument calls, as (names, keywords), for build_parser,
# _parse and dispatch
_LOOP = ((("--observer",), {"required": True, "metavar": "FILE"}),  # what _loop reads
         (("--env",), {"required": True, "metavar": "FILE"}),
         (("--init",), {"required": True, "metavar": "X0,S0"}))
_COMMANDS = {
    "simulate": (_cmd_simulate, "run an observer against an environment", _LOOP + (
        (("--steps",), {"required": True, "type": int, "metavar": "N"}),
        (("--trace",), {"choices": ("tsv", "jsonl"), "default": "tsv"}))),
    "equiv": (_cmd_equiv, "decide whether two observers are relabelings", (
        (("first",), {"metavar": "A.json"}),
        (("second",), {"metavar": "B.json"}),
        (("--anchors",), {"metavar": "XA,XB"}))),
    "complexity": (_cmd_complexity, "capacity, redundancy, and reduced sizes", (
        (("observer",), {"metavar": "FILE"}),
        (("--bits",), {"action": "store_true", "help": "report in bits instead of nats"}))),
    "minimize": (_cmd_minimize, "write the behaviorally reduced observer", (
        (("observer",), {"metavar": "FILE"}),
        (("-o", "--output"), {"metavar": "OUT"}))),
    "adapt": (_cmd_adapt, "steps until a coupled run settles or meets a goal", _LOOP + (
        (("--goal",), {"metavar": "EXPR", "help": "e.g. 'x=ON', 's=Hot', or 'x=ON,s=Hot'"}),
        (("--cap",), {"type": int, "metavar": "N"}))),
    "hit": (_cmd_hit, "expected hitting time of a Markov chain", (
        (("--chain",), {"required": True, "metavar": "M.json"}),
        (("--start",), {"required": True, "type": int, "metavar": "I"}),
        (("--goal",), {"required": True, "metavar": "J,K"}))),
    "ca": (_cmd_ca, "run an elementary cellular automaton", (
        (("--rule",), {"required": True, "type": int, "metavar": "R"}),
        (("--width",), {"required": True, "type": int, "metavar": "W"}),
        (("--steps",), {"required": True, "type": int, "metavar": "T"}),
        (("--init",), {"required": True, "metavar": "PATTERN", "help": "'single', 'zero', or an explicit bit string"}),
        (("--embed",), {"metavar": "FILE", "help": "observer document to embed"}),
        (("--at",), {"type": int, "default": 0, "metavar": "POS", "help": "block start index"}),
        (("--pbm",), {"metavar": "OUT", "help": "also write the diagram as a P4 image"}))),
}


def build_parser():
    import argparse
    parser = argparse.ArgumentParser(prog="obskit", description="Simulate, compare, and measure finite observers.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text, arguments) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for names, keywords in arguments:
            p.add_argument(*names, **keywords)
    return parser


def _parse(argv: list[str]):
    """``build_parser().parse_args(argv)`` for a call spelled in full, else None: a known subcommand,
    then positionals and exact option names, each value in the next word.  Argparse reads the rest."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    fields, named, waiting, given = {}, {}, [], {}
    for names, keywords in _COMMANDS[argv[0]][2]:
        dest = next((n for n in names if n[:2] == "--"), names[0]).lstrip("-").replace("-", "_")  # argparse's rule
        fields[dest] = keywords
        if names[0][0] == "-":
            named.update(dict.fromkeys(names, dest))
        else:
            waiting.append(dest)
    words = iter(argv[1:])
    for word in words:
        if word[:1] != "-" and waiting:
            dest, value = waiting.pop(0), word
        elif word not in named:
            return None
        elif fields[named[word]].get("action") == "store_true":
            given[named[word]] = True
            continue
        else:
            dest, value = named[word], next(words, "-")  # a missing value reads as one starting with "-"
            if value[:1] == "-":
                return None
        keywords = fields[dest]
        try:
            value = keywords.get("type", str)(value)
        except ValueError:
            return None
        if value not in keywords.get("choices", (value,)):
            return None
        given[dest] = value
    if waiting or any(keywords.get("required") and dest not in given for dest, keywords in fields.items()):
        return None
    for dest, keywords in fields.items():
        given.setdefault(dest, keywords.get("default", False if keywords.get("action") == "store_true" else None))
    return SimpleNamespace(command=argv[0], **given)


def dispatch(argv: list[str]) -> int:
    """Parse arguments and run one subcommand, returning the exit code."""
    try:
        args = _parse(argv) or build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command][0](args)
    except (ObskitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
