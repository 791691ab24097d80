"""Command-line front end.

Exit codes are stable for scripting: 0 for success (and for "equivalent"),
1 for domain errors or negative verdicts, 2 for usage errors.  Each
subcommand imports only the modules it runs; argparse waits for ``build_parser``.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

from .errors import ObskitError

LN2 = math.log(2)


def build_parser():
    import argparse
    parser = argparse.ArgumentParser(
        prog="obskit",
        description="Simulate, compare, and measure finite observers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    loop = argparse.ArgumentParser(add_help=False)  # the options _loop reads, for simulate and adapt
    loop.add_argument("--observer", required=True, metavar="FILE")
    loop.add_argument("--env", required=True, metavar="FILE")
    loop.add_argument("--init", required=True, metavar="X0,S0")

    p = sub.add_parser("simulate", parents=[loop], help="run an observer against an environment")
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

    p = sub.add_parser("adapt", parents=[loop], help="steps until a coupled run settles or meets a goal")
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
    p.add_argument("--init", required=True, metavar="PATTERN",
                   help="'single', 'zero', or an explicit bit string")
    p.add_argument("--embed", metavar="FILE", help="observer document to embed")
    p.add_argument("--at", type=int, default=0, metavar="POS", help="block start index")
    p.add_argument("--pbm", metavar="OUT", help="also write the diagram as a P4 image")

    return parser


def _split_pair(text: str, what: str) -> tuple[str, str]:
    head, sep, tail = text.partition(",")
    if not sep or not head or not tail:
        raise ObskitError(f"{what} must be two comma-separated identifiers, got {text!r}")
    return head, tail


def _loop(args):
    """The coupled system of ``--observer`` and ``--env``, and the joint state ``--init`` names."""
    from .core import CoupledSystem
    from .documents import parse_environment, parse_observer
    observer = parse_observer(Path(args.observer).read_bytes())
    environment = parse_environment(Path(args.env).read_bytes())
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
    first = parse_observer(Path(args.first).read_bytes())
    second = parse_observer(Path(args.second).read_bytes())
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
    observer = parse_observer(Path(args.observer).read_bytes())
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
    observer = parse_observer(Path(args.observer).read_bytes())
    reduced, _, _ = minimize(observer)
    text = serialize_observer(reduced)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
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
        raw = json.loads(Path(args.chain).read_text(encoding="utf-8"))
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
        observer = parse_observer(Path(args.embed).read_bytes())
        system = ca_mod.embed(rule, cells, args.at, observer)
        rows, _ = ca_mod.run_embedded(system, args.steps)
    else:
        rows = ca_mod.ca_evolution(cells, rule, args.steps)
    print(ca_mod.render_text(rows))
    if args.pbm:
        Path(args.pbm).write_bytes(ca_mod.pbm_bytes(rows))
    return 0


_HANDLERS = {
    "simulate": _cmd_simulate,
    "equiv": _cmd_equiv,
    "complexity": _cmd_complexity,
    "minimize": _cmd_minimize,
    "adapt": _cmd_adapt,
    "hit": _cmd_hit,
    "ca": _cmd_ca,
}


def dispatch(argv: list[str]) -> int:
    """Parse arguments and run one subcommand, returning the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (ObskitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
