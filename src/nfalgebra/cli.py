"""Command-line interface.

Subcommands: ``check`` (validate files), ``accept`` (run an input),
``trace`` (control-flow replay, text or JSON), ``equiv`` (language
comparison), ``compose`` / ``dfa`` (write canonical files), ``dot``
(graph export), and ``props`` (the seeded composition-law suite).

Exit codes: 0 for accept / equivalent / suite pass / success, 1 for
reject / inequivalent / suite fail, 2 for usage, parse, or validation
errors.  Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import textwrap
from pathlib import Path
from typing import Iterable, Sequence

from .algebra import elaborate
from .analysis import determinize, dfa_to_automaton, equivalent
from .automaton import Automaton, Symbol, accepts, validate
from .properties import DEFAULT_LETTERS, run_closure_suite
from .textio import (
    ParseError,
    format_word,
    parse_automaton,
    parse_expression,
    parse_input,
    render_automaton,
    render_dot,
)
from .trace import Activate, ControlTrace, Handoff, Step, Verdict, _trace_composite

__all__ = ["build_parser", "main", "run_cli"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfalgebra",
        description="Compose, run, compare, and export epsilon-NFAs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_devices(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "-d",
            "--device",
            dest="devices",
            metavar="FILE",
            nargs="+",
            action="extend",
            default=[],
            help="automaton file(s); the name line inside binds the device",
        )

    p = sub.add_parser("check", help="validate automaton files")
    p.add_argument("files", metavar="FILE", nargs="+")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("accept", help="elaborate an expression and run an input")
    with_devices(p)
    p.add_argument("-e", "--expr", required=True, help="composition expression")
    p.add_argument("-i", "--input", required=True, help="input word")
    p.set_defaults(handler=_cmd_accept)

    p = sub.add_parser("trace", help="show the control-flow trace for an input")
    with_devices(p)
    p.add_argument("-e", "--expr", required=True)
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(handler=_cmd_trace)

    p = sub.add_parser("equiv", help="compare the languages of two expressions")
    with_devices(p)
    p.add_argument("-e", "--expr", required=True)
    p.add_argument("-e2", "--expr2", dest="expr2", required=True)
    p.set_defaults(handler=_cmd_equiv)

    p = sub.add_parser("compose", help="write the elaborated composite to a file")
    with_devices(p)
    p.add_argument("-e", "--expr", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_compose)

    p = sub.add_parser("dfa", help="write the determinized composite to a file")
    with_devices(p)
    p.add_argument("-e", "--expr", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_dfa)

    p = sub.add_parser("dot", help="emit a DOT graph for the composite")
    with_devices(p)
    p.add_argument("-e", "--expr", required=True)
    p.add_argument(
        "--group",
        action="store_true",
        help="box states by their top-level namespace",
    )
    p.set_defaults(handler=_cmd_dot)

    p = sub.add_parser("props", help="run the seeded composition-law suite")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--cases", type=int, required=True)
    p.add_argument("--max-len", type=int, default=6, dest="max_len")
    p.set_defaults(handler=_cmd_props)

    return parser


def run_cli(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv) if argv is not None else None)
    except SystemExit as stop:  # argparse already printed its message
        return stop.code if isinstance(stop.code, int) else 2
    try:
        return args.handler(args)
    except ParseError as err:
        for diagnostic in err.diagnostics:
            print(diagnostic.render(), file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run_cli(sys.argv[1:]))


def _load_devices(paths: Sequence[str]) -> dict[str, Automaton]:
    # All referenced files must exist and parse before any computation runs.
    env: dict[str, Automaton] = {}
    for path_text in paths:
        path = Path(path_text)
        text = path.read_text("utf-8")
        try:
            name, automaton = parse_automaton(text)
        except ParseError as err:
            raise ValueError(f"{path}: {err}") from None
        if name in env:
            raise ValueError(f"{path}: duplicate device name {name!r}")
        env[name] = automaton
    return env


def _cmd_check(args: argparse.Namespace) -> int:
    status = 0
    for path_text in args.files:
        path = Path(path_text)
        try:
            text = path.read_text("utf-8")
        except OSError as err:
            print(f"{path}: error: {err}", file=sys.stderr)
            status = 2
            continue
        try:
            name, automaton = parse_automaton(text)
        except ParseError as err:
            for diagnostic in err.diagnostics:
                print(f"{path}:{diagnostic.render()}", file=sys.stderr)
            status = 2
            continue
        problems = validate(automaton)
        if problems:
            for violation in problems:
                print(f"{path}: {violation.code}: {violation.message}", file=sys.stderr)
            status = 2
            continue
        print(
            f"{path}: ok ({name}: {len(automaton.states)} states, "
            f"{len(automaton.edges())} transitions)"
        )
    return status


def _cmd_accept(args: argparse.Namespace) -> int:
    env = _load_devices(args.devices)
    expr = parse_expression(args.expr)
    composite = elaborate(expr, env)
    input_word = parse_input(args.input, composite.alphabet)
    verdict = accepts(composite, input_word)
    print("accept" if verdict else "reject")
    return 0 if verdict else 1


def _trace_payload(trace: ControlTrace, alphabet: Iterable[Symbol]) -> dict:
    events: list[dict] = []
    for event in trace.events:
        if isinstance(event, Activate):
            events.append({"kind": "activate", "device": event.device})
        elif isinstance(event, Step):
            events.append(
                {
                    "kind": "step",
                    "device": event.device,
                    "from": str(event.source),
                    "letter": str(event.symbol),
                    "to": str(event.target),
                }
            )
        elif isinstance(event, Handoff):
            events.append(
                {
                    "kind": "handoff",
                    "device": event.source_device,
                    "to_device": event.target_device,
                    "from": str(event.source),
                    "letter": "eps",
                    "to": str(event.target),
                }
            )
        elif isinstance(event, Verdict):
            events.append(
                {"kind": "verdict", "device": event.device, "accepted": event.accepted}
            )
    return {
        "input": format_word(trace.input, alphabet),
        "overall": trace.overall,
        "devices": dict(sorted(trace.devices.items())),
        "events": events,
    }


def _trace_lines(trace: ControlTrace, alphabet: Iterable[Symbol]) -> list[str]:
    def label(path: str) -> str:
        return trace.devices.get(path, path or "root")

    def location(path: str) -> str:
        return path or "root"

    lines = [
        f"input: {format_word(trace.input, alphabet)}",
        f"overall: {'accept' if trace.overall else 'reject'}",
    ]
    for event in trace.events:
        if isinstance(event, Activate):
            lines.append(f"activate {label(event.device)} at {location(event.device)}")
        elif isinstance(event, Step):
            lines.append(f"step {event.source} -{event.symbol}-> {event.target}")
        elif isinstance(event, Handoff):
            lines.append(
                f"handoff {label(event.source_device)} -> {label(event.target_device)}"
                f" via {event.source} -eps-> {event.target}"
            )
        elif isinstance(event, Verdict):
            outcome = "accept" if event.accepted else "reject"
            lines.append(f"verdict {label(event.device)}: {outcome}")
    return lines


def _cmd_trace(args: argparse.Namespace) -> int:
    env = _load_devices(args.devices)
    expr = parse_expression(args.expr)
    composite = elaborate(expr, env)
    input_word = parse_input(args.input, composite.alphabet)
    trace = _trace_composite(expr, env, composite, input_word)
    if args.json:
        print(json.dumps(_trace_payload(trace, composite.alphabet), indent=2))
    else:
        for line in _trace_lines(trace, composite.alphabet):
            print(line)
    return 0 if trace.overall else 1


def _cmd_equiv(args: argparse.Namespace) -> int:
    env = _load_devices(args.devices)
    first = elaborate(parse_expression(args.expr), env)
    second = elaborate(parse_expression(args.expr2), env)
    verdict = equivalent(first, second)
    if verdict.equivalent:
        print("equivalent")
        return 0
    assert verdict.counterexample is not None
    print(format_word(verdict.counterexample, first.alphabet | second.alphabet))
    return 1


def _cmd_compose(args: argparse.Namespace) -> int:
    env = _load_devices(args.devices)
    composite = elaborate(parse_expression(args.expr), env)
    Path(args.output).write_text(render_automaton(composite, "composite"), "utf-8")
    return 0


def _cmd_dfa(args: argparse.Namespace) -> int:
    env = _load_devices(args.devices)
    composite = elaborate(parse_expression(args.expr), env)
    deterministic = dfa_to_automaton(determinize(composite))
    Path(args.output).write_text(render_automaton(deterministic, "dfa"), "utf-8")
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    env = _load_devices(args.devices)
    composite = elaborate(parse_expression(args.expr), env)
    sys.stdout.write(render_dot(composite, group_by_namespace=args.group))
    return 0


def _cmd_props(args: argparse.Namespace) -> int:
    result = run_closure_suite(args.seed, args.cases, args.max_len)
    print(f"seed {result.seed} cases {result.cases} max-len {result.max_len}")
    print(f"failures {len(result.failures)}")
    if result.failures:
        first = result.failures[0]
        print(
            f"first failure: case {first.case} law {first.law} "
            f"word {format_word(first.word, DEFAULT_LETTERS)} "
            f"composite={str(first.composite_verdict).lower()} "
            f"oracle={str(first.oracle_verdict).lower()}"
        )
        print("left operand:")
        sys.stdout.write(textwrap.indent(render_automaton(first.left, "left"), "  "))
        print("right operand:")
        sys.stdout.write(textwrap.indent(render_automaton(first.right, "right"), "  "))
        return 1
    return 0


if __name__ == "__main__":
    main()
