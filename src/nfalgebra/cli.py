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
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from .algebra import elaborate
from .automaton import Automaton, Symbol, accepts
from .textio import (
    ParseError,
    _Spellings,
    format_word,
    parse_automaton,
    parse_expression,
    parse_input,
    render_automaton,
    render_dot,
)

if TYPE_CHECKING:
    from .trace import ControlTrace

# Each handler imports what only it runs (analysis, trace, the property
# suite, json, textwrap), so a call loads only its own subcommand's code.

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
        # A parse resolves every endpoint and letter, so what parses is valid.
        transitions = sum(map(len, automaton.transitions.values()))
        print(
            f"{path}: ok ({name}: {len(automaton.states)} states, "
            f"{transitions} transitions)"
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


def _trace_json(trace: ControlTrace, alphabet: Iterable[Symbol]) -> str:
    """The trace as ``json.dumps(payload, indent=2)`` spells it, written from
    one fixed template per event kind: with ``indent`` set, CPython up to
    3.13 falls back to its pure-Python encoder, which costs more than
    tracing a long word does."""
    from json.encoder import encode_basestring_ascii

    from .trace import Activate, Handoff, Step, Verdict

    q = _Spellings(encode_basestring_ascii)  # a run repeats few names
    steps: dict[tuple, str] = {}  # and few steps, so each is written once
    events = []
    for event in trace.events:
        if isinstance(event, Step):
            fields = event[:]  # a plain tuple, hashed and compared in C
            text = steps.get(fields)
            if text is None:
                text = steps[fields] = (
                    '    {\n      "kind": "step",\n      "device": %s,\n'
                    '      "from": %s,\n      "letter": %s,\n      "to": %s\n    }'
                    % tuple(map(q.__getitem__, fields))
                )
            events.append(text)
        elif isinstance(event, Activate):
            events.append(
                '    {\n      "kind": "activate",\n      "device": %s\n    }'
                % q[event.device]
            )
        elif isinstance(event, Handoff):
            events.append(
                '    {\n      "kind": "handoff",\n      "device": %s,\n'
                '      "to_device": %s,\n      "from": %s,\n'
                '      "letter": "eps",\n      "to": %s\n    }'
                % (
                    q[event.source_device],
                    q[event.target_device],
                    q[event.source],
                    q[event.target],
                )
            )
        elif isinstance(event, Verdict):
            events.append(
                '    {\n      "kind": "verdict",\n      "device": %s,\n'
                '      "accepted": %s\n    }'
                % (q[event.device], "true" if event.accepted else "false")
            )
    devices = [
        f"    {q[path]}: {q[name]}" for path, name in sorted(trace.devices.items())
    ]

    def block(items: list[str], opening: str, closing: str) -> str:
        # A member's object or array at depth 1, or ``{}`` / ``[]`` when empty.
        if not items:
            return opening + closing
        return f"{opening}\n" + ",\n".join(items) + f"\n  {closing}"

    return "\n".join(
        [
            "{",
            f'  "input": {q[format_word(trace.input, alphabet)]},',
            f'  "overall": {"true" if trace.overall else "false"},',
            f'  "devices": {block(devices, "{", "}")},',
            f'  "events": {block(events, "[", "]")}',
            "}",
        ]
    )


def _trace_lines(trace: ControlTrace, alphabet: Iterable[Symbol]) -> list[str]:
    from .trace import Activate, Handoff, Step, Verdict

    def label(path: str) -> str:
        return trace.devices.get(path, path or "root")

    def location(path: str) -> str:
        return path or "root"

    lines = [
        f"input: {format_word(trace.input, alphabet)}",
        f"overall: {'accept' if trace.overall else 'reject'}",
    ]
    steps: dict[tuple, str] = {}  # a run repeats few steps
    for event in trace.events:
        if isinstance(event, Step):
            fields = event[:]  # a plain tuple, hashed and compared in C
            text = steps.get(fields)
            if text is None:
                text = steps[fields] = (
                    f"step {event.source} -{event.symbol}-> {event.target}"
                )
            lines.append(text)
        elif isinstance(event, Activate):
            lines.append(f"activate {label(event.device)} at {location(event.device)}")
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
    from .trace import _trace_composite

    env = _load_devices(args.devices)
    expr = parse_expression(args.expr)
    composite = elaborate(expr, env)
    input_word = parse_input(args.input, composite.alphabet)
    trace = _trace_composite(expr, env, composite, input_word)
    if args.json:
        print(_trace_json(trace, composite.alphabet))
    else:
        for line in _trace_lines(trace, composite.alphabet):
            print(line)
    return 0 if trace.overall else 1


def _cmd_equiv(args: argparse.Namespace) -> int:
    from .analysis import equivalent

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
    from .analysis import determinize, dfa_to_automaton

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
    import textwrap

    from .properties import DEFAULT_LETTERS, run_closure_suite

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
