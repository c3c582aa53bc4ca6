"""Command-line interface.

Subcommands: ``check`` (validate files), ``accept`` (run an input),
``trace`` (control-flow replay, text or JSON), ``equiv`` (language
comparison), ``compose`` / ``dfa`` (write canonical files), ``dot``
(graph export), and ``props`` (the seeded composition-law suite).

Exit codes: 0 for accept / equivalent / suite pass / success, 1 for
reject / inequivalent / suite fail, 2 for usage errors and every failure,
out of memory included.  Results go to stdout, diagnostics to stderr: a
parse problem as ``LINE:COL: code: message``, prefixed with the device file
or option (``-e:``, ``-e2:``, ``-i:``) at fault, and any other failure as
one ``error:`` line, which names the file or option at fault if there is
one (``error: -e2: no device named 'N9' is bound``).
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence, TypeVar

from . import _EXPORTS
from .algebra import CompositionExpr, elaborate
from .automaton import EPSILON, Automaton, Symbol, accepts
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
    from .trace import ControlTrace, TraceEvent

# Each handler imports what only it runs (analysis, trace, the property
# suite, json, textwrap), so a call loads only its own subcommand's code.

# The package exports ``run_cli``; ``main`` is the console script's entry
# point.
__all__ = [*_EXPORTS["cli"]]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nfalgebra",
        description="Compose, run, compare, and export epsilon-NFAs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def expression_command(
        name: str, handler: Callable[[argparse.Namespace], int], summary: str
    ) -> argparse.ArgumentParser:
        # A subcommand that elaborates an expression over ``-d`` files.
        p = sub.add_parser(name, help=summary)
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
        p.add_argument("-e", "--expr", required=True, help="composition expression")
        p.set_defaults(handler=handler)
        return p

    p = sub.add_parser("check", help="validate automaton files")
    p.add_argument("files", metavar="FILE", nargs="+")
    p.set_defaults(handler=_cmd_check)

    p = expression_command(
        "accept", _cmd_accept, "elaborate an expression and run an input"
    )
    p.add_argument("-i", "--input", required=True, help="input word")

    p = expression_command(
        "trace", _cmd_trace, "show the control-flow trace for an input"
    )
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = expression_command(
        "equiv", _cmd_equiv, "compare the languages of two expressions"
    )
    p.add_argument("-e2", "--expr2", dest="expr2", required=True)

    p = expression_command(
        "compose", _cmd_compose, "write the elaborated composite to a file"
    )
    p.add_argument("-o", "--output", required=True)

    p = expression_command(
        "dfa", _cmd_dfa, "write the determinized composite to a file"
    )
    p.add_argument("-o", "--output", required=True)

    p = expression_command("dot", _cmd_dot, "emit a DOT graph for the composite")
    p.add_argument(
        "--group",
        action="store_true",
        help="box states by their top-level namespace",
    )

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
    except Exception as err:  # exit 1 would read as a verdict
        _report(err)
        return 2


def main() -> None:
    raise SystemExit(run_cli(sys.argv[1:]))


class _SourceError(Exception):
    """``(source, cause)``: an input that could not be read, parsed or
    elaborated, a device file or the text of an option (``-e``, ``-e2``,
    ``-i``)."""


_T = TypeVar("_T")


def _parsed(source: str, parse: Callable[..., _T], *args: Any) -> _T:
    """``parse(*args)``, with a failure blamed on ``source``."""
    try:
        return parse(*args)
    except (OSError, ValueError) as err:
        raise _SourceError(source, err) from None


def _report(err: Exception) -> None:
    """Write a failure to stderr: a parse's diagnostics one a line, anything
    else as one ``error:`` line that names the exception's type unless it
    is a ``ValueError`` or ``OSError``.  Each line names the failing
    source, if any."""
    prefix = ""
    if isinstance(err, _SourceError):
        source, err = err.args
        # An empty path names nothing; open's message shows it as ''.
        prefix = f"{source}:" if source else ""
    if isinstance(err, ParseError):
        for diagnostic in err.diagnostics:
            print(prefix + diagnostic.render(), file=sys.stderr)
        return
    text = str(err)
    if not isinstance(err, (ValueError, OSError)):
        text = f"{type(err).__name__}: {text}" if text else type(err).__name__
    if prefix:
        text = f"{prefix} {text}"
    print(f"error: {text}", file=sys.stderr)


def _read_device(path: str) -> tuple[str, Automaton]:
    """A device file's name and automaton; the only way a file is read.
    Builtin ``open`` keeps an empty path empty (``Path("")`` is ``.``).  A
    leading byte-order mark, which some editors write, is dropped as the
    ``utf-8-sig`` codec would drop it, without loading that codec."""
    with open(path, encoding="utf-8") as file:
        return parse_automaton(file.read().removeprefix("\ufeff"))


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as file:
        file.write(text)


def _elaborated(
    args: argparse.Namespace,
) -> tuple[CompositionExpr, dict[str, Automaton], Automaton]:
    """The ``-e`` expression, the ``-d`` devices, and their composite.  All
    the files must exist and parse before any computation runs."""
    env: dict[str, Automaton] = {}
    for path in args.devices:
        name, automaton = _parsed(path, _read_device, path)
        if name in env:
            raise _SourceError(path, ValueError(f"duplicate device name {name!r}"))
        env[name] = automaton
    expr = _parsed("-e", parse_expression, args.expr)
    return expr, env, _parsed("-e", elaborate, expr, env)


def _cmd_check(args: argparse.Namespace) -> int:
    status = 0
    for path in args.files:
        try:
            name, automaton = _parsed(path, _read_device, path)
        except _SourceError as err:  # report it and check the next file
            _report(err)
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
    _, _, composite = _elaborated(args)
    input_word = _parsed("-i", parse_input, args.input, composite.alphabet)
    verdict = accepts(composite, input_word)
    print("accept" if verdict else "reject")
    return 0 if verdict else 1


def _event_texts(
    events: Iterable[TraceEvent], formats: dict[type, Callable[..., str]]
) -> list[str]:
    """Each event's text, from the formatter for its class.  A run repeats
    few distinct events, so each is formatted once: one memo per class,
    keyed on the event's fields as a plain tuple, hashed and compared in C."""
    memos: dict[type, dict[tuple, str]] = {kind: {} for kind in formats}
    texts = []
    for event in events:
        memo = memos[event.__class__]
        fields = event[:]
        text = memo.get(fields)
        if text is None:
            text = memo[fields] = formats[event.__class__](event)
        texts.append(text)
    return texts


def _trace_json(trace: ControlTrace, alphabet: Iterable[Symbol]) -> str:
    """The trace as ``json.dumps(payload, indent=2)`` spells it, written from
    one layout rule and each event kind's template built by it: with
    ``indent`` set, CPython before 3.13 falls back to its pure-Python
    encoder, which costs more than tracing a long word does.  From 3.13 the
    C encoder takes ``indent`` too, and it is still slower than this."""
    from json.encoder import encode_basestring_ascii

    from .trace import Activate, Handoff, Step, Verdict

    q = _Spellings(encode_basestring_ascii)  # a run repeats few names
    q.update({True: "true", False: "false"})  # JSON's booleans are bare

    def layout(opening: str, items: list[str], closing: str, depth: int) -> str:
        # An object or array at ``depth``: one encoded item a line, indented
        # one level deeper than its brackets, or ``{}`` / ``[]`` when empty.
        # One join, so a long array is copied once, into the document.
        if not items:
            return opening + closing
        outer = "\n" + "  " * depth
        inner = outer + "  "
        pieces = [opening]
        for item in items:
            pieces += (inner, item, ",")
        pieces[-1] = outer + closing  # in place of the last comma
        return "".join(pieces)

    def event(kind: str, *keys: str) -> Callable[[tuple], str]:
        # One kind's object in the events array, from a %s template laid out
        # once; the values are spelled in the order of ``keys``.
        items = [f'"kind": "{kind}"', *(f'"{key}": %s' for key in keys)]
        template = layout("{", items, "}", 2)
        return lambda values: template % tuple(map(q.__getitem__, values))

    handoff = event("handoff", "device", "to_device", "from", "letter", "to")
    events = _event_texts(
        trace.events,
        {
            Step: event("step", "device", "from", "letter", "to"),
            Activate: event("activate", "device"),
            # device, to_device and from, then the empty-string letter, then to.
            Handoff: lambda e: handoff((*e[:3], EPSILON, e.target)),
            Verdict: event("verdict", "device", "accepted"),
        },
    )
    devices = [f"{q[path]}: {q[name]}" for path, name in sorted(trace.devices.items())]
    document = [
        f'"input": {q[format_word(trace.input, alphabet)]}',
        f'"overall": {q[trace.overall]}',
        f'"devices": {layout("{", devices, "}", 1)}',
        f'"events": {layout("[", events, "]", 1)}',
    ]
    return layout("{", document, "}", 0)


def _trace_lines(trace: ControlTrace, alphabet: Iterable[Symbol]) -> list[str]:
    from .trace import Activate, Handoff, Step, Verdict

    def label(path: str) -> str:
        return trace.devices.get(path, path or "root")

    return [
        f"input: {format_word(trace.input, alphabet)}",
        f"overall: {'accept' if trace.overall else 'reject'}",
        *_event_texts(
            trace.events,
            {
                Step: lambda e: f"step {e.source} -{e.symbol}-> {e.target}",
                Activate: lambda e: (
                    f"activate {label(e.device)} at {e.device or 'root'}"
                ),
                Handoff: lambda e: (
                    f"handoff {label(e.source_device)} -> {label(e.target_device)}"
                    f" via {e.source} -eps-> {e.target}"
                ),
                Verdict: lambda e: (
                    f"verdict {label(e.device)}: {'accept' if e.accepted else 'reject'}"
                ),
            },
        ),
    ]


def _cmd_trace(args: argparse.Namespace) -> int:
    from .trace import _trace_composite

    expr, env, composite = _elaborated(args)
    input_word = _parsed("-i", parse_input, args.input, composite.alphabet)
    trace = _trace_composite(expr, env, composite, input_word)
    if args.json:
        print(_trace_json(trace, composite.alphabet))
    else:
        for line in _trace_lines(trace, composite.alphabet):
            print(line)
    return 0 if trace.overall else 1


def _cmd_equiv(args: argparse.Namespace) -> int:
    from .analysis import equivalent

    _, env, first = _elaborated(args)
    expr2 = _parsed("-e2", parse_expression, args.expr2)
    second = _parsed("-e2", elaborate, expr2, env)
    verdict = equivalent(first, second)
    if verdict.equivalent:
        print("equivalent")
        return 0
    assert verdict.counterexample is not None
    print(format_word(verdict.counterexample, first.alphabet | second.alphabet))
    return 1


def _cmd_compose(args: argparse.Namespace) -> int:
    _, _, composite = _elaborated(args)
    _write(args.output, render_automaton(composite, "composite"))
    return 0


def _cmd_dfa(args: argparse.Namespace) -> int:
    from .analysis import determinize, dfa_to_automaton

    _, _, composite = _elaborated(args)
    deterministic = dfa_to_automaton(determinize(composite))
    _write(args.output, render_automaton(deterministic, "dfa"))
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    _, _, composite = _elaborated(args)
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
