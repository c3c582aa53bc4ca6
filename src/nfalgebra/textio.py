"""Text formats: automaton files, expressions, input words, and DOT export.

Automaton file format (UTF-8, with or without a leading byte-order mark,
line oriented, ``#`` starts a comment, tokens are whitespace-separated)::

    name N1
    alphabet a b
    states p0 p1 p2 p3
    initial p0
    final p3
    trans p0 a p0

``name`` must be the first content line and each other section appears at
most once (``trans`` lines repeat, one edge per line).  ``alphabet`` and
``final`` may be empty or absent.  The token ``eps`` is reserved: it spells
the empty-string symbol in ``trans`` lines and is implicitly part of every
alphabet, so it may not be declared as a letter.  Namespaced states join
their path with dots (``L.p0``).  Letters may not contain ``#`` or ``,``,
state names may not contain ``#``, and the name may not contain ``#`` or
any of ``;|()``, which expressions could not refer to: the one rule for
device names is ``algebra.check_device_name``.  The CLI drops a leading
mark before ``parse_automaton`` sees the text.

Parsing reads the text in one pass, splitting each line on whitespace, and
reports every problem it finds, each at its line and column.  It keeps
only the section lines (``name``, ``alphabet``, ``states``, ``initial``,
``final``) whole.  A well-formed ``trans`` line is kept as its line number
and split again once the sections are read, when its edge is added with
one lookup per token; only a token that misses is reported.  So nothing
made for a trans line outlives it but its edge, however many edges the
file has.  A line's token columns are worked out only when a diagnostic
names that line, once per line, so a valid file costs no column
bookkeeping and a line with many bad tokens costs linear time.

Rendering is canonical: fixed section order and sorted tokens, so equal
automata render byte-identically and every render parses back to a
structurally equal value.  The trans lines come straight from the
transition map: its sources sorted once, its symbols sorted once, one
lookup per (source, symbol) pair, and each state spelled by the text it
was interned with.

Expression grammar (``;`` composes sequentially and binds tighter than
``|``; both are left-associative)::

    expr := par
    par  := cat ("|" cat)*
    cat  := atom (";" atom)*
    atom := IDENT | "(" expr ")"

Input words on the wire: when every alphabet letter is one character, a
word is a bare string like ``aabaaaab``; otherwise letters are separated
by commas.  Text holding a comma is read as comma-separated whatever the
alphabet, so the word e·p·s is spelled ``e,p,s``: the lone token ``eps``
(or an empty string) is the empty word.  ``format_word`` spells a word by
the same rule, given the alphabet it will be read against.
"""

from __future__ import annotations

import re
from itertools import accumulate, chain
from operator import attrgetter, itemgetter
from typing import Iterable, NoReturn

from . import _EXPORTS
from .algebra import (
    CompositionExpr,
    Concat,
    Device,
    Parallel,
    _positions,
    check_device_name,
)
from .automaton import (
    _EXPRESSION_MARKS,
    EPSILON,
    EPSILON_TOKEN,
    Automaton,
    StateId,
    Symbol,
    Word,
    _Frozen,
    _Memo,
    _state_order,
    state,
    symbol_key,
)

__all__ = [*_EXPORTS["textio"]]


class ParseDiagnostic(_Frozen):
    """One parse problem, pointing at the offending input position."""

    __match_args__ = ("line", "column", "code", "message")

    line: int
    column: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.line}:{self.column}: {self.code}: {self.message}"


class ParseError(ValueError):
    """Raised with every diagnostic collected from one parse."""

    def __init__(self, diagnostics: Iterable[ParseDiagnostic]):
        self.diagnostics = tuple(diagnostics)
        super().__init__("; ".join(d.render() for d in self.diagnostics))


# One content line of an automaton file: (line number, text before any
# comment, its whitespace-separated tokens).
_Line = tuple[int, str, list[str]]

# Stands in for an absent section: a directive with nothing after it.
_NO_LINE: _Line = (0, "", [""])

_SECTION_DIRECTIVES = ("alphabet", "states", "initial", "final")


def parse_automaton(text: str) -> tuple[str, Automaton]:
    """Parse one automaton file; returns its declared name and the value.

    All problems found in one pass are reported together.  A successful
    parse always yields an automaton with a clean validation report, since
    every transition endpoint and letter is resolved against the declared
    sections.
    """
    diagnostics: list[ParseDiagnostic] = []
    columns: dict[int, list[int]] = {}

    def report(line: _Line, index: int, code: str, message: str) -> None:
        """Record a diagnostic at token ``index`` of ``line``.

        A line's columns are found once, however many diagnostics name it.
        Only whitespace lies between one token and the next, so searching
        from the end of the previous token finds the next one's start.
        """
        lineno, body, tokens = line
        found = columns.get(lineno)
        if found is None:
            found = columns[lineno] = []
            end = 0
            for token in tokens:
                start = body.find(token, end)
                found.append(start + 1)
                end = start + len(token)
        diagnostics.append(ParseDiagnostic(lineno, found[index], code, message))

    lines = text.splitlines()
    numbered = enumerate(lines, start=1)
    for lineno, raw in numbered:
        body = raw.partition("#")[0]
        tokens = body.split()
        if tokens:
            break
    else:
        raise ParseError(
            [ParseDiagnostic(1, 1, "missing-name", "empty file: expected a name line")]
        )

    name = None
    first: _Line = (lineno, body, tokens)
    if tokens[0] == "name":
        if len(tokens) != 2:
            report(first, 0, "malformed-line", "name takes exactly one identifier")
        else:
            try:
                check_device_name(tokens[1])
            except ValueError as err:
                report(first, 1, "bad-name", str(err))
            else:
                name = tokens[1]
    else:
        report(first, 0, "missing-name", "first content line must be 'name <ident>'")
        numbered = chain([(lineno, raw)], numbered)

    # Each section's whole line, its directive at token 0, and the line
    # number of each well-formed trans line, whose edge is added once the
    # sections are known.
    sections: dict[str, _Line] = {}
    edges: list[int] = []
    for lineno, raw in numbered:
        body = raw.partition("#")[0]
        tokens = body.split()
        if not tokens:
            continue
        directive = tokens[0]
        if directive == "trans" and len(tokens) == 4:
            edges.append(lineno)
            continue
        line = (lineno, body, tokens)
        if directive == "trans":
            message = "trans takes exactly: <from> <letter|eps> <to>"
            report(line, 0, "malformed-line", message)
        elif directive in _SECTION_DIRECTIVES:
            if directive in sections:
                report(
                    line,
                    0,
                    "duplicate-section",
                    f"{directive} already declared on line {sections[directive][0]}",
                )
            elif directive == "initial" and len(tokens) != 2:
                report(line, 0, "malformed-line", "initial takes exactly one state")
            else:
                sections[directive] = line
        elif directive == "name":
            report(line, 0, "duplicate-section", "name already declared")
        else:
            report(line, 0, "unknown-directive", f"unknown directive {directive!r}")

    states_by_token: dict[str, StateId] = {}
    line = sections.get("states", _NO_LINE)
    for index, token in enumerate(line[2][1:], start=1):
        try:
            states_by_token[token] = state(token)
        except ValueError as err:
            report(line, index, "bad-state-name", str(err))

    alphabet: dict[str, Symbol] = {}
    line = sections.get("alphabet", _NO_LINE)
    for index, token in enumerate(line[2][1:], start=1):
        if token == EPSILON_TOKEN:
            report(
                line,
                index,
                "reserved-token",
                f"{EPSILON_TOKEN!r} is implicit in every alphabet",
            )
        else:
            try:
                alphabet[token] = Symbol(token)
            except ValueError as err:
                report(line, index, "bad-letter", str(err))

    def resolve_state(line: _Line, index: int) -> StateId | None:
        token = line[2][index]
        found = states_by_token.get(token)
        if found is None:
            report(line, index, "unknown-state", f"state {token!r} is not declared")
        return found

    initial = None
    if "initial" in sections:
        initial = resolve_state(sections["initial"], 1)
    else:
        diagnostics.append(
            ParseDiagnostic(1, 1, "missing-initial", "no initial line declared")
        )

    line = sections.get("final", _NO_LINE)
    finals = {resolve_state(line, index) for index in range(1, len(line[2]))}
    finals.discard(None)

    symbols = {**alphabet, EPSILON_TOKEN: EPSILON}
    state_of, symbol_of = states_by_token.get, symbols.get
    transitions: dict[tuple[StateId, Symbol], list[StateId]] = {}
    for lineno in edges:
        body = lines[lineno - 1].partition("#")[0]
        _, from_token, symbol_token, to_token = tokens = body.split()
        source, target = state_of(from_token), state_of(to_token)
        symbol = symbol_of(symbol_token)
        if source is None or symbol is None or target is None:
            line = (lineno, body, tokens)
            resolve_state(line, 1)
            resolve_state(line, 3)
            if symbol is None:
                message = f"letter {symbol_token!r} is not in the alphabet"
                report(line, 2, "unknown-symbol", message)
            continue
        key = (source, symbol)
        targets = transitions.get(key)
        if targets is None:
            transitions[key] = [target]
        else:
            targets.append(target)

    if diagnostics:
        diagnostics.sort(key=lambda d: (d.line, d.column))
        raise ParseError(diagnostics)

    assert name is not None and initial is not None
    automaton = Automaton(
        alphabet=frozenset(alphabet.values()),
        states=frozenset(states_by_token.values()),
        initial=initial,
        transitions=transitions,
        finals=finals,
    )
    return name, automaton


# A state's dotted spelling, read without calling ``StateId.__str__``.
_spelling = attrgetter("_text")


def render_automaton(automaton: Automaton, name: str = "A") -> str:
    """Canonical text for an automaton: sorted, byte-stable, reparseable.

    Each trans line joins its source's ``trans <source>`` head, its
    symbol's `` <letter> `` middle, each built once, and its target's
    spelling.
    """
    check_device_name(name)
    lines = [
        f"name {name}",
        " ".join(["alphabet", *map(str, automaton.letters())]),
        " ".join(
            ["states", *map(_spelling, sorted(automaton.states, key=_state_order))]
        ),
        f"initial {automaton.initial}",
        " ".join(
            ["final", *map(_spelling, sorted(automaton.finals, key=_state_order))]
        ),
    ]
    transitions = automaton.transitions
    sources = sorted(set(map(itemgetter(0), transitions)), key=_state_order)
    symbols = sorted(set(map(itemgetter(1), transitions)), key=symbol_key)
    middles = [(symbol, f" {symbol} ") for symbol in symbols]
    targets_of = transitions.get
    append = lines.append
    for source in sources:
        head = "trans " + source._text
        for symbol, middle in middles:
            targets = targets_of((source, symbol))
            if targets is None:
                continue
            stem = head + middle
            if len(targets) > 1:
                targets = sorted(targets, key=_state_order)
            for target in targets:
                append(stem + target._text)
    return "\n".join(lines) + "\n"


# A device name, or one mark of the expression grammar.
_EXPR_TOKEN = re.compile(r"[^{0}\s]+|[{0}]".format(re.escape(_EXPRESSION_MARKS)))


def parse_expression(text: str) -> CompositionExpr:
    """Parse an expression; ``;`` binds tighter than ``|``, both left-associative.

    A leaf whose name breaks ``check_device_name`` (one holding ``#``) is a
    ``bad-name`` at its column.
    """
    tokens: list[tuple[str, int, int]] = []
    for lineno, raw in enumerate(text.splitlines() or [""], start=1):
        for m in _EXPR_TOKEN.finditer(raw):
            tokens.append((m.group(), lineno, m.start() + 1))
    if not tokens:
        raise ParseError(
            [ParseDiagnostic(1, 1, "empty-input", "expected an expression")]
        )

    end_line, end_column = tokens[-1][1], tokens[-1][2] + len(tokens[-1][0])

    def fail(code: str, message: str, token: tuple[str, int, int] | None) -> NoReturn:
        if token is None:
            raise ParseError([ParseDiagnostic(end_line, end_column, code, message)])
        raise ParseError([ParseDiagnostic(token[1], token[2], code, message)])

    # One frame per open parenthesis (the bottom one is the whole input),
    # holding the finished "|" operands so far and the ";" chain in progress,
    # so nesting depth costs heap, not the interpreter's stack.
    frames: list[list[CompositionExpr | None]] = [[None, None]]
    position = 0
    while True:
        # Expecting an operand.
        token = tokens[position] if position < len(tokens) else None
        if token is None:
            fail("expected-operand", "expected a device name or '('", None)
        position += 1
        if token[0] == "(":
            frames.append([None, None])
            continue
        if token[0] in (")", ";", "|"):
            fail(
                "expected-operand", f"expected a device name, found {token[0]!r}", token
            )
        try:
            node: CompositionExpr = Device(token[0])
        except ValueError as err:
            fail("bad-name", str(err), token)
        # Fold the operand in, closing every parenthesis that follows it.
        while True:
            frame = frames[-1]
            chain = node if frame[1] is None else Concat(frame[1], node)
            token = tokens[position] if position < len(tokens) else None
            if token is not None and token[0] == ";":
                position += 1
                frame[1] = chain
                break
            node = chain if frame[0] is None else Parallel(frame[0], chain)
            if token is not None and token[0] == "|":
                position += 1
                frame[:] = [node, None]
                break
            if len(frames) == 1:
                if token is None:
                    return node
                if token[0] == ")":
                    fail("unbalanced-paren", "unmatched ')'", token)
                fail("expected-operator", f"unexpected {token[0]!r}", token)
            if token is None or token[0] != ")":
                fail("unbalanced-paren", "expected ')'", token)
            position += 1
            frames.pop()


def render_expression(expr: CompositionExpr) -> str:
    """Minimal-parenthesis text that parses back to the identical tree."""
    precedence = {Parallel: 1, Concat: 2, Device: 3}
    # Each finished subtree's text waits on ``rendered`` until its parent
    # joins it.
    rendered: list[str] = []
    for node, _ in reversed(_positions(expr)):
        if isinstance(node, Device):
            rendered.append(node.name)
            continue
        joiner = " ; " if isinstance(node, Concat) else " | "
        mine = precedence[node.__class__]
        left = rendered.pop()
        right = rendered.pop()
        if precedence[node.left.__class__] < mine:
            left = f"({left})"
        if precedence[node.right.__class__] <= mine:  # right nesting must stay explicit
            right = f"({right})"
        rendered.append(f"{left}{joiner}{right}")
    return rendered.pop()


def _quote(value: object) -> str:
    return '"' + str(value).replace("\\", "\\\\").replace('"', '\\"') + '"'


def render_dot(automaton: Automaton, group_by_namespace: bool = False) -> str:
    """DOT graph of an automaton.

    Finals are double circles, an arrow from a point-shaped phantom marks
    the initial state, and every transition is one labeled edge.  With
    ``group_by_namespace``, states sharing a top-level namespace segment
    are drawn inside one labeled cluster, mirroring how a composite hides
    each operand behind a box; root-level states stay outside any cluster.
    """
    lines = [
        "digraph automaton {",
        "  rankdir=LR;",
        "  node [shape=circle];",
        '  "entry point" [shape=point, label=""];',
    ]
    grouped: dict[str | None, list[str]] = {}
    # Each state, letter or name is quoted once, however many lines repeat
    # it (an invalid automaton's undeclared states included).
    quoted = _Memo(_quote)
    quoted[EPSILON] = _quote("ε")
    for s in sorted(automaton.states, key=_state_order):
        shape = " [shape=doublecircle]" if s in automaton.finals else ""
        text = s._text
        cluster = text.partition(".")[0] if group_by_namespace and "." in text else None
        grouped.setdefault(cluster, []).append(f"{quoted[s]}{shape};")
    for segment in sorted(k for k in grouped if k is not None):
        lines.append(f"  subgraph {_quote('cluster_' + segment)} {{")
        lines.append(f"    label={_quote(segment)};")
        lines.extend(f"    {entry}" for entry in grouped[segment])
        lines.append("  }")
    lines.extend(f"  {entry}" for entry in grouped.get(None, []))
    lines.append(f'  "entry point" -> {quoted[automaton.initial]};')
    lines.extend(
        f"  {quoted[source]} -> {quoted[target]} [label={quoted[symbol]}];"
        for source, symbol, target in automaton.edges()
    )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _spelled_bare(tokens: Iterable[str]) -> bool:
    """Whether words over these letters are written bare; ``parse_input``
    and ``format_word`` share this rule, so one reads what the other wrote."""
    return all(len(token) == 1 for token in tokens)


def parse_input(text: str, alphabet: Iterable[Symbol]) -> Word:
    """Decode the wire spelling of an input word against an alphabet."""
    by_token = {str(s): s for s in frozenset(alphabet)}
    if text in ("", EPSILON_TOKEN):
        return ()
    if "," not in text and _spelled_bare(by_token):
        tokens: Iterable[str] = text
        columns: Iterable[int] = range(1, len(text) + 1)
    else:
        parts = text.split(",")
        tokens = list(map(str.strip, parts))
        columns = accumulate((len(part) + 1 for part in parts), initial=1)
    try:
        return tuple(map(by_token.__getitem__, tokens))
    except KeyError:
        raise ParseError(
            ParseDiagnostic(
                1, column, "unknown-symbol", f"letter {token!r} is not in the alphabet"
            )
            for token, column in zip(tokens, columns)
            if token not in by_token
        ) from None


def format_word(input_word: Word, alphabet: Iterable[Symbol] = ()) -> str:
    """Inverse of ``parse_input``: the display spelling of a word.

    The word is written bare only when its letters and those of
    ``alphabet`` are all one character long, so passing the alphabet the
    word will be read against makes ``parse_input`` read it back.
    """
    if not input_word:
        return EPSILON_TOKEN
    tokens = [str(s) for s in input_word]
    bare = "".join(tokens)
    if _spelled_bare([*tokens, *map(str, alphabet)]) and bare != EPSILON_TOKEN:
        return bare
    return ",".join(tokens)
