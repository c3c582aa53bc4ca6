"""Independent reference implementations used to cross-check the library.

``oracle_accepts`` decides acceptance by a top-down search over individual
runs, which shares no code with the frontier simulation in the package.
``epsilon_closure`` and ``step`` are the set-based simulation the package's
integer kernel replaced, with their own alphabet and state checks, and
``dfa_accepts`` walks a ``Dfa`` table letter by letter.
``reference_witness``, ``reference_determinize``, ``reference_equivalent``
and ``reference_enumerate_language`` are the set-based search, subset
construction, product equivalence and brute-force enumeration that the
kernel replaced; they run on ``step`` and ``epsilon_closure`` and on
``product`` and ``is_empty`` below, so the kernel is judged by code that
never touches it.  ``reference_splits`` is the quadratic ``splits`` that
ran a membership test on every prefix and every suffix; here the tests
are ``oracle_accepts``.  ``product`` and ``is_empty`` are the synchronous
product of two ``Dfa`` tables and its least-word search.
``reference_verdict`` is the equivalence verdict on two such DFAs, for a
caller that already holds them.
``reference_instantiate``, ``reference_concat`` and ``reference_parallel``
are the paper's renaming and two operators written from their
definitions, on sets; they import nothing from the package's algebra but
its value and error classes.  ``reference_elaborate`` is their recursive
fold, so the one-pass ``elaborate`` is judged by code that shares none of
its renaming, bridge or fork.
``reference_validate`` is the ``validate`` that kept one set of reported
states and one of reported letters, where ``validate`` keeps one set of
known names that each stray joins once reported.
``reference_parse_automaton`` is the automaton-file parser that tracked a
column for every token as it read it, where ``parse_automaton`` finds
columns only for the lines its diagnostics name.
``reference_closure_suite`` is the closure suite's word-by-word loop,
which checked every word even when each law's language equals its oracle.
``reference_render_automaton`` is the writer that spelled one line per
edge triple, where ``render_automaton`` walks the transition map itself.
Every oracle orders states by ``state_order``, their ``(namespace,
local)`` tuple, and edges by ``canonical_edges``, never by the package's
own sort key, ``StateId.__lt__`` or ``Automaton.edges()``.
``Activate``, ``Step``, ``Handoff`` and ``Verdict`` are the frozen
dataclass events that the package's named-tuple events replaced, and
``reference_control_trace`` builds a trace of them the way the package
once did: it walks each state's namespace down the expression tree, on
``reference_elaborate`` and ``reference_witness``.
``trace_payload`` is the ``trace --json`` document as a value:
``json.dumps(trace_payload(...), indent=2)`` is the text the CLI's
template writer must produce.
The string predicates describe the bundled devices' languages directly.
"""

from __future__ import annotations

import itertools
import random
import re
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

from nfalgebra import (
    EPSILON,
    EPSILON_TOKEN,
    Automaton,
    CompositionExpr,
    Concat,
    ControlTrace,
    Device,
    DeviceEnvironment,
    Dfa,
    EnumerationBoundError,
    EquivalenceVerdict,
    InvalidDeviceError,
    ParseDiagnostic,
    ParseError,
    RunWitness,
    StateClashError,
    StateId,
    SubsetState,
    Symbol,
    UnboundDeviceError,
    UnknownSymbolError,
    Violation,
    Word,
    format_word,
    leaf_devices,
    pad_alphabet,
    state,
    symbol_key,
)
from nfalgebra import properties
from nfalgebra.properties import LawFailure, all_words, random_automaton


class UnknownStateError(ValueError):
    """A referenced state is not part of the automaton."""


def state_order(s: StateId) -> tuple[tuple[str, ...], str]:
    """The canonical order of states, read from their two fields, so no
    oracle shares the sort key of the code it checks."""
    return s.namespace, s.local


def canonical_edges(automaton: Automaton) -> list[tuple[StateId, Symbol, StateId]]:
    """Every transition as a (source, symbol, target) triple, ordered by
    source, then symbol, then target: ``Automaton.edges()`` written apart."""
    triples = [
        (source, symbol, target)
        for (source, symbol), targets in automaton.transitions.items()
        for target in targets
    ]
    triples.sort(key=lambda e: (state_order(e[0]), symbol_key(e[1]), state_order(e[2])))
    return triples


def epsilon_closure(
    automaton: Automaton, sources: Iterable[StateId]
) -> frozenset[StateId]:
    """Smallest superset of ``sources`` closed under empty-string moves."""
    pending = list(sources)
    unknown = [s for s in pending if s not in automaton.states]
    unknown.sort(key=state_order)
    if unknown:
        listed = ", ".join(str(s) for s in unknown)
        raise UnknownStateError(f"unknown states: {listed}")
    closed: set[StateId] = set()
    while pending:
        current = pending.pop()
        if current in closed:
            continue
        closed.add(current)
        pending.extend(automaton.targets(current, EPSILON))
    return frozenset(closed)


def step(
    automaton: Automaton, current: Iterable[StateId], symbol: Symbol
) -> frozenset[StateId]:
    """One letter of simulation.

    Moves every state of ``current`` (assumed already closed) on ``symbol``,
    then closes the result under empty-string moves.  A state of
    ``current`` that is not declared raises ``UnknownStateError`` naming
    the least such state.
    """
    if symbol.is_epsilon or symbol not in automaton.alphabet:
        raise UnknownSymbolError(f"symbol {symbol} is not a letter of the alphabet")
    sources = list(current)
    unknown = [s for s in sources if s not in automaton.states]
    if unknown:
        raise UnknownStateError(f"unknown state: {min(unknown, key=state_order)}")
    moved: set[StateId] = set()
    for source in sources:
        moved.update(automaton.targets(source, symbol))
    return epsilon_closure(automaton, moved)


def dfa_accepts(dfa: Dfa, input_word: Iterable[Symbol]) -> bool:
    """Walk the total transition table row by row; no search involved."""
    column = {sym: k for k, sym in enumerate(sorted(dfa.alphabet, key=symbol_key))}
    current = 0
    for symbol in input_word:
        if symbol not in column:
            raise UnknownSymbolError(
                f"symbol {symbol} is not a letter of the alphabet"
            )
        current = dfa.transition[current][column[symbol]]
    return current in dfa.finals


def oracle_accepts(automaton: Automaton, input_word: Word) -> bool:
    """Brute-force run search.

    Tries every transition recursively, allowing at most |states|
    consecutive empty-string moves between letters (longer chains revisit
    a state and add nothing).  Memoized on (state, position, budget).
    """
    budget = len(automaton.states)
    memo: dict[tuple[StateId, int, int], bool] = {}

    def search(current: StateId, position: int, eps_left: int) -> bool:
        key = (current, position, eps_left)
        if key in memo:
            return memo[key]
        found = position == len(input_word) and current in automaton.finals
        if not found and position < len(input_word):
            found = any(
                search(target, position + 1, budget)
                for target in automaton.targets(current, input_word[position])
            )
        if not found and eps_left > 0:
            found = any(
                search(target, position, eps_left - 1)
                for target in automaton.targets(current, EPSILON)
            )
        memo[key] = found
        return found

    return search(automaton.initial, 0, budget)


def reference_witness(automaton: Automaton, input_word: Word) -> RunWitness | None:
    """Breadth-first search over (position, state) with sorted moves."""
    for symbol in input_word:
        if symbol.is_epsilon or symbol not in automaton.alphabet:
            raise UnknownSymbolError(f"symbol {symbol} is not a letter of the alphabet")
    start = (0, automaton.initial)
    parents: dict[tuple[int, StateId], tuple[tuple[int, StateId], Symbol] | None]
    parents = {start: None}
    queue: deque[tuple[int, StateId]] = deque([start])
    goal: tuple[int, StateId] | None = None
    while queue:
        config = queue.popleft()
        position, current = config
        if position == len(input_word) and current in automaton.finals:
            goal = config
            break
        moves: list[tuple[tuple[int, StateId], Symbol]] = []
        if position < len(input_word):
            consumed = input_word[position]
            for target in automaton.targets(current, consumed):
                moves.append(((position + 1, target), consumed))
        for target in automaton.targets(current, EPSILON):
            moves.append(((position, target), EPSILON))
        moves.sort(key=lambda move: (state_order(move[0][1]), symbol_key(move[1])))
        for successor, symbol in moves:
            if successor not in parents:
                parents[successor] = (config, symbol)
                queue.append(successor)
    if goal is None:
        return None
    states = [goal[1]]
    symbols: list[Symbol] = []
    cursor = goal
    while True:
        back = parents[cursor]
        if back is None:
            break
        cursor, symbol = back
        states.append(cursor[1])
        symbols.append(symbol)
    states.reverse()
    symbols.reverse()
    return RunWitness(tuple(states), tuple(symbols))


def reference_determinize(automaton: Automaton) -> Dfa:
    """Subset construction over sorted tuples of states, one ``step`` per
    move, numbering each subset when the queue first meets it."""
    letters = automaton.letters()
    initial = tuple(
        sorted(epsilon_closure(automaton, (automaton.initial,)), key=state_order)
    )
    numbers = {initial: 0}
    rows = []
    queue = deque([initial])
    while queue:
        subset = queue.popleft()
        row = []
        for sym in letters:
            successor = tuple(sorted(step(automaton, subset, sym), key=state_order))
            if successor not in numbers:
                numbers[successor] = len(numbers)
                queue.append(successor)
            row.append(numbers[successor])
        rows.append(row)
    finals = [n for s, n in numbers.items() if not automaton.finals.isdisjoint(s)]
    return Dfa(automaton.alphabet, list(numbers), rows, finals)


class AlphabetMismatchError(ValueError):
    """Product operands must share one alphabet; pad to the union first."""


def product(
    left: Dfa, right: Dfa, combine: Callable[[bool, bool], bool]
) -> Dfa:
    """Synchronous product of two DFAs over the same alphabet.

    A pair state is final iff ``combine(left-final?, right-final?)``.  Pair
    states are numbered in breadth-first order from ``(0, 0)`` and labelled
    by tagging each side's members with an L/R namespace and taking the
    union, which keeps the result an ordinary Dfa.
    """
    if left.alphabet != right.alphabet:
        raise AlphabetMismatchError(
            "product requires identical alphabets; pad to the union first"
        )
    columns = range(len(left.alphabet))

    def encode(ls: int, rs: int) -> SubsetState:
        tagged = [StateId(("L", *s.namespace), s.local) for s in left.states[ls]]
        tagged += [StateId(("R", *s.namespace), s.local) for s in right.states[rs]]
        return tuple(sorted(tagged, key=state_order))

    numbers: dict[tuple[int, int], int] = {(0, 0): 0}
    rows: list[list[int]] = []
    finals: set[int] = set()
    queue: deque[tuple[int, int]] = deque([(0, 0)])
    while queue:
        ls, rs = pair = queue.popleft()
        if combine(ls in left.finals, rs in right.finals):
            finals.add(numbers[pair])
        row = []
        for k in columns:
            successor = (left.transition[ls][k], right.transition[rs][k])
            if successor not in numbers:
                numbers[successor] = len(numbers)
                queue.append(successor)
            row.append(numbers[successor])
        rows.append(row)
    return Dfa(left.alphabet, [encode(*pair) for pair in numbers], rows, finals)


def is_empty(dfa: Dfa) -> Word | None:
    """None when the language is empty, else its least word.

    Breadth-first over the table with letters in canonical order, so the
    returned word is the shortest accepted one, lexicographically least
    among the shortest.
    """
    letters = sorted(dfa.alphabet, key=symbol_key)
    reached: dict[int, Word] = {0: ()}
    queue: deque[int] = deque([0])
    while queue:
        current = queue.popleft()
        if current in dfa.finals:
            return reached[current]
        for sym, successor in zip(letters, dfa.transition[current]):
            if successor not in reached:
                reached[successor] = reached[current] + (sym,)
                queue.append(successor)
    return None


def reference_equivalent(a: Automaton, b: Automaton) -> EquivalenceVerdict:
    """Both full DFAs over the union alphabet, then their difference product."""
    union = a.alphabet | b.alphabet
    left = reference_determinize(pad_alphabet(a, union))
    right = reference_determinize(pad_alphabet(b, union))
    return reference_verdict(left, right)


def reference_verdict(left: Dfa, right: Dfa) -> EquivalenceVerdict:
    """The verdict on two full DFAs over one alphabet: the least word of
    their difference product, if it has one.  A caller that already holds
    both DFAs skips ``reference_equivalent``'s subset constructions.

    This is ``is_empty`` run on ``product(left, right, !=)`` without
    building the product: the same breadth-first search from ``(0, 0)``,
    letters in canonical order, on pairs of row indices, which need no
    labels."""
    if left.alphabet != right.alphabet:
        raise AlphabetMismatchError(
            "product requires identical alphabets; pad to the union first"
        )
    letters = sorted(left.alphabet, key=symbol_key)
    reached: dict[tuple[int, int], Word] = {(0, 0): ()}
    queue: deque[tuple[int, int]] = deque([(0, 0)])
    while queue:
        ls, rs = pair = queue.popleft()
        if (ls in left.finals) != (rs in right.finals):
            return EquivalenceVerdict(False, reached[pair])
        moves = zip(left.transition[ls], right.transition[rs])
        for sym, successor in zip(letters, moves):
            if successor not in reached:
                reached[successor] = reached[pair] + (sym,)
                queue.append(successor)
    return EquivalenceVerdict(True, None)


def reference_enumerate_language(
    automaton: Automaton, max_len: int, cap: int = 10
) -> list[Word]:
    """Every word simulated directly with ``step``, depth first in prefix
    order (shared prefixes share their frontier), then sorted."""
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    if max_len > cap:
        raise EnumerationBoundError(
            f"max_len {max_len} exceeds the configured cap {cap}"
        )
    letters = automaton.letters()
    accepted: list[Word] = []

    def explore(prefix: Word, frontier: frozenset[StateId], remaining: int) -> None:
        if not automaton.finals.isdisjoint(frontier):
            accepted.append(prefix)
        if remaining == 0:
            return
        for sym in letters:
            successor = step(automaton, frontier, sym)
            if successor:  # a dead frontier never accepts anything below it
                explore(prefix + (sym,), successor, remaining - 1)

    explore((), epsilon_closure(automaton, (automaton.initial,)), max_len)
    accepted.sort(key=lambda w: (len(w), tuple(symbol_key(s) for s in w)))
    return accepted


def reference_splits(left: Automaton, right: Automaton, input_word: Word) -> set[int]:
    """Every cut decided by two ``oracle_accepts`` calls, one on the prefix
    and one on the suffix."""
    return {
        i
        for i in range(len(input_word) + 1)
        if oracle_accepts(left, input_word[:i])
        and oracle_accepts(right, input_word[i:])
    }


def reference_instantiate(automaton: Automaton, segment: str) -> Automaton:
    """Every state the value mentions, declared or not, with ``segment``
    put in front of its namespace; ``StateId`` rejects a bad segment."""

    def renamed(s: StateId) -> StateId:
        return StateId((segment,) + s.namespace, s.local)

    return Automaton(
        alphabet=automaton.alphabet,
        states={renamed(s) for s in automaton.states},
        initial=renamed(automaton.initial),
        transitions={
            (renamed(source), symbol): {renamed(t) for t in targets}
            for (source, symbol), targets in automaton.transitions.items()
        },
        finals={renamed(s) for s in automaton.finals},
    )


def _disjoint_union(left: Automaton, right: Automaton) -> dict:
    """Both transition relations as one map of sets, once no state is
    declared on both sides (so two valid operands share no key); the clash
    error names the five least shared states."""
    shared = sorted((s for s in left.states if s in right.states), key=state_order)
    if shared:
        listed = ", ".join(str(s) for s in shared[:5])
        raise StateClashError(f"operand state sets overlap: {listed}")
    union: dict = {}
    for operand in (left, right):
        for key, targets in operand.transitions.items():
            union.setdefault(key, set()).update(targets)
    return union


def reference_concat(left: Automaton, right: Automaton) -> Automaton:
    """Start where ``left`` starts, accept where ``right`` accepts, and add
    an empty-string edge from each final of ``left`` to the initial state
    of ``right``."""
    transitions = _disjoint_union(left, right)
    for final in left.finals:
        transitions.setdefault((final, EPSILON), set()).add(right.initial)
    return Automaton(
        alphabet=left.alphabet | right.alphabet,
        states=left.states | right.states,
        initial=left.initial,
        transitions=transitions,
        finals=right.finals,
    )


def reference_parallel(left: Automaton, right: Automaton) -> Automaton:
    """A new root-level initial state with empty-string edges into both
    operands, named by the first of r0, r01, r02, ... that neither operand
    declares; either operand's finals accept."""
    transitions = _disjoint_union(left, right)
    states = left.states | right.states
    names = (StateId((), "r0" if k == 0 else f"r0{k}") for k in itertools.count())
    root = next(name for name in names if name not in states)
    transitions[(root, EPSILON)] = {left.initial, right.initial}
    return Automaton(
        alphabet=left.alphabet | right.alphabet,
        states=states | {root},
        initial=root,
        transitions=transitions,
        finals=left.finals | right.finals,
    )


def reference_elaborate(expr: CompositionExpr, env: DeviceEnvironment) -> Automaton:
    """Fold the tree bottom-up: elaborate both operands, rename them under
    "L" and "R" with ``reference_instantiate``, and combine them with
    ``reference_concat`` or ``reference_parallel``."""
    if isinstance(expr, Device):
        automaton = env.get(expr.name)
        if automaton is None:
            raise UnboundDeviceError(f"no device named {expr.name!r} is bound")
        problems = reference_validate(automaton)
        if problems:
            detail = "; ".join(v.code for v in problems)
            raise InvalidDeviceError(f"device {expr.name!r} is invalid: {detail}")
        return automaton
    left = reference_instantiate(reference_elaborate(expr.left, env), "L")
    right = reference_instantiate(reference_elaborate(expr.right, env), "R")
    combine = reference_concat if isinstance(expr, Concat) else reference_parallel
    return combine(left, right)


def reference_validate(automaton: Automaton) -> list[Violation]:
    """Every broken invariant, in ``validate``'s codes, messages and order:
    the empty-string symbol as a letter, an undeclared initial state, each
    undeclared final in state order, then per edge in canonical order its
    undeclared endpoints (source, then target) and its stray letter, each
    reported the first time it occurs."""
    report: list[Violation] = []
    if EPSILON in automaton.alphabet:
        report.append(
            Violation(
                "epsilon-in-alphabet",
                "the empty-string symbol is implicit and must not be stored",
            )
        )
    if automaton.initial not in automaton.states:
        report.append(
            Violation(
                "initial-not-in-states",
                f"initial state {automaton.initial} is not a declared state",
            )
        )
    for final in sorted(automaton.finals, key=state_order):
        if final not in automaton.states:
            report.append(
                Violation(
                    "final-not-in-states",
                    f"final state {final} is not a declared state",
                )
            )
    bad_states: set[StateId] = set()
    bad_symbols: set[Symbol] = set()
    for source, symbol, target in canonical_edges(automaton):
        for endpoint in (source, target):
            if endpoint not in automaton.states and endpoint not in bad_states:
                bad_states.add(endpoint)
                report.append(
                    Violation(
                        "endpoint-not-in-states",
                        f"transition endpoint {endpoint} is not a declared state",
                    )
                )
        if (
            not symbol.is_epsilon
            and symbol not in automaton.alphabet
            and symbol not in bad_symbols
        ):
            bad_symbols.add(symbol)
            report.append(
                Violation(
                    "unknown-symbol",
                    f"transition letter {symbol} is not in the alphabet",
                )
            )
    return report


def reference_closure_suite(seed: int, cases: int, max_len: int) -> list[LawFailure]:
    """``run_closure_suite``'s failures as its word-by-word loop found them:
    every word checked against both laws' oracles, whether or not the
    languages differ, each verdict by ``oracle_accepts`` on
    ``reference_elaborate``.  The laws are read from ``properties._LAWS``
    when called, so a test that patches them patches both."""
    rng = random.Random(seed)
    words = all_words(max_len)
    failures = []
    for case in range(cases):
        left, right = random_automaton(rng), random_automaton(rng)
        env = {"left": left, "right": right}
        left_language = set(reference_enumerate_language(left, max_len))
        right_language = set(reference_enumerate_language(right, max_len))
        oracles = {
            "concat": {
                w
                for w in words
                for i in range(len(w) + 1)
                if w[:i] in left_language and w[i:] in right_language
            },
            "parallel": left_language | right_language,
        }
        composites = [
            (law, reference_elaborate(expr, env)) for law, expr in properties._LAWS
        ]
        for w in words:
            for law, composite in composites:
                verdict = oracle_accepts(composite, w)
                if verdict != (w in oracles[law]):
                    failures.append(
                        LawFailure(case, law, w, verdict, not verdict, left, right)
                    )
    return failures


_TOKEN = re.compile(r"\S+")

_SECTION_DIRECTIVES = ("alphabet", "states", "initial", "final")

_EXPRESSION_MARKS = ";|()"


def reference_parse_automaton(text: str) -> tuple[str, Automaton]:
    """Parse one automaton file; returns its declared name and the value.

    All problems found in one pass are reported together.  A successful
    parse always yields an automaton with a clean validation report, since
    every transition endpoint and letter is resolved against the declared
    sections.
    """
    diagnostics: list[ParseDiagnostic] = []
    content: list[tuple[int, list[tuple[str, int]]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        tokens = [(m.group(), m.start() + 1) for m in _TOKEN.finditer(body)]
        if tokens:
            content.append((lineno, tokens))

    if not content:
        raise ParseError(
            [ParseDiagnostic(1, 1, "missing-name", "empty file: expected a name line")]
        )

    name = None
    body_lines = content
    first_line, first_tokens = content[0]
    if first_tokens[0][0] == "name":
        body_lines = content[1:]
        if len(first_tokens) != 2:
            diagnostics.append(
                ParseDiagnostic(
                    first_line,
                    first_tokens[0][1],
                    "malformed-line",
                    "name takes exactly one identifier",
                )
            )
        elif any(ch in _EXPRESSION_MARKS for ch in first_tokens[1][0]):
            diagnostics.append(
                ParseDiagnostic(
                    first_line,
                    first_tokens[1][1],
                    "bad-name",
                    f"device name {first_tokens[1][0]!r} contains one of "
                    f"{_EXPRESSION_MARKS!r}, which expressions cannot refer to",
                )
            )
        else:
            name = first_tokens[1][0]
    else:
        diagnostics.append(
            ParseDiagnostic(
                first_line,
                first_tokens[0][1],
                "missing-name",
                "first content line must be 'name <ident>'",
            )
        )

    sections: dict[str, list[tuple[str, int]]] = {}
    section_lines: dict[str, int] = {}
    edges: list[tuple[int, list[tuple[str, int]]]] = []
    for lineno, tokens in body_lines:
        directive, column = tokens[0]
        rest = tokens[1:]
        if directive == "name":
            diagnostics.append(
                ParseDiagnostic(
                    lineno, column, "duplicate-section", "name already declared"
                )
            )
        elif directive in _SECTION_DIRECTIVES:
            if directive in sections:
                diagnostics.append(
                    ParseDiagnostic(
                        lineno,
                        column,
                        "duplicate-section",
                        f"{directive} already declared on line {section_lines[directive]}",
                    )
                )
                continue
            if directive == "initial" and len(rest) != 1:
                diagnostics.append(
                    ParseDiagnostic(
                        lineno,
                        column,
                        "malformed-line",
                        "initial takes exactly one state",
                    )
                )
                continue
            sections[directive] = rest
            section_lines[directive] = lineno
        elif directive == "trans":
            if len(rest) != 3:
                diagnostics.append(
                    ParseDiagnostic(
                        lineno,
                        column,
                        "malformed-line",
                        "trans takes exactly: <from> <letter|eps> <to>",
                    )
                )
            else:
                edges.append((lineno, rest))
        else:
            diagnostics.append(
                ParseDiagnostic(
                    lineno, column, "unknown-directive", f"unknown directive {directive!r}"
                )
            )

    states_by_token: dict[str, StateId] = {}
    states_line = section_lines.get("states", 1)
    for token, column in sections.get("states", []):
        try:
            states_by_token[token] = state(token)
        except ValueError as err:
            diagnostics.append(
                ParseDiagnostic(states_line, column, "bad-state-name", str(err))
            )

    alphabet: dict[str, Symbol] = {}
    alphabet_line = section_lines.get("alphabet", 1)
    for token, column in sections.get("alphabet", []):
        if token == EPSILON_TOKEN:
            diagnostics.append(
                ParseDiagnostic(
                    alphabet_line,
                    column,
                    "reserved-token",
                    f"{EPSILON_TOKEN!r} is implicit in every alphabet",
                )
            )
        else:
            try:
                alphabet[token] = Symbol(token)
            except ValueError as err:
                diagnostics.append(
                    ParseDiagnostic(alphabet_line, column, "bad-letter", str(err))
                )

    def resolve_state(token: str, lineno: int, column: int) -> StateId | None:
        found = states_by_token.get(token)
        if found is None:
            diagnostics.append(
                ParseDiagnostic(
                    lineno, column, "unknown-state", f"state {token!r} is not declared"
                )
            )
        return found

    initial = None
    if "initial" in sections:
        token, column = sections["initial"][0]
        initial = resolve_state(token, section_lines["initial"], column)
    else:
        diagnostics.append(
            ParseDiagnostic(1, 1, "missing-initial", "no initial line declared")
        )

    finals: set[StateId] = set()
    finals_line = section_lines.get("final", 1)
    for token, column in sections.get("final", []):
        resolved = resolve_state(token, finals_line, column)
        if resolved is not None:
            finals.add(resolved)

    transitions: dict[tuple[StateId, Symbol], set[StateId]] = {}
    for lineno, ((from_tok, from_col), (sym_tok, sym_col), (to_tok, to_col)) in edges:
        source = resolve_state(from_tok, lineno, from_col)
        target = resolve_state(to_tok, lineno, to_col)
        if sym_tok == EPSILON_TOKEN:
            symbol = EPSILON
        else:
            symbol = alphabet.get(sym_tok)
            if symbol is None:
                diagnostics.append(
                    ParseDiagnostic(
                        lineno,
                        sym_col,
                        "unknown-symbol",
                        f"letter {sym_tok!r} is not in the alphabet",
                    )
                )
        if source is not None and target is not None and symbol is not None:
            transitions.setdefault((source, symbol), set()).add(target)

    if diagnostics:
        diagnostics.sort(key=lambda d: (d.line, d.column))
        raise ParseError(diagnostics)

    assert name is not None and initial is not None
    automaton = Automaton(
        alphabet=frozenset(alphabet.values()),
        states=frozenset(states_by_token.values()),
        initial=initial,
        transitions={k: frozenset(v) for k, v in transitions.items()},
        finals=frozenset(finals),
    )
    return name, automaton


def reference_render_automaton(automaton: Automaton, name: str = "A") -> str:
    """The canonical text as ``render_automaton`` once wrote it: one line
    per triple of ``canonical_edges``, every state spelled by ``str``.
    The name is not checked."""
    lines = [
        f"name {name}",
        " ".join(["alphabet", *map(str, automaton.letters())]),
        " ".join(["states", *map(str, sorted(automaton.states, key=state_order))]),
        f"initial {automaton.initial}",
        " ".join(["final", *map(str, sorted(automaton.finals, key=state_order))]),
    ]
    triples = canonical_edges(automaton)
    lines.extend(f"trans {s} {symbol} {t}" for s, symbol, t in triples)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Activate:
    """Control enters a device for the first time."""

    device: str


@dataclass(frozen=True)
class Step:
    """One transition taken inside a device."""

    device: str
    source: StateId
    symbol: Symbol
    target: StateId


@dataclass(frozen=True)
class Handoff:
    """An empty-string move whose endpoints belong to different devices."""

    source_device: str
    target_device: str
    source: StateId
    target: StateId


@dataclass(frozen=True)
class Verdict:
    """A device's accept/reject outcome."""

    device: str
    accepted: bool


def reference_control_trace(
    expr: CompositionExpr, env: DeviceEnvironment, input_word: Word
) -> ControlTrace:
    """An accepted word replays ``reference_witness`` on
    ``reference_elaborate``, resolving each run state's owner as it goes;
    a rejected one gets every leaf's ``oracle_accepts`` verdict."""
    composite = reference_elaborate(expr, env)
    leaves = leaf_devices(expr)
    owners: dict[tuple[str, ...], str] = {}

    def owner(state_id: StateId) -> str:
        # Longest expression-position prefix of the namespace, found by
        # walking down the tree; any deeper segments are the device's own
        # internal structure.  Each namespace is resolved once per trace.
        namespace = state_id.namespace
        found = owners.get(namespace)
        if found is None:
            node, depth = expr, 0
            for segment in namespace:
                if isinstance(node, Device) or segment not in ("L", "R"):
                    break
                node = node.left if segment == "L" else node.right
                depth += 1
            found = owners[namespace] = ".".join(namespace[:depth])
        return found

    events: list = []
    run = reference_witness(composite, input_word)
    if run is None:
        for path, name in leaves:
            device = pad_alphabet(env[name], composite.alphabet)
            events.append(Verdict(path, oracle_accepts(device, input_word)))
        return ControlTrace(input_word, False, tuple(events), dict(leaves))
    owned = [owner(s) for s in run.states]
    active: set[str] = set()
    first = owned[0]
    events.append(Activate(first))
    active.add(first)
    for index, symbol in enumerate(run.symbols):
        source, target = run.states[index], run.states[index + 1]
        source_device, target_device = owned[index], owned[index + 1]
        if symbol.is_epsilon and source_device != target_device:
            events.append(Handoff(source_device, target_device, source, target))
        else:
            events.append(Step(source_device, source, symbol, target))
        if target_device not in active:
            events.append(Activate(target_device))
            active.add(target_device)
    events.append(Verdict(owned[-1], True))
    return ControlTrace(input_word, True, tuple(events), dict(leaves))


def trace_payload(trace: ControlTrace, alphabet: Iterable[Symbol]) -> dict:
    """Dispatches on each event's class name, so the package's events and
    the reference dataclasses above spell the same document."""
    events: list[dict] = []
    for event in trace.events:
        kind = type(event).__name__
        if kind == "Activate":
            events.append({"kind": "activate", "device": event.device})
        elif kind == "Step":
            events.append(
                {
                    "kind": "step",
                    "device": event.device,
                    "from": str(event.source),
                    "letter": str(event.symbol),
                    "to": str(event.target),
                }
            )
        elif kind == "Handoff":
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
        elif kind == "Verdict":
            events.append(
                {"kind": "verdict", "device": event.device, "accepted": event.accepted}
            )
    return {
        "input": format_word(trace.input, alphabet),
        "overall": trace.overall,
        "devices": dict(sorted(trace.devices.items())),
        "events": events,
    }


def in_l1(text: str) -> bool:
    """b in the third position from the right (length at least three)."""
    return len(text) >= 3 and text[-3] == "b"


def in_l2(text: str) -> bool:
    """One or more a's followed by zero or more b's."""
    return re.fullmatch(r"a+b*", text) is not None


def as_text(input_word: Word) -> str:
    return "".join(str(symbol) for symbol in input_word)
