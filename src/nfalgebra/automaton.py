"""Immutable epsilon-NFAs and their run semantics.

An automaton is the classic five-tuple: a finite alphabet of letters, a
finite state set, one initial state, a transition map, and a (possibly
empty) set of final states.  The empty-string symbol belongs to every
alphabet implicitly and is never stored; transitions on it are always
legal.  The transition map is sparse: a missing entry means "no
successors".

Every value here is frozen and every operation is a pure function, so the
whole module is safe to use from any number of threads.  ``_Frozen`` is
the one base of the package's frozen values, here and in every other
module: it gives each value the repr, equality, hash and refusal to
change of a frozen dataclass, and each class writes only its fields and
its constructor.  State names and letters are interned in tables that
only grow; each new entry goes in with one ``dict.setdefault``, so
threads that race on a name share one object.  Simulation runs on a
dense integer kernel that each automaton compiles on first use and caches
outside its fields; compiling is idempotent, so a race to compile needs
no lock.  The kernel is the one simulation path: compiling rejects an
automaton that ``validate`` rejects, so every operation that simulates
raises ``InvalidAutomatonError`` for one, and its letter lookup is the one
alphabet check, which raises ``UnknownSymbolError``.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property, total_ordering
from operator import attrgetter
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NoReturn

from . import _EXPORTS

__all__ = [*_EXPORTS["automaton"]]

# Reserved spelling of the empty-string symbol in all text formats.
EPSILON_TOKEN = "eps"


class UnknownSymbolError(ValueError):
    """An input symbol is not a letter of the automaton's alphabet."""


class InvalidAutomatonError(ValueError):
    """The operation requires an automaton that passes validation."""


# The marks of the expression grammar; ``textio`` tokenizes expressions
# at them.
_EXPRESSION_MARKS = ";|()"
# The characters a name may be barred from holding, each with its meaning
# in the text formats: a name holding one could not be read back.
_RESERVED = {
    ".": "the namespace separator",
    "#": "the comment mark",
    ",": "the input-word separator",
    _EXPRESSION_MARKS: "which expressions cannot refer to",
}


def check_name(text: str, kind: str, reserved: Iterable[str] = ()) -> None:
    """Reject an empty name, one holding whitespace, or one holding a mark
    of any ``reserved`` entry (keys of ``_RESERVED``); the error names the
    ``kind`` of name."""
    if not text:
        raise ValueError(f"{kind} must be nonempty")
    if text.split() != [text]:  # split() cuts at every ``str.isspace`` character
        raise ValueError(f"{kind} {text!r} contains whitespace")
    for marks in reserved:
        for mark in marks:
            if mark in text:
                shown = repr(marks) if len(marks) == 1 else f"one of {marks!r}"
                raise ValueError(
                    f"{kind} {text!r} contains {shown}, {_RESERVED[marks]}"
                )


class _Frozen:
    """The one base of the package's frozen values.

    A subclass lists its fields in ``__match_args__`` and sets each once in
    its constructor with ``object.__setattr__``.  The base gives it what a
    frozen dataclass has: a repr of the class name and the fields, equality
    with a value of its own class whose fields are equal (never with a
    plain tuple, which a tuple-based value would otherwise equal), the hash
    of the field tuple, no ordering, and ``FrozenInstanceError`` on any
    assignment or deletion.  Pickling and copying work as for any object,
    by ``__dict__``, or by constructor where a subclass says so.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...]

    def _values(self) -> tuple:
        """The fields' values, in ``__match_args__`` order."""
        return tuple(map(self.__getattribute__, self.__match_args__))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return False if isinstance(other, tuple) else NotImplemented

    # ``object``'s ``!=`` negates ``__eq__``; a tuple-based value would
    # otherwise inherit the tuple's.
    __ne__ = object.__ne__

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        _refuse("assign to", name)

    def __delattr__(self, name: str) -> None:
        _refuse("delete", name)


def _refuse(action: str, name: str) -> NoReturn:
    # Imported here, so only a caller that tries to change a value pays for
    # loading ``dataclasses``.
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot {action} field {name!r}")


class _Interned(_Frozen):
    """Base of the interned name values: immutable, pickled by constructor.

    Each subclass keeps one table from its constructor arguments to the one
    object built for them.  Equal values are therefore the same object, so
    ``==`` and ``hash`` are ``object``'s identity tests, which run in C:
    dicts and sets keyed by tuples of these values hash no Python code.
    A name is checked once, when first built; the table never shrinks.
    """

    __slots__ = ()
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __reduce__(self) -> tuple[type, tuple]:
        # Unpickling and copying call the constructor, which re-interns.
        return (type(self), self._values())


class Symbol(_Interned):
    """One alphabet letter, or the empty-string symbol when ``token`` is None."""

    __slots__ = ("token",)
    __match_args__ = ("token",)
    _interned: dict[str | None, Symbol] = {}

    token: str | None

    def __new__(cls, token: str | None) -> Symbol:
        found = cls._interned.get(token)
        if found is not None:
            return found
        if token is not None:
            check_name(token, "letter token", ("#", ","))
            if token == EPSILON_TOKEN:
                raise ValueError(
                    f"{EPSILON_TOKEN!r} is reserved for the empty-string symbol"
                )
        made = object.__new__(cls)
        object.__setattr__(made, "token", token)
        # setdefault is atomic: threads racing on one token keep one object.
        return cls._interned.setdefault(token, made)

    @property
    def is_epsilon(self) -> bool:
        return self.token is None

    def __str__(self) -> str:
        return EPSILON_TOKEN if self.token is None else self.token


EPSILON = Symbol(None)

Word = tuple[Symbol, ...]


def symbol_key(symbol: Symbol) -> str:
    """Sort key under which the empty-string symbol precedes every letter."""
    return "" if symbol.token is None else symbol.token


def letter(token: str) -> Symbol:
    """Build a letter symbol; use ``EPSILON`` for the empty string."""
    if token is None:
        raise ValueError("letter() needs a token; use EPSILON for the empty string")
    return Symbol(token)


def word(text: str) -> Word:
    """One letter per character; convenient for single-character alphabets."""
    return tuple(Symbol(ch) for ch in text)


def check_segment(text: str, kind: str = "segment") -> None:
    """Reject names that would break the dotted-path spelling of states."""
    check_name(text, kind, (".", "#"))


@total_ordering
class StateId(_Interned):
    """A state name qualified by the namespace path of the device it lives in.

    Composition renames operands apart by prepending namespace segments, so
    distinct device instances can never share a state.  States order by
    ``(namespace, local)``, which each state stores as ``_key``; sorting
    with ``key=_state_order`` compares those tuples in C.  The dotted
    spelling is built once, when the state is first interned.
    """

    __slots__ = ("namespace", "local", "_key", "_text")
    __match_args__ = ("namespace", "local")
    _interned: dict[tuple[tuple[str, ...], str], StateId] = {}
    # Segments that passed ``check_segment``, so a new deep name made of
    # known segments is checked by one C-level ``issuperset``.
    _checked: set[str] = set()

    namespace: tuple[str, ...]
    local: str

    def __new__(cls, namespace: Iterable[str], local: str) -> StateId:
        key = (tuple(namespace), local)
        found = cls._interned.get(key)
        if found is not None:
            return found
        if not cls._checked.issuperset(key[0]):
            for segment in key[0]:
                check_segment(segment, "namespace segment")
            cls._checked.update(key[0])
        if local not in cls._checked:
            check_segment(local, "state name")
            cls._checked.add(local)
        made = object.__new__(cls)
        object.__setattr__(made, "namespace", key[0])
        object.__setattr__(made, "local", local)
        object.__setattr__(made, "_key", key)
        object.__setattr__(made, "_text", ".".join((*key[0], local)))
        # setdefault is atomic: threads racing on one name keep one object.
        return cls._interned.setdefault(key, made)

    def __lt__(self, other: object) -> bool:
        if other.__class__ is not StateId:
            return NotImplemented
        return self._key < other._key

    def __str__(self) -> str:
        return self._text


# Sort key giving the order of ``StateId.__lt__`` without calling it.
_state_order = attrgetter("_key")


def state(text: str) -> StateId:
    """Parse a dotted path: ``L.R.p0`` is state ``p0`` under namespace (L, R)."""
    *namespace, local = text.split(".")
    return StateId(tuple(namespace), local)


_NO_STATES: frozenset[StateId] = frozenset()

TransitionMap = Mapping[tuple[StateId, Symbol], frozenset[StateId]]


class Automaton(_Frozen):
    """Five-tuple NFA value.

    ``alphabet`` holds letters only (the empty-string symbol is implicit).
    ``transitions`` maps (state, symbol) to the successor set and may use
    the empty-string symbol as a key; empty successor sets are dropped on
    construction so equal automata compare equal regardless of how their
    maps were written down.  The value keeps an instance ``__dict__``, where
    ``_kernel`` caches its compiled kernel.
    """

    __match_args__ = ("alphabet", "states", "initial", "transitions", "finals")

    alphabet: frozenset[Symbol]
    states: frozenset[StateId]
    initial: StateId
    transitions: TransitionMap
    finals: frozenset[StateId]

    def __init__(
        self,
        alphabet: Iterable[Symbol],
        states: Iterable[StateId],
        initial: StateId,
        transitions: TransitionMap,
        finals: Iterable[StateId],
    ) -> None:
        object.__setattr__(self, "alphabet", frozenset(alphabet))
        object.__setattr__(self, "states", frozenset(states))
        object.__setattr__(self, "initial", initial)
        finals = frozenset(finals)  # a bad ``finals`` is reported before a bad map
        cleaned = {
            key: frozenset(targets) for key, targets in transitions.items() if targets
        }
        object.__setattr__(self, "transitions", MappingProxyType(cleaned))
        object.__setattr__(self, "finals", finals)

    def targets(self, source: StateId, symbol: Symbol) -> frozenset[StateId]:
        return self.transitions.get((source, symbol), _NO_STATES)

    def letters(self) -> list[Symbol]:
        """The alphabet in canonical order."""
        return sorted(self.alphabet, key=symbol_key)

    def edges(self) -> list[tuple[StateId, Symbol, StateId]]:
        """All transitions as (source, symbol, target) triples, canonically ordered."""
        triples = [
            (source, symbol, target)
            for (source, symbol), targets in self.transitions.items()
            for target in targets
        ]
        triples.sort(key=lambda t: (t[0]._key, symbol_key(t[1]), t[2]._key))
        return triples


class Violation(_Frozen):
    """One broken automaton invariant: a stable code plus a human message."""

    __match_args__ = ("code", "message")

    code: str
    message: str

    def __init__(self, code: str, message: str) -> None:
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "message", message)


def validate(automaton: Automaton) -> list[Violation]:
    """Report every broken invariant; an empty report means the value is sound.

    Codes: ``epsilon-in-alphabet``, ``initial-not-in-states``,
    ``final-not-in-states``, ``endpoint-not-in-states``, ``unknown-symbol``.
    Violations are data, not failures: callers decide what to do with them.
    """
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
    for final in sorted(automaton.finals, key=_state_order):
        if final not in automaton.states:
            report.append(
                Violation(
                    "final-not-in-states",
                    f"final state {final} is not a declared state",
                )
            )
    bad_states: set[StateId] = set()
    bad_symbols: set[Symbol] = set()
    for source, symbol, target in automaton.edges():
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


def _invalid(automaton: Automaton) -> InvalidAutomatonError:
    codes = "; ".join(v.code for v in validate(automaton))
    return InvalidAutomatonError(f"invalid automaton: {codes}")


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _gather(row: list[int], mask: int) -> int:
    """The union of ``row[i]`` over the set bits ``i`` of ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= row[low.bit_length() - 1]
        mask ^= low
    return out


def _sweep(start: int, table: list[list[int]], indices: list[int]) -> list[int]:
    """The mask after each prefix of ``indices``, ``len(indices) + 1`` of
    them, from ``start`` through ``table`` (one row per letter); 0 once the
    mask dies.

    The memo (mask to successor, per letter) lives for this call.
    """
    masks = [start]
    append = masks.append
    memo: list[dict[int, int]] = [{} for _ in table]
    current = start
    for k in indices:
        if not current:
            break
        known = memo[k]
        # Masks repeat along a word, so a memo hit is the common case.
        try:
            current = known[current]
        except KeyError:
            following = known[current] = _gather(table[k], current)
            current = following
        append(current)
    masks += [0] * (len(indices) + 1 - len(masks))
    return masks


def _closures(epsilon: list[list[int]]) -> list[int]:
    """Empty-string closure mask of every state, by fixpoint iteration.

    The edges ``elaborate`` adds run from lower to higher indices (``L``
    before ``R``, a fork state before both operands), so visiting states
    from the top settles them in one pass; other edges may take more.
    """
    closure = [1 << i for i in range(len(epsilon))]
    changed = True
    while changed:
        changed = False
        for i in reversed(range(len(epsilon))):
            mask = closure[i]
            for j in epsilon[i]:
                mask |= closure[j]
            if mask != closure[i]:
                closure[i] = mask
                changed = True
    return closure


class _Kernel:
    """Dense integer form of one automaton, built once and cached on it.

    States are numbered in sorted ``StateId`` order and letters in
    ``symbol_key`` order, so comparing indices orders them as the values
    do.  A set of states is an ``int`` bitmask: ``closure[i]`` is the
    empty-string closure of state ``i`` and ``successors[k][i]`` the closed
    successor mask of state ``i`` on letter ``k``.  A word runs both ways:
    ``run`` gives the frontier after each prefix, and ``live`` the
    co-reachable mask of each position, the states from which the rest of
    the word leads to a final state.

    Compiling is the one validity gate: an automaton that ``validate``
    rejects raises ``InvalidAutomatonError`` here, so nothing that runs on
    the kernel meets an undeclared state or an unknown letter.

    Nothing changes after construction except two tables built on first
    use: ``moves``, the search moves of ``witness``, and ``predecessors``,
    the reversed successor table that ``live`` walks.  Each is a
    ``functools.cached_property``, stored in the instance ``__dict__``
    once built.  On Python 3.10 and 3.11 the build holds that property's
    lock, which is shared by every kernel; from 3.12 on there is no lock,
    and two threads racing on one table may each build it.  Building is
    idempotent, so either copy is right.
    """

    def __init__(self, automaton: Automaton) -> None:
        if EPSILON in automaton.alphabet:
            raise _invalid(automaton)
        self.states: tuple[StateId, ...] = tuple(
            sorted(automaton.states, key=_state_order)
        )
        index = {s: i for i, s in enumerate(self.states)}
        self.letters: tuple[Symbol, ...] = tuple(automaton.letters())
        # Keyed by token: this lookup is the whole alphabet check, and the
        # token a miss reports is what the error message names.
        self.letter_index = {s.token: k for k, s in enumerate(self.letters)}
        self.epsilon: list[list[int]] = [[] for _ in self.states]
        self.direct: list[list[int]] = [[0] * len(self.states) for _ in self.letters]
        # A lookup that misses is an undeclared state or an edge letter
        # outside the alphabet: exactly what ``validate`` reports.
        try:
            self.initial = index[automaton.initial]
            self.finals = sum(1 << index[s] for s in automaton.finals)
            for (source, symbol), targets in automaton.transitions.items():
                if symbol.is_epsilon:
                    self.epsilon[index[source]].extend(
                        sorted(index[t] for t in targets)
                    )
                else:
                    row = self.direct[self.letter_index[symbol.token]]
                    row[index[source]] = sum(1 << index[t] for t in targets)
        except KeyError:
            raise _invalid(automaton) from None
        self.closure = _closures(self.epsilon)
        self.start = self.closure[self.initial]
        self.successors = [[self.close(mask) for mask in row] for row in self.direct]

    def close(self, mask: int) -> int:
        """The empty-string closure of a set of states."""
        return _gather(self.closure, mask)

    def indices(self, input_word: Word) -> list[int]:
        """Letter indices of a word; this lookup is the alphabet check."""
        index = self.letter_index
        try:
            return [index[symbol.token] for symbol in input_word]
        except KeyError as missing:
            token = missing.args[0]
            shown = EPSILON_TOKEN if token is None else token
            raise UnknownSymbolError(
                f"symbol {shown} is not a letter of the alphabet"
            ) from None

    def run(self, indices: list[int]) -> list[int]:
        """The frontier after each prefix, ``len(indices) + 1`` of them:
        ``run(w)[p]`` is the closed set of states that ``w[:p]`` leads to."""
        return _sweep(self.start, self.successors, indices)

    def live(self, indices: list[int]) -> list[int]:
        """The co-reachable mask of every position, ``len(indices) + 1`` of
        them: bit ``i`` of ``live(w)[p]`` is set when ``w[p:]`` leads from
        state ``i`` to a final state.  The pass runs right to left over
        ``predecessors``; from where the mask dies, every entry is 0."""
        rows, cofinals = self.predecessors
        masks = _sweep(cofinals, rows, indices[::-1])
        masks.reverse()
        return masks

    @cached_property
    def predecessors(self) -> tuple[list[list[int]], int]:
        """The reversed successor table, with the states that reach a final
        state by empty-string moves alone.

        ``predecessors[0][k][t]`` is the set of states whose closure has a
        move on letter ``k`` to state ``t``, so the union of its rows over a
        set ``S`` is every state from which letter ``k`` and then
        empty-string moves can reach ``S``.
        """
        n = len(self.states)
        coclosure = [0] * n
        for i, mask in enumerate(self.closure):
            for j in _bits(mask):
                coclosure[j] |= 1 << i
        rows = []
        for direct in self.direct:
            row = [0] * n
            for j, targets in enumerate(direct):
                for t in _bits(targets):
                    row[t] |= coclosure[j]
            rows.append(row)
        return rows, _gather(coclosure, self.finals)

    @cached_property
    def moves(self) -> tuple[list[list[tuple[int, ...]]], list[tuple[int, ...]]]:
        """The moves of ``witness``'s search, as offsets between configurations.

        A configuration ``position * n + state`` moves to ``config + offset``.
        ``moves[0][k][i]`` lists state ``i``'s moves while letter ``k`` is
        next, ordered by (target, empty-string before letter);
        ``moves[1][i]`` its empty-string moves once the input is read.
        """
        n = len(self.states)
        epsilon = [tuple(t - i for t in ts) for i, ts in enumerate(self.epsilon)]
        on_letter = [
            [
                tuple(
                    t - i + n * consumed
                    for t, consumed in sorted(
                        [(t, 0) for t in self.epsilon[i]]
                        + [(t, 1) for t in _bits(row[i])]
                    )
                )
                for i in range(n)
            ]
            for row in self.direct
        ]
        return on_letter, epsilon


def _kernel(automaton: Automaton) -> _Kernel:
    """The automaton's kernel, compiled on first use.

    The cache is an instance attribute outside the value's fields, so it
    takes no part in ``==``, ``hash`` or ``repr``.
    """
    try:
        return automaton.__dict__["_kernel"]
    except KeyError:
        kernel = _Kernel(automaton)
        object.__setattr__(automaton, "_kernel", kernel)
        return kernel


def accepts(automaton: Automaton, input_word: Iterable[Symbol]) -> bool:
    """Nondeterministic acceptance of a sequence of letters.

    Empty-string moves are inserted freely between letters, so inputs never
    spell them out.  True iff some run over the input ends in a final state.
    """
    kernel = _kernel(automaton)
    return bool(kernel.run(kernel.indices(input_word))[-1] & kernel.finals)


class RunWitness(_Frozen):
    """An accepting run: ``states`` has exactly one more entry than ``symbols``.

    Symbols may include the empty-string symbol; erasing those yields the
    witnessed input.
    """

    __match_args__ = ("states", "symbols")

    states: tuple[StateId, ...]
    symbols: Word

    def __init__(self, states: tuple[StateId, ...], symbols: Word) -> None:
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "symbols", symbols)

    def erased(self) -> Word:
        """The symbol sequence with empty-string entries removed."""
        return tuple(s for s in self.symbols if not s.is_epsilon)


def witness(automaton: Automaton, input_word: Iterable[Symbol]) -> RunWitness | None:
    """The canonical accepting run for ``input_word``, or None when rejected.

    The choice is deterministic: shortest in total steps (empty-string moves
    count as steps), ties broken per step by the (state, symbol) ordering.
    Search runs over (letters consumed, state) configurations, so cycles of
    empty-string moves never recur and termination is immediate.  One
    backward pass (``_Kernel.live``) first marks the live configurations,
    those from which the rest of the input reaches a final state: it
    decides acceptance, and the breadth-first search then queues only live
    configurations, which leaves its result unchanged.
    """
    input_word = tuple(input_word)
    kernel = _kernel(automaton)
    indices = kernel.indices(input_word)
    live = kernel.live(indices)
    if not live[0] >> kernel.initial & 1:
        return None
    on_letter, on_epsilon = kernel.moves
    n, end = len(kernel.states), len(input_word)
    # A configuration is position * n + state; sorted moves make the first
    # discovery of each configuration the one by the least (state, symbol).
    # Only live configurations, those that can still reach a goal, are
    # queued: a dead one has no live successor, so skipping it changes
    # neither the parent nor the queue order of a live one.  The initial
    # configuration is live, so a goal is reached before the queue runs dry.
    parents: dict[int, int] = {kernel.initial: -1}
    queue: deque[int] = deque([kernel.initial])
    while True:
        config = queue.popleft()
        position, current = divmod(config, n)
        if position == end:
            if kernel.finals >> current & 1:
                break
            offsets = on_epsilon[current]
        else:
            offsets = on_letter[indices[position]][current]
        for offset in offsets:
            successor = config + offset
            if successor not in parents and live[successor // n] >> successor % n & 1:
                parents[successor] = config
                queue.append(successor)
    states = [kernel.states[current]]
    symbols: list[Symbol] = []
    cursor = config
    while (back := parents[cursor]) >= 0:
        states.append(kernel.states[back % n])
        symbols.append(EPSILON if back // n == cursor // n else input_word[back // n])
        cursor = back
    states.reverse()
    symbols.reverse()
    return RunWitness(tuple(states), tuple(symbols))


def check_witness(
    automaton: Automaton,
    run: RunWitness,
    input_word: Iterable[Symbol] | None = None,
) -> list[str]:
    """Re-validate a run against the transition map; an empty list is sound."""
    if not run.states:
        return ["witness has no states"]
    if len(run.symbols) != len(run.states) - 1:
        return ["states and symbols have mismatched lengths"]
    problems: list[str] = []
    if run.states[0] != automaton.initial:
        problems.append(f"run starts at {run.states[0]}, not the initial state")
    for index, symbol in enumerate(run.symbols):
        source, target = run.states[index], run.states[index + 1]
        if target not in automaton.targets(source, symbol):
            problems.append(f"illegal move {source} -{symbol}-> {target}")
    if run.states[-1] not in automaton.finals:
        problems.append("run does not end in a final state")
    if input_word is not None and run.erased() != tuple(input_word):
        problems.append("erased symbols do not match the input")
    return problems


def pad_alphabet(automaton: Automaton, extra: Iterable[Symbol]) -> Automaton:
    """Widen the alphabet with ``extra`` letters.

    New letters get no transitions, so the language is unchanged; this is
    how automata over different alphabets are brought onto their union
    before comparison.
    """
    extra = frozenset(extra)
    for symbol in extra:
        if symbol.is_epsilon:
            raise ValueError("the empty-string symbol is implicit in every alphabet")
    if extra <= automaton.alphabet:
        return automaton
    return Automaton(
        alphabet=automaton.alphabet | extra,
        states=automaton.states,
        initial=automaton.initial,
        transitions=dict(automaton.transitions),
        finals=automaton.finals,
    )


def _on_union_alphabet(a: Automaton, b: Automaton) -> tuple[Automaton, Automaton]:
    """Both automata padded to their union alphabet.

    Each is compiled as given first, so an invalid one raises
    ``InvalidAutomatonError`` even when padding would declare the letter of
    its stray edge.
    """
    _kernel(a)
    _kernel(b)
    union = a.alphabet | b.alphabet
    return pad_alphabet(a, union), pad_alphabet(b, union)
