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
change of a frozen dataclass, a constructor where the class writes none,
and one pickling rule, through the constructor.  State names and letters
are interned in tables that only grow; each new entry goes in with one
``dict.setdefault``, so threads that race on a name share one object.  A
state name is given, when first interned, its dotted spelling and one flat
string that orders as its ``(namespace, local)`` tuple, so every sort of
states compares one string per pair.
Simulation runs on a dense integer kernel that each automaton compiles on
first use and caches outside its fields; compiling is idempotent, so a
race to compile needs no lock.  The kernel is the one simulation path:
compiling rejects an automaton that ``validate`` rejects, so every
operation that simulates raises ``InvalidAutomatonError`` for one, and
its letter lookup is the one alphabet check, which raises
``UnknownSymbolError``.
"""

from __future__ import annotations

from functools import cached_property, total_ordering
from operator import attrgetter
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NoReturn

from . import _EXPORTS

__all__ = [*_EXPORTS["automaton"]]

# Reserved spelling of the empty-string symbol in all text formats.
EPSILON_TOKEN = "eps"


class UnknownSymbolError(ValueError):
    """An input symbol is not a letter of the automaton's alphabet."""


class InvalidAutomatonError(ValueError):
    """The operation requires an automaton that passes validation; ``codes``
    holds the codes ``validate`` reports, joined by "; "."""

    codes = ""


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

    A subclass lists its fields in ``__match_args__``.  When it sets them
    in its own body and writes neither ``__init__`` nor ``__new__``, it is
    given a constructor that takes one argument per field, in that order,
    and stores each as given with ``object.__setattr__``; a class that
    normalises or checks its fields writes its own, in the same way.  The
    base gives it what a frozen dataclass has: a repr of the class name and
    the fields, equality with a value of its own class whose fields are
    equal (never with a plain tuple, which a tuple-based value would
    otherwise equal), the hash of the field tuple, no ordering, and
    ``FrozenInstanceError`` on any assignment or deletion.  Every value
    pickles and copies through its constructor, with a mapping proxy field,
    which does not pickle, passed as a plain dict.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...]

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        if "__match_args__" in own and "__init__" not in own and "__new__" not in own:
            cls.__init__ = _constructor(cls)

    def __reduce__(self) -> tuple[type, tuple]:
        # An interned name is re-interned, and a copied automaton carries no
        # kernel.
        return type(self), tuple(
            dict(v) if type(v) is MappingProxyType else v for v in self._values()
        )

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


def _constructor(cls: type) -> Callable[..., None]:
    """The written form of ``cls``'s constructor, compiled from source once,
    as ``collections.namedtuple`` builds its ``__new__``: a shared
    ``*args`` loop would cost every value a Python-level loop."""
    fields = cls.__match_args__
    body = "".join(f"\n    _setattr(self, {f!r}, {f})" for f in fields)
    namespace = {"_setattr": object.__setattr__}
    exec(f"def __init__(self, {', '.join(fields)}):{body}", namespace)
    init = namespace["__init__"]
    init.__module__ = cls.__module__
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


def _refuse(action: str, name: str) -> NoReturn:
    # Imported here, so only a caller that tries to change a value pays for
    # loading ``dataclasses``.
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot {action} field {name!r}")


class _Interned(_Frozen):
    """Base of the interned name values: immutable, built in ``__new__``.

    Each subclass keeps one table from its constructor arguments to the one
    object built for them.  Equal values are therefore the same object, so
    ``==`` and ``hash`` are ``object``'s identity tests, which run in C:
    dicts and sets keyed by tuples of these values hash no Python code.
    A name is checked once, when first built; the table never shrinks.
    """

    __slots__ = ()
    __eq__ = object.__eq__
    __hash__ = object.__hash__


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
    ``(namespace, local)``.  Each state stores, as ``_key``, one string
    that orders exactly as that tuple, so ``__lt__`` and a sort with
    ``key=_state_order`` compare one string per pair, however deep the
    namespace.  The key is the parts joined by NUL with one more NUL before
    the local part (``L.R.p0`` is ``L\\0R\\0\\0p0``): one character longer than
    the dotted spelling.  A name that holds ``\\x00`` or ``\\x01`` first spells
    them ``\\x01\\x02`` and ``\\x01\\x03``, which keeps both the order and
    distinct names apart.  Both strings are built once, when the state is
    first interned.
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
        text = ".".join((*key[0], local))
        # From the dotted spelling: a copy or two, where a join would walk
        # every segment of a deep namespace again.
        order = f"{text[: len(text) - len(local)]}\0{local}".replace(".", "\0")
        if "\1" in order or order.count("\0") > len(key[0]) + 1:
            parts = (*key[0], "", local)
            order = "\0".join(
                [p.replace("\1", "\1\3").replace("\0", "\1\2") for p in parts]
            )
        object.__setattr__(made, "_key", order)
        object.__setattr__(made, "_text", text)
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
    if "." not in text:
        return StateId((), text)
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
    ``_kernel`` caches its compiled kernel; pickling and copying go through
    the constructor, so a copy carries no kernel.
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


def validate(automaton: Automaton) -> list[Violation]:
    """Report every broken invariant; an empty report means the value is sound.

    Codes: ``epsilon-in-alphabet``, ``initial-not-in-states``,
    ``final-not-in-states``, ``endpoint-not-in-states``, ``unknown-symbol``.
    Undeclared finals come in state order.  The edges are walked in
    canonical order, source, then target, then symbol; each name that is
    not a declared state, a letter or the empty-string symbol is reported
    once, where it first occurs.  Violations are data, not failures:
    callers decide what to do with them.
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
    for final in sorted(automaton.finals - automaton.states, key=_state_order):
        report.append(
            Violation(
                "final-not-in-states",
                f"final state {final} is not a declared state",
            )
        )
    # The names an edge may mention; a stray is reported where it first
    # occurs and then joins them, so it is reported once.
    known = {*automaton.states, *automaton.alphabet, EPSILON}
    for source, symbol, target in automaton.edges():
        for name in (source, target, symbol):
            if name not in known:
                known.add(name)
                report.append(
                    Violation(
                        "unknown-symbol",
                        f"transition letter {name} is not in the alphabet",
                    )
                    if name.__class__ is Symbol
                    else Violation(
                        "endpoint-not-in-states",
                        f"transition endpoint {name} is not a declared state",
                    )
                )
    return report


def _invalid(automaton: Automaton) -> InvalidAutomatonError:
    codes = "; ".join(v.code for v in validate(automaton))
    error = InvalidAutomatonError(f"invalid automaton: {codes}")
    error.codes = codes
    return error


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


def _closures(epsilon: list[int]) -> list[int]:
    """Empty-string closure mask of every state, by fixpoint iteration over
    the states with empty-string moves; ``epsilon[i]`` is the mask of state
    ``i``'s empty-string targets.

    The edges ``elaborate`` adds run from lower to higher indices (``L``
    before ``R``, a fork state before both operands), so visiting states
    from the top settles them in one pass; other edges may take more.
    """
    closure = [1 << i for i in range(len(epsilon))]
    moving = [i for i in reversed(range(len(epsilon))) if epsilon[i]]
    changed = True
    while changed:
        changed = False
        for i in moving:
            mask = closure[i] | _gather(closure, epsilon[i])
            if mask != closure[i]:
                closure[i] = mask
                changed = True
    return closure


class _Kernel:
    """Dense integer form of one automaton, built once and cached on it.

    States are numbered in sorted ``StateId`` order and letters in
    ``symbol_key`` order, so comparing indices orders them as the values
    do.  A set of states is an ``int`` bitmask.  The single moves are
    stored once, with no closure taken: ``epsilon[i]`` is the mask of state
    ``i``'s empty-string targets and ``direct[k][i]`` that of its targets on
    letter ``k``.  ``closure[i]`` is the empty-string closure of state ``i``
    and ``successors[k][i]`` the closed successor mask of state ``i`` on
    letter ``k``.  A word runs both ways:
    ``run`` gives the frontier after each prefix, and ``live`` the
    co-reachable mask of each position, the states from which the rest of
    the word leads to a final state.

    ``witness`` runs on configurations (position, state) and counts every
    move, so it needs a finer backward pass: ``distances`` gives each live
    configuration its remaining empty-string count, the fewest
    empty-string moves of a run from it to a final state.  Its remaining
    distance is that count plus the letters left, and a shortest run is
    one whose every move lowers the distance by one: an empty-string move
    to a count one less, or a letter move to the same count.  ``walk``
    takes, from each configuration, the least such move by (target,
    empty-string before letter); since every such move leaves a shortest
    run open, the moves it takes spell the least shortest run, the one
    ``witness`` promises.

    Compiling is the one validity gate: an automaton that ``validate``
    rejects raises ``InvalidAutomatonError`` here, so nothing that runs on
    the kernel meets an undeclared state or an unknown letter.

    Nothing changes after construction except two tables built on first
    use: ``one_step``, the single moves reversed, which ``distances``
    follows back from the final states, and ``predecessors``, the reversed
    successor table that ``live`` walks, built from it.  Each is a
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
        self.epsilon: list[int] = [0] * len(self.states)
        self.direct: list[list[int]] = [[0] * len(self.states) for _ in self.letters]
        # A lookup that misses is an undeclared state or an edge letter
        # outside the alphabet: exactly what ``validate`` reports.
        try:
            self.initial = index[automaton.initial]
            self.finals = sum(1 << index[s] for s in automaton.finals)
            for (source, symbol), targets in automaton.transitions.items():
                if symbol.is_epsilon:
                    row = self.epsilon
                else:
                    row = self.direct[self.letter_index[symbol.token]]
                row[index[source]] = sum(1 << index[t] for t in targets)
        except KeyError:
            raise _invalid(automaton) from None
        closure = self.closure = _closures(self.epsilon)
        self.start = closure[self.initial]
        self.successors = [[_gather(closure, m) for m in row] for row in self.direct]

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
        coclosure = _reverse(self.closure)
        rows = [[_gather(coclosure, m) for m in row] for row in self.one_step[0]]
        return rows, _gather(coclosure, self.finals)

    @cached_property
    def one_step(self) -> tuple[list[list[int]], list[int]]:
        """The single moves, with no closure taken, reversed: masks of their
        sources.

        ``one_step[0][k][t]`` is the set of states with a move on letter
        ``k`` to state ``t``, and ``one_step[1][t]`` the set with an
        empty-string move to ``t``.
        """
        return [_reverse(row) for row in self.direct], _reverse(self.epsilon)

    def distances(
        self, indices: list[int]
    ) -> tuple[list[tuple[int, int]], list[dict[int, int]]] | None:
        """The remaining empty-string count of every live configuration, as
        ``(marks, classes)``, or None once the word is rejected.

        The count of state ``i`` at position ``p`` is the fewest
        empty-string moves of a run that reads ``w[p:]`` from ``i`` to a
        final state.  A class groups one position's live states by count,
        held from the least of them: it maps each count ``c`` that occurs
        to the mask of the states ``c`` above the least.  ``marks[p]`` is
        ``(g, shift)``: position ``p``'s class is ``classes[g]``, and its
        least count lies ``shift`` above position ``p + 1``'s (0 at the
        end).  Equal classes share one index.

        The pass runs right to left, one ``_settle`` per letter, memoised
        on (letter, next class) for this call as ``_sweep`` memoises
        frontiers.  Counts held from the least make classes recur along a
        word, so a hit is the common case, and the memo never holds more
        entries than the word has letters.  The pass stops where no state
        is live, and the word is rejected unless the initial state is live
        at position 0.
        """
        letter_to, onto = self.one_step
        classes: list[dict[int, int]] = []
        interned: dict[tuple[tuple[int, int], ...], int] = {}
        mark = _settle(((0, self.finals),), None, onto, classes, interned)
        if mark is None:
            return None
        marks = [mark]
        memo: list[dict[int, tuple[int, int]]] = [{} for _ in letter_to]
        for k in reversed(indices):
            known, current = memo[k], mark[0]
            mark = known.get(current)
            if mark is None:
                mark = _settle(
                    classes[current].items(), letter_to[k], onto, classes, interned
                )
                if mark is None:
                    return None
                known[current] = mark
            marks.append(mark)
        if not sum(classes[mark[0]].values()) >> self.initial & 1:
            return None
        marks.reverse()
        return marks, classes

    def walk(
        self, indices: list[int], marks: list[tuple[int, int]],
        classes: list[dict[int, int]],
    ) -> tuple[list[StateId], list[Symbol]]:
        """The states and symbols of the canonical run from the initial
        state, on the ``marks`` and ``classes`` that ``distances`` gives for
        an accepted word.

        From each configuration the walk takes the least move, by (target,
        empty-string before letter), among those whose target is one step
        nearer a final state: an empty-string move to a count one less, or
        a letter move to the same count, shifted into the next class.  The
        moves taken at one position (``_descend``) depend only on (state,
        count, letter, next class), their memo key for this call.
        """
        names, epsilon = self.states, self.epsilon
        state = self.initial
        for count, mask in classes[marks[0][0]].items():
            if mask >> state & 1:
                break
        states, symbols = [names[state]], []
        memo: dict[tuple[int, int, int, int], tuple] = {}
        for position, k in enumerate(indices):
            following = marks[position + 1][0]
            key = (state, count, k, following)
            moves = memo.get(key)
            if moves is None:
                here, shift = marks[position]
                moves = memo[key] = _descend(
                    names, epsilon, state, count, classes[here],
                    self.direct[k], classes[following], shift, self.letters[k],
                )
            states += moves[0]
            symbols += moves[1]
            state, count = moves[2]
        moves = _descend(names, epsilon, state, count, classes[marks[-1][0]])
        states += moves[0]
        symbols += moves[1]
        return states, symbols


def _descend(
    names: tuple[StateId, ...],
    epsilon: list[int],
    state: int,
    count: int,
    here: Mapping[int, int],
    row: list[int] | None = None,
    there: Mapping[int, int] = MappingProxyType({}),
    shift: int = 0,
    symbol: Symbol = EPSILON,
) -> tuple[tuple[StateId, ...], Word, tuple[int, int]]:
    """The moves ``_Kernel.walk`` takes at one position from ``state`` at
    ``count`` in class ``here``: empty-string moves (``epsilon``) until the
    move on ``symbol`` through ``row`` into class ``there``, whose counts
    lie ``shift`` lower; with no row, until a final state.  Gives their
    targets, their symbols and the (state, count) they end at."""
    states: list[StateId] = []
    symbols: list[Symbol] = []
    while True:
        back = epsilon[state] & here.get(count - 1, 0)
        ahead = there.get(count + shift, 0)
        if ahead:
            ahead &= row[state]
        if ahead and not (back and back & -back <= ahead & -ahead):
            state = (ahead & -ahead).bit_length() - 1
            states.append(names[state])
            symbols.append(symbol)
            return tuple(states), tuple(symbols), (state, count + shift)
        if not back:  # at the end of the word, in a final state
            return tuple(states), tuple(symbols), (state, count)
        state = (back & -back).bit_length() - 1
        count -= 1
        states.append(names[state])
        symbols.append(EPSILON)


def _reverse(rows: list[int]) -> list[int]:
    """The reversed relation: bit ``i`` of ``_reverse(rows)[t]`` is set
    when bit ``t`` of ``rows[i]`` is."""
    out = [0] * len(rows)
    for i, mask in enumerate(rows):
        for t in _bits(mask):
            out[t] |= 1 << i
    return out


def _settle(
    groups: Iterable[tuple[int, int]],
    row: list[int] | None,
    onto: list[int],
    classes: list[dict[int, int]],
    interned: dict[tuple[tuple[int, int], ...], int],
) -> tuple[int, int] | None:
    """One step of ``_Kernel.distances``: the mark of the states that reach
    ``groups`` (``(count, mask)`` pairs by ascending count) by one move
    through ``row``, or by none when ``row`` is None; None when no state
    does.

    This is Dial's bucketed shortest path (CACM 1969) with unit weights:
    a state with a move into a group starts in that group's bucket, and
    each bucket, once settled, puts the unsettled sources of its
    empty-string moves (``onto``) in the next.  Buckets are taken in count order and an empty stretch is
    jumped over, so a step costs the buckets it settles, not the span of
    their counts.  The class is interned in ``classes``.
    """
    layers: list[tuple[int, int]] = []
    settled = frontier = 0
    depth = -1
    for count, mask in groups:
        if row is not None:
            mask = _gather(row, mask)
        while frontier and depth + 1 < count:
            depth += 1
            settled |= frontier
            layers.append((depth, frontier))
            frontier = _gather(onto, frontier) & ~settled
        layer = (frontier | mask) & ~settled
        if layer:
            depth = count
            settled |= layer
            layers.append((depth, layer))
            frontier = _gather(onto, layer) & ~settled
    while frontier:
        depth += 1
        settled |= frontier
        layers.append((depth, frontier))
        frontier = _gather(onto, frontier) & ~settled
    if not layers:
        return None
    least = layers[0][0]
    key = tuple([(d - least, mask) for d, mask in layers] if least else layers)
    index = interned.get(key)
    if index is None:
        index = interned[key] = len(classes)
        classes.append(dict(key))
    return index, least


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

    def erased(self) -> Word:
        """The symbol sequence with empty-string entries removed."""
        return tuple(s for s in self.symbols if not s.is_epsilon)


def witness(automaton: Automaton, input_word: Iterable[Symbol]) -> RunWitness | None:
    """The canonical accepting run for ``input_word``, or None when rejected.

    The choice is deterministic: shortest in total steps (empty-string moves
    count as steps), ties broken per step by the (state, symbol) ordering.
    That is the run a breadth-first search over (letters consumed, state)
    configurations finds when it tries each configuration's moves in
    (target, empty-string before letter) order from a FIFO queue: of the
    shortest accepting runs, the least when each is read as its sequence of
    (target, symbol) moves.

    The search here is exact and takes two passes.  A configuration's
    remaining distance is the letters left plus its remaining empty-string
    count, which ``_Kernel.distances`` gives for every live configuration
    in one backward pass; that pass also decides acceptance.  A run is
    shortest exactly when each move lowers the remaining distance by one,
    so the least such run takes, from each configuration, the least move
    whose target lies one step nearer, and every choice leaves a shortest
    run open.  ``_Kernel.walk`` takes those moves greedily, left to right.
    """
    kernel = _kernel(automaton)
    indices = kernel.indices(input_word)
    found = kernel.distances(indices)
    if found is None:
        return None
    states, symbols = kernel.walk(indices, *found)
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
    for source, symbol, target in zip(run.states, run.symbols, run.states[1:]):
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
