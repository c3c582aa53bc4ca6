"""Hypothesis strategies for random automata and words, and the seeded
``random_expression`` that tests draw expression trees from with a
``random.Random``."""

from __future__ import annotations

import random
from typing import Sequence

from hypothesis import strategies as st

from nfalgebra import (
    EPSILON,
    Automaton,
    CompositionExpr,
    Concat,
    Device,
    Parallel,
    StateId,
    concat,
    instantiate,
    letter,
    pad_alphabet,
    parallel,
    render_automaton,
)
from nfalgebra.properties import random_automaton

LETTERS = (letter("a"), letter("b"))


@st.composite
def automata(draw, max_states: int = 4, allow_epsilon: bool = True) -> Automaton:
    count = draw(st.integers(1, max_states))
    states = [StateId((), f"s{i}") for i in range(count)]
    symbols = list(LETTERS) + ([EPSILON] if allow_epsilon else [])
    possible = [(src, sym, dst) for src in states for sym in symbols for dst in states]
    chosen = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))
    )
    transitions: dict = {}
    for src, sym, dst in chosen:
        transitions.setdefault((src, sym), set()).add(dst)
    finals = draw(st.lists(st.sampled_from(states), unique=True, max_size=count))
    return Automaton(
        alphabet=frozenset(LETTERS),
        states=frozenset(states),
        initial=states[0],
        transitions={k: frozenset(v) for k, v in transitions.items()},
        finals=frozenset(finals),
    )


def words(max_len: int = 6):
    return st.lists(st.sampled_from(LETTERS), max_size=max_len).map(tuple)


@st.composite
def leaf_devices(draw) -> Automaton:
    """A device to bind at expression leaves.

    Besides plain automata, it may be renamed under namespaces (even "L"
    and "R", the segments elaboration adds), be a parallel composite with
    a root-level ``r0`` fork, or carry a letter no other leaf knows.
    """
    device = draw(automata(max_states=3))
    shape = draw(st.sampled_from(("plain", "renamed", "composite")))
    if shape == "renamed":
        for segment in draw(st.lists(st.sampled_from(("L", "R", "X")), max_size=2)):
            device = instantiate(device, segment)
    elif shape == "composite":
        other = draw(automata(max_states=2))
        device = parallel(instantiate(device, "L"), instantiate(other, "X"))
    if draw(st.booleans()):
        device = pad_alphabet(device, {letter("c")})
    return device


def random_expression(
    rng: random.Random, names: Sequence[str], max_leaves: int = 4
) -> CompositionExpr:
    """Random composition tree with 1..max_leaves leaves over ``names``."""
    leaves = rng.randint(1, max_leaves)

    def build(n: int) -> CompositionExpr:
        if n == 1:
            return Device(names[rng.randrange(len(names))])
        split = rng.randint(1, n - 1)
        node = Concat if rng.random() < 0.5 else Parallel
        return node(build(split), build(n - split))

    return build(leaves)


def expressions(names: list[str], max_leaves: int = 10):
    """Random ``;``/``|`` trees over the given device names."""
    return st.recursive(
        st.sampled_from(names).map(Device),
        lambda sub: st.builds(Concat, sub, sub) | st.builds(Parallel, sub, sub),
        max_leaves=max_leaves,
    )


@st.composite
def seeded_automata(draw) -> Automaton:
    """A ``properties.random_automaton`` device, or the sequential or
    branching composite of two, as the composition-law suite builds them."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    left = random_automaton(rng)
    shape = draw(st.sampled_from(("device", "concat", "parallel")))
    if shape == "device":
        return left
    combine = concat if shape == "concat" else parallel
    return combine(instantiate(left, "L"), instantiate(random_automaton(rng), "R"))


GHOSTS = (StateId((), "g0"), StateId((), "g1"))
EXTRA = letter("c")


@st.composite
def invalid_automata(draw) -> Automaton:
    """A seeded automaton that may be broken: edges out of or into the
    undeclared states ``GHOSTS`` (on letters or the empty string), a
    ghost initial or final state, the empty-string symbol as a letter,
    edges on ``EXTRA``, which the alphabet may or may not declare."""
    base = draw(seeded_automata())
    endpoints = sorted(base.states) + list(GHOSTS)
    transitions = dict(base.transitions)
    for _ in range(draw(st.integers(0, 4))):
        source = draw(st.sampled_from(endpoints))
        symbol = draw(st.sampled_from((*LETTERS, EPSILON, EXTRA)))
        target = draw(st.sampled_from(endpoints))
        transitions[(source, symbol)] = transitions.get(
            (source, symbol), frozenset()
        ) | {target}
    return Automaton(
        alphabet=base.alphabet | draw(st.sampled_from((set(), {EPSILON}, {EXTRA}))),
        states=base.states,
        initial=draw(st.sampled_from((base.initial, base.initial, GHOSTS[0]))),
        transitions=transitions,
        finals=base.finals | set(draw(st.lists(st.sampled_from(GHOSTS)))),
    )


# What separates tokens in a corrupted file: every one is whitespace to
# ``str.split`` and to the regular expression ``\S+`` alike.
_SEPARATORS = (" ", " ", "  ", "\t", "\xa0", "\u3000", " \t\xa0")

# Tokens a corruption may splice into a line; each is out of place
# somewhere: a directive, a reserved or malformed name, an undeclared
# state or letter, or a comment mark.
_ODD_TOKENS = (
    "name",
    "alphabet",
    "states",
    "initial",
    "final",
    "trans",
    "loop",
    "eps",
    "a..b",
    ".s0",
    "x,y",
    "A;B",
    "s9",
    "L.s0",
    "c",
    "#",
    "s0#note",
)

_EDITS = (
    "swap-lines",
    "drop-line",
    "duplicate-line",
    "comment-line",
    "swap-tokens",
    "drop-token",
    "duplicate-token",
    "odd-token",
    "replace-token",
)


@st.composite
def corrupted_files(draw) -> str:
    """The canonical text of a random device, then edited: lines and tokens
    swapped, dropped, duplicated or replaced, comment lines added, and every
    gap respaced with tabs, no-break or ideographic spaces, with trailing
    comments and CRLF line ends.  Most results are invalid files."""
    device = draw(leaf_devices())
    name = draw(st.sampled_from(("T", "N1", "L.T")))
    lines = [line.split(" ") for line in render_automaton(device, name).splitlines()]

    def index(seq: list, extra: int = 0) -> int:
        return draw(st.integers(0, len(seq) - 1 + extra))

    for _ in range(draw(st.integers(0, 8))):
        edit = draw(st.sampled_from(_EDITS))
        if edit == "comment-line":
            lines.insert(index(lines, 1), ["#", "note"])
            continue
        if not lines:
            continue
        # Half of the edits land on the five section lines, which
        # trans lines would otherwise outnumber.
        i = index(lines[:5] if draw(st.booleans()) else lines)
        line = lines[i]
        if edit == "swap-lines":
            j = index(lines)
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == "drop-line":
            del lines[i]
        elif edit == "duplicate-line":
            lines.insert(index(lines, 1), list(line))
        elif edit == "odd-token":
            line.insert(index(line, 1), draw(st.sampled_from(_ODD_TOKENS)))
        elif line:
            k = index(line)
            if edit == "swap-tokens":
                m = index(line)
                line[k], line[m] = line[m], line[k]
            elif edit == "drop-token":
                del line[k]
            elif edit == "replace-token":
                line[k] = draw(st.sampled_from(_ODD_TOKENS))
            else:
                line.insert(index(line, 1), line[k])

    def spaced(tokens: list[str]) -> str:
        text = draw(st.sampled_from(("", "", " ", "\t", "\u3000")))
        for position, token in enumerate(tokens):
            if position:
                text += draw(st.sampled_from(_SEPARATORS))
            text += token
        return text + draw(st.sampled_from(("", "", " ", "\xa0", " # note", "#")))

    ending = draw(st.sampled_from(("\n", "\n", "\r\n")))
    return "".join(spaced(tokens) + ending for tokens in lines)
