"""Hypothesis strategies for random automata and words."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from nfalgebra import (
    EPSILON,
    Automaton,
    Concat,
    Device,
    Parallel,
    StateId,
    concat,
    instantiate,
    letter,
    pad_alphabet,
    parallel,
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
