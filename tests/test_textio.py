"""Text formats: automaton files, expressions, input words, DOT export."""

import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nfalgebra import (
    Concat,
    Device,
    Parallel,
    ParseError,
    accepts,
    elaborate,
    fixtures,
    format_word,
    letter,
    parse_automaton,
    parse_expression,
    parse_input,
    render_automaton,
    render_dot,
    render_expression,
    state,
    validate,
    word,
)
from nfalgebra.properties import random_automaton, random_expression

from .oracles import reference_parse_automaton
from .strategies import corrupted_files

# Letter spellings for the input-word round trip: one-character letters
# only (which spell e·p·s), then mixes of one-character and longer letters.
ALPHABETS = [
    ("e", "p", "s", "a", "b"),
    ("a", "b", "cd"),
    ("a", "bc", "de"),
    ("e", "p", "s", "ps"),
]


def codes(err: ParseError) -> list[str]:
    return [d.code for d in err.diagnostics]


class TestParseAutomaton:
    def test_bundled_device_file(self):
        text = fixtures.builtin_path("N1").read_text("utf-8")
        name, automaton = parse_automaton(text)
        assert name == "N1"
        assert len(automaton.states) == 4
        assert len(automaton.edges()) == 7
        assert automaton.finals == {state("p3")}

    def test_comments_and_blank_lines_ignored(self):
        text = "\n".join(
            [
                "# a tiny device",
                "name T",
                "",
                "alphabet a  # the only letter",
                "states s0",
                "initial s0",
                "final s0",
            ]
        )
        name, automaton = parse_automaton(text)
        assert name == "T"
        assert accepts(automaton, ())

    def test_epsilon_transition(self):
        text = "\n".join(
            [
                "name T",
                "alphabet a",
                "states s0 s1",
                "initial s0",
                "final s1",
                "trans s0 eps s1",
            ]
        )
        _, automaton = parse_automaton(text)
        assert accepts(automaton, ())

    def test_unknown_symbol_diagnostic(self):
        text = "name T\nalphabet a b\nstates p0\ninitial p0\nfinal\ntrans p0 c p0\n"
        with pytest.raises(ParseError) as err:
            parse_automaton(text)
        (diag,) = err.value.diagnostics
        assert diag.code == "unknown-symbol"
        assert (diag.line, diag.column) == (6, 10)

    def test_unknown_state_diagnostic(self):
        text = "name T\nalphabet a\nstates p0\ninitial p0\nfinal\ntrans p0 a p9\n"
        with pytest.raises(ParseError) as err:
            parse_automaton(text)
        assert codes(err.value) == ["unknown-state"]

    def test_duplicate_section(self):
        text = "name T\nstates p0\nstates p0\ninitial p0\n"
        with pytest.raises(ParseError) as err:
            parse_automaton(text)
        assert "duplicate-section" in codes(err.value)

    def test_missing_name_and_initial(self):
        with pytest.raises(ParseError) as err:
            parse_automaton("states p0\n")
        assert set(codes(err.value)) == {"missing-name", "missing-initial"}

    def test_malformed_trans_line(self):
        text = "name T\nstates p0\ninitial p0\ntrans p0 a\n"
        with pytest.raises(ParseError) as err:
            parse_automaton(text)
        assert codes(err.value) == ["malformed-line"]

    def test_reserved_token_in_alphabet(self):
        text = "name T\nalphabet eps\nstates p0\ninitial p0\n"
        with pytest.raises(ParseError) as err:
            parse_automaton(text)
        assert codes(err.value) == ["reserved-token"]

    def test_bad_state_name(self):
        text = "name T\nstates a..b\ninitial a..b\n"
        with pytest.raises(ParseError) as err:
            parse_automaton(text)
        assert "bad-state-name" in codes(err.value)

    @pytest.mark.parametrize("name", ["A;B", "A|B", "(A)", "A)"])
    def test_name_with_expression_marks(self, name):
        text = f"name {name}\nstates p0\ninitial p0\n"
        with pytest.raises(ParseError) as err:
            parse_automaton(text)
        (diag,) = err.value.diagnostics
        assert (diag.code, diag.line, diag.column) == ("bad-name", 1, 6)

    def test_letter_with_comma(self):
        text = "name T\nalphabet a x,y\nstates p0\ninitial p0\n"
        with pytest.raises(ParseError) as err:
            parse_automaton(text)
        (diag,) = err.value.diagnostics
        assert (diag.code, diag.line, diag.column) == ("bad-letter", 2, 12)

    def test_unknown_directive(self):
        text = "name T\nstates p0\ninitial p0\nloop p0\n"
        with pytest.raises(ParseError) as err:
            parse_automaton(text)
        assert codes(err.value) == ["unknown-directive"]

    def test_many_diagnostics_on_one_line_cost_linear_time(self):
        # Each line's columns are found once, however many diagnostics name
        # it; finding them per diagnostic would take quadratic time here.
        count = 20_000
        final = " ".join(f"g{i}" for i in range(count))
        text = f"name T\nstates p0\ninitial p0\nfinal {final}\n"
        started = time.perf_counter()
        with pytest.raises(ParseError) as err:
            parse_automaton(text)
        elapsed = time.perf_counter() - started
        assert codes(err.value) == ["unknown-state"] * count
        last = err.value.diagnostics[-1]
        assert (last.line, last.column) == (4, len(final) - len(f"g{count - 1}") + 7)
        assert elapsed < 3.0, f"{count} diagnostics took {elapsed:.2f}s"


def parse_outcome(parse, text: str):
    """The parsed (name, automaton), or the diagnostics of the ParseError."""
    try:
        return parse(text)
    except ParseError as err:
        return err.diagnostics


class TestParseAutomatonAgainstReference:
    @given(corrupted_files())
    @settings(max_examples=300, deadline=None)
    @example("")
    @example("\xa0\u3000\t# only a comment\n")
    @example("name\xa0T\u3000x\nstates s0\tp0 s0\ninitial s9\nfinal s0 s0 s9\n")
    @example("trans s0 a\nname T\nname T\nalphabet eps a a x,y\ninitial s0 s1\n")
    @example("name A;B\nstates a..b .s0 s0\ninitial s0\nfinal a..b\n")
    def test_same_value_or_same_diagnostics(self, text):
        assert parse_outcome(parse_automaton, text) == parse_outcome(
            reference_parse_automaton, text
        )


@given(corrupted_files())
@settings(max_examples=200, deadline=None)
def test_what_parses_is_valid(text):
    # Why ``check`` runs no ``validate`` after a parse: every endpoint and
    # letter was resolved against the declared sections.
    try:
        _, automaton = parse_automaton(text)
    except ParseError:
        return
    assert validate(automaton) == []


class TestRenderAutomaton:
    def test_bundled_files_are_canonical(self):
        for name in ("N1", "N2"):
            text = fixtures.builtin_path(name).read_text("utf-8")
            parsed_name, automaton = parse_automaton(text)
            assert render_automaton(automaton, parsed_name) == text

    def test_round_trip_on_composite(self, env):
        composite = elaborate(Concat(Device("N1"), Device("N2")), env)
        rendered = render_automaton(composite, "composite")
        assert "trans L.p3 eps R.q0" in rendered
        name, reparsed = parse_automaton(rendered)
        assert name == "composite"
        assert reparsed == composite
        assert render_automaton(reparsed, name) == rendered

    def test_round_trip_on_random_composites(self, env):
        rng = random.Random(77)
        names = ["D0", "D1", "D2"]
        for _ in range(25):
            device_env = {n: random_automaton(rng) for n in names}
            expr = random_expression(rng, names)
            composite = elaborate(expr, device_env)
            rendered = render_automaton(composite, "c")
            _, reparsed = parse_automaton(rendered)
            assert reparsed == composite

    def test_name_is_validated(self, n1):
        with pytest.raises(ValueError):
            render_automaton(n1, "two words")

    @pytest.mark.parametrize("name", ["A;B", "(A)", "A#B", "a;b", "x(y", "A|B", "A)"])
    def test_name_that_would_not_parse_back(self, n1, name):
        with pytest.raises(ValueError):
            render_automaton(n1, name)
        # A leaf so named would render as text that reads back as other
        # leaves, or not at all; only '#' is harmless in an expression.
        if "#" not in name:
            with pytest.raises(ValueError):
                Device(name)

    def test_empty_sections_round_trip(self):
        # Empty alphabet and empty finals stay representable.
        text = "name T\nalphabet\nstates s0\ninitial s0\nfinal\n"
        name, automaton = parse_automaton(text)
        assert automaton.alphabet == frozenset()
        assert automaton.finals == frozenset()
        assert render_automaton(automaton, name) == text


class TestParseExpression:
    def test_sequential(self):
        assert parse_expression("N1 ; N2") == Concat(Device("N1"), Device("N2"))

    def test_precedence(self):
        assert parse_expression("N1 ; N2 | N1") == Parallel(
            Concat(Device("N1"), Device("N2")), Device("N1")
        )

    def test_parentheses(self):
        assert parse_expression("N1 ; (N2 | N1)") == Concat(
            Device("N1"), Parallel(Device("N2"), Device("N1"))
        )

    def test_left_associativity(self):
        assert parse_expression("A ; B ; C") == Concat(
            Concat(Device("A"), Device("B")), Device("C")
        )
        assert parse_expression("A | B | C") == Parallel(
            Parallel(Device("A"), Device("B")), Device("C")
        )

    @pytest.mark.parametrize(
        "text,code",
        [
            ("N1 ;", "expected-operand"),
            ("; N1", "expected-operand"),
            ("", "empty-input"),
            ("   ", "empty-input"),
            ("(N1", "unbalanced-paren"),
            ("N1)", "unbalanced-paren"),
            ("N1 N2", "expected-operator"),
        ],
    )
    def test_diagnostics(self, text, code):
        with pytest.raises(ParseError) as err:
            parse_expression(text)
        assert codes(err.value) == [code]

    def test_deep_nesting_needs_no_recursion(self):
        depth = 3000
        assert parse_expression("(" * depth + "N1" + ")" * depth) == Device("N1")
        with pytest.raises(ParseError) as err:
            parse_expression("(" * depth + "N1" + ")" * (depth - 1))
        (diag,) = err.value.diagnostics
        assert (diag.code, diag.column) == ("unbalanced-paren", 2 * depth + 2)


class TestRenderExpression:
    @pytest.mark.parametrize(
        "expr,expected",
        [
            (Concat(Device("A"), Device("B")), "A ; B"),
            (Parallel(Concat(Device("A"), Device("B")), Device("C")), "A ; B | C"),
            (Concat(Parallel(Device("A"), Device("B")), Device("C")), "(A | B) ; C"),
            (Concat(Device("A"), Concat(Device("B"), Device("C"))), "A ; (B ; C)"),
        ],
    )
    def test_minimal_parentheses(self, expr, expected):
        assert render_expression(expr) == expected
        assert parse_expression(expected) == expr

    def test_random_round_trips(self):
        rng = random.Random(13)
        names = ["N1", "N2", "X"]
        for _ in range(50):
            expr = random_expression(rng, names, max_leaves=5)
            assert parse_expression(render_expression(expr)) == expr

    def test_deep_chain_needs_no_recursion(self, deep_chain, shallow_stack):
        _, expr, text, _ = deep_chain
        assert render_expression(expr) == text
        assert render_expression(parse_expression(text)) == text


class TestRenderDot:
    def test_sequential_composite_grouped(self, env):
        composite = elaborate(Concat(Device("N1"), Device("N2")), env)
        dot = render_dot(composite, group_by_namespace=True)
        assert dot.count("subgraph") == 2
        assert '"L.p3" -> "R.q0" [label="ε"];' in dot
        assert '"R.q1" [shape=doublecircle];' in dot

    def test_parallel_composite_keeps_root_outside_clusters(self, env):
        composite = elaborate(Parallel(Device("N1"), Device("N2")), env)
        dot = render_dot(composite, group_by_namespace=True)
        assert dot.count("subgraph") == 2
        assert '\n  "r0";' in dot  # top-level declaration, not inside a cluster
        assert '"entry point" -> "r0";' in dot

    def test_single_state_automaton(self):
        from nfalgebra import Automaton

        s0 = state("s0")
        lonely = Automaton(
            alphabet=frozenset({letter("a")}),
            states=frozenset({s0}),
            initial=s0,
            transitions={},
            finals=frozenset(),
        )
        dot = render_dot(lonely)
        assert dot.count('"s0"') == 2  # one declaration, one entry arrow
        assert "->" in dot


class TestInputWords:
    def test_single_character_mode(self, n1):
        assert parse_input("aab", n1.alphabet) == word("aab")

    def test_empty_spellings(self, n1):
        assert parse_input("eps", n1.alphabet) == ()
        assert parse_input("", n1.alphabet) == ()

    def test_comma_mode_for_wide_letters(self):
        alphabet = frozenset({letter("ab"), letter("cd")})
        assert parse_input("ab,cd,ab", alphabet) == (
            letter("ab"),
            letter("cd"),
            letter("ab"),
        )

    def test_unknown_letter_diagnostic(self, n1):
        with pytest.raises(ParseError) as err:
            parse_input("abz", n1.alphabet)
        (diag,) = err.value.diagnostics
        assert diag.code == "unknown-symbol"
        assert diag.column == 3

    def test_format_round_trips(self, n1):
        for text in ("eps", "a", "aabaaaab"):
            assert format_word(parse_input(text, n1.alphabet)) == text
        wide = frozenset({letter("ab"), letter("cd")})
        assert format_word(parse_input("ab,cd", wide)) == "ab,cd"
        mixed = frozenset({*word("ab"), letter("cd")})
        assert format_word(word("ab")) == "ab"
        assert format_word(word("ab"), mixed) == "a,b"

    @given(
        st.sampled_from(ALPHABETS).flatmap(
            lambda tokens: st.tuples(
                st.just(tokens), st.lists(st.sampled_from(tokens), max_size=6)
            )
        )
    )
    @example((ALPHABETS[0], list("eps")))
    @example((ALPHABETS[0], []))
    @example((ALPHABETS[1], list("ab")))
    def test_round_trip_over_any_alphabet(self, case):
        tokens, spelled = case
        alphabet = frozenset(map(letter, tokens))
        input_word = tuple(map(letter, spelled))
        assert parse_input(format_word(input_word, alphabet), alphabet) == input_word

    def test_the_word_eps_is_spelled_with_commas(self):
        alphabet = frozenset(word("eps"))
        assert format_word(word("eps")) == "e,p,s"
        assert parse_input("e,p,s", alphabet) == word("eps")
        assert parse_input("eps", alphabet) == ()
