"""CLI contract: subcommands, streams, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nfalgebra
from nfalgebra import (
    EPSILON,
    Activate,
    ControlTrace,
    Handoff,
    StateId,
    Step,
    Verdict,
    cli,
    fixtures,
    letter,
    parse_automaton,
    run_cli,
    trace,
)

from .conftest import DEEP_LEAVES
from .oracles import trace_payload

N1 = str(fixtures.builtin_path("N1"))
N2 = str(fixtures.builtin_path("N2"))


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_valid_files(self, capsys):
        code, out, err = run(capsys, "check", N1, N2)
        assert code == 0
        assert out.count(": ok") == 2
        assert err == ""

    def test_invalid_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.nfa"
        bad.write_text("name X\nalphabet a\nstates p0\ninitial p9\n")
        code, out, err = run(capsys, "check", str(bad))
        assert code == 2
        assert "unknown-state" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", str(tmp_path / "nope.nfa"))
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "argv", [["check", ""], ["accept", "-d", "", "-e", "N1", "-i", "a"]]
    )
    def test_empty_path_is_named_not_read_as_the_current_directory(
        self, capsys, argv
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: [Errno 2] No such file or directory: ''\n"

    def test_undecodable_file_is_named_and_the_next_file_checked(
        self, capsys, tmp_path
    ):
        binary = tmp_path / "bin.nfa"
        binary.write_bytes(b"\xff\n")
        code, out, err = run(capsys, "check", str(binary), N1)
        assert code == 2
        assert err.startswith(f"error: {binary}: ") and err.count("\n") == 1
        assert out == f"{N1}: ok (N1: 4 states, 7 transitions)\n"


class TestAccept:
    def test_accepting_input(self, capsys):
        code, out, _ = run(
            capsys, "accept", "-d", N1, N2, "-e", "N1 ; N2", "-i", "aabaaaab"
        )
        assert (code, out.strip()) == (0, "accept")

    def test_rejecting_input(self, capsys):
        code, out, _ = run(
            capsys, "accept", "-d", N1, N2, "-e", "N1 | N2", "-i", "aabaaaab"
        )
        assert (code, out.strip()) == (1, "reject")

    def test_single_device(self, capsys):
        code, out, _ = run(capsys, "accept", "-d", N1, "-e", "N1", "-i", "abaabaa")
        assert (code, out.strip()) == (0, "accept")

    def test_bad_expression(self, capsys):
        code, _, err = run(capsys, "accept", "-d", N1, "-e", "N1 ;", "-i", "a")
        assert code == 2
        assert "expected-operand" in err

    def test_unbound_device(self, capsys):
        code, _, err = run(capsys, "accept", "-d", N1, "-e", "N9", "-i", "a")
        assert code == 2
        assert "N9" in err

    def test_unnameable_device_is_a_bad_name(self, capsys):
        code, out, err = run(capsys, "accept", "-d", N1, "-e", "N1 ; a#b", "-i", "a")
        assert (code, out) == (2, "")
        assert err == (
            "-e:1:6: bad-name: device name 'a#b' contains '#', the comment mark\n"
        )

    def test_unknown_input_symbol(self, capsys):
        code, _, err = run(capsys, "accept", "-d", N1, "-e", "N1", "-i", "abz")
        assert code == 2
        assert err == "-i:1:3: unknown-symbol: letter 'z' is not in the alphabet\n"

    def test_deeply_parenthesized_expression(self, capsys):
        expr = "(" * 3000 + "N1" + ")" * 3000
        code, out, _ = run(capsys, "accept", "-d", N1, "-e", expr, "-i", "abaa")
        assert (code, out.strip()) == (0, "accept")

    @pytest.mark.parametrize(
        "body,code",
        [
            ("name A;B\nstates p0\ninitial p0\n", "bad-name"),
            ("name T\nalphabet x,y\nstates p0\ninitial p0\n", "bad-letter"),
        ],
        ids=["name", "letter"],
    )
    def test_unreferable_tokens_are_diagnosed(self, capsys, tmp_path, body, code):
        bad = tmp_path / "bad.nfa"
        bad.write_text(body)
        status, out, err = run(capsys, "accept", "-d", str(bad), "-e", "T", "-i", "x")
        assert (status, out) == (2, "")
        assert err.startswith(f"{bad}:") and code in err
        # Every subcommand prints a file's diagnostics the same way.
        status, _, check_err = run(capsys, "check", str(bad))
        assert (status, check_err) == (2, err)

    def test_duplicate_device_name_names_the_second_file(self, capsys, tmp_path):
        copy = tmp_path / "copy.nfa"
        copy.write_text(Path(N1).read_text(encoding="utf-8"), encoding="utf-8")
        code, out, err = run(
            capsys, "accept", "-d", N1, str(copy), "-e", "N1", "-i", "a"
        )
        assert (code, out) == (2, "")
        assert err == f"error: {copy}: duplicate device name 'N1'\n"

    def test_missing_device_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "accept", "-d", str(tmp_path / "ghost.nfa"), "-e", "N1", "-i", "a"
        )
        assert code == 2


class TestTrace:
    def test_human_readable(self, capsys):
        code, out, _ = run(
            capsys, "trace", "-d", N1, N2, "-e", "N1 ; N2", "-i", "aabaaaab"
        )
        assert code == 0
        assert "handoff N1 -> N2 via L.p3 -eps-> R.q0" in out
        assert "overall: accept" in out

    def test_rejection_lists_leaf_verdicts(self, capsys):
        code, out, _ = run(
            capsys, "trace", "-d", N1, N2, "-e", "N1 | N2", "-i", "aabaaaab"
        )
        assert code == 1
        assert "overall: reject" in out
        assert "verdict N1: reject" in out
        assert "verdict N2: reject" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "trace", "-d", N1, N2, "-e", "N1 ; N2", "-i", "aabaaaab", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["input"] == "aabaaaab"
        assert payload["overall"] is True
        assert payload["devices"] == {"L": "N1", "R": "N2"}
        kinds = [event["kind"] for event in payload["events"]]
        assert kinds[0] == "activate"
        assert kinds[-1] == "verdict"
        assert kinds.count("handoff") == 1
        handoff = next(e for e in payload["events"] if e["kind"] == "handoff")
        assert handoff == {
            "kind": "handoff",
            "device": "L",
            "to_device": "R",
            "from": "L.p3",
            "letter": "eps",
            "to": "R.q0",
        }
        steps = [e for e in payload["events"] if e["kind"] == "step"]
        assert all({"device", "from", "letter", "to"} <= e.keys() for e in steps)

    def test_expression_is_elaborated_once(self, capsys, monkeypatch):
        calls = []

        def counting_elaborate(expr, env):
            calls.append(expr)
            return nfalgebra.elaborate(expr, env)

        monkeypatch.setattr(cli, "elaborate", counting_elaborate)
        monkeypatch.setattr(trace, "elaborate", counting_elaborate)
        code, out, _ = run(
            capsys, "trace", "-d", N1, N2, "-e", "N1 ; N2", "-i", "aabaaaab"
        )
        assert (code, len(calls)) == (0, 1)
        assert "handoff N1 -> N2 via L.p3 -eps-> R.q0" in out


# Characters JSON must escape: quotes, backslashes, and control and
# non-ASCII characters, which become \uXXXX escapes (a surrogate pair for
# the one outside the BMP).
_NAME_CHARS = st.sampled_from(
    ("a", "L", "0", '"', "\\", "\x01", "\x7f", "é", "→", "\U0001f600")
)
_SEGMENTS = st.text(_NAME_CHARS, min_size=1, max_size=3)
_STATES = st.builds(StateId, st.lists(_SEGMENTS, max_size=2).map(tuple), _SEGMENTS)
_LETTERS = _SEGMENTS.filter(lambda token: token != "eps").map(letter)
_DEVICES = st.text(max_size=4) | _SEGMENTS
_EVENTS = st.one_of(
    st.builds(Activate, _DEVICES),
    st.builds(Step, _DEVICES, _STATES, _LETTERS | st.just(EPSILON), _STATES),
    st.builds(Handoff, _DEVICES, _DEVICES, _STATES, _STATES),
    st.builds(Verdict, _DEVICES, st.booleans()),
)
_TRACES = st.builds(
    ControlTrace,
    st.lists(_LETTERS, max_size=4),
    st.booleans(),
    st.lists(_EVENTS, max_size=6),
    st.dictionaries(_DEVICES, _DEVICES, max_size=3),
)


@given(_TRACES)
@settings(max_examples=300, deadline=None)
@example(ControlTrace((), False, (), {}))
@example(ControlTrace((letter("a"),), True, (Activate(""),), {"": 'N"\\é'}))
def test_trace_json_is_what_json_dumps_writes(control):
    alphabet = set(control.input)
    expected = json.dumps(trace_payload(control, alphabet), indent=2)
    assert cli._trace_json(control, alphabet) == expected


class TestFailureExit:
    """Every failure exits 2 with one stderr line, never 1, which reads as
    a verdict, and never with a traceback."""

    @pytest.mark.parametrize("kind", [MemoryError, RecursionError])
    def test_in_process(self, capsys, monkeypatch, kind):
        def fail(*args):
            raise kind("limit reached")

        monkeypatch.setattr(cli, "accepts", fail)
        code, out, err = run(capsys, "accept", "-d", N1, "-e", "N1", "-i", "abaabaa")
        assert (code, out, err) == (2, "", f"error: {kind.__name__}: limit reached\n")

    @pytest.mark.parametrize("kind", [MemoryError, RecursionError])
    def test_module_entry_point(self, tmp_path, kind):
        # Python imports ``sitecustomize`` at start-up, before it runs -m.
        (tmp_path / "sitecustomize.py").write_text(
            "import nfalgebra.cli\n"
            "def fail(*args):\n"
            f"    raise {kind.__name__}()\n"
            "nfalgebra.cli.accepts = fail\n"
        )
        done = run_python(
            "-m", "nfalgebra", "accept", "-d", N1, "-e", "N1", "-i", "abaabaa",
            path=[str(tmp_path)],
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == f"error: {kind.__name__}\n"


class TestEquiv:
    def test_equivalent_expressions(self, capsys):
        code, out, _ = run(capsys, "equiv", "-d", N1, N2, "-e", "N1 | N2", "-e2", "N2 | N1")
        assert (code, out.strip()) == (0, "equivalent")

    def test_counterexample(self, capsys):
        code, out, _ = run(capsys, "equiv", "-d", N1, N2, "-e", "N1 ; N2", "-e2", "N2 ; N1")
        assert (code, out.strip()) == (1, "abaa")

    @pytest.mark.parametrize(
        "first,second,expected",
        [
            ("N1 ;", "N1", "-e:1:5: expected-operand: expected a device name or '('"),
            ("N1", "N1 ;", "-e2:1:5: expected-operand: expected a device name or '('"),
            ("N9", "N1", "error: -e: no device named 'N9' is bound"),
            ("N1", "N9", "error: -e2: no device named 'N9' is bound"),
        ],
        ids=["e", "e2", "e-unbound", "e2-unbound"],
    )
    def test_expression_diagnostic_names_its_option(
        self, capsys, first, second, expected
    ):
        code, out, err = run(capsys, "equiv", "-d", N1, "-e", first, "-e2", second)
        assert (code, out, err) == (2, "", expected + "\n")

    def test_counterexample_reads_back_over_mixed_length_letters(
        self, capsys, tmp_path
    ):
        # X accepts a·b over {a, b}; Y accepts nothing over {a, b, cd}.
        x = tmp_path / "x.nfa"
        x.write_text(
            "name X\nalphabet a b\nstates x0 x1 x2\ninitial x0\nfinal x2\n"
            "trans x0 a x1\ntrans x1 b x2\n"
        )
        y = tmp_path / "y.nfa"
        y.write_text("name Y\nalphabet a b cd\nstates y0\ninitial y0\n")
        devices = ["-d", str(x), str(y)]
        code, out, _ = run(capsys, "equiv", *devices, "-e", "X", "-e2", "Y")
        assert (code, out.strip()) == (1, "a,b")
        code, out, _ = run(
            capsys, "accept", *devices, "-e", "X | Y", "-i", out.strip()
        )
        assert (code, out.strip()) == (0, "accept")
        code, out, _ = run(
            capsys, "trace", *devices, "-e", "X | Y", "-i", "a,b", "--json"
        )
        assert (code, json.loads(out)["input"]) == (0, "a,b")


class TestComposeAndDfa:
    def test_compose_reload_round_trip(self, capsys, tmp_path):
        target = tmp_path / "composite.nfa"
        code, _, _ = run(
            capsys, "compose", "-d", N1, N2, "-e", "N1 ; N2", "-o", str(target)
        )
        assert code == 0
        name, automaton = parse_automaton(target.read_text("utf-8"))
        assert name == "composite"
        assert len(automaton.states) == 6
        code, out, _ = run(
            capsys, "accept", "-d", str(target), "-e", "composite", "-i", "aabaaaab"
        )
        assert (code, out.strip()) == (0, "accept")

    def test_dfa_output_is_deterministic_and_equivalent(self, capsys, tmp_path):
        from nfalgebra import elaborate, equivalent, parse_expression

        target = tmp_path / "out.nfa"
        code, _, _ = run(capsys, "dfa", "-d", N1, N2, "-e", "N1 | N2", "-o", str(target))
        assert code == 0
        name, deterministic = parse_automaton(target.read_text("utf-8"))
        assert name == "dfa"
        composite = elaborate(
            parse_expression("N1 | N2"),
            {"N1": fixtures.n1(), "N2": fixtures.n2()},
        )
        assert equivalent(deterministic, composite).equivalent
        # Deterministic: at most one target per (state, letter).
        seen = set()
        for source, symbol, _ in deterministic.edges():
            assert (source, symbol) not in seen
            seen.add((source, symbol))

    @pytest.mark.parametrize("command", ["compose", "dfa"])
    def test_empty_output_path_is_named(self, capsys, command):
        code, out, err = run(capsys, command, "-d", N1, "-e", "N1", "-o", "")
        assert (code, out) == (2, "")
        assert err == "error: [Errno 2] No such file or directory: ''\n"


class TestDot:
    def test_plain_export(self, capsys):
        code, out, _ = run(capsys, "dot", "-d", N1, "-e", "N1")
        assert code == 0
        assert out.startswith("digraph")
        assert "subgraph" not in out

    def test_grouped_export(self, capsys):
        code, out, _ = run(capsys, "dot", "-d", N1, N2, "-e", "N1 ; N2", "--group")
        assert code == 0
        assert out.count("subgraph") == 2


class TestProps:
    def test_small_run_passes_and_reproduces(self, capsys):
        code, first, _ = run(capsys, "props", "--seed", "7", "--cases", "20")
        assert code == 0
        assert "failures 0" in first
        code, second, _ = run(capsys, "props", "--seed", "7", "--cases", "20")
        assert code == 0
        assert first == second

    def test_max_len_flag(self, capsys):
        code, out, _ = run(
            capsys, "props", "--seed", "7", "--cases", "5", "--max-len", "3"
        )
        assert code == 0
        assert "max-len 3" in out


    @pytest.mark.parametrize(
        "flags",
        [
            ("--cases", "-5"),
            ("--cases", "1", "--max-len", "-1"),
            ("--cases", "1", "--max-len", "11"),
        ],
    )
    def test_out_of_range_arguments(self, capsys, flags):
        code, out, err = run(capsys, "props", "--seed", "7", *flags)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")


class TestDeepChain:
    """A right-nested chain deeper than the recursion limit composes."""

    def test_compose(self, capsys, tmp_path, deep_chain, shallow_stack):
        _, _, text, _ = deep_chain
        out_path = tmp_path / "deep.nfa"
        code, out, err = run(
            capsys, "compose", "-d", N1, N2, "-e", text, "-o", str(out_path)
        )
        assert (code, out, err) == (0, "", "")
        name, composite = parse_automaton(out_path.read_text("utf-8"))
        assert (name, len(composite.states)) == ("composite", 3 * DEEP_LEAVES)

    def test_dot(self, capsys, deep_chain, shallow_stack):
        _, _, text, _ = deep_chain
        code, out, err = run(capsys, "dot", "-d", N1, N2, "-e", text, "--group")
        assert (code, err) == (0, "")
        assert out.startswith("digraph automaton {")
        assert out.count('[label="ε"]') == DEEP_LEAVES - 1

    def test_trace(self, capsys, deep_chain, shallow_stack):
        _, _, text, member = deep_chain
        code, out, err = run(capsys, "trace", "-d", N1, N2, "-e", text, "-i", member)
        assert (code, err) == (0, "")
        assert "overall: accept" in out
        assert out.count("\nhandoff ") == DEEP_LEAVES - 1


def run_python(*argv, path=()):
    """A fresh interpreter that imports this checkout's package, with the
    directories in ``path`` ahead of it on the import path."""
    source = str(Path(nfalgebra.__file__).resolve().parent.parent)
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        filter(None, [*path, source, environment.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env=environment,
        timeout=60,
    )


class TestModuleEntryPoint:
    @pytest.mark.parametrize(
        "module,word,expected",
        [
            ("nfalgebra", "abaabaa", 0),
            ("nfalgebra", "aaa", 1),
            ("nfalgebra", "zzz", 2),
            ("nfalgebra.cli", "abaabaa", 0),
            ("nfalgebra.cli", "zzz", 2),
        ],
    )
    def test_exit_codes(self, module, word, expected):
        done = run_python("-m", module, "accept", "-d", N1, "-e", "N1", "-i", word)
        assert done.returncode == expected
        assert done.stdout.strip() == {0: "accept", 1: "reject", 2: ""}[expected]

    @pytest.mark.parametrize("module", ["nfalgebra", "nfalgebra.cli"])
    def test_accepted_run_writes_nothing_to_stderr(self, module):
        done = run_python("-m", module, "accept", "-d", N1, "-e", "N1", "-i", "abaabaa")
        assert (done.returncode, done.stdout, done.stderr) == (0, "accept\n", "")

    def test_package_import_loads_the_cli_on_first_use(self):
        done = run_python(
            "-c",
            "import sys, nfalgebra\n"
            "print('nfalgebra.cli' in sys.modules)\n"
            "from nfalgebra import run_cli\n"
            "print('run_cli' in nfalgebra.__all__, run_cli is nfalgebra.cli.run_cli)",
        )
        assert (done.stdout, done.stderr) == ("False\nTrue True\n", "")


class TestImportFootprint:
    def test_package_import_loads_no_submodule(self):
        done = run_python(
            "-c",
            "import sys, nfalgebra\n"
            "print(sorted(m for m in sys.modules if m.startswith('nfalgebra.')))\n"
            "print(set(nfalgebra.__all__) <= set(dir(nfalgebra)))",
        )
        assert (done.stdout, done.stderr) == ("[]\nTrue\n", "")

    def test_accept_leaves_other_subcommands_unloaded(self):
        done = run_python(
            "-c",
            "import sys\n"
            f"sys.argv = ['nfalgebra', 'accept', '-d', {N1!r}, '-e', 'N1', '-i', 'abaabaa']\n"
            "from nfalgebra.cli import main\n"
            "try:\n"
            "    main()\n"
            "except SystemExit as stop:\n"
            "    print(stop.code)\n"
            "unused = {'nfalgebra.analysis', 'nfalgebra.trace', 'nfalgebra.properties', 'json'}\n"
            "print(sorted(unused & sys.modules.keys()))",
        )
        assert (done.stdout, done.stderr) == ("accept\n0\n[]\n", "")

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", N1],
            ["compose", "-d", N1, "-e", "N1", "-o", os.devnull],
            ["dot", "-d", N1, "-e", "N1"],
        ],
        ids=["check", "compose", "dot"],
    )
    def test_other_light_subcommands_leave_the_rest_unloaded(self, argv):
        done = run_python(
            "-c",
            "import sys\n"
            "from nfalgebra.cli import run_cli\n"
            f"code = run_cli({argv!r})\n"
            "unused = {'nfalgebra.analysis', 'nfalgebra.trace', 'nfalgebra.properties', 'json'}\n"
            "print(code, sorted(unused & sys.modules.keys()))",
        )
        assert (done.stdout.splitlines()[-1], done.stderr) == ("0 []", "")

    def test_no_subcommand_loads_dataclasses_or_inspect(self):
        # The calls run in turn in one interpreter; after each, neither
        # module may be loaded.  Importing ``dataclasses`` loads
        # ``inspect``, and the two cost more than the package's own code.
        calls = [
            ["check", N1],
            ["accept", "-d", N1, "-e", "N1", "-i", "abaabaa"],
            ["trace", "-d", N1, N2, "-e", "N1 ; N2", "-i", "aabaaaab"],
            ["trace", "-d", N1, N2, "-e", "N1 ; N2", "-i", "aabaaaab", "--json"],
            ["equiv", "-d", N1, N2, "-e", "N1 | N2", "-e2", "N2 | N1"],
            ["compose", "-d", N1, "-e", "N1", "-o", os.devnull],
            ["dfa", "-d", N1, N2, "-e", "N1 | N2", "-o", os.devnull],
            ["dot", "-d", N1, "-e", "N1"],
            ["props", "--seed", "1", "--cases", "3"],
        ]
        done = run_python(
            "-c",
            "import contextlib, io, sys\n"
            "from nfalgebra.cli import run_cli\n"
            f"for argv in {calls!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = run_cli(argv)\n"
            "    loaded = {'dataclasses', 'inspect'} & sys.modules.keys()\n"
            "    print(*argv[:1], *argv[-1:], code, sorted(loaded))",
        )
        expected = [f"{argv[0]} {argv[-1]} 0 []" for argv in calls]
        assert (done.stdout.splitlines(), done.stderr) == (expected, "")


class TestUsage:
    def test_no_arguments(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_missing_required_flag(self, capsys):
        assert run(capsys, "accept", "-d", N1, "-e", "N1")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0
