"""Golden contracts: the README's commands, byte for byte.

Each case runs one README command through ``run_cli`` and compares its
exact stdout, or the bytes of the file it writes, and its exit code with
the file of the same name under ``tests/golden/``.  The bundled devices'
paths depend on the install, so ``$N1`` and ``$N2`` stand for them in the
golden text.  A change to any of these files is a change to a pinned
contract: the canonical render and its state order, down to names four
segments deep, the ``abaa`` counterexample, the ``d0, d1, ...`` names, the
trace JSON, the ``props`` output and the exit codes.
"""

from pathlib import Path

import pytest

from nfalgebra import fixtures, run_cli

GOLDEN = Path(__file__).parent / "golden"
N1 = str(fixtures.builtin_path("N1"))
N2 = str(fixtures.builtin_path("N2"))
DEVICES = ["-d", N1, N2]
# Its states are named up to four namespace segments deep.
DEEP = "((N1 ; N2) | N1) ; (N2 | (N1 ; (N2 ; N1)))"

# (golden file, argv, exit code); ``-o`` names the written file's golden.
CASES = [
    ("check.out", ["check", N1, N2], 0),
    ("accept-seq.out", ["accept", *DEVICES, "-e", "N1 ; N2", "-i", "aabaaaab"], 0),
    ("accept-par.out", ["accept", *DEVICES, "-e", "N1 | N2", "-i", "aabaaaab"], 1),
    ("trace-accepted.out", ["trace", *DEVICES, "-e", "N1 ; N2", "-i", "aabaaaab"], 0),
    (
        "trace-accepted.json",
        ["trace", *DEVICES, "-e", "N1 ; N2", "-i", "aabaaaab", "--json"],
        0,
    ),
    ("trace-rejected.out", ["trace", *DEVICES, "-e", "N1 ; N2", "-i", "abba"], 1),
    (
        "trace-rejected.json",
        ["trace", *DEVICES, "-e", "N1 ; N2", "-i", "abba", "--json"],
        1,
    ),
    ("equiv.out", ["equiv", *DEVICES, "-e", "N1 ; N2", "-e2", "N2 ; N1"], 1),
    ("composite.nfa", ["compose", *DEVICES, "-e", "N1 ; N2", "-o"], 0),
    ("compose-deep.nfa", ["compose", *DEVICES, "-e", DEEP, "-o"], 0),
    (
        "trace-deep.json",
        ["trace", *DEVICES, "-e", DEEP, "-i", "baabaaababba", "--json"],
        0,
    ),
    ("dfa.nfa", ["dfa", *DEVICES, "-e", "N1 | N2", "-o"], 0),
    ("dot-group.out", ["dot", *DEVICES, "-e", "N1 | N2", "--group"], 0),
    ("props.out", ["props", "--seed", "42", "--cases", "200"], 0),
]


@pytest.mark.parametrize(
    "golden, argv, code", CASES, ids=[case[0] for case in CASES]
)
def test_readme_command(capsys, tmp_path, golden, argv, code):
    writes = argv[-1] == "-o"
    if writes:
        argv = [*argv, str(tmp_path / golden)]
    assert run_cli(argv) == code
    captured = capsys.readouterr()
    if writes:
        assert captured.out == ""
        produced = (tmp_path / golden).read_bytes()
    else:
        produced = captured.out.replace(N1, "$N1").replace(N2, "$N2").encode()
    assert produced == (GOLDEN / golden).read_bytes()
