"""Print how the peak memory of two chain families grows with their size.

Each family is one operation on the chain ``N1 ; N2 ; N1 ; …`` of bundled
devices, a left-deep tree whose leaves lie up to k positions deep:

* ``elaborate+compile``: ``elaborate`` of the chain, then its kernel;
* ``render_expression``: the chain's canonical text.

Each family runs at k and at 2k leaves, each size in a fresh process, so
no name interned at one size is reused at the other.  The chain is parsed
before measuring; the figure is the ``tracemalloc`` peak of the operation
alone.  The tool prints both peaks and their ratio: about 2 for memory
linear in k, about 4 for quadratic.  It reads no clock, so the figures do
not depend on the host's load.  It only reports; it never fails on a size.

    python tools/scaling.py [--leaves K] [SRC]

``SRC`` is the directory that holds the ``nfalgebra`` package (default
``src``), so the same tool measures another checkout of the package.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tracemalloc


def _elaborate_and_compile(expr, env) -> None:
    from nfalgebra import elaborate

    elaborate(expr, env)._kernel


def _render(expr, env) -> None:
    from nfalgebra import render_expression

    render_expression(expr)


FAMILIES = {
    "elaborate+compile": _elaborate_and_compile,
    "render_expression": _render,
}


def measure(family: str, leaves: int) -> int:
    """The ``tracemalloc`` peak, in bytes, of one family at one size, run in
    this process."""
    from nfalgebra import parse_expression
    from nfalgebra.fixtures import n1, n2

    env = {"N1": n1(), "N2": n2()}
    expr = parse_expression(" ; ".join(["N1", "N2"][i % 2] for i in range(leaves)))
    tracemalloc.start()
    FAMILIES[family](expr, env)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak


def _peak_in_child(src: str, family: str, leaves: int) -> int:
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    command = [sys.executable, __file__, "--measure", family, str(leaves)]
    done = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
    return int(done.stdout)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", default="src")
    parser.add_argument("--leaves", type=int, default=500, help="k (default 500)")
    parser.add_argument("--measure", nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        family, leaves = args.measure
        print(measure(family, int(leaves)))
        return 0
    k = args.leaves
    for family in FAMILIES:
        small, large = (_peak_in_child(args.src, family, n) for n in (k, 2 * k))
        print(
            f"{family}: {k} leaves {small / 1e6:.3f} MB, {2 * k} leaves"
            f" {large / 1e6:.3f} MB, ratio {large / small:.2f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
