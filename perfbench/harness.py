"""Running operations: CLI children and in-process library calls.

Every operation is counted.  An operation *fails* when it crashes: a
library call raises, or a CLI child prints a traceback, dies on a signal
or overruns its time limit.  An operation that completes is checked, and a
wrong output is a *problem*, which makes the run incorrect.
"""

from __future__ import annotations

import os
import select
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

CHILD_TIMEOUT_S = 120.0


class OperationFailed(Exception):
    """Raised by ``Harness.call`` after counting a crashed library call."""


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    seconds: float
    max_rss_kb: int

    @property
    def crashed(self) -> bool:
        return self.code not in (0, 1, 2) or "Traceback (most recent call last)" in self.stderr


@dataclass
class CliCall:
    """One CLI call and the check of its result, which returns problems."""

    args: list[str]
    check: Callable[[CliResult], list[str]]


class Harness:
    def __init__(self, src: Path, workdir: Path, tracer) -> None:
        self.workdir = workdir
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.failures: list[str] = []
        self.op_seconds: list[float] = []  # library calls of the current pass
        self._child = [
            sys.executable,
            "-c",
            f"import sys; sys.path.insert(0, {str(src)!r}); "
            "from nfalgebra.cli import main; main()",
        ]

    def child(self, args: list[str]) -> list[str]:
        """The argv of a child that runs ``nfalgebra.cli.main`` on ``args``."""
        return self._child + args

    def spawn(self, argv: list[str]) -> CliResult:
        """Run one child to completion; time it from spawn to reaped exit.

        Output goes to files, so a large output never blocks the child.  One
        child is alive at a time: this returns only after it is reaped.
        """
        out_path, err_path = self.workdir / "stdout.txt", self.workdir / "stderr.txt"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        try:
            watch = os.pidfd_open(pid)
            try:
                ready, _, _ = select.select([watch], [], [], CHILD_TIMEOUT_S)
            finally:
                os.close(watch)
            if not ready:
                os.kill(pid, signal.SIGKILL)
        finally:
            _, status, usage = os.wait4(pid, 0)
        seconds = time.perf_counter() - start
        code = os.waitstatus_to_exitcode(status)
        return CliResult(
            code,
            out_path.read_text("utf-8", errors="replace"),
            err_path.read_text("utf-8", errors="replace"),
            seconds,
            usage.ru_maxrss,
        )

    def cli(self, call: CliCall) -> CliResult:
        """One counted CLI call through ``nfalgebra.cli.main``, then its check."""
        self.attempted += 1
        result = self.spawn(self.child(call.args))
        if result.crashed:
            self.failed += 1
            last = result.stderr.strip().splitlines()[-1:] or [f"exit {result.code}"]
            self.failures.append(f"cli {call.args[0]}: {last[0][:120]}")
        else:
            self.problems += [f"{call.args[0]}: {p}" for p in call.check(result)]
        return result

    def call(self, name: str, fn, *args, metric: str | None = None, letters: int = 0):
        """One counted library call, timed and, when tracing, wrapped in a span."""
        self.attempted += 1
        with self.tracer.span(name, metric, letters):
            start = time.perf_counter()
            try:
                result = fn(*args)
            except Exception as err:  # counted; the caller skips what needs the result
                self.failed += 1
                self.failures.append(f"{name}: {type(err).__name__}: {err}")
                raise OperationFailed(name) from err
            finally:
                self.op_seconds.append(time.perf_counter() - start)
        return result

    def expect(self, problems: list[str]) -> None:
        self.problems += problems


def exit_is(code: int, stdout: str | None = None) -> Callable[[CliResult], list[str]]:
    """A check for an exit code and, when given, the exact stdout."""

    def check(result: CliResult) -> list[str]:
        problems = []
        if result.code != code:
            problems.append(f"exit {result.code}, want {code}")
        if stdout is not None and result.stdout != stdout:
            problems.append(f"stdout {result.stdout[:60]!r}, want {stdout[:60]!r}")
        return problems

    return check
