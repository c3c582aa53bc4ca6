"""Benchmark of the nfalgebra CLI, end to end, and of its modules, layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-manifest

Run from the repository root.  A run sets up its workload (inputs from the
seed, device files, a warm-up CLI call) several times, then makes whole
rounds: at least three, then more while the next fits in ``--seconds``.  A
round is the CLI half (each call a fresh interpreter running
``nfalgebra.cli.main``, one child at a time) followed by the library half
(the public calls in process).  Every output is checked against
``oracle.py``.

With ``--trace 0`` the last line of stdout is the result with every
end-to-end metric.  With ``--trace 1`` the library half is traced, more
library passes measure the layers the workload leaves out, and the result
carries every per-layer metric instead; the spans are written to
``.perfbench_out/``.  A readable summary goes to stderr.
``--write-manifest`` writes ``BENCHMARK.json`` from ``spec.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import spec
from harness import Harness, OperationFailed
from spans import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBES = 5  # interpreter start-up and import probes in a traced run


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_package() -> None:
    """Import nfalgebra from this checkout's ``src`` and nowhere else."""
    package = SRC / "nfalgebra"
    if not (package / "__init__.py").is_file():
        fail(f"no package at {package}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import nfalgebra

    if Path(nfalgebra.__file__).resolve().parent != package.resolve():
        fail(f"imported nfalgebra from {nfalgebra.__file__}, not {package}")


def lib_pass(h, workload) -> list[float]:
    """One library half; returns the seconds of each library call in it."""
    h.tracer.begin_pass(workload.name)
    h.op_seconds = []
    with h.tracer.span("bench.lib_pass"):
        try:
            workload.lib_pass(h)
        except OperationFailed:
            pass  # counted by the harness; the rest of the pass needs its result
    return h.op_seconds


def typical(samples: list[list[float]]) -> list[float]:
    """Per position, the median over samples of the same operation sequence.

    A shared host slows the CPUs in bursts; a median per operation drops a
    burst that hits one repetition, where a whole-pass sum keeps it.
    """
    width = max(len(s) for s in samples)
    return [statistics.median(s[i] for s in samples if i < len(s)) for i in range(width)]


def set_up(h, cls, seed: int, work: Path) -> tuple[object, list[list[float]]]:
    """Make the workload ``SETUP_REPEATS`` times; the last one is used.

    Each repeat times two steps: making the inputs (generate, write, parse)
    and the warm-up CLI call (interpreter start, import, byte-code cache).
    """
    times = []
    for rep in range(spec.SETUP_REPEATS):
        start = time.perf_counter()
        workload = cls(seed, work / f"setup{rep}")
        made = time.perf_counter()
        warm = h.spawn(h.child(["check", *workload.devices]))
        times.append([made - start, time.perf_counter() - made])
        if warm.code != 0:
            fail(f"warm-up check failed: {warm.stderr.strip()[-300:]}")
    return workload, times


def measure(h, workload, seconds: float) -> dict:
    """Whole rounds: at least ``MIN_ROUNDS``, then while the next fits in ``seconds``."""
    rounds: list[list[float]] = []  # CLI call seconds, in call order
    peaks: list[int] = []
    passes: list[list[float]] = []  # library call seconds, in call order
    longest = 0.0
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        results = [h.cli(call) for call in workload.cli_calls()]
        rounds.append([r.seconds for r in results])
        peaks.append(max(r.max_rss_kb for r in results))
        passes += [lib_pass(h, workload) for _ in range(workload.lib_repeats)]
        now = time.perf_counter()
        longest = max(longest, now - begun)
        if len(rounds) >= spec.MIN_ROUNDS and now - start + longest > seconds:
            break
    return {"rounds": rounds, "peaks": peaks, "passes": passes}


def end_to_end(setup_times: list[list[float]], m: dict) -> dict[str, float]:
    calls = typical(m["rounds"])
    return {
        "setup_s": sum(typical(setup_times)),
        "cli_pass_s": sum(calls),
        "cli_call_ms": statistics.median(t for r in m["rounds"] for t in r) * 1e3,
        "cli_call_ms_p90": statistics.quantiles(calls, n=10, method="inclusive")[8] * 1e3,
        "lib_pass_s": sum(typical(m["passes"])),
        "peak_rss_mb": statistics.median(m["peaks"]) / 1024,
    }


def per_layer(h, tracer: Tracer, workload, seed: int, work: Path) -> dict[str, float]:
    """Per-layer metrics, from the traced rounds and more library passes.

    The extra passes are not operations of the workload's rounds, so they
    are not counted in ``attempted``; their wrong outputs and crashes are
    still reported as problems.
    """
    from workloads import WORKLOADS

    # Untraced and traced passes alternate, so the machine's drift in speed
    # falls on both sides of the tracing overhead alike.
    extra = Harness(SRC, work, tracer)
    untraced, traced = [], []
    for _ in range(spec.MIN_ROUNDS * workload.lib_repeats):
        extra.tracer = NullTracer()
        untraced.append(lib_pass(extra, workload))
        extra.tracer = tracer
        traced.append(lib_pass(extra, workload))
    for name, cls in WORKLOADS.items():
        if name != workload.name and name != "cli-small":
            lib_pass(extra, cls(seed, work / f"layers-{name}"))
    h.problems += extra.problems + [f"crashed: {f}" for f in extra.failures]

    bare = f"import sys; sys.path.insert(0, {str(SRC)!r})"
    startup, imports = [], []
    for _ in range(PROBES):
        startup.append(h.spawn([sys.executable, "-c", bare]).seconds)
        imports.append(h.spawn([sys.executable, "-c", bare + "; import nfalgebra.cli"]).seconds)

    units = dict(spec.per_layer())
    values = tracer.metric_values(units)
    values["cli.startup_ms"] = statistics.median(startup) * 1e3
    values["cli.import_ms"] = (statistics.median(imports) - statistics.median(startup)) * 1e3
    values["bench.tracing_overhead_s"] = sum(typical(traced)) - sum(typical(untraced))
    missing = [name for name in units if name not in values]
    if missing:
        raise RuntimeError(f"per-layer metrics not measured: {', '.join(missing)}")
    return values


def report(tracer: Tracer | None, path: Path | None, h, values: dict, units: dict) -> None:
    err = sys.stderr
    if tracer is not None and path is not None:
        totals = tracer.write(path)
        print(f"spans written to {path}", file=err)
        print(f"{'span':34} {'calls':>6} {'total s':>9} {'self s':>9}", file=err)
        for name, t in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"{name:34} {t['calls']:6d} {t['total_s']:9.4f} {t['self_s']:9.4f}", file=err)
    for name, unit in units.items():
        print(f"{name:44} {values[name]:14.6f} {unit}", file=err)
    print(f"attempted {h.attempted} failed {h.failed}", file=err)
    for note in h.failures[:5]:
        print(f"failed: {note}", file=err)
    for problem in h.problems[:20]:
        print(f"problem: {problem}", file=err)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json from spec.py and exit")
    args = parser.parse_args(argv)
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.manifest(), indent=2) + "\n", "utf-8")
        return 0
    names = [name for name, _ in spec.WORKLOADS]
    if args.workload not in names or args.seed is None:
        parser.error(f"--workload must be one of {', '.join(names)}, and --seed is required")

    load_package()
    from workloads import WORKLOADS

    tracer = Tracer() if args.trace else None
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        h = Harness(SRC, work, tracer or NullTracer())
        work.mkdir(parents=True, exist_ok=True)
        workload, setup_times = set_up(h, WORKLOADS[args.workload], args.seed, work)
        m = measure(h, workload, args.seconds)
        if tracer is None:
            values = end_to_end(setup_times, m)
            units = {name: unit for name, unit, _ in spec.END_TO_END}
            spans_path = None
        else:
            values = per_layer(h, tracer, workload, args.seed, work)
            units = dict(spec.per_layer())
            spans_path = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.json"
        report(tracer, spans_path, h, values, units)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    result = {
        "correct": not h.problems,
        "attempted": h.attempted,
        "failed": h.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
