"""Benchmark of the ``interfere`` library, driven through its public API.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scan_family --seed 1 --seconds 20 --trace 0

One process, one closed-loop client: the next op starts when the previous
one has returned and its output has been checked.  The workload's batch of
ops (see ``workloads.py``) runs in whole passes until about ``--seconds``
of wall time have gone, at least one pass; the stop rule ends the run
within half a pass of the budget.  ``--seed`` (default 1) fixes every
generated input; the batch composition is the same for every seed.

``--trace 0`` prints the end-to-end metrics:

    ops_per_s    ops that passed their check per second of op time
    setup_s      import + seeded input generation + one warm-up op,
                 median of this process and four fresh child processes
    peak_rss_mb  peak resident set of this process (cli: of its children)

It also prints, ungated, the op latency median ``op_ms_p50``, the tail
``op_ms_tail`` (the highest whole percentile with at least ten ops beyond
it, with that percentile and the op count) and ``failed_frac``.

``--trace 1`` runs every op twice, untraced and then traced, and prints
the per-layer metrics: for every traced public
call, ``<module>.<call>.calls``, ``.ms_p50`` (self time), ``.busy_s`` and
``.failed``, plus the tracing overhead in ops per second.  The spans go to
``.bench_out/`` once the run is over.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without the
library sources under ``src/`` the benchmark exits with code 2 and prints
no result.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
DEFAULT_SEED = 1
SETUP_CHILDREN = 4
SETUP_TIMEOUT_S = 120

# Public calls the ops make, named <module>.<call>; the traced run reports
# four metrics for each.  visibility is split by N.
TRACED_CALLS = [
    "interference.visibility.n3",
    "interference.visibility.n4",
    "interference.visibility.n5",
    "interference.visibility.n6",
    "interference.visibility.n8",
    "interference.intensity",
    "interference.born_residual",
    "interference.pattern",
    "density.estimate_pid",
    "coherence.coherence_matrix",
    "coherence.g2",
    "oracle.oracle_intensity",
    "core.DensityMatrix",
    "density.mix",
    "config.ExperimentConfig.from_path",
    "config.ExperimentConfig.density",
    "cli.main.validate",
    "cli.main.pid",
    "cli.main.coherence",
    "cli.main.pattern",
    "cli.main.visibility",
    "cli.main.born-check",
    "cli.import",
]


@dataclass
class Stats:
    latencies: list[float] = field(default_factory=list)  # seconds, ops that returned
    busy_s: float = 0.0  # time inside ops, those that raised included
    attempted: int = 0
    failed: int = 0
    passes: int = 0
    reasons: list[str] = field(default_factory=list)

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.busy_s if self.busy_s > 0 else 0.0

    def tail_percentile(self) -> int:
        """Highest whole percentile with at least ten ops beyond it (50 if none has)."""
        n = len(self.latencies)
        return min(99, math.floor(100.0 * (1.0 - 10.0 / n))) if n >= 20 else 50

    def op_ms(self, percentile: float) -> float:
        ordered = sorted(self.latencies)
        if not ordered:
            return 0.0
        rank = percentile / 100.0 * (len(ordered) - 1)
        low = math.floor(rank)
        high = min(low + 1, len(ordered) - 1)
        return 1e3 * (ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(code)


def import_library():
    """Import ``interfere`` from this checkout's ``src/``, nowhere else."""
    if not (SRC / "interfere" / "__init__.py").is_file():
        fail(f"no library sources at {SRC}/interfere")
    sys.path.insert(0, str(SRC))
    import interfere

    if SRC.resolve() not in Path(interfere.__file__).resolve().parents:
        fail(f"imported interfere from {interfere.__file__}, not from {SRC}")


def setup(workload: str, seed: int, tracer: Tracer):
    """Import, generate the seeded batch, run one warm-up op; return (seconds, batch)."""
    start = time.perf_counter()
    import_library()
    import workloads

    with tracer.span("setup"):
        batch = workloads.build(workload, seed, ROOT, tracer)
    traced, tracer.enabled = tracer.enabled, False
    try:
        batch.ops[0].run(tracer)
    except Exception:  # the measured passes run this op again and count the failure
        pass
    finally:
        tracer.enabled = traced
    return time.perf_counter() - start, batch


def measure(batch, tracer: Tracer, budget_s: float, modes=(False,)) -> list[Stats]:
    """Run whole passes of the batch; one Stats per tracing mode in ``modes``.

    With ``modes=(False, True)`` each op runs both untraced and traced, back
    to back, so both readings see the same machine load.  A repeat of an op
    runs faster than its first run (warm caches), so the order flips every
    two ops.
    """
    stats = [Stats() for _ in modes]
    start = time.perf_counter()
    while True:
        passes = stats[0].passes
        for index, op in enumerate(batch.ops):
            order = list(zip(modes, stats))
            for traced, st in order if index // 2 % 2 == 0 else reversed(order):
                tracer.enabled = traced
                _run_op(op, tracer, st, op_id=passes * len(batch.ops) + index)
        tracer.enabled = False
        for st in stats:
            st.passes += 1
        wall = time.perf_counter() - start
        if wall >= budget_s - 0.5 * wall / (passes + 1):
            return stats


def _run_op(op, tracer: Tracer, stats: Stats, op_id: int) -> None:
    stats.attempted += 1
    op_start = time.perf_counter()
    try:
        with tracer.span("op", op_id=op_id):
            outputs = op.run(tracer)
    except Exception as exc:  # an op that raises is counted, and the run goes on
        stats.busy_s += time.perf_counter() - op_start
        stats.failed += 1
        stats.reasons.append(f"{op.label}: raised {type(exc).__name__}: {exc}")
        return
    stats.latencies.append(time.perf_counter() - op_start)
    stats.busy_s += stats.latencies[-1]
    try:
        reason = op.check(outputs)
    except Exception as exc:
        reason = f"check raised {type(exc).__name__}: {exc}"
    if reason is not None:
        stats.failed += 1
        stats.reasons.append(f"{op.label}: {reason}")


def setup_in_children(workload: str, seed: int) -> list[float]:
    """Set-up time of fresh processes, each measured from inside the child."""
    times = []
    for _ in range(SETUP_CHILDREN):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, cwd=ROOT, timeout=SETUP_TIMEOUT_S,
        )
        if done.returncode != 0:
            fail(f"set-up child exited {done.returncode}: {done.stderr.strip()[-500:]}", code=1)
        times.append(float(done.stdout.split()[-1]))
    return times


def peak_rss_mib(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def metadata(workload: str, seed: int, seconds: int) -> dict:
    import numpy

    sha = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=30)
        sha = done.stdout.strip() or sha
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "src_lines": src_lines,
    }


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def latency_lines(stats: Stats) -> list[str]:
    pct = stats.tail_percentile()
    frac = stats.failed / stats.attempted
    return [
        f"op_ms_p50 = {stats.op_ms(50):.6g} ms",
        f"op_ms_tail = {stats.op_ms(pct):.6g} ms (p{pct} of {len(stats.latencies)} ops)",
        f"failed_frac = {frac:.6g} ({stats.failed} of {stats.attempted} ops)",
    ]


def run_untraced(batch, tracer, args) -> tuple[Stats, dict[str, float], list[str]]:
    (stats,) = measure(batch, tracer, args.seconds)
    peak = peak_rss_mib(args.workload)
    setups = [args.own_setup_s] + setup_in_children(args.workload, args.seed)
    metrics = {"ops_per_s": stats.ops_per_s, "setup_s": statistics.median(setups), "peak_rss_mb": peak}
    lines = latency_lines(stats) + [f"setup_s samples = {', '.join(f'{s:.4f}' for s in setups)}"]
    return stats, metrics, lines


def run_traced(batch, tracer, args) -> tuple[Stats, dict[str, float], list[str]]:
    plain, traced = measure(batch, tracer, args.seconds, modes=(False, True))
    metrics = tracer.layer_metrics(TRACED_CALLS)
    metrics["interference.pattern.pair_evals_per_s"] = tracer.work_rate("interference.pattern")
    metrics["op.ms_p50"] = plain.op_ms(50)
    metrics["op.ms_tail"] = plain.op_ms(plain.tail_percentile())
    metrics["op.failed_frac"] = (plain.failed + traced.failed) / (plain.attempted + traced.attempted)
    metrics["trace.ops_per_s_untraced"] = plain.ops_per_s
    metrics["trace.ops_per_s_traced"] = traced.ops_per_s
    metrics["trace.overhead_ops_per_s"] = traced.ops_per_s - plain.ops_per_s
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(spans_path)
    stats = Stats(
        plain.latencies + traced.latencies,
        plain.busy_s + traced.busy_s,
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
        plain.passes,
        plain.reasons + traced.reasons,
    )
    lines = latency_lines(plain) + [
        "interference.pattern.pair_evals_per_s is computed: samples x live pairs / self time",
        f"spans written to {spans_path.relative_to(ROOT)} ({len(tracer.spans)} spans)",
    ]
    return stats, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["scan_family", "scan_general", "screen", "cli"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ.pop("INTERFERE_SEED", None)

    tracer = Tracer()
    tracer.enabled = bool(args.trace)
    args.own_setup_s, batch = setup(args.workload, args.seed, tracer)
    tracer.enabled = False
    try:
        if args.setup_only:
            print(f"setup_s {args.own_setup_s!r}")
            return 0
        stats, metrics, lines = (run_traced if args.trace else run_untraced)(batch, tracer, args)
    finally:
        batch.cleanup()

    units = declared_units(bool(args.trace))
    if units.keys() != metrics.keys():
        fail(f"metrics {sorted(units.keys() ^ metrics.keys())} disagree with BENCHMARK.json", code=1)

    print("meta " + json.dumps(metadata(args.workload, args.seed, args.seconds)))
    print(f"composition {args.workload}: {batch.composition()}, {stats.passes} pass(es)")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    for line in lines:
        print(line)
    for reason in stats.reasons[:20]:
        print(f"FAILED {reason}")
    for note in sorted(set(batch.notes)):
        print(f"NOTE {note}")
    print(json.dumps({
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
