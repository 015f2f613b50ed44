"""Paired benchmark runs of two commits, written as one ``BENCH_<PR>.json``.

Usage, from the root of a checkout:

    python3 tools/bench_pair.py --parent HEAD^ --change HEAD \\
        --workload screen:10 --workload screen:5:2 --workload cli:3 --seconds 20 --out BENCH_21.json

Each side is exported with ``git archive`` into its own temporary directory,
so both run from committed files only (their meta lines print git_sha
unknown).  Each ``--workload W:PAIRS[:SEED]`` (``SEED`` defaults to 1) runs
PAIRS pairs; pair k runs ``python3 perfbench/run.py --workload W --seed SEED
--seconds T --trace 0`` once on each side, the parent first in odd-numbered
pairs and the change first in even-numbered ones.  Then one traced pair runs
the same with ``--trace 1``, the parent first, for the per-layer metrics.
Nothing under ``perfbench/`` is touched; the metrics and their better
direction are read from ``BENCHMARK.json``'s ``end_to_end`` and ``per_layer``
lists.

The output keeps the schema of ``BENCH_20.json``: the two commits with their
line counts under ``src/``, and per workload a summary (quartiles per side,
the pairs where the change is better, the median ratio, failed ops and
correctness) above every pair's last output line, and under ``traced`` the
traced pair's last output lines with a summary of the per-layer metrics that
read other than 0 on the parent (a workload reports 0 for a layer it never
calls).  Quartiles are numpy's
default (``statistics.quantiles`` with the inclusive method).  A ``host`` key
beside ``about`` names what moves bits and speed on this machine: numpy's
version, the SIMD targets it found (as ``numpy.show_runtime`` lists them), the
OpenBLAS core it loaded (``Core: <name>``, which ``OPENBLAS_VERBOSE=2`` prints
to stderr as numpy loads; null when nothing is printed) and any
``NPY_DISABLE_CPU_FEATURES`` or ``OPENBLAS_CORETYPE`` in the environment.
The script exits 1 when any run, traced or not, is not
``correct: true`` or gave no result, 0 otherwise.  Standard library only; numpy
is read in a child process.
"""

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
HOST_ENV = ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")
SIMD_PROBE = """
import json, numpy
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
print(json.dumps({"numpy": numpy.__version__, "simd_found": [f for f in __cpu_dispatch__ if __cpu_features__[f]]}))
"""


def git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export(rev: str, into: Path) -> dict:
    """Extract ``rev``'s tree into ``into``; its full sha and ``src/`` line count."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    lines = sum(len(path.read_bytes().splitlines()) for path in sorted((into / "src").rglob("*.py")))
    return {"sha": git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip(), "src_lines": lines}


def host() -> dict:
    """numpy's version, SIMD targets found and OpenBLAS core, and the environment that steers them."""
    probe = subprocess.run(
        [sys.executable, "-c", SIMD_PROBE], env={**os.environ, "OPENBLAS_VERBOSE": "2"},
        check=True, capture_output=True, text=True,
    )
    cores = [line.split(":", 1)[1].strip() for line in probe.stderr.splitlines() if line.startswith("Core:")]
    found = json.loads(probe.stdout)
    return {**found, "openblas_core": cores[0] if cores else None,
            "env": {name: os.environ[name] for name in HOST_ENV if name in os.environ}}


def run_side(tree: Path, workload: str, seed: int, seconds: int, trace: int = 0) -> tuple[dict, int]:
    """One benchmark run in ``tree``: its last output line and its NOTE count."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    out = done.stdout.splitlines()
    notes = sum(line.startswith("NOTE") for line in out)
    try:
        result = json.loads(out[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "error": f"exit {done.returncode}: {done.stderr.strip()[-500:]}"}
    if done.returncode != 0:
        result["correct"] = False
    return result, notes


def summarize(pairs: list, metrics: list) -> dict:
    summary = {}
    for metric in metrics:
        name, sign = metric["name"], (1.0 if metric["better"] == "higher" else -1.0)
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs if "metrics" in p[side]] for side in SIDES}
        if not all(values.values()):
            continue
        entry = {}
        for side in SIDES:
            q1, median, q3 = statistics.quantiles(values[side], n=4, method="inclusive") if len(values[side]) > 1 else values[side] * 3
            entry[side] = {"q1": q1, "median": median, "q3": q3}
        measured = [p for p in pairs if all("metrics" in p[side] for side in SIDES)]
        better = sum(sign * (p["change"]["metrics"][name]["value"] - p["parent"]["metrics"][name]["value"]) > 0 for p in measured)
        entry["change_better_pairs"] = f"{better} of {len(measured)}"
        entry["median_ratio_change_over_parent"] = entry["change"]["median"] / entry["parent"]["median"]
        summary[name] = entry
    summary["failed"] = {side: sum(p[side].get("failed", 0) for p in pairs) for side in SIDES}
    summary["correct"] = {side: all(p[side].get("correct") is True for p in pairs) for side in SIDES}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD^", help="git revision of the parent side (default HEAD^)")
    parser.add_argument("--change", default="HEAD", help="git revision of the change side (default HEAD)")
    parser.add_argument("--workload", action="append", required=True, metavar="NAME:PAIRS[:SEED]",
                        help="a workload, its number of pairs and its seed (default 1); repeatable")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--about", default="", help="text prepended to the file's 'about' line")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    plan = []
    for spec in args.workload:
        try:
            name, count, *seed = spec.split(":")
            plan.append((name, int(count), int(seed[0]) if seed else 1))
        except ValueError:
            parser.error(f"--workload {spec!r} is not NAME:PAIRS[:SEED]")

    machine = host()
    with tempfile.TemporaryDirectory(prefix="bench_pair_") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        commits = {side: export(rev, trees[side]) for side, rev in zip(SIDES, (args.parent, args.change))}
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        workloads = []
        for name, count, seed in plan:
            pairs = []
            for k in range(1, count + 1):
                order = SIDES if k % 2 else SIDES[::-1]
                pair = {"pair": k, "first": order[0]}
                notes = {}
                for side in order:
                    pair[side], notes[side] = run_side(trees[side], name, seed, args.seconds)
                pair["notes"] = notes
                pairs.append(pair)
                print(f"{name} seed {seed} pair {k}: " + ", ".join(
                    f"{side} correct={pair[side].get('correct')} "
                    + " ".join(f"{m}={v['value']:.4g}" for m, v in pair[side].get("metrics", {}).items())
                    for side in SIDES), flush=True)
            traced = {side: run_side(trees[side], name, seed, args.seconds, trace=1)[0] for side in SIDES}
            read = traced["parent"].get("metrics", {})
            called = [m for m in spec["per_layer"] if read.get(m["name"], {}).get("value")]
            print(f"{name} seed {seed} traced pair: " + ", ".join(
                f"{side} correct={traced[side].get('correct')}" for side in SIDES), flush=True)
            workloads.append({"workload": name, "seed": seed, "seconds": args.seconds,
                              "summary": summarize(pairs, spec["end_to_end"]), "pairs": pairs,
                              "traced": {"first": "parent", "summary": summarize([traced], called), **traced}})

    about = (
        f"perfbench/run.py --trace 0 --seconds {args.seconds}, then one --trace 1 pair per workload, "
        f"parent commit {commits['parent']['sha'][:7]} against change {commits['change']['sha'][:7]}, run alternately "
        f"(odd-numbered pairs counted from 1 run the parent first) by tools/bench_pair.py on {os.cpu_count()} CPUs, Python {platform.python_version()}. "
        "Both sides ran from git-archive copies of their commits, so their meta lines print git_sha unknown."
    )
    report = {"about": f"{args.about} {about}".strip(), "host": machine, **commits, "workloads": workloads}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    summaries = [summary for w in workloads for summary in (w["summary"], w["traced"]["summary"])]
    ok = all(summary["correct"][side] for summary in summaries for side in SIDES)
    print(f"wrote {args.out}; every run correct: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
