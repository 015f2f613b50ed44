"""Compare the visibility scan of two commits, state by state.

Usage, from the root of a checkout:

    python3 tools/scan_diff.py --parent HEAD^ --change HEAD

Each side is exported with ``git archive`` into its own temporary directory
(``bench_pair.export``).  The states come from the change side's
``perfbench/workloads.py``, built once, in a child process, by its own
``build``: the 270 ``scan_general`` and ``scan_family`` states of seeds 1-6.
The same child draws a seeded set of 2880 more: normalized ``A A^H`` with
complex Gaussian ``A``, the same with ``A`` of rank 1, 2 and 3, real
``B B^T``, and family states from ``mix``, at N = 4, 5, 6 and 8, 120 of
each.  A third, large-N set holds, per N in 12, 16, 24 and 32, 8 normalized
``A A^H`` and 4 family states drawn from ``default_rng([7, N])``: 48 states
where the scan runs long.  Then each side runs ``visibility`` with default
settings on every state in a child process of its own.  That child wraps
``numpy.linalg``'s ``eigh``, ``eigvalsh`` and ``solve`` (not the library)
and counts the matrices that go through them during the calls; it also
records the CPU time (``time.process_time``) spent in ``visibility``.

Per set of states it prints the worst extremum loss (how much lower the
change's maximum, or higher its minimum, is than the parent's), the
certified flags lost and gained, how many results are bit-identical, and
each side's matrix counts and CPU seconds (not gated), uncertified
intervals and their median width.
Exit codes: 0 when no extremum is worse by more than 1e-12 and no flag is
lost in any set, 1 otherwise, 2 on a usage error or when a side cannot run
the comparison.  Standard library and numpy only.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from bench_pair import SIDES, export

TOOLS = Path(__file__).resolve().parent
LOSS_LIMIT = 1e-12
WORKLOAD_SEEDS = range(1, 7)
SEEDED_N = (4, 5, 6, 8)
SEEDED_COUNT = 120
SEEDED_KINDS = ("A A^H", "rank 1", "rank 2", "rank 3", "real B B^T", "family")
LARGE_N = (12, 16, 24, 32)
LARGE_KINDS = ("A A^H",) * 8 + ("family",) * 4
COUNTED = ("eigh", "eigvalsh", "solve")
FIELDS = ("i_max", "i_min", "i_max_upper", "i_min_lower", "max_certified", "min_certified")


def _seeded_entries(kind: str, n: int, rng) -> np.ndarray:
    """One seeded state's entries; ``interfere`` must be importable."""
    from interfere import Amplitudes, EmissionModel, mix

    if kind == "family":
        values = rng.uniform(0.3, 1.0, n) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
        return mix(EmissionModel(Amplitudes.normalized(values), float(rng.uniform(0.0, 1.0)))).entries
    if kind == "real B B^T":
        a = rng.normal(size=(n, n))
    else:
        rank = {"A A^H": n, "rank 1": 1, "rank 2": 2, "rank 3": 3}[kind]
        a = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def build_states(tree: str, out: str) -> None:
    """Child process: write the states of every set to ``out`` (npz), built in ``tree``."""
    sys.path[:0] = [str(Path(tree) / "src"), str(Path(tree) / "perfbench")]
    import workloads

    class Recorder:
        """A tracer that keeps every state the workload builds."""

        def __init__(self):
            self.states = []

        def call(self, name, fn, *args, **kwargs):
            result = fn(*args)
            if name in ("density.mix", "core.DensityMatrix"):
                self.states.append(result.entries)
            return result

    recorder = Recorder()
    for name in ("scan_general", "scan_family"):
        for seed in WORKLOAD_SEEDS:
            workloads.build(name, seed, Path(tree), recorder)
    states, sets = list(recorder.states), ["workload"] * len(recorder.states)
    for k, kind in enumerate(SEEDED_KINDS):
        for n in SEEDED_N:
            rng = np.random.default_rng([k, n])
            for _ in range(SEEDED_COUNT):
                states.append(_seeded_entries(kind, n, rng))
                sets.append("seeded")
    for n in LARGE_N:
        rng = np.random.default_rng([7, n])
        for kind in LARGE_KINDS:
            states.append(_seeded_entries(kind, n, rng))
            sets.append("large-N")
    np.savez(out, sets=np.array(sets), **{f"state_{i}": entries for i, entries in enumerate(states)})


def run_side(tree: str, states: str, out: str) -> None:
    """Child process: ``visibility`` on every state with ``tree``'s library.

    Writes the results, the matrix counts and the CPU seconds per set to ``out`` (JSON).
    """
    counts, seconds, tally = {}, {}, None  # tally: the counts of the set whose call is running

    def counted(name, fn):
        def call(a, *args, **kwargs):
            if tally is not None:
                tally[name] += int(np.prod(np.shape(a)[:-2]))  # matrices in the stack
            return fn(a, *args, **kwargs)

        return call

    for name in COUNTED:
        setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    sys.path.insert(0, str(Path(tree) / "src"))
    import interfere
    from interfere import DensityMatrix, visibility

    if Path(tree).resolve() not in Path(interfere.__file__).resolve().parents:
        raise ImportError(f"interfere imported from {interfere.__file__}, not from {tree}")
    data = np.load(states)
    results = []
    for i, label in enumerate(data["sets"].tolist()):
        rho = DensityMatrix(data[f"state_{i}"])
        tally = counts.setdefault(label, dict.fromkeys(COUNTED, 0))
        start = time.process_time()
        result = visibility(rho)
        seconds[label] = seconds.get(label, 0.0) + time.process_time() - start
        tally = None
        results.append([getattr(result, field) for field in FIELDS])
    Path(out).write_text(json.dumps({"results": results, "counts": counts, "seconds": seconds}))


def _child(function: str, *args) -> None:
    code = f"import sys; sys.path.insert(0, {str(TOOLS)!r}); import scan_diff; scan_diff.{function}(*sys.argv[1:])"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", code, *map(str, args)], capture_output=True, text=True, env=env)
    if done.returncode != 0:
        raise RuntimeError(f"{function} in {args[0]} exited {done.returncode}: {done.stderr.strip()[-2000:]}")


def compare(sets: list, sides: dict) -> tuple[list, bool]:
    """Lines to print per set, and whether no extremum is worse than ``LOSS_LIMIT`` and no flag is lost."""
    lines, ok = [], True
    for label in dict.fromkeys(sets):
        index = [i for i, s in enumerate(sets) if s == label]
        parent = np.array([sides["parent"]["results"][i] for i in index], dtype=float)
        change = np.array([sides["change"]["results"][i] for i in index], dtype=float)
        # Positive where the change is worse: a lower maximum, a higher minimum.
        loss = np.maximum(parent[:, 0] - change[:, 0], change[:, 1] - parent[:, 1])
        worst = int(np.argmax(loss))
        lost = int(((parent[:, 4:] == 1) & (change[:, 4:] == 0)).sum())
        gained = int(((parent[:, 4:] == 0) & (change[:, 4:] == 1)).sum())
        identical = int((parent == change).all(1).sum())
        lines.append(
            f"{label} states ({len(index)}): worst extremum loss {loss[worst]:.3g} (state {index[worst]}), "
            f"flags lost {lost}, gained {gained}, bit-identical {identical} of {len(index)}"
        )
        for side, results in zip(SIDES, (parent, change)):
            counts = sides[side]["counts"][label]
            # Interval widths: i_max_upper - i_max and i_min - i_min_lower.
            widths = np.concatenate([results[:, 2] - results[:, 0], results[:, 1] - results[:, 3]])
            uncertified = widths[results[:, 4:].T.ravel() == 0]
            median = f"{np.median(uncertified):.3g}" if uncertified.size else "-"
            lines.append(
                f"  {side}: " + ", ".join(f"{name} {counts[name]}" for name in COUNTED) + " matrices, "
                f"{sides[side]['seconds'][label]:.2f} CPU s; "
                f"uncertified intervals {uncertified.size}, median width {median}"
            )
        ok = ok and loss[worst] <= LOSS_LIMIT and lost == 0
    return lines, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD^", help="git revision of the parent side (default HEAD^)")
    parser.add_argument("--change", default="HEAD", help="git revision of the change side (default HEAD)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="scan_diff_") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        try:
            commits = {side: export(rev, trees[side]) for side, rev in zip(SIDES, (args.parent, args.change))}
        except subprocess.CalledProcessError as exc:
            print(f"error: {' '.join(exc.cmd)}: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 2
        states = Path(tmp) / "states.npz"
        try:
            _child("build_states", trees["change"], states)
            for side in SIDES:
                _child("run_side", trees[side], states, Path(tmp) / f"{side}.json")
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        sets = np.load(states)["sets"].tolist()
        sides = {side: json.loads((Path(tmp) / f"{side}.json").read_text()) for side in SIDES}
    print(
        f"parent {commits['parent']['sha'][:7]} ({commits['parent']['src_lines']} src lines) against "
        f"change {commits['change']['sha'][:7]} ({commits['change']['src_lines']} src lines)"
    )
    lines, ok = compare(sets, sides)
    print("\n".join(lines))
    print(f"no extremum worse by more than {LOSS_LIMIT:g} and no certified flag lost: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
