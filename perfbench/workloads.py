"""The four benchmark workloads: seeded inputs, ops, and output checks.

Each workload is a fixed batch of ops.  The batch's composition (which N,
which kind of state, which subcommand, in which order) depends only on the
workload, never on the seed or on how long the run is; the seed picks the
numbers inside each input.  ``interfere`` sees only the generated inputs.

Every op returns its raw outputs; its check runs afterwards, outside the
timed region, and returns ``None`` or a one-line reason for the failure.

Why these four:

``scan_family``
    ``visibility`` on paper-family states, N cycling 3, 4, 5, 6, 8.  The
    headline readout and today's hot spot: N = 4 takes the 256**3 grid,
    N >= 5 the random-start descent.  A family closed form acts here only.
``scan_general``
    The same calls and N cycle on general states (normalized ``A A^H``),
    whose pairwise ``p_id`` disagree.  No closed form applies, so a
    family-only shortcut predicts no change here, and a slower general
    engine shows.
``screen``
    One readout bundle per op (state build, ``estimate_pid``,
    ``coherence_matrix``, ``g2``, 64 ``intensity`` and ``oracle_intensity``
    calls, ``pattern``, ``born_residual``), N cycling 2, 3, 8, 16, 32 over
    alternating family and general states.  No scan: scan changes predict
    no change here; the pair-table loops dominate at N = 16 and 32.
``cli``
    One ``python -m interfere`` child per op, all six subcommands over the
    two committed configs and seeded family configs (N <= 3).  The CLI
    user's latency, and the only workload that runs ``config`` and ``cli``.

N = 16 and 32 stay out of the scan workloads: one ``visibility`` call
there takes 7.5-25 s, more than a whole run.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from interfere import (
    Amplitudes,
    DensityMatrix,
    DetectionGeometry,
    EmissionModel,
    born_residual,
    coherence_matrix,
    estimate_pid,
    g2,
    intensity,
    mix,
    oracle_intensity,
    pattern,
    phases_from_geometry,
    visibility,
)
from interfere import cli as interfere_cli
from interfere.config import ExperimentConfig

SCAN_N = (3, 4, 5, 6, 8)
SCAN_CYCLES = {"scan_family": 5, "scan_general": 4}
SCREEN_N = (2, 3, 8, 16, 32)
SCREEN_CYCLES = 10
SCREEN_PHASES = 64
SCREEN_BORN = 8
SCREEN_X = (-0.05, 0.05)
SCREEN_SAMPLES = 2001
SCREEN_DENSE_SAMPLES = 100_000
SCREEN_DENSE_MAX_N = 8
CLI_COMMANDS = ("validate", "pid", "coherence", "pattern", "visibility", "born-check")
CLI_COMMITTED = ("configs/two_source.json", "configs/three_source.json")
CLI_SEEDED_N = (2, 3) * 4
# born_residual is defined for N >= 3 only (DomainError, and exit code 1 from
# born-check, below that), so N = 2 states and configs skip it.
BORN_MIN_N = 3
CLI_TIMEOUT_S = 60
GENERAL_SAMPLES = 64

# Tolerances of the output checks.  1e-9 is the library's own statistical
# tolerance; 1e-12 bounds roundoff between two exact routes to one number.
# The phase scan is a search, and its documented accuracy (the refinement
# comment in interference.py, the visibility tests) is 1e-6: a scan extremum
# fails its check beyond that, and gets a note beyond 1e-9.
EXTREMUM_TOL = 1e-9
ROUNDOFF_TOL = 1e-12
SCAN_TOL = 1e-6


@dataclass
class Op:
    label: str
    run: Callable  # run(tracer) -> outputs
    check: Callable  # check(outputs) -> None or failure reason


@dataclass
class Batch:
    ops: list[Op]
    cleanup: Callable[[], None] = field(default=lambda: None)
    # Findings that pass the checks but are worth reporting.
    notes: list[str] = field(default_factory=list)

    def composition(self) -> str:
        """Op labels with counts, plus a digest of their order."""
        digest = hashlib.sha256("\n".join(op.label for op in self.ops).encode()).hexdigest()[:12]
        counts = ", ".join(f"{label} x{count}" for label, count in sorted(Counter(op.label for op in self.ops).items()))
        return f"{len(self.ops)} ops [{counts}] order {digest}"


def build(name: str, seed: int, root, tracer) -> Batch:
    rng = np.random.default_rng(seed)
    if name in SCAN_CYCLES:
        return _scan_batch(name, rng, tracer)
    if name == "screen":
        return _screen_batch(rng)
    if name == "cli":
        return _cli_batch(rng, root)
    raise ValueError(f"unknown workload {name!r}")


def _family_model(rng, n: int) -> EmissionModel:
    moduli = rng.uniform(0.3, 1.0, n)
    phases = rng.uniform(0.0, 2.0 * np.pi, n)
    return EmissionModel(Amplitudes.normalized(moduli * np.exp(1j * phases)), rng.uniform(0.0, 1.0))


def _general_entries(rng, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = a @ a.conj().T
    m = (m + m.conj().T) / 2.0
    return m / np.trace(m).real


def _phase_rows(rng, count: int, n: int) -> np.ndarray:
    return rng.uniform(0.0, 2.0 * np.pi, size=(count, n))


def _fail(reasons) -> str | None:
    reasons = [r for r in reasons if r]
    return "; ".join(reasons) if reasons else None


def _close(name, got, want, tol) -> str | None:
    if got is None or not math.isfinite(got) or abs(got - want) > tol:
        return f"{name}={got!r}, expected {want!r} within {tol:g}"
    return None


# ---------------------------------------------------------------- scans


def _scan_batch(name: str, rng, tracer) -> Batch:
    family = name == "scan_family"
    batch = Batch([])
    for _ in range(SCAN_CYCLES[name]):
        for n in SCAN_N:
            if family:
                model = _family_model(rng, n)
                rho = tracer.call("density.mix", mix, model)
                check = _family_scan_check(rho, model, batch.notes)
            else:
                rho = tracer.call("core.DensityMatrix", DensityMatrix, _general_entries(rng, n))
                check = _general_scan_check(rho, _phase_rows(rng, GENERAL_SAMPLES, n))
            batch.ops.append(Op(f"N={n} {'family' if family else 'general'}", _visibility_op(rho, n), check))
    return batch


def _visibility_op(rho, n: int):
    return lambda tracer: tracer.call(f"interference.visibility.n{n}", visibility, rho)


def _family_scan_check(rho, model: EmissionModel, notes: list[str]):
    mods = np.abs(model.amplitudes.values)
    p = model.p_id
    total, largest = float(mods.sum()), float(mods.max())
    want_max = p * total**2 + 1.0 - p
    want_min = p * max(0.0, 2.0 * largest - total) ** 2 + 1.0 - p
    entries = rho.entries
    want_formula = 2.0 * float(np.abs(np.triu(entries, 1)).sum()) / float(np.trace(entries).real)
    want_bound = math.comb(rho.n.n, 2) * p

    def check(result):
        for name, got, want in (("i_max", result.i_max, want_max), ("i_min", result.i_min, want_min)):
            if EXTREMUM_TOL < abs(got - want) <= SCAN_TOL:
                notes.append(f"N={rho.n.n} family: scan {name} is {got - want:+.3g} off the closed form")
        return _fail(
            [
                _close("i_max", result.i_max, want_max, SCAN_TOL),
                _close("i_min", result.i_min, want_min, SCAN_TOL),
                _close("formula_v", result.formula_v, want_formula, ROUNDOFF_TOL),
                None if 0.0 <= result.scan_v <= 1.0 else f"scan_v={result.scan_v!r} outside [0, 1]",
                _close("bound", result.bound, want_bound, EXTREMUM_TOL),
            ]
        )

    return check


def _general_scan_check(rho, phase_rows: np.ndarray):
    n = rho.n.n
    eig = np.linalg.eigvalsh(rho.entries)
    samples: list[float] = []

    def check(result):
        if not samples:
            samples.extend(oracle_intensity(rho, row) for row in phase_rows)
        return _fail(
            [
                None
                if n * eig[0] - EXTREMUM_TOL <= result.i_min
                else f"i_min={result.i_min!r} below N*lambda_min={n * eig[0]!r}",
                None
                if result.i_max <= n * eig[-1] + EXTREMUM_TOL
                else f"i_max={result.i_max!r} above N*lambda_max={n * eig[-1]!r}",
                None
                if result.i_min <= min(samples) + ROUNDOFF_TOL
                else f"i_min={result.i_min!r} above sampled minimum {min(samples)!r}",
                None
                if result.i_max >= max(samples) - ROUNDOFF_TOL
                else f"i_max={result.i_max!r} below sampled maximum {max(samples)!r}",
            ]
        )

    return check


# --------------------------------------------------------------- screen


@dataclass
class _ScreenInput:
    n: int
    model: EmissionModel | None  # family state, built by mix inside the op
    entries: np.ndarray | None  # general state, built by DensityMatrix inside the op
    geometry: DetectionGeometry
    phases: np.ndarray
    pattern_probe: np.ndarray  # sample indices checked against intensity()
    live_pairs: int


def _screen_batch(rng) -> Batch:
    ops = []
    for cycle in range(SCREEN_CYCLES):
        for slot, n in enumerate(SCREEN_N):
            family = (cycle * len(SCREEN_N) + slot) % 2 == 0
            model = _family_model(rng, n) if family else None
            entries = None if family else _general_entries(rng, n)
            raw = (
                model.p_id * np.outer(model.amplitudes.values, model.amplitudes.values.conj())
                if family
                else entries
            )
            inp = _ScreenInput(
                n,
                model,
                entries,
                DetectionGeometry(np.sort(rng.uniform(-2e-5, 2e-5, n)), rng.uniform(0.5, 2.0), rng.uniform(4e-7, 7e-7)),
                _phase_rows(rng, SCREEN_PHASES, n),
                rng.choice(SCREEN_SAMPLES, size=3, replace=False),
                int(np.count_nonzero(np.triu(raw, 1))),
            )
            ops.append(Op(f"N={n} {'family' if family else 'general'}", _screen_op(inp), _screen_check(inp)))
    return Batch(ops)


def _screen_op(inp: _ScreenInput):
    def run(tracer):
        if inp.model is not None:
            rho = tracer.call("density.mix", mix, inp.model)
        else:
            rho = tracer.call("core.DensityMatrix", DensityMatrix, inp.entries)
        out = {
            "rho": rho,
            "pid": tracer.call("density.estimate_pid", estimate_pid, rho),
            "coherence": tracer.call("coherence.coherence_matrix", coherence_matrix, rho),
            "g2": tracer.call("coherence.g2", g2, rho, 0, 1),
            "intensity": [tracer.call("interference.intensity", intensity, rho, row) for row in inp.phases],
            "oracle": [tracer.call("oracle.oracle_intensity", oracle_intensity, rho, row) for row in inp.phases],
            "patterns": [],
            "born": [],
        }
        sample_counts = [SCREEN_SAMPLES] + ([SCREEN_DENSE_SAMPLES] if inp.n <= SCREEN_DENSE_MAX_N else [])
        for samples in sample_counts:
            out["patterns"].append(
                tracer.call(
                    "interference.pattern",
                    pattern,
                    rho,
                    inp.geometry,
                    *SCREEN_X,
                    samples,
                    work=samples * inp.live_pairs,
                )
            )
        if inp.n >= BORN_MIN_N:
            out["born"] = [
                tracer.call("interference.born_residual", born_residual, rho, row)
                for row in inp.phases[:SCREEN_BORN]
            ]
        return out

    return run


def _screen_check(inp: _ScreenInput):
    def check(out):
        rho = out["rho"]
        reasons = [None if out["g2"] == 0 else f"g2={out['g2']!r}, expected 0"]
        worst = max(abs(a - b) for a, b in zip(out["intensity"], out["oracle"]))
        reasons.append(None if worst <= ROUNDOFF_TOL else f"intensity vs oracle differ by {worst!r}")
        for value in out["born"]:
            if abs(value) > ROUNDOFF_TOL:
                reasons.append(f"born residual {value!r}")
        for result in out["patterns"]:
            if result.intensities.min() < -ROUNDOFF_TOL:
                reasons.append(f"pattern minimum {result.intensities.min()!r}")
        first = out["patterns"][0]
        for idx in inp.pattern_probe:
            x = float(first.positions[idx])
            want = intensity(rho, phases_from_geometry(inp.geometry, x))
            reasons.append(_close(f"pattern[{idx}]", float(first.intensities[idx]), want, ROUNDOFF_TOL))
        if inp.model is not None:
            reasons.append(_close("pid consensus", out["pid"].consensus, inp.model.p_id, EXTREMUM_TOL))
        return _fail(reasons)

    return check


# ------------------------------------------------------------------ cli


def _family_config(rng, n: int) -> dict:
    model = _family_model(rng, n)
    return {
        "amplitudes": [[float(z.real), float(z.imag)] for z in model.amplitudes.values],
        "p_id": model.p_id,
        "geometry": {
            "source_positions": [float(x) for x in np.sort(rng.uniform(-2e-5, 2e-5, n))],
            "screen_distance": float(rng.uniform(0.5, 2.0)),
            "wavelength": float(rng.uniform(4e-7, 7e-7)),
        },
    }


def _parse_output(command: str, text: str):
    """Stdout as data: JSON documents, or CSV rows with numeric cells as floats."""
    if command in ("coherence", "pattern"):
        rows = []
        for line in text.splitlines():
            cells = []
            for cell in line.split(","):
                try:
                    cells.append(float(cell))
                except ValueError:
                    cells.append(cell)
            rows.append(cells)
        return rows
    return json.loads(text)


def _main_in_process(argv) -> tuple[int, str]:
    """``interfere.cli.main(argv)`` with its standard output captured."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = interfere_cli.main(argv)
    return code, buffer.getvalue()


def _child_env(root) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "INTERFERE_SEED"}
    env["PYTHONPATH"] = str(root / "src")
    return env


def _cli_batch(rng, root) -> Batch:
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="cli-configs-", dir=out_dir)
    paths = [(str(root / rel), "committed") for rel in CLI_COMMITTED]
    for idx, n in enumerate(CLI_SEEDED_N):
        path = os.path.join(tmp, f"family_{idx}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(_family_config(rng, n), handle)
        paths.append((path, "seeded"))
    env = _child_env(root)
    ops = []
    for path, origin in paths:
        n = ExperimentConfig.from_path(path).n
        for command in CLI_COMMANDS:
            if command == "born-check" and n < BORN_MIN_N:
                continue
            ops.append(Op(f"{command} N={n} {origin}", _cli_op(command, path, root, env), _cli_check(command, path)))
    return Batch(ops, cleanup=lambda: shutil.rmtree(tmp, ignore_errors=True))


def _cli_op(command: str, path: str, root, env):
    argv = [command, "--config", path]

    def probes(tracer):
        # In-process timing of the layers the child runs, traced runs only.
        config = tracer.call("config.ExperimentConfig.from_path", ExperimentConfig.from_path, path)
        tracer.call("config.ExperimentConfig.density", config.density)
        tracer.call(f"cli.main.{command}", _main_in_process, argv)
        if command == CLI_COMMANDS[0]:
            tracer.call("cli.import", _import_child, root, env)

    def run(tracer):
        done = subprocess.run(
            [sys.executable, "-m", "interfere", *argv],
            capture_output=True, text=True, env=env, cwd=root, timeout=CLI_TIMEOUT_S,
        )
        if tracer.enabled:
            probes(tracer)
        return done

    return run


def _import_child(root, env) -> None:
    subprocess.run(
        [sys.executable, "-c", "import interfere"], check=True, env=env, cwd=root, timeout=CLI_TIMEOUT_S
    )


def _cli_check(command: str, path: str):
    reference: list = []

    def check(done):
        if done.returncode != 0:
            return f"exit code {done.returncode}: {done.stderr.strip()[-200:]}"
        if not reference:
            reference.append(_main_in_process([command, "--config", path]))
        code, text = reference[0]
        if code != 0:
            return f"in-process call exited {code}"
        if _parse_output(command, done.stdout) != _parse_output(command, text):
            return "child stdout differs from the in-process call"
        return None

    return check
