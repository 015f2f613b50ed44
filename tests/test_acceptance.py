"""Acceptance gate: the eight headline claims, each with a printed verdict.

Every test prints one ``[PASS]``/``[FAIL]`` line (bypassing capture) so a
plain ``pytest -v`` run shows the per-criterion outcome inline.  Seeds are
fixed; reruns are bit-for-bit reproducible.  Criteria with a stated
runtime budget measure and enforce it.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from interfere import (
    Amplitudes,
    EmissionModel,
    ScanSettings,
    annihilation,
    born_residual,
    big_g1,
    creation,
    embed,
    estimate_pid,
    FockSpace,
    g1,
    g2,
    g3,
    intensity,
    mix,
    oracle_intensity,
    trace_correlation,
    validate_density,
    visibility,
)

from helpers import equal_model, random_density, random_model

REPO = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

SUITE1_SEED = 1001
SUITE1_SIZE = 1000


def _suite1_models(rng):
    for k in range(SUITE1_SIZE):
        n = 2 + k % 7
        yield n, random_model(rng, n)


def _verdict(capsys, number, label, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {label} ({detail})"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_criterion_1_equivalence_theorem(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(SUITE1_SEED)
    worst_pair = 0.0
    worst_consensus = 0.0
    for n, model in _suite1_models(rng):
        rho = mix(model)
        for i in range(n):
            for j in range(i + 1, n):
                worst_pair = max(worst_pair, abs(abs(g1(rho, i, j)) - model.p_id))
        report = estimate_pid(rho)
        assert report.consistent
        worst_consensus = max(worst_consensus, abs(report.consensus - model.p_id))
    elapsed = time.perf_counter() - started
    ok = worst_pair <= 1e-12 and worst_consensus <= 1e-12 and elapsed <= 10.0
    _verdict(
        capsys, 1, "pairwise |g1| equals the coherent weight", ok,
        f"{SUITE1_SIZE} models, max pair dev {worst_pair:.2e}, "
        f"max consensus dev {worst_consensus:.2e}, {elapsed:.1f}s of 10s",
    )


def test_criterion_2_oracle_equivalence(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(1002)
    worst_g1 = worst_int = worst_high = 0.0
    for k in range(1000):
        n = 2 + k % 7
        rho = random_density(rng, n)
        space = FockSpace(n)
        rho_full = embed(rho)

        i, j = (int(v) for v in rng.integers(0, n, size=2))
        trace = trace_correlation(rho_full, [creation(space, i), annihilation(space, j)])
        worst_g1 = max(worst_g1, abs(big_g1(rho, i, j) - trace))

        phi = rng.uniform(0, 2 * np.pi, size=n)
        k_scale = complex(rng.normal(), rng.normal()) if k % 10 == 0 else None
        worst_int = max(
            worst_int, abs(intensity(rho, phi, k_scale) - oracle_intensity(rho, phi, k_scale))
        )

        worst_high = max(worst_high, abs(g2(rho, i, j)))
        l = int(rng.integers(0, n))
        worst_high = max(worst_high, abs(g3(rho, i, j, l)))
    elapsed = time.perf_counter() - started
    ok = worst_g1 <= 1e-12 and worst_int <= 1e-12 and worst_high <= 1e-12 and elapsed <= 30.0
    _verdict(
        capsys, 2, "closed forms match brute-force traces", ok,
        f"1000 states, big_g1 dev {worst_g1:.2e}, intensity dev {worst_int:.2e}, "
        f"max |g2|,|g3| {worst_high:.2e}, {elapsed:.1f}s of 30s",
    )


def test_criterion_3_mandel_two_source_limit(capsys):
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(100):
        p = float(rng.uniform(0, 1))
        amps = np.exp(1j * rng.uniform(0, 2 * np.pi, size=2)) / np.sqrt(2.0)
        rho = mix(EmissionModel(Amplitudes(amps), p))
        target = abs(g1(rho, 0, 1))
        result = visibility(rho)
        worst = max(worst, abs(result.formula_v - target), abs(result.scan_v - target))
    ok = worst <= 1e-6
    _verdict(
        capsys, 3, "two balanced sources reduce to the classic visibility", ok,
        f"100 states, max deviation {worst:.2e}",
    )


def test_criterion_4_three_source_benchmark(capsys):
    started = time.perf_counter()
    rho = mix(equal_model(3, 1.0))
    result = visibility(rho)
    dark = intensity(rho, [0.0, 2 * np.pi / 3, 4 * np.pi / 3])
    cosine_sum = sum(
        math.cos(a - b)
        for a, b in [(0.0, 2 * np.pi / 3), (0.0, 4 * np.pi / 3), (2 * np.pi / 3, 4 * np.pi / 3)]
    )
    elapsed = time.perf_counter() - started
    ok = (
        abs(result.formula_v - 2.0) <= 1e-12
        and abs(result.scan_v - 1.0) <= 1e-3
        and result.i_min <= 1e-6
        and abs(cosine_sum + 1.5) <= 1e-12
        and abs(dark) <= 1e-12
        and elapsed <= 5.0
    )
    _verdict(
        capsys, 4, "three equal coherent sources: formula 2.0, scan 1.0", ok,
        f"formula_v {result.formula_v:.12f}, scan_v {result.scan_v:.9f}, "
        f"i_min {result.i_min:.2e}, dark-point intensity {dark:.2e}, {elapsed:.1f}s of 5s",
    )


def test_criterion_5_bound_chain(capsys):
    rng = np.random.default_rng(SUITE1_SEED)
    cheap = ScanSettings(starts=1)
    worst_first = worst_second = -np.inf
    for n, model in _suite1_models(rng):
        result = visibility(mix(model), scan=cheap)
        pairs = n * (n - 1) // 2
        worst_first = max(worst_first, result.formula_v - result.sum_g)
        worst_second = max(worst_second, result.sum_g - pairs * model.p_id)
    ok = worst_first <= 1e-12 and worst_second <= 1e-12
    _verdict(
        capsys, 5, "formula visibility <= sum of |g1| <= pair count times weight", ok,
        f"{SUITE1_SIZE} states, worst gaps {worst_first:.2e} and {worst_second:.2e}",
    )


def test_criterion_6_born_residual(capsys):
    rng = np.random.default_rng(1006)
    worst = 0.0
    for k in range(1000):
        n = 3 + k % 6
        rho = random_density(rng, n)
        phi = rng.uniform(0, 2 * np.pi, size=n)
        worst = max(worst, abs(born_residual(rho, phi)))
    ok = worst <= 1e-12
    _verdict(
        capsys, 6, "pairwise decomposition of the intensity is exact", ok,
        f"1000 draws, max |residual| {worst:.2e}",
    )


def test_criterion_7_cli_golden_files(capsys):
    cases = [
        (["pattern", "--config", "configs/two_source.json"], "two_source_pattern.csv"),
        (["pattern", "--config", "configs/three_source.json"], "three_source_pattern.csv"),
        (["pid", "--config", "configs/two_source.json"], "two_source_pid.json"),
        (["pid", "--config", "configs/three_source.json"], "three_source_pid.json"),
        (["visibility", "--config", "configs/two_source.json"], "two_source_visibility.json"),
        (["visibility", "--config", "configs/three_source.json"], "three_source_visibility.json"),
    ]
    mismatched = []
    for argv, fixture in cases:
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "interfere", *argv],
            capture_output=True,
            cwd=REPO,
        )
        if proc.stdout != (GOLDEN / fixture).read_bytes():
            mismatched.append(fixture)
    # the two-source fixture must also say what the library says
    stored = json.loads((GOLDEN / "two_source_visibility.json").read_text())
    ok = not mismatched and stored["formula_v"] == 0.7
    _verdict(
        capsys, 7, "CLI output is byte-identical to committed fixtures", ok,
        f"{len(cases)} commands, mismatches: {mismatched or 'none'}",
    )


def test_criterion_8_structural_invariants(capsys):
    rng = np.random.default_rng(1008)
    trials = 1000

    valid_failures = 0
    for k in range(trials):
        n = 2 + k % 7
        rho = mix(random_model(rng, n)) if k % 2 else random_density(rng, n)
        if not validate_density(np.asarray(rho)).ok:
            valid_failures += 1

    worst_gauge = 0.0
    for k in range(trials):
        n = 2 + k % 7
        model = random_model(rng, n)
        theta = float(rng.uniform(0, 2 * np.pi))
        rotated = EmissionModel(Amplitudes(model.amplitudes.values * np.exp(1j * theta)), model.p_id)
        a, b = mix(model), mix(rotated)
        worst_gauge = max(
            worst_gauge,
            float(np.max(np.abs(np.abs(a.entries) - np.abs(b.entries)))),
            abs(estimate_pid(a).consensus - estimate_pid(b).consensus),
        )

    worst_negative = 0.0
    worst_shift = 0.0
    for k in range(trials):
        n = 2 + k % 7
        rho = random_density(rng, n)
        phi = rng.uniform(0, 2 * np.pi, size=n)
        value = intensity(rho, phi)
        worst_negative = min(worst_negative, value)
        shift = float(rng.uniform(-20, 20))
        worst_shift = max(worst_shift, abs(intensity(rho, phi + shift) - value))

    ok = (
        valid_failures == 0
        and worst_gauge <= 1e-12
        and worst_negative >= -1e-12
        and worst_shift <= 1e-12
    )
    _verdict(
        capsys, 8, "validation, gauge freedom, positivity, phase shifts", ok,
        f"{trials} trials per suite, gauge dev {worst_gauge:.2e}, "
        f"min intensity {worst_negative:.2e}, shift dev {worst_shift:.2e}",
    )
