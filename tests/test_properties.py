"""Property-based invariants over randomized states, amplitudes, and phases."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from interfere import (
    Amplitudes,
    EmissionModel,
    coherence_matrix,
    estimate_pid,
    intensity,
    mix,
    oracle_intensity,
    validate_density,
    visibility,
)

from helpers import random_density, random_model

seeds = st.integers(min_value=0, max_value=2**32 - 1)
mode_counts = st.integers(min_value=2, max_value=8)
weights = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@given(seed=seeds, n=mode_counts, p_id=weights)
def test_family_round_trip_recovers_weight(seed, n, p_id):
    rng = np.random.default_rng(seed)
    model = random_model(rng, n, p_id)
    report = estimate_pid(mix(model))
    assert report.consistent
    assert abs(report.consensus - p_id) <= 1e-12


@given(seed=seeds, n=mode_counts, p_id=weights, theta=st.floats(0, 2 * np.pi, allow_nan=False))
def test_global_phase_gauge_invariance(seed, n, p_id, theta):
    rng = np.random.default_rng(seed)
    model = random_model(rng, n, p_id)
    rotated = EmissionModel(Amplitudes(model.amplitudes.values * np.exp(1j * theta)), p_id)
    plain, turned = mix(model), mix(rotated)
    np.testing.assert_allclose(plain.populations, turned.populations, atol=1e-12)
    np.testing.assert_allclose(np.abs(plain.entries), np.abs(turned.entries), atol=1e-12)
    a, b = estimate_pid(plain), estimate_pid(turned)
    assert abs(a.consensus - b.consensus) <= 1e-12


@given(seed=seeds, n=mode_counts, p_id=weights)
def test_mix_output_always_validates(seed, n, p_id):
    rng = np.random.default_rng(seed)
    rho = mix(random_model(rng, n, p_id))
    assert validate_density(rho.entries).ok


@given(seed=seeds, n=mode_counts)
def test_intensity_non_negative_and_shift_invariant(seed, n):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, n)
    phi = rng.uniform(0, 2 * np.pi, size=n)
    value = intensity(rho, phi)
    assert value >= -1e-12
    shift = rng.uniform(-10, 10)
    assert abs(intensity(rho, phi + shift) - value) <= 1e-12


@given(seed=seeds, n=mode_counts)
def test_intensity_agrees_with_oracle(seed, n):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, n)
    phi = rng.uniform(0, 2 * np.pi, size=n)
    assert abs(intensity(rho, phi) - oracle_intensity(rho, phi)) <= 1e-12


@given(seed=seeds)
@settings(max_examples=30, deadline=None)
def test_two_mode_visibilities_agree(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, 2)
    result = visibility(rho)
    assert abs(result.formula_v - result.scan_v) <= 1e-6
    assert result.i_max >= result.i_min >= 0.0


@given(seed=seeds, n=mode_counts, p_id=weights)
@settings(deadline=None)
def test_family_scan_meets_closed_forms(seed, n, p_id):
    # The intensity is p |sum |a_i| e^(i theta_i)|^2 + 1 - p: largest with
    # every phasor aligned, smallest at the polygon inequality's bound.
    rng = np.random.default_rng(seed)
    model = random_model(rng, n, p_id)
    moduli = np.abs(model.amplitudes.values)
    result = visibility(mix(model))
    assert abs(result.i_max - (p_id * moduli.sum() ** 2 + 1.0 - p_id)) <= 1e-12
    dark = max(0.0, 2.0 * moduli.max() - moduli.sum())
    assert abs(result.i_min - (p_id * dark**2 + 1.0 - p_id)) <= 1e-9


@given(seed=seeds, n=mode_counts)
def test_coherence_matrix_structure(seed, n):
    rng = np.random.default_rng(seed)
    matrix = coherence_matrix(random_density(rng, n))
    np.testing.assert_allclose(matrix.entries, matrix.entries.conj().T, atol=1e-12)
    assert np.all(np.abs(matrix.entries[matrix.defined]) <= 1.0 + 1e-12)
    diag = np.diagonal(matrix.entries)
    defined_diag = np.diagonal(matrix.defined)
    np.testing.assert_allclose(diag[defined_diag].real, 1.0, atol=1e-12)
