"""Property-based invariants over randomized states, amplitudes, and phases."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from interfere import (
    PSD_TOL,
    Amplitudes,
    DensityMatrix,
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


@st.composite
def boundary_family_states(draw):
    """``(model, rho)`` for a family state at the polygon boundary, ``2 max|a| = sum |a|``.

    The largest modulus is the sum of the others, so the phasors close only
    when they all line up against it: the dark point is 0, ``i_min = 1 - p``,
    and the minimum is degenerate, with a Hessian that is not definite there.
    """
    rng = np.random.default_rng(draw(seeds))
    n = draw(st.integers(min_value=3, max_value=8))
    moduli = rng.uniform(0.3, 1.0, size=n)
    largest = rng.integers(n)
    moduli[largest] = moduli.sum() - moduli[largest]
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
    model = EmissionModel(Amplitudes.normalized(moduli * np.exp(1j * phases)), draw(weights))
    return model, mix(model)


@st.composite
def psd_edge_states(draw):
    """A general state whose smallest eigenvalue sits near ``-PSD_TOL / 2``, inside the tolerance."""
    rng = np.random.default_rng(draw(seeds))
    n = draw(st.integers(min_value=2, max_value=8))
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    values, vectors = np.linalg.eigh(a @ a.conj().T)
    values /= values[1:].sum()
    values[0] = -0.5 * PSD_TOL
    entries = (vectors * values) @ vectors.conj().T
    return DensityMatrix(entries / np.trace(entries).real)


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
@example(seed=11405, n=3, p_id=1.0)
@settings(deadline=None)
def test_family_scan_meets_closed_forms(seed, n, p_id):
    # Seed 11405 draws moduli 0.0019 short of the polygon boundary; the
    # descent alone stops 1.9e-7 above the dark point there.
    # The intensity is p |sum |a_i| e^(i theta_i)|^2 + 1 - p: largest with
    # every phasor aligned, smallest at the polygon inequality's bound.
    rng = np.random.default_rng(seed)
    model = random_model(rng, n, p_id)
    moduli = np.abs(model.amplitudes.values)
    result = visibility(mix(model))
    assert abs(result.i_max - (p_id * moduli.sum() ** 2 + 1.0 - p_id)) <= 1e-12
    dark = max(0.0, 2.0 * moduli.max() - moduli.sum())
    assert abs(result.i_min - (p_id * dark**2 + 1.0 - p_id)) <= 1e-9


def test_family_scan_meets_minimum_at_polygon_boundary():
    # The largest modulus is the sum of the others (2 max|a| = sum |a|), so
    # the dark point is exactly 0 and i_min = 1 - p.  The descent alone
    # stops 1.1e-6 short of it; the Newton polish of its best row meets it.
    moduli = np.array([0.511, 0.951, 0.507, 0.745, 0.96, 3.674])
    phases = np.array([0.338, 3.907, 5.379, 0.33, 1.261, 2.577])
    model = EmissionModel(Amplitudes.normalized(moduli * np.exp(1j * phases)), 0.42)
    result = visibility(mix(model))
    assert abs(result.i_min - 0.58) <= 1e-9
    assert result.i_min_lower <= 0.58 <= result.i_min


@given(case=boundary_family_states())
@settings(deadline=None)
def test_family_scan_meets_degenerate_minimum(case):
    model, rho = case
    dark = 1.0 - model.p_id
    result = visibility(rho)
    assert abs(result.i_min - dark) <= 1e-9
    assert result.i_min_lower <= dark


@given(rho=psd_edge_states())
@settings(deadline=None)
def test_readouts_agree_with_accepted_indefinite_state(rho):
    # Accepted up to PSD_TOL, so every readout must stay consistent: readings
    # of at most 1, extrema inside their own bounds, samples inside those.
    n = int(rho.n)
    assert -PSD_TOL < validate_density(rho).min_eig < 0.0
    report = estimate_pid(rho)
    assert all(pair.p_ij <= 1.0 for pair in report.pairs if pair.defined)
    result = visibility(rho)
    assert result.sum_g <= math.comb(n, 2)
    assert result.bound is None or result.bound <= math.comb(n, 2)
    assert 0.0 <= result.i_min_lower <= result.i_min <= result.i_max <= result.i_max_upper
    for phi in np.random.default_rng(n).uniform(0.0, 2.0 * np.pi, size=(16, n)):
        value = intensity(rho, phi)
        assert value >= -n * PSD_TOL
        assert result.i_min_lower - 1e-12 <= max(value, 0.0) and value <= result.i_max_upper + 1e-12


@given(seed=seeds, n=mode_counts)
def test_coherence_matrix_structure(seed, n):
    rng = np.random.default_rng(seed)
    matrix = coherence_matrix(random_density(rng, n))
    np.testing.assert_allclose(matrix.entries, matrix.entries.conj().T, atol=1e-12)
    assert np.all(np.abs(matrix.entries[matrix.defined]) <= 1.0 + 1e-12)
    diag = np.diagonal(matrix.entries)
    defined_diag = np.diagonal(matrix.defined)
    np.testing.assert_allclose(diag[defined_diag].real, 1.0, atol=1e-12)
