"""The single-pass scan against the per-extremum, per-start reference.

``reference_scan`` holds the scan as it was before one grid sweep and one
batched descent replaced it.  The library must reach the same
``(i_max, i_min)`` bit for bit on every state and every setting below.
"""

import tracemalloc

import numpy as np
import pytest

import reference_scan as ref
from interfere import Amplitudes, DensityMatrix, EmissionModel, ScanSettings, mix
from interfere.interference import _descend, _grid_extrema, _scan_extrema

from helpers import equal_model, random_density, random_family_state

SMALL_SETTINGS = [
    ScanSettings(grid_points=2, starts=1, seed=3),
    ScanSettings(grid_points=8, starts=3, seed=11),
    ScanSettings(grid_points=8, starts=1, seed=2024),
    ScanSettings(grid_points=2, starts=3, seed=7),
    ScanSettings(grid_points=16, starts=2, seed=0),
]


def _real_family(rng, n):
    # Real entries of both signs: the zero imaginary parts carry their sign
    # through the field sums.
    moduli = rng.uniform(0.3, 1.0, size=n) * rng.choice([-1.0, 1.0], size=n)
    return mix(EmissionModel(Amplitudes.normalized(moduli), float(rng.uniform(0.0, 1.0))))


def _one_coherent_pair(rng, n):
    pops = rng.uniform(0.1, 1.0, size=n)
    pops /= pops.sum()
    rho = np.diag(pops).astype(complex)
    i, j = sorted(rng.choice(n, size=2, replace=False))
    rho[i, j] = rng.uniform(0.0, 1.0) * np.sqrt(pops[i] * pops[j]) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    rho[j, i] = np.conj(rho[i, j])
    return DensityMatrix(rho)


KINDS = [_real_family, random_family_state, random_density, _one_coherent_pair]


def _same_bits(got, want):
    return np.array_equal(np.asarray(got, dtype=float).view(np.int64), np.asarray(want, dtype=float).view(np.int64))


def _assert_same_bits(rho, settings):
    got = _scan_extrema(rho, settings)
    want = ref.scan_extrema(rho, settings)
    assert _same_bits(got, want), (got, want)


@pytest.mark.parametrize("grid_points", [2, 3, 7, 16, 64])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_one_grid_sweep_picks_both_reference_points(n, grid_points):
    # Odd sizes put no grid point on pi.
    rng = np.random.default_rng(4000 + n)
    for kind in KINDS:
        rho = kind(rng, n)
        base = float(rho.populations.sum())
        picks = _grid_extrema(base, rho.pairs, n, grid_points)
        for pick, sense in zip(picks, (1.0, -1.0)):
            assert _same_bits(pick, ref._grid_extremum(base, rho.pairs, n, grid_points, sense)[1])


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n, grid_points", [(3, 1024), (4, 64)])
def test_grid_sweep_memory_within_one_reference_pass(n, grid_points):
    # The tabulated sweep holds one slab plus at most one (g, g) pair table,
    # and that table exists only at N = 4.
    rho = random_density(np.random.default_rng(4200 + n), n)
    base = float(rho.populations.sum())
    got = _peak_bytes(lambda: _grid_extrema(base, rho.pairs, n, grid_points))
    want = _peak_bytes(lambda: ref._grid_extremum(base, rho.pairs, n, grid_points, 1.0))
    assert got <= want, (got, want)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_every_start_reaches_its_reference_value(n):
    # Starts on multiples of pi/2 put exact zeros into the field sums.
    rng = np.random.default_rng(4100 + n)
    for kind in KINDS:
        rho = kind(rng, n)
        base = float(rho.populations.sum())
        starts = np.concatenate([rng.uniform(0.0, 2.0 * np.pi, (4, n)), 0.5 * np.pi * rng.integers(0, 4, (4, n))])
        starts[:, 0] = 0.0
        sense = np.tile([1.0, -1.0], 4)
        want = [ref._descend(rho.entries, base, rho.pairs, row.copy(), s)[0] for row, s in zip(starts, sense)]
        assert _same_bits(_descend(rho.entries, base, rho.pairs, starts, sense), want)


@pytest.mark.parametrize("n", range(2, 9))
def test_small_settings_match_reference(n):
    rng = np.random.default_rng(5000 + n)
    for kind in KINDS:
        for settings in SMALL_SETTINGS:
            _assert_same_bits(kind(rng, n), settings)
    _assert_same_bits(mix(equal_model(n, 1.0)), SMALL_SETTINGS[1])


@pytest.mark.parametrize("n", [12, 16])
def test_many_sources_match_reference(n):
    rng = np.random.default_rng(6000 + n)
    for kind in KINDS:
        _assert_same_bits(kind(rng, n), ScanSettings(starts=1, seed=int(rng.integers(1 << 31))))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_default_settings_match_reference(n):
    rng = np.random.default_rng(7000 + n)
    # One N = 4 state: the reference walks the 256^3 grid twice.
    for kind in KINDS[:1] if n == 4 else KINDS:
        _assert_same_bits(kind(rng, n), ScanSettings())
