"""The one-engine scan against the per-extremum, per-start reference.

``reference_scan`` holds the scan as it was before one batched descent
from eigenvector and seeded starts replaced it: a grid walk up to four
sources, seeded starts beyond, one start refined at a time.  On every state
and every setting below, the library's maximum must be no lower and its
minimum no higher than the reference's, up to ``TOL``; a descent from the
same start must reach the same value, up to ``TOL``.
"""

import functools

import numpy as np
import pytest

import reference_scan as ref
from interfere import Amplitudes, DensityMatrix, EmissionModel, ScanSettings, mix
from interfere.config import ExperimentConfig
from interfere.interference import _descend, _scan_extrema

from helpers import equal_model, random_density, random_family_state

# Each setting with the grid size the reference walks for it.
SMALL_SETTINGS = [
    (ScanSettings(starts=1, seed=3), 2),
    (ScanSettings(starts=3, seed=11), 8),
    (ScanSettings(starts=1, seed=2024), 8),
    (ScanSettings(starts=3, seed=7), 2),
    (ScanSettings(starts=2, seed=0), 16),
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

TOL = 1e-12


def _assert_no_worse(got, want):
    assert got[0] >= want[0] - TOL and got[1] <= want[1] + TOL, (got, want)


def _assert_no_worse_than_reference(rho, settings, grid_points=ref.GRID_POINTS):
    _assert_no_worse(_scan_extrema(rho, settings), ref.scan_extrema(rho, settings, grid_points))


@functools.cache
def _scanned_states(n):
    # One scan per state, shared by every grid size below.
    rng = np.random.default_rng(4000 + n)
    states = [kind(rng, n) for kind in KINDS]
    return [(rho, _scan_extrema(rho, ScanSettings())) for rho in states]


@pytest.mark.parametrize("grid_points", [2, 3, 7, 16, 64])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_scan_no_worse_than_reference_grid_points(n, grid_points):
    # The grid once guaranteed a start near the global extrema up to four
    # sources; its best points must not beat the grid-free scan.  Odd sizes
    # put no grid point on pi.
    for rho, got in _scanned_states(n):
        base = float(rho.populations.sum())
        grid = [ref._grid_extremum(base, rho.pairs, n, grid_points, sense)[0] for sense in (1.0, -1.0)]
        _assert_no_worse(got, grid)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_grid_points_do_not_steer_the_scan(n):
    # Old configs still carry scan.grid_points; whatever it says, the scan
    # settings they resolve to, which alone steer the scan, stay the same.
    amplitudes = [[float(n) ** -0.5, 0.0]] * n
    settings = {
        ExperimentConfig.from_dict(
            {"amplitudes": amplitudes, "p_id": 0.5, "scan": {"grid_points": g, "starts": 3, "seed": 4300 + n}}
        ).scan_settings()
        for g in (2, 3, 4096)
    }
    assert settings == {ScanSettings(starts=3, seed=4300 + n)}, settings


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
        got = _descend(rho.entries, base, rho.pairs, starts, sense)
        assert np.max(np.abs(got - want)) <= TOL, (got, want)


@pytest.mark.parametrize("n", range(2, 9))
def test_small_settings_match_reference(n):
    rng = np.random.default_rng(5000 + n)
    for kind in KINDS:
        for settings, grid_points in SMALL_SETTINGS:
            _assert_no_worse_than_reference(kind(rng, n), settings, grid_points)
    _assert_no_worse_than_reference(mix(equal_model(n, 1.0)), *SMALL_SETTINGS[1])


@pytest.mark.parametrize("n", [12, 16])
def test_many_sources_match_reference(n):
    rng = np.random.default_rng(6000 + n)
    for kind in KINDS:
        _assert_no_worse_than_reference(kind(rng, n), ScanSettings(starts=1, seed=int(rng.integers(1 << 31))))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_default_settings_match_reference(n):
    rng = np.random.default_rng(7000 + n)
    # One N = 4 state: the reference walks the 256^3 grid twice.
    for kind in KINDS[:1] if n == 4 else KINDS:
        _assert_no_worse_than_reference(kind(rng, n), ScanSettings())
