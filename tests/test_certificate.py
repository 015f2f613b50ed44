"""Duality bounds on the scan's extrema, on the reference tests' own states.

``visibility`` reports ``[i_min_lower, i_min]`` and ``[i_max, i_max_upper]``
with the true extrema inside, and flags an extremum certified when its
interval is at most 1e-12 wide.  The states below are the ones
``tests/test_scan_engine.py`` builds, taken from its own builders.
"""

import numpy as np
import pytest

import reference_extrema
import reference_scan as ref
from interfere import Amplitudes, EmissionModel, ScanSettings, mix, visibility
from interfere.interference import _descend, _dual_bound, _polish, _scan_extrema, _torus_derivatives

import test_scan_engine as tse
from helpers import equal_model

GAP = 1e-12


def _reference_states(n):
    """(rho, settings) for every state the scan-engine tests build at ``n``."""
    cases = []
    if n in tse.GRID_N:
        cases += [(rho, ScanSettings()) for rho in tse.grid_states(n)]
    if n in tse.PER_START_N:
        cases += [(rho, ScanSettings()) for rho, _ in tse.per_start_cases(n)]
    if n in tse.SMALL_N:
        cases += [(rho, settings) for rho, settings, _ in tse.small_settings_cases(n)]
    if n in tse.MANY_N:
        cases += tse.many_sources_cases(n)
    if n in tse.DEFAULT_N:
        cases += [(rho, ScanSettings()) for rho in tse.default_settings_states(n)]
    return cases


@pytest.mark.parametrize("n", sorted({*tse.GRID_N, *tse.PER_START_N, *tse.SMALL_N, *tse.MANY_N, *tse.DEFAULT_N}))
def test_bounds_enclose_the_extrema(n):
    for rho, settings in _reference_states(n):
        i_max, i_min, i_max_upper, i_min_lower = _scan_extrema(rho, settings)
        assert i_min_lower <= i_min and i_max <= i_max_upper, (i_min_lower, i_min, i_max, i_max_upper)
        if n == 2:
            assert (i_max_upper, i_min_lower) == (i_max, i_min)
        if n <= 3:
            # Complex SDPs with at most three constraints have rank-one optima.
            assert i_max_upper - i_max <= GAP and i_min - i_min_lower <= GAP, (i_max_upper - i_max, i_min - i_min_lower)


def test_visibility_reports_the_interval():
    rho = mix(equal_model(3, 0.6))
    result = visibility(rho, ScanSettings(starts=3, seed=11))
    assert result.i_min_lower <= result.i_min <= result.i_max <= result.i_max_upper
    assert result.max_certified and result.min_certified
    assert result.i_max_upper - result.i_max <= GAP


def _seed_109_state():
    # The N = 4 family state that the benchmark draws second from seed 109.
    moduli = np.array([0.31395713051232976, 0.6736447940160153, 0.4525750829632695, 0.8144796256589739])
    phases = np.array([4.98869504151516, 0.8162794314673465, 0.6694498644053994, 5.44209761190119])
    return EmissionModel(Amplitudes.normalized(moduli * np.exp(1j * phases)), 0.5321632597883821)


def test_old_scan_miss_is_not_certified():
    # The grid-and-descent reference stops 1.5e-9 above the closed-form dark
    # point of this state; a bound at its phases must not certify that.  The
    # minimum of its 256^3 grid, where the descent starts, is stored.
    model = _seed_109_state()
    rho = mix(model)
    dark = 1.0 - model.p_id  # inside the polygon: the phasors close
    entries, phi = reference_extrema.load_seed_109_grid_minimum()
    assert np.array_equal(rho.entries, entries)
    value, phi = ref._descend(rho.entries, float(rho.populations.sum()), rho.pairs, phi, -1.0)
    assert value - dark > 1e-9
    lower = -_dual_bound(-rho.entries, np.exp(-1j * phi))
    assert lower <= dark and value - lower > GAP
    result = visibility(rho)
    assert result.min_certified and abs(result.i_min - dark) <= GAP


def test_descent_short_of_polygon_boundary_is_not_certified():
    # The dark point is exactly 1 - p; the descent from the zero start alone
    # stops 5.2e-6 above it.  Its bound holds the truth and flags the miss.
    moduli = np.array([0.511, 0.951, 0.507, 0.745, 0.96, 3.674])
    phases = np.array([0.338, 3.907, 5.379, 0.33, 1.261, 2.577])
    rho = mix(EmissionModel(Amplitudes.normalized(moduli * np.exp(1j * phases)), 0.42))
    value, phi = ref._descend(rho.entries, float(rho.populations.sum()), rho.pairs, np.zeros(6), -1.0)
    lower = -_dual_bound(-rho.entries, np.exp(-1j * phi))
    assert lower <= 0.58 <= value and value - lower > GAP


def _boundary_model():
    # 2 max|a| = sum |a|: the phasors close only all aligned, at i_min = 1 - p.
    moduli = np.array([0.511, 0.951, 0.507, 0.745, 0.96, 3.674])
    phases = np.array([0.338, 3.907, 5.379, 0.33, 1.261, 2.577])
    return EmissionModel(Amplitudes.normalized(moduli * np.exp(1j * phases)), 0.42)


@pytest.mark.parametrize("model", [_boundary_model(), _seed_109_state()], ids=["boundary", "closed-polygon"])
def test_polish_steps_its_row_in_place(model):
    # Three minimizing rows, valued -v^H rho v, after four sweeps; the polish
    # of row 0 moves that column and value only, keeps the value true to the
    # field, and returns the largest gradient component at the field it
    # leaves there.
    rho = mix(model)
    n, entries = int(rho.n), rho.entries
    starts = np.zeros((3, n))
    starts[1:, 1:] = np.random.default_rng(1).uniform(0.0, 2.0 * np.pi, (2, n - 1))
    fields = np.exp(-1j * starts).T.copy()
    values = -(fields.conj() * (entries @ fields)).real.sum(0)
    _descend(entries, fields, values, -np.ones(3), np.ones(3, bool), 4)
    noise = n * np.finfo(float).eps * np.abs(entries).sum()
    before_fields, before_values = fields.copy(), values.copy()
    slope = _polish(-entries, fields, values, 0, noise)
    field = fields[:, 0]
    assert abs(values[0] + (field.conj() @ entries @ field).real) <= noise
    assert np.array_equal(fields[:, 1:], before_fields[:, 1:]) and np.array_equal(values[1:], before_values[1:])
    assert slope == np.abs(_torus_derivatives(-entries, fields[:, :1])[1]).max()
    dark = 1.0 - model.p_id
    assert values[0] > before_values[0] and abs(values[0] + dark) <= 1e-12, (-before_values[0] - dark, -values[0] - dark)
    if n == 4:
        # Inside the polygon the minima form a manifold of closed polygons,
        # and the polish converges on it.  At the boundary the Hessian is
        # degenerate at the one aligned minimum, Newton converges linearly,
        # and the polish stops with a slope above the noise.
        assert slope <= noise, (slope, noise)
