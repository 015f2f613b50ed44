"""Reference visibility scan: one pass per extremum, one start at a time.

This is the scan the library's single-pass engine replaces: each extremum
walks the N <= 4 grid on its own, and every start is refined alone, with
the field sum of each coordinate update built term by term in Python.  The
grid size is ``scan_extrema``'s own argument, ``GRID_POINTS`` per phase
unless given; the library's ``ScanSettings`` no longer carries one.
``tests/test_scan_engine.py`` requires the library's ``(i_max, i_min)`` to
be no worse than ``scan_extrema`` here, up to 1e-12.  Both read the
library's intensity kernel, which is held to its own per-pair reference in
``reference_pairs``.
"""

import numpy as np

from interfere.interference import _MAX_SWEEPS, _REFINE_STOP, _intensity_given_phases

# The grid size the library used before the grid left its scan.
GRID_POINTS = 256


def _descend(entries, base, pairs, phi, sense):
    """Exact coordinate descent over the free phases (phi[0] stays 0).

    Holding the other phases fixed, the objective's dependence on one
    phase is a single sinusoid, so each coordinate update is a closed-form
    extremization.  Each update can only improve the objective, and the
    sweep loop stops once a full pass gains no more than the stop
    threshold.
    """
    n = entries.shape[0]
    current = float(_intensity_given_phases(base, pairs, phi)[0])
    for _ in range(_MAX_SWEEPS):
        previous = current
        for m in range(1, n):
            w = 0.0 + 0.0j
            for j in range(n):
                if j != m:
                    w += 2.0 * entries[m, j] * np.exp(-1j * phi[j])
            if abs(w) == 0.0:
                continue
            phi[m] = (-np.angle(w)) if sense > 0 else (np.pi - np.angle(w))
        current = float(_intensity_given_phases(base, pairs, phi)[0])
        if sense * (current - previous) <= _REFINE_STOP:
            break
    return current, phi


def _grid_extremum(base, pairs, n, grid_points, sense):
    """Best grid point over the free phases, first occurrence winning ties.

    Works one slab of the first free phase at a time to bound memory; the
    slab scan order matches the flattened C-order grid, so the selected
    point is the lexicographically smallest maximizer or minimizer.
    """
    theta = 2.0 * np.pi * np.arange(grid_points) / grid_points
    best_value = -np.inf
    best_phi = None
    free = n - 1
    if free == 1:
        batch = np.zeros((grid_points, n))
        batch[:, 1] = theta
        values = sense * _intensity_given_phases(base, pairs, batch)
        idx = int(np.argmax(values))
        return float(values[idx]) * sense, batch[idx].copy()
    tail_mesh = np.meshgrid(*([theta] * (free - 1)), indexing="ij")
    tail = np.stack([m.ravel() for m in tail_mesh], axis=1)
    batch = np.zeros((tail.shape[0], n))
    batch[:, 2:] = tail
    for first in theta:
        batch[:, 1] = first
        values = sense * _intensity_given_phases(base, pairs, batch)
        idx = int(np.argmax(values))
        if values[idx] > best_value:
            best_value = float(values[idx])
            best_phi = batch[idx].copy()
    return best_value * sense, best_phi


def scan_extrema(rho, settings, grid_points=GRID_POINTS):
    """Extremize the intensity over realizable phases (first phase gauged to 0)."""
    entries = rho.entries
    n = entries.shape[0]
    base = float(rho.populations.sum())
    pairs = rho.pairs
    if not pairs.modulus.any():
        return base, base
    extrema = []
    for sense in (+1.0, -1.0):
        if n <= 4:
            _, phi = _grid_extremum(base, pairs, n, grid_points, sense)
            value, _ = _descend(entries, base, pairs, phi, sense)
        else:
            rng = np.random.default_rng(settings.seed)
            starts = np.zeros((settings.starts + 1, n))
            starts[1:, 1:] = rng.uniform(0.0, 2.0 * np.pi, size=(settings.starts, n - 1))
            value = None
            for row in starts:
                candidate, _ = _descend(entries, base, pairs, row.copy(), sense)
                if value is None or sense * (candidate - value) > 0:
                    value = candidate
        extrema.append(value)
    return extrema[0], extrema[1]
