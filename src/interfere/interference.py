"""Detection-screen physics: intensity, fringe patterns, visibility, Born check.

The detection probability at a point where the fields arrive with phases
``phi`` is bilinear in the state: a population term plus one cosine per
source pair.  Everything in this module is bookkeeping around that single
expression.

Two visibilities, on purpose
----------------------------
The classic closed-form visibility treats every pairwise phase difference
as freely adjustable and evaluates to ``2 * sum |rho_ij| / sum rho_ii``.
Physically, though, only N - 1 phases can be varied independently while
C(N, 2) differences appear in the intensity, so for three or more sources
that number can exceed what any screen can show (it reaches 2.0 for three
balanced fully coherent sources).  :func:`visibility` therefore reports
both: ``formula_v``, the closed form taken at face value, and ``scan_v``,
the extremization over physically realizable phase configurations.  They
agree for two sources and genuinely part ways beyond that; neither is
silently preferred.

Complex off-diagonals
---------------------
The pair term is written ``2 |rho_ij| cos(phi_i - phi_j + arg rho_ij)``
with the entry's own phase kept explicit, so the expression is correct for
arbitrary valid states and reduces to the plain-cosine form when the
off-diagonals are real and non-negative.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    PSD_TOL,
    DensityMatrix,
    DimensionError,
    DomainError,
    PairTable,
    PhaseConfig,
    _readonly,
    as_density,
    as_phases,
    as_scale,
)
from .density import estimate_pid

DEFAULT_GRID_POINTS = 256
DEFAULT_STARTS = 64
DEFAULT_SCAN_SEED = 1905

# Refinement sweeps stop when one full pass over the free phases improves
# the objective by no more than this; well inside the 1e-6 scan contract.
_REFINE_STOP = 1e-12
_MAX_SWEEPS = 500

# Pair terms per block of phase rows in the intensity kernel.  Below
# _NARROW_BLOCK rows one np.add.accumulate sums a block's pair terms faster
# than a Python loop over its pairs; above it, at a few ns per term, slower.
_KERNEL_BLOCK = 1 << 15
_NARROW_BLOCK = 128


@dataclass(frozen=True)
class ScanSettings:
    """Deterministic knobs for the visibility phase scan.

    Up to four sources the scan is a dense grid (``grid_points`` per free
    phase) followed by coordinate-descent refinement; beyond four it is
    ``starts`` seeded random starts, each refined the same way.  The same
    seed always reproduces the same result.
    """

    grid_points: int = DEFAULT_GRID_POINTS
    starts: int = DEFAULT_STARTS
    seed: int = DEFAULT_SCAN_SEED

    def __post_init__(self) -> None:
        if int(self.grid_points) < 2:
            raise DomainError(f"grid_points must be at least 2, got {self.grid_points}")
        if int(self.starts) < 1:
            raise DomainError(f"starts must be at least 1, got {self.starts}")
        object.__setattr__(self, "grid_points", int(self.grid_points))
        object.__setattr__(self, "starts", int(self.starts))
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True, eq=False)
class DetectionGeometry:
    """Sources on a line, a screen at a distance, one wavelength.

    ``source_positions`` are transverse coordinates in meters,
    ``screen_distance`` and ``wavelength`` in meters.  Propagation phases
    are exact path lengths times ``2 pi / wavelength``; no small-angle
    approximation anywhere.
    """

    source_positions: np.ndarray
    screen_distance: float
    wavelength: float

    def __post_init__(self) -> None:
        pos = np.array(self.source_positions, dtype=float)
        if pos.ndim != 1 or pos.shape[0] < 2:
            raise DimensionError(f"need at least 2 source positions, got shape {pos.shape}")
        if not np.all(np.isfinite(pos)):
            raise DomainError("source positions contain non-finite entries")
        if np.unique(pos).shape[0] != pos.shape[0]:
            raise DomainError("source positions must be distinct")
        if not (np.isfinite(self.screen_distance) and self.screen_distance > 0):
            raise DomainError(f"screen distance must be positive, got {self.screen_distance!r}")
        if not (np.isfinite(self.wavelength) and self.wavelength > 0):
            raise DomainError(f"wavelength must be positive, got {self.wavelength!r}")
        object.__setattr__(self, "source_positions", _readonly(pos, float))
        object.__setattr__(self, "screen_distance", float(self.screen_distance))
        object.__setattr__(self, "wavelength", float(self.wavelength))

    @property
    def n(self) -> int:
        return self.source_positions.shape[0]


@dataclass(frozen=True, eq=False)
class IntensityPattern:
    """Sampled intensity along the screen, in units of ``|k|**2``."""

    positions: np.ndarray
    intensities: np.ndarray
    geometry: DetectionGeometry

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=float)
        vals = np.asarray(self.intensities, dtype=float)
        if pos.ndim != 1 or pos.shape != vals.shape or pos.shape[0] < 2:
            raise DimensionError(
                f"positions and intensities must be matching 1-D arrays of length >= 2, "
                f"got {pos.shape} and {vals.shape}"
            )
        if not np.all(np.diff(pos) > 0):
            raise DomainError("positions must be strictly increasing")
        # An accepted state's intensity can dip to -N * PSD_TOL (|phi|**2 = N).
        if vals.min(initial=0.0) < -self.geometry.n * PSD_TOL:
            raise DomainError(f"negative intensity {vals.min()!r} in pattern")
        object.__setattr__(self, "positions", _readonly(pos, float))
        object.__setattr__(self, "intensities", _readonly(vals, float))


@dataclass(frozen=True)
class VisibilityResult:
    """Both visibility readings plus the quantities bounding them.

    ``formula_v`` is the closed form (may exceed 1 for N >= 3);
    ``scan_v = (i_max - i_min) / (i_max + i_min)`` from the phase scan;
    ``sum_g`` is the sum of ``|g1|`` over defined pairs; ``bound`` is
    C(N, 2) times the consensus coherent weight, absent when the state has
    no consistent one.
    """

    formula_v: float
    scan_v: float
    i_max: float
    i_min: float
    sum_g: float
    bound: float | None


def _intensity_given_phases(base: float, pairs: PairTable, phases) -> np.ndarray:
    """Intensities of an (M, N) phase batch; one length-N vector is M = 1.

    Each result is ``base`` plus the pair terms added one at a time in table
    order, so every caller gets the same bits for the same phases.  Rows go
    in blocks of ``_KERNEL_BLOCK`` terms, so memory stays O(M).
    """
    columns = np.atleast_2d(phases).T
    step = max(1, _KERNEL_BLOCK // pairs.i.shape[0])
    total = np.empty(columns.shape[1])
    for start in range(0, columns.shape[1], step):
        block = columns[:, start:start + step]
        terms = block.take(pairs.i, 0)
        terms -= block.take(pairs.j, 0)
        terms += pairs.arg[:, None]
        np.cos(terms, out=terms)
        terms *= 2.0 * pairs.modulus[:, None]
        terms[0] = base + terms[0]
        if block.shape[1] < _NARROW_BLOCK:
            total[start:start + step] = np.add.accumulate(terms)[-1]
        else:
            total[start:start + step] = functools.reduce(np.add, terms)
    return total


def intensity(rho, phases, k=None) -> float:
    """Detection probability at one point, scaled by ``|k|**2``.

    ``sum_i rho_ii + 2 sum_{i>j} |rho_ij| cos(phi_i - phi_j + arg rho_ij)``,
    which is at least ``-N * PSD_TOL`` for every accepted state and every
    phase vector, since ``|phi|**2 = N``.
    """
    rho = as_density(rho)
    phases = as_phases(phases)
    if phases.n != int(rho.n):
        raise DimensionError(f"{phases.n} phases for {int(rho.n)} sources")
    value = _intensity_given_phases(float(rho.populations.sum()), rho.pairs, phases.phases)[0]
    return float(as_scale(k).intensity_scale * value)


def phases_from_geometry(geometry: DetectionGeometry, screen_x: float) -> PhaseConfig:
    """Exact propagation phases from every source to the screen point.

    ``phi_m = (2 pi / wavelength) * hypot(screen_distance, screen_x - s_m)``.
    """
    if not np.isfinite(screen_x):
        raise DomainError(f"screen coordinate must be finite, got {screen_x!r}")
    paths = np.hypot(geometry.screen_distance, float(screen_x) - geometry.source_positions)
    return PhaseConfig(2.0 * np.pi / geometry.wavelength * paths)


def pattern(rho, geometry: DetectionGeometry, x_min: float, x_max: float, samples: int) -> IntensityPattern:
    """Intensity sampled on a uniform screen grid, endpoints included."""
    rho = as_density(rho)
    if geometry.n != int(rho.n):
        raise DimensionError(f"{geometry.n} source positions for {int(rho.n)} sources")
    if int(samples) < 2:
        raise DomainError(f"need at least 2 samples, got {samples}")
    if not (np.isfinite(x_min) and np.isfinite(x_max) and x_min < x_max):
        raise DomainError(f"need x_min < x_max, got {x_min!r} and {x_max!r}")
    positions = np.linspace(float(x_min), float(x_max), int(samples))
    phase_rows = (
        2.0 * np.pi / geometry.wavelength
        * np.hypot(geometry.screen_distance, positions[:, None] - geometry.source_positions[None, :])
    )
    values = _intensity_given_phases(float(rho.populations.sum()), rho.pairs, phase_rows)
    return IntensityPattern(positions, values, geometry)


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


def _scan_extrema(rho: DensityMatrix, settings: ScanSettings):
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
            _, phi = _grid_extremum(base, pairs, n, settings.grid_points, sense)
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


def visibility(rho, scan: ScanSettings | None = None) -> VisibilityResult:
    """Both visibility readings for a state; see the module docstring.

    A state with no off-diagonal coherence gives zero for both, which is a
    valid answer, not an error.
    """
    rho = as_density(rho)
    settings = scan if scan is not None else ScanSettings()
    formula_v = 2.0 * float(rho.pairs.modulus.sum()) / float(rho.populations.sum())

    report = estimate_pid(rho)
    sum_g = np.nansum([pair.p_ij for pair in report.pairs])
    bound = math.comb(int(rho.n), 2) * report.consensus if report.consistent else None

    i_max, i_min = _scan_extrema(rho, settings)
    i_min = max(i_min, 0.0)
    total = i_max + i_min
    scan_v = (i_max - i_min) / total if total > 0 else 0.0
    return VisibilityResult(float(formula_v), float(scan_v), float(i_max), float(i_min), float(sum_g), bound)


def born_residual(rho, phases) -> float:
    """Pairwise-decomposition residual of the intensity at one phase vector.

    ``I_full - sum_pairs I_pair + (N - 2) * sum_singles``, where each pair
    intensity keeps only the two rows and columns involved (the other
    sources blocked, nothing renormalized) and a single-source intensity
    is just its population.  The intensity law is bilinear, so the
    combination vanishes identically; any nonzero value is roundoff.
    """
    rho = as_density(rho)
    n = int(rho.n)
    if n < 3:
        raise DomainError(f"born residual requires N >= 3 sources, got {n}")
    phases = as_phases(phases)
    if phases.n != n:
        raise DimensionError(f"{phases.n} phases for {n} sources")

    pairs = rho.pairs
    pops = rho.populations
    phi = phases.phases
    singles = float(pops.sum())
    full = float(_intensity_given_phases(singles, pairs, phi)[0])
    pair_intensities = (pops[pairs.i] + pops[pairs.j]) + 2.0 * pairs.modulus * np.cos(
        phi[pairs.i] - phi[pairs.j] + pairs.arg
    )
    return full - float(pair_intensities.sum()) + (n - 2) * singles
