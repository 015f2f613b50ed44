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

    Up to four sources one sweep of a dense grid (``grid_points`` per free
    phase) picks a start for each extremum; beyond four the starts are the
    zero vector and ``starts`` seeded random vectors, for each extremum.
    One coordinate descent then refines every start at once.  The same
    seed always reproduces the same result.  Every field must be an integer;
    the seed must not be negative, as ``numpy.random.default_rng`` requires.
    """

    grid_points: int = DEFAULT_GRID_POINTS
    starts: int = DEFAULT_STARTS
    seed: int = DEFAULT_SCAN_SEED

    def __post_init__(self) -> None:
        for name, least in (("grid_points", 2), ("starts", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise DomainError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise DomainError(f"{name} must be at least {least}, got {value}")
            object.__setattr__(self, name, int(value))


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


def _descend(entries, base, pairs, starts, sense):
    """Exact coordinate descent from every start at once; the values reached.

    ``starts`` holds one phase row per start (phi[0] stays 0) and ``sense``
    is +1 for a row that maximizes, -1 for one that minimizes.  Holding the
    other phases fixed, the objective's dependence on one phase is a single
    sinusoid, so each coordinate update is a closed-form extremization.
    Each update can only improve the objective; a row stops once a full
    sweep gains no more than the stop threshold.  Each field sum starts from
    ``0j`` and adds its terms in column order, with the complex products
    spelled out in real parts, so a row gets the same bits as it would alone
    in scalar arithmetic.
    """
    n = entries.shape[0]
    coef = 2.0 * entries
    np.fill_diagonal(coef, 0.0)  # no self term: adding +-0.0 leaves a sum begun at 0j unchanged
    phi = starts.T.copy()
    fields = np.exp(-1j * phi)
    values = _intensity_given_phases(base, pairs, starts)
    rows = np.arange(phi.shape[1])
    for _ in range(_MAX_SWEEPS):
        for m in range(1, n):
            cr, ci = coef.real[m, :, None], coef.imag[m, :, None]
            terms = np.stack([cr * fields.real - ci * fields.imag, cr * fields.imag + ci * fields.real])
            terms[:, 0] += 0.0  # the sum starts from 0j: a -0.0 first term counts as +0.0
            wr, wi = np.add.accumulate(terms, axis=1)[:, -1]
            angle = np.arctan2(wi, wr)
            turned = np.where(sense[rows] > 0, -angle, np.pi - angle)
            phi[m] = np.where((wr != 0.0) | (wi != 0.0), turned, phi[m])
            fields[m] = np.exp(-1j * phi[m])
        current = _intensity_given_phases(base, pairs, phi.T)
        going = sense[rows] * (current - values[rows]) > _REFINE_STOP
        values[rows] = current
        rows, phi, fields = rows[going], phi[:, going], fields[:, going]
        if not rows.size:
            break
    return values


def _grid_extrema(base, pairs, n, grid_points):
    """Grid points of the largest and smallest intensity, as rows of a (2, N) array.

    Phase 0 stays 0.0 and every free phase runs over the same grid angles.
    From three sources on, phase 1 takes one value per slab and the other
    free phases span the slab; with one free phase the grid is one slab.
    A pair term depends on two phases only, so it is tabulated with the
    kernel's own expression: pairs clear of phase 1 once, before the slab
    loop (at N = 4 one (g, g) table, for pair (2, 3)), pairs of phase 1 once
    per slab (a scalar or a g-vector).  Each slab is ``base`` plus the terms
    added in table order, the kernel's left fold, so every grid value has
    the kernel's bits, and memory stays at one slab plus that one table.
    The slab order matches the flattened C-order grid and the first strict
    improvement wins, so the picks are the lexicographically smallest
    maximizer and minimizer.
    """
    theta = 2.0 * np.pi * np.arange(grid_points) / grid_points
    tail = max(n - 2, 1)
    lead = n - 1 - tail  # 1 from three sources on: phase 1 is fixed per slab
    phase = [0.0] * (1 + lead) + list(np.ix_(*[theta] * tail))
    ij = list(zip(pairs.i.tolist(), pairs.j.tolist()))

    def term(k):
        i, j = ij[k]
        return 2.0 * pairs.modulus[k] * np.cos((phase[i] - phase[j]) + pairs.arg[k])

    tables = [None if lead and 1 in pair else term(k) for k, pair in enumerate(ij)]
    slab = np.empty((grid_points,) * tail)
    best = np.array([-np.inf, np.inf])
    found = np.zeros(2, dtype=np.intp)
    for a in range(grid_points**lead):
        if lead:
            phase[1] = theta[a]
        slab.fill(base)
        for k, table in enumerate(tables):
            np.add(slab, term(k) if table is None else table, out=slab)
        hi, lo = np.argmax(slab), np.argmin(slab)
        if slab.flat[hi] > best[0]:
            best[0], found[0] = slab.flat[hi], a * slab.size + hi
        if slab.flat[lo] < best[1]:
            best[1], found[1] = slab.flat[lo], a * slab.size + lo
    picks = np.zeros((2, n))
    picks[:, 1:] = theta[np.stack(np.unravel_index(found, (grid_points,) * (n - 1)), axis=1)]
    return picks


def _scan_extrema(rho: DensityMatrix, settings: ScanSettings):
    """Extremize the intensity over realizable phases (first phase gauged to 0)."""
    n = int(rho.n)
    base = float(rho.populations.sum())
    pairs = rho.pairs
    if not pairs.modulus.any():
        return base, base
    if n <= 4:
        starts = _grid_extrema(base, pairs, n, settings.grid_points)
        sense = np.array([1.0, -1.0])
    else:
        seeded = np.zeros((settings.starts + 1, n))
        rng = np.random.default_rng(settings.seed)
        seeded[1:, 1:] = rng.uniform(0.0, 2.0 * np.pi, size=(settings.starts, n - 1))
        starts = np.concatenate([seeded, seeded])
        sense = np.repeat([1.0, -1.0], settings.starts + 1)
    values = _descend(rho.entries, base, pairs, starts, sense)
    return float(values[sense > 0].max()), float(values[sense < 0].min())


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
