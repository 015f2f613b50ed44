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
the extremization over physically realizable phase configurations:
``sum rho_ii +- 2 |rho_01|`` for two sources, and beyond that one batched
coordinate descent over the unit fields ``exp(-i phi)``, from the phases
of the top and bottom eigenvectors, the zero vector and seeded random
starts.  They agree for two sources and genuinely part ways beyond that;
neither is silently preferred.

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

# Most phase rows times sources one call may hold (screen samples, scan
# starts, sampled phase vectors): at 8 bytes per value, 128 MiB.
MAX_PATTERN_VALUES = 1 << 24


def check_budget(rows: int, n: int, what: str) -> None:
    """Reject ``rows`` phase rows of ``n`` sources beyond ``MAX_PATTERN_VALUES``."""
    if rows * n > MAX_PATTERN_VALUES:
        raise DomainError(f"{what} for {n} sources: more than {MAX_PATTERN_VALUES} pattern values")


@dataclass(frozen=True)
class ScanSettings:
    """Deterministic knobs for the visibility phase scan.

    Beyond two sources, which are solved in closed form, each extremum
    starts from the zero vector, the phases of the top and the bottom
    eigenvector of the state, and ``starts`` seeded random vectors; one
    coordinate descent refines every start at once.  The same seed always
    reproduces the same result.  ``grid_points`` is kept for the config
    schema and still validated, but it no longer steers the search.  Every
    field must be an integer; the seed must not be negative, as
    ``numpy.random.default_rng`` requires.  :func:`visibility` rejects
    ``(starts + 3) * N`` above ``MAX_PATTERN_VALUES`` before any work.
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
    check_budget(int(samples), geometry.n, f"{samples} samples")
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
    is +1 for a row that maximizes, -1 for one that minimizes.  Each row
    carries its unit fields ``v = exp(-i phi)``; the objective ``v^H rho v``
    depends on one ``v_m`` only through ``Re(conj(v_m) w)`` with the field
    sum ``w = sum_{j != m} 2 rho_mj v_j`` (one matrix-vector product for all
    rows), so each update is the closed form ``v_m = sense * w / |w|``: kept
    where ``w == 0``, divided part by part so a subnormal ``|w|`` cannot
    overflow.  A row stops once a sweep raises its ``v^H rho v`` by no more
    than the stop threshold, or after ``_MAX_SWEEPS`` sweeps; its value is
    the kernel's at ``phi = -arg v``.
    """
    coef = 2.0 * (entries - np.diag(entries.diagonal()))
    fields = np.exp(-1j * starts).T.copy()
    values = (fields.conj() * (entries @ fields)).real.sum(0)
    rows, moving, sign = np.arange(fields.shape[1]), fields, sense
    for _ in range(_MAX_SWEEPS):
        for m in range(1, len(coef)):
            w = coef[m] @ moving
            size = np.abs(w) * sign
            np.divide(w.real, size, out=moving.real[m], where=(live := size != 0.0))
            np.divide(w.imag, size, out=moving.imag[m], where=live)
        current = (moving.conj() * (entries @ moving)).real.sum(0)
        going = sign * (current - values[rows]) > _REFINE_STOP
        values[rows] = current
        if not going.all():
            fields[:, rows] = moving
            rows, moving, sign = rows[going], moving.compress(going, 1), sign[going]
            if not rows.size:
                break
    fields[:, rows] = moving
    return _intensity_given_phases(base, pairs, -np.angle(fields.T))


def _scan_extrema(rho: DensityMatrix, settings: ScanSettings):
    """Extremize the intensity over realizable phases (first phase gauged to 0)."""
    n = int(rho.n)
    base = float(rho.populations.sum())
    if n == 2:
        # One free phase sweeps the one pair term through its whole range.
        swing = 2.0 * float(rho.pairs.modulus[0])
        return base + swing, base - swing
    # The intensity is v^H rho v with v = exp(-i phi): the phases of the top
    # and bottom eigenvectors start next to the maximum and the minimum.
    vectors = np.linalg.eigh(rho.entries)[1][:, [-1, 0]].T
    seeded = np.zeros((settings.starts + 3, n))
    seeded[1:3] = np.angle(vectors[:, :1]) - np.angle(vectors)
    seeded[3:, 1:] = np.random.default_rng(settings.seed).uniform(0.0, 2.0 * np.pi, size=(settings.starts, n - 1))
    sense = np.repeat([1.0, -1.0], settings.starts + 3)
    values = _descend(rho.entries, base, rho.pairs, np.concatenate([seeded, seeded]), sense)
    return float(values[sense > 0].max()), float(values[sense < 0].min())


def visibility(rho, scan: ScanSettings | None = None) -> VisibilityResult:
    """Both visibility readings for a state; see the module docstring.

    A state with no off-diagonal coherence gives zero for both, which is a
    valid answer, not an error.
    """
    rho = as_density(rho)
    settings = scan if scan is not None else ScanSettings()
    check_budget(settings.starts + 3, int(rho.n), f"{settings.starts} + 3 scan starts")
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
    Raises :class:`DimensionError` for N < 3 or a wrong phase count.
    """
    rho = as_density(rho)
    n = int(rho.n)
    if n < 3:
        raise DimensionError(f"born residual requires N >= 3 sources, got {n}")
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
