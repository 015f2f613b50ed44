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
``sum rho_ii +- 2 |rho_01|`` for two sources, and the scan below beyond
that.  They agree for two sources and genuinely part ways beyond that;
neither is silently preferred.

The scan
--------
Beyond two sources, one batched coordinate descent over the unit fields
``v = exp(-i phi)`` (phi[0] = 0) runs one row per start of each extremum:
the zero vector, the top and bottom eigenvectors' phases and seeded random
vectors.  Each extremum climbs ``v^H m v``, ``m = rho`` for the maximum
and ``m = -rho`` for the minimum; its values and bound are in that unit.
Its rules, stated here only:

- Stages of 4, 4, 8 and 16 sweeps, then 16 each, up to 500 sweeps.  A row
  stops once a sweep raises its value by no more than 1e-12 (a bound on
  the sweep's gain, not on the distance to the extremum).
- After each stage, an extremum's best row, running or not, is examined
  if it has gained more than 1e-9 since its last examination (the first
  always runs): a Newton polish steps it in place, and the weak-duality
  bound of the SDP relaxation (So, Zhang & Ye, Math. Program. 2007) at
  its multipliers gives ``i_max_upper`` or ``i_min_lower``.  An extremum
  whose interval is at most 1e-12 wide is certified, and all its rows
  stop: none can beat the best by more.
- An extremum is open when its polish converged and left it uncertified:
  the relaxation's own gap (exact for three sources, Huang & Zhang, Math.
  Oper. Res. 2007, not beyond) or a best row at a local extremum.  After
  each stage, each running row of an open extremum with a definite Hessian
  stops if its value plus its Newton decrement trails the best row, and
  otherwise takes the Newton step if that raises its value.  A row at its
  own extremum either trails the best row or sits at the best value, where
  the next sweep's gain stop ends it.

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
    _check_integer,
    _readonly,
    as_density,
    as_phases,
    as_scale,
)
from .density import _pair_readings

DEFAULT_STARTS = 64
DEFAULT_SCAN_SEED = 1905

_EPS = np.finfo(float).eps

# The scan's constants; the module docstring states the rules that read them.
# Gain stop of one sweep, sweep cap, certified interval width, relative flat curvature.
_REFINE_STOP = 1e-12
_MAX_SWEEPS = 500
_CERTIFIED_GAP = 1e-12
_FLAT = np.sqrt(_EPS)
# Newton steps one polish may take; a degenerate extremum converges linearly.
_POLISH_STEPS = 30
# Gain that brings an extremum's best row to another examination; most
# sweeps in one stage.
_OPEN_GAP = 1e-9
_STAGE_CAP = 16

# Terms per block of rows, so memory stays O(rows) where rows are many: N phase
# values plus the pair terms per sample in ``pattern``'s stream, N^2 products
# per row in the Newton endgame.  The intensity kernel itself takes one block.
_KERNEL_BLOCK = 1 << 15

# Most phase values (rows times sources: screen samples, scan starts, sampled
# phase vectors) one call may ask for.  ``pattern`` holds 2 * 8 bytes per sample
# (positions and intensities, handed over uncopied) plus one kernel block.
MAX_PATTERN_VALUES = 1 << 24


def _block_rows(terms_per_row: int) -> int:
    """Rows per block of at most ``_KERNEL_BLOCK`` terms, at least one."""
    return max(1, _KERNEL_BLOCK // terms_per_row)


def check_budget(rows: int, n: int, what: str) -> None:
    """Reject ``rows`` phase rows of ``n`` sources: more than ``MAX_PATTERN_VALUES`` phase values."""
    if rows * n > MAX_PATTERN_VALUES:
        raise DomainError(f"{what} for {n} sources: more than {MAX_PATTERN_VALUES} pattern values")


@dataclass(frozen=True)
class ScanSettings:
    """Deterministic knobs for the visibility phase scan.

    Beyond two sources, which are solved in closed form, each extremum
    starts from the zero vector, the phases of the top and the bottom
    eigenvector of the state, and ``starts`` seeded random vectors; one
    coordinate descent refines every start at once.  The same seed always
    reproduces the same result.  Both fields must be integers; the seed
    must not be negative, as ``numpy.random.default_rng`` requires.
    :func:`visibility` rejects ``(starts + 3) * N`` above
    ``MAX_PATTERN_VALUES`` before any work.
    """

    starts: int = DEFAULT_STARTS
    seed: int = DEFAULT_SCAN_SEED

    def __post_init__(self) -> None:
        object.__setattr__(self, "starts", _check_integer("starts", self.starts, 1))
        object.__setattr__(self, "seed", _check_integer("seed", self.seed, 0))


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
        if len(set(pos.tolist())) != pos.shape[0]:  # np.unique would import numpy.ma
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
        pos, vals = _readonly(self.positions, float), _readonly(self.intensities, float)
        if pos.ndim != 1 or pos.shape != vals.shape or pos.shape[0] < 2:
            raise DimensionError(
                f"positions and intensities must be matching 1-D arrays of length >= 2, "
                f"got {pos.shape} and {vals.shape}"
            )
        if not np.all(pos[1:] > pos[:-1]):
            raise DomainError("positions must be strictly increasing")
        # An accepted state's intensity is at least -N * PSD_TOL (|v|**2 = N), less the
        # kernel's rounding.  Its partial sums are at most about N in size (the pair moduli
        # sum to at most N - 1 times the trace), so its C(N, 2) additions round by under
        # N**3 eps / 4.  A term 2 |rho_ij| cos(t) rounds by under 2 |rho_ij| eps (|t| + 2), where
        # |t| <= span + pi as no path difference exceeds the sources' spread; all terms by
        # under N eps (span + pi + 2).  A span beyond float range leaves no floor.
        with np.errstate(over="ignore"):
            span = 2.0 * np.pi * np.ptp(self.geometry.source_positions) / self.geometry.wavelength
        n = self.geometry.n
        if vals.min(initial=0.0) < -n * (PSD_TOL + _EPS * (n * n + span + np.pi)):
            raise DomainError(f"negative intensity {vals.min()!r} in pattern")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "intensities", vals)


@dataclass(frozen=True)
class VisibilityResult:
    """Both visibility readings plus the quantities bounding them.

    ``formula_v`` is the closed form (may exceed 1 for N >= 3);
    ``scan_v = (i_max - i_min) / (i_max + i_min)`` from the phase scan;
    ``sum_g`` sums :func:`estimate_pid`'s ``p_ij`` over defined pairs,
    which is ``|g1|`` clamped at 1 (a state accepted up to ``PSD_TOL``
    can put ``|g1|`` above 1); ``bound`` is C(N, 2) times the consensus
    coherent weight, absent when the state has no consistent one.  The
    true extrema over all phases lie in ``[i_min_lower, i_min]`` and
    ``[i_max, i_max_upper]``; a flag is true when its interval is at most
    1e-12 wide, which proves that extremum.  The minimum and both ends of
    its interval are of the intensity clamped at 0, which an accepted state
    may dip just below.
    """

    formula_v: float
    scan_v: float
    i_max: float
    i_min: float
    sum_g: float
    bound: float | None
    i_max_upper: float
    i_min_lower: float
    max_certified: bool
    min_certified: bool


def _intensity_given_phases(base: float, pairs: PairTable, phases) -> np.ndarray:
    """Intensities of an (M, N) phase batch; one length-N vector is M = 1.

    Each result is ``base`` plus the pair terms added one at a time in table
    order, so every caller gets the same bits for the same phases.  Callers
    bound M, so the batch is one block; ``sum(0)`` folds its pair rows in
    that order, but numpy sums a one-row batch pairwise, so that one takes
    ``np.add.accumulate``.
    """
    columns = np.atleast_2d(phases).T
    terms = columns.take(pairs.i, 0)
    terms -= columns.take(pairs.j, 0)
    terms += pairs.arg[:, None]
    np.cos(terms, out=terms)
    terms *= 2.0 * pairs.modulus[:, None]
    terms[0] = base + terms[0]
    return terms.sum(0) if columns.shape[1] > 1 else np.add.accumulate(terms)[-1]


def _phase_values(rho: DensityMatrix, phases) -> np.ndarray:
    """``phases`` for ``rho``'s sources; ``DomainError`` when a difference of two overflows."""
    phi = as_phases(phases).phases
    if phi.shape[0] != int(rho.n):
        raise DimensionError(f"{phi.shape[0]} phases for {int(rho.n)} sources")
    if not math.isfinite(float(phi.max()) - float(phi.min())):  # Python arithmetic: no warning
        raise DomainError(f"the differences of phases {phi.tolist()} overflow")
    return phi


def intensity(rho, phases, k=None) -> float:
    """Detection probability at one point, scaled by ``|k|**2``.

    ``sum_i rho_ii + 2 sum_{i>j} |rho_ij| cos(phi_i - phi_j + arg rho_ij)``,
    which is at least ``-N * PSD_TOL`` for every accepted state and every
    phase vector, since ``|v|**2 = N`` for ``v = exp(-i phi)``; the value
    returned can be lower by the sum's rounding, which
    :class:`IntensityPattern` derives and allows.  Phases whose differences
    overflow, and a scaled value that overflows, raise ``DomainError``.
    """
    rho = as_density(rho)
    value = _intensity_given_phases(float(rho.populations.sum()), rho.pairs, _phase_values(rho, phases))[0]
    return as_scale(k).scaled(float(value))


def _path_phases(geometry: DetectionGeometry, positions: np.ndarray) -> np.ndarray:
    """(N, M) propagation phases, one contiguous row per source; inf where a phase overflows."""
    with np.errstate(over="ignore"):
        paths = positions[None, :] - geometry.source_positions[:, None]
        np.hypot(geometry.screen_distance, paths, out=paths)
        return np.multiply(paths, 2.0 * np.pi / geometry.wavelength, out=paths)


def phases_from_geometry(geometry: DetectionGeometry, screen_x: float) -> PhaseConfig:
    """Exact propagation phases from every source to the screen point.

    ``phi_m = (2 pi / wavelength) * hypot(screen_distance, screen_x - s_m)``.
    A point whose phases overflow raises ``DomainError``.
    """
    if not np.isfinite(screen_x):
        raise DomainError(f"screen coordinate must be finite, got {screen_x!r}")
    return PhaseConfig(_path_phases(geometry, np.array([float(screen_x)]))[:, 0])


def pattern(rho, geometry: DetectionGeometry, x_min: float, x_max: float, samples: int) -> IntensityPattern:
    """Intensity sampled on a uniform screen grid, endpoints included.

    An interval whose spacing or phases overflow is rejected before any
    work; the longest path is at an end, so the two ends decide.
    """
    rho = as_density(rho)
    if geometry.n != int(rho.n):
        raise DimensionError(f"{geometry.n} source positions for {int(rho.n)} sources")
    samples = _check_integer("samples", samples, 2)
    check_budget(samples, geometry.n, f"{samples} samples")
    if not (np.isfinite(x_min) and np.isfinite(x_max) and x_min < x_max):
        raise DomainError(f"need x_min < x_max, got {x_min!r} and {x_max!r}")
    x_min, x_max = float(x_min), float(x_max)
    ends = _path_phases(geometry, np.array([x_min, x_max]))
    if not (math.isfinite(x_max - x_min) and np.isfinite(ends).all()):
        raise DomainError(f"screen interval [{x_min!r}, {x_max!r}] overflows the sample spacing or the phases")
    # linspace returns a view: positions are frozen by a copy before values exist.  No
    # (N, samples) table: the kernel takes one block of samples at a time, whose N
    # phases and pair terms fit _KERNEL_BLOCK; it transposes the block back.
    positions, values = _readonly(np.linspace(x_min, x_max, samples), float), np.empty(samples)
    base, step = float(rho.populations.sum()), _block_rows(rho.pairs.i.shape[0] + geometry.n)
    for start in range(0, samples, step):
        block = _path_phases(geometry, positions[start:start + step])
        values[start:start + step] = _intensity_given_phases(base, rho.pairs, block.T)
    values.setflags(write=False)
    return IntensityPattern(positions, values, geometry)


def _descend(entries, fields, values, sense, going, sweeps):
    """Up to ``sweeps`` sweeps of exact coordinate descent on the rows ``going``.

    ``fields`` holds one column of unit fields ``v = exp(-i phi)`` per row
    (v[0] stays 1) and ``values`` each row's ``v^H m v``, ``m = sense * rho``
    (+1 to maximize, -1 to minimize).  The objective depends on one ``v_m``
    only through ``Re(conj(v_m) w)`` with the field sum ``w = sum_{j != m}
    2 rho_mj v_j`` (one matrix-vector product for all rows), so each update
    is the closed form ``v_m = sense * w / |w|``: kept where ``w == 0``,
    divided part by part so a subnormal ``|w|`` cannot overflow.  A row
    stops once a sweep raises its value by no more than ``_REFINE_STOP``.
    All three arrays change in place, ``going`` cleared where a row stops,
    so each extremum's views in :func:`_scan_extrema` see every step; it
    holds the sweep schedule and the ``_MAX_SWEEPS`` cap.
    """
    coef = 2.0 * (entries - np.diag(entries.diagonal()))
    updates = list(enumerate(coef))[1:]
    rows = np.flatnonzero(going)
    moving, sign = fields.take(rows, 1), sense[rows]
    real, imag = moving.real, moving.imag
    for _ in range(sweeps):
        for m, row in updates:
            w = np.dot(row, moving)
            size = np.abs(w) * sign
            if np.count_nonzero(size) == size.size:
                np.divide(w.real, size, out=real[m])
                np.divide(w.imag, size, out=imag[m])
            else:
                np.divide(w.real, size, out=real[m], where=(live := size != 0.0))
                np.divide(w.imag, size, out=imag[m], where=live)
        current = sign * _multipliers(entries, moving).sum(0)
        still = current - values[rows] > _REFINE_STOP
        values[rows] = current
        if not still.all():
            fields[:, rows], going[rows[~still]] = moving, False
            rows, moving, sign = rows[still], moving.compress(still, 1), sign[still]
            real, imag = moving.real, moving.imag
            if not rows.size:
                break
    fields[:, rows] = moving


def _multipliers(m, fields):
    """``Re(conj(v_i) (m v)_i)`` per entry of each field ``v``; they sum to ``v^H m v``."""
    return (fields.conj() * (m @ fields)).real


def _dual_bound(m, field) -> float:
    """A bound on ``x^H m x`` over every unit-modulus ``x``.

    Weak duality for the SDP relaxation: for every real ``y``,
    ``x^H m x = x^H (m - diag y) x + sum y``, which is at most
    ``sum y + N lambda_max(m - diag y)``.  The multipliers
    ``y_i = Re(conj(v_i) (m v)_i)`` of ``field`` make the bound meet the
    value at an extremum the relaxation leaves exact.  The allowance,
    ``N eps sum |y|`` plus ``N^2 eps`` times the spectral radius, covers
    the rounding of the sum and of ``eigvalsh``.
    """
    y = _multipliers(m, field)
    spectrum = np.linalg.eigvalsh(m - np.diag(y))
    n = len(y)
    allowance = n * _EPS * (np.abs(y).sum() + n * np.abs(spectrum).max())
    return float(y.sum() + n * max(spectrum[-1], 0.0) + allowance)


def _torus_derivatives(m, fields):
    """Values, gradients and Hessians of ``v^H m v`` over the free phases.

    One entry per column of ``fields``.  With phi[0] fixed, the gradient is
    ``-2 Im(conj(v) (m v))`` and the Hessian ``2 Re(conj(v_k) m_kl v_l)``
    off the diagonal, with rows that sum to zero.
    """
    columns = fields.T
    products = columns.conj()[:, :, None] * m * columns[:, None, :]
    gradients = -2.0 * products.imag[:, 1:].sum(2)
    hessians = 2.0 * products.real[:, 1:, 1:]
    free = np.arange(m.shape[0] - 1)
    hessians[:, free, free] -= 2.0 * products.real[:, 1:].sum(2)
    return products.real.sum((1, 2)), gradients, hessians


def _polish(m, fields, values, row, noise):
    """Safeguarded Newton ascent of ``v^H m v`` on the torus, in place on one row.

    Newton's method on a manifold (Absil, Mahony & Sepulchre, 2008, ch. 6),
    with the derivatives of :func:`_torus_derivatives`.  A step is the
    minimum-norm Newton step over the Hessian's eigen-directions of negative
    curvature, so a manifold of extrema (closed polygons of a family state
    at N >= 4) is no obstacle; with no such direction the step is the
    identity, which the next pass rejects.  A step goes on while it raises
    the value, or keeps it within ``noise`` and shrinks the gradient: near
    an extremum the value no longer resolves the distance to it, but the
    duality bound does.  The polish ends once the gradient is down to
    ``noise`` too.  Each step taken goes to ``fields[:, row]`` and
    ``values[row]``, as :func:`_settle` moves its rows, so the row ends at
    the last step, whose multipliers give the bound.  Returns the largest
    gradient component there: at most ``noise`` when the polish converged.
    """
    value, slope, trial = -np.inf, np.inf, fields[:, row]
    for _ in range(_POLISH_STEPS):
        (trial_value,), (gradient,), (hessian,) = _torus_derivatives(m, trial[:, None])
        trial_slope = np.abs(gradient).max()
        if not (trial_value > value or (trial_value >= value - noise and trial_slope < slope)):
            break
        fields[:, row], values[row], value, slope = trial, trial_value, trial_value, trial_slope
        if slope <= noise:
            break
        curvature, axes = np.linalg.eigh(hessian)
        ascent = curvature < -_FLAT * np.abs(curvature).max()
        curvature, axes = curvature[ascent], axes[:, ascent]
        trial = fields[:, row].copy()
        trial[1:] *= np.exp(1j * (axes @ ((axes.T @ gradient) / curvature)))
    return slope


def _settle(m, fields, values, going):
    """Newton endgame, in place, on one open extremum's views of its rows.

    One pass of the module docstring's open-extremum rule on the rows
    ``going``, with ``values`` in units of ``v^H m v``.  A row whose Hessian
    is not definite goes back to the sweeps.  At a definite one, the Newton
    decrement ``delta = -g^T H^-1 g / 2`` is what a Newton step would gain
    on the quadratic model; a row stops, its ``going`` entry cleared, if
    even ``delta`` above its value trails the best of ``values``.  The other
    rows take the Newton step; a step that lowers the value is undone and
    sends its row back to the sweeps.  Rows go in blocks of at most
    ``_KERNEL_BLOCK / N^2``, so the ``(rows, N, N)`` derivatives stay within
    a fixed size.
    """
    rows, best, block = np.flatnonzero(going), values.max(), _block_rows(m.size)
    for first in range(0, len(rows), block):
        examined = rows[first:first + block]
        value, gradient, hessian = _torus_derivatives(m, fields[:, examined])
        curvature = np.linalg.eigvalsh(hessian)
        definite = curvature[:, -1] < -_FLAT * np.abs(curvature).max(1)
        examined, value, gradient = examined[definite], value[definite], gradient[definite]
        newton = np.linalg.solve(hessian[definite], gradient[:, :, None])[:, :, 0]
        decrement = -0.5 * (gradient * newton).sum(1)
        done = value + decrement < best
        going[examined[done]] = False
        examined, value, newton = examined[~done], value[~done], newton[~done]
        trial = fields[:, examined] * np.vstack([np.ones(len(examined)), np.exp(1j * newton.T)])
        reached = _multipliers(m, trial).sum(0)
        raised = reached >= value
        fields[:, examined[raised]], values[examined[raised]] = trial[:, raised], reached[raised]


# Seeded start tables are cached only up to _KERNEL_BLOCK unit fields (16 bytes each, so
# 512 KiB a table), 8 tables at most: the cache never holds more than 4 MiB.
@functools.lru_cache(maxsize=8)
def _seeded_fields(seed: int, starts: int, n: int) -> np.ndarray:
    """The read-only ``(n, starts)`` unit fields of ``starts`` seeded random phase vectors, phi[0] = 0."""
    phases = np.zeros((n, starts))
    phases[1:] = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=(starts, n - 1)).T
    fields = np.exp(-1j * phases)
    fields.setflags(write=False)
    return fields


def _scan_extrema(rho: DensityMatrix, settings: ScanSettings):
    """Extremize the intensity over realizable phases (first phase gauged to 0).

    Returns ``(i_max, i_min, i_max_upper, i_min_lower)``: the extrema found
    and duality bounds on the true ones, by the rules in the module
    docstring.  :func:`_descend` runs each stage's sweeps, :func:`_polish`
    and :func:`_dual_bound` examine an extremum, and :func:`_settle` takes
    an open one's Newton pass.  A row reads
    ``base + Re(v^H (rho - diag rho) v)`` with ``base`` the populations'
    exact sum, so a field off unit modulus by rounding moves only pair terms.
    """
    n = int(rho.n)
    base = float(rho.populations.sum())
    if n == 2:
        # One free phase sweeps the one pair term through its whole range.
        swing = 2.0 * float(rho.pairs.modulus[0])
        return base + swing, base - swing, base + swing, base - swing
    # The intensity is v^H rho v with v = exp(-i phi): the top and bottom eigenvectors'
    # phases (math.atan2: the same bits on every SIMD path) start next to the extrema.
    vectors = np.linalg.eigh(rho.entries)[1][:, [-1, 0]].T
    count = settings.starts + 3
    own = np.zeros((3, n))
    angles = np.array([[math.atan2(z.imag, z.real) for z in vector] for vector in vectors.tolist()])
    own[1:] = angles[:, :1] - angles
    table = (_seeded_fields if settings.starts * n <= _KERNEL_BLOCK else _seeded_fields.__wrapped__)(
        settings.seed, settings.starts, n)
    sense = np.repeat([1.0, -1.0], count)
    fields = np.empty((n, 2 * count), complex)
    fields[:, :3] = fields[:, count:count + 3] = np.exp(-1j * own).T
    fields[:, 3:count] = fields[:, count + 3:] = table
    values = sense * _multipliers(rho.entries, fields).sum(0)
    swept, going = 0, np.ones(values.shape, bool)
    # Per extremum, m and views of its rows, which every step updates in place; in units
    # of v^H m v, the best row value examined so far, the least bound, and whether it is open.
    extrema = [(m, fields[:, half], values[half], going[half])
               for m, half in ((rho.entries, slice(count)), (-rho.entries, slice(count, None)))]
    tried, bounds, opened = [-np.inf] * 2, [np.inf] * 2, [False] * 2
    noise = n * _EPS * np.abs(rho.entries).sum()  # rounding of v^H rho v
    while going.any() and swept < _MAX_SWEEPS:
        # Stages of 4, 4, 8 and 16 sweeps, then of _STAGE_CAP up to _MAX_SWEEPS.
        stage = min(max(swept, 4), _STAGE_CAP, _MAX_SWEEPS - swept)
        _descend(rho.entries, fields, values, sense, going, stage)
        swept += stage
        for k, (m, own_fields, own_values, own_going) in enumerate(extrema):
            if opened[k]:
                _settle(m, own_fields, own_values, own_going)
            best = int(np.argmax(own_values))
            if own_values[best] <= tried[k] + _OPEN_GAP:
                continue
            slope = _polish(m, own_fields, own_values, best, noise)
            tried[k] = own_values[best]
            bounds[k] = min(bounds[k], _dual_bound(m, own_fields[:, best]))
            opened[k] = slope <= noise and bounds[k] - tried[k] > _CERTIFIED_GAP
            if bounds[k] - tried[k] <= _CERTIFIED_GAP:
                own_going[:] = False
    reached = base + _multipliers(rho.entries - np.diag(rho.entries.diagonal()), fields).sum(0)
    return float(reached[:count].max()), float(reached[count:].min()), bounds[0], -bounds[1]


def visibility(rho, scan: ScanSettings | None = None) -> VisibilityResult:
    """Both visibility readings for a state; see the module docstring.

    A state with no off-diagonal coherence gives zero for both, which is a
    valid answer, not an error.
    """
    rho = as_density(rho)
    settings = scan if scan is not None else ScanSettings()
    check_budget(settings.starts + 3, int(rho.n), f"{settings.starts} + 3 scan starts")
    formula_v = 2.0 * float(rho.pairs.modulus.sum()) / float(rho.populations.sum())

    p_ij, _, consensus = _pair_readings(rho)
    sum_g = np.nansum(p_ij)
    bound = None if consensus is None else math.comb(int(rho.n), 2) * consensus

    i_max, i_min, i_max_upper, i_min_lower = _scan_extrema(rho, settings)
    i_min, i_min_lower = max(i_min, 0.0), max(i_min_lower, 0.0)
    total = i_max + i_min
    scan_v = (i_max - i_min) / total if total > 0 else 0.0
    return VisibilityResult(
        float(formula_v), float(scan_v), float(i_max), float(i_min), float(sum_g), bound, i_max_upper, i_min_lower,
        i_max_upper - i_max <= _CERTIFIED_GAP, i_min - i_min_lower <= _CERTIFIED_GAP,
    )


def born_residual(rho, phases) -> float:
    """Pairwise-decomposition residual of the intensity at one phase vector.

    ``I_full - sum_pairs I_pair + (N - 2) * sum_singles``, where each pair
    intensity keeps only the two rows and columns involved (the other
    sources blocked, nothing renormalized) and a single-source intensity
    is just its population.  The intensity law is bilinear, so the
    combination vanishes identically; any nonzero value is roundoff.
    Raises :class:`DimensionError` for N < 3 or a wrong phase count, and
    :class:`DomainError` for phases whose differences overflow.
    """
    rho = as_density(rho)
    n = int(rho.n)
    if n < 3:
        raise DimensionError(f"born residual requires N >= 3 sources, got {n}")
    phi = _phase_values(rho, phases)

    pairs = rho.pairs
    pops = rho.populations
    singles = float(pops.sum())
    full = float(_intensity_given_phases(singles, pairs, phi)[0])
    pair_intensities = (pops[pairs.i] + pops[pairs.j]) + 2.0 * pairs.modulus * np.cos(
        phi[pairs.i] - phi[pairs.j] + pairs.arg
    )
    return full - float(pair_intensities.sum()) + (n - 2) * singles
