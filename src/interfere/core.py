"""Shared domain types and validation for single-photon multi-source states.

Conventions used throughout the package:

* Sources (field modes) are indexed ``0 .. N-1`` in the library API, the
  usual numpy convention.  Reports emitted by the command line tool label
  them ``1 .. N``, which is how sources are numbered on a bench diagram;
  that conversion happens only at the serialization boundary.
* Complex numbers are double precision everywhere.  Probability amplitudes
  are stored exactly as given, with no global-phase canonicalization:
  every observable computed here depends only on ``|rho_ij|`` or on
  gauge-invariant ratios, so a global phase is unphysical bookkeeping.
* Structural tolerances (Hermiticity) default to 1e-12, statistical ones
  (normalization, trace, positivity) to 1e-9.  Double-precision arithmetic
  on the matrix sizes this package targets stays far below either.

All types are frozen and carry read-only arrays, so instances can be
shared freely between concurrent tasks.
"""

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-9
PSD_TOL = 1e-9
NORMALIZATION_TOL = 1e-9

# A source at or below this population "never fires": ratios against it are
# undefined, not zero.  A source pair is live when both sources clear it.
PAIR_FLOOR = 1e-15


class InterfereError(Exception):
    """Base class for every domain error raised by this package."""


class DimensionError(InterfereError, ValueError):
    """Input has the wrong shape, size, or too few modes."""


class NormalizationError(InterfereError, ValueError):
    """Amplitudes do not square-sum to one within tolerance."""


class InvalidDensityMatrixError(InterfereError, ValueError):
    """Matrix fails Hermiticity, unit trace, or positivity."""


class UndefinedPairError(InterfereError, ValueError):
    """A normalized quantity was requested for a source that never fires."""


class DomainError(InterfereError, ValueError):
    """A scalar argument lies outside its physical domain."""


def _is_integer(value) -> bool:
    """A Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_integer(name: str, value, least: int) -> int:
    """``value`` as an int; ``DomainError`` unless it is an integer of at least ``least``."""
    if not _is_integer(value):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise DomainError(f"{name} must be at least {least}, got {value}")
    return int(value)


def _check_index(index, count, what: str) -> int:
    """``index`` as an int; ``IndexError`` unless it is an integer in ``[0, count)``."""
    count = int(count)
    if not (_is_integer(index) and 0 <= index < count):
        raise IndexError(f"{what} index must be an integer in [0, {count}), got {index!r}")
    return int(index)


def _readonly(values, dtype) -> np.ndarray:
    """``values`` read-only: itself if it already is, owns its data and has ``dtype`` (None: any), else a copy."""
    frozen = type(values) is np.ndarray and values.base is None and not values.flags.writeable
    if frozen and dtype in (None, values.dtype):
        return values
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ModeCount:
    """Number of sources the photon can originate from.  At least two."""

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)):
            raise DimensionError(f"mode count must be an integer, got {self.n!r}")
        if self.n < 2:
            raise DimensionError(f"need at least 2 sources, got {self.n}")
        object.__setattr__(self, "n", int(self.n))

    def __int__(self) -> int:
        return self.n

    def __index__(self) -> int:
        return self.n


@dataclass(frozen=True, eq=False)
class Amplitudes:
    """Complex emission amplitudes of the single photon over the N sources.

    ``values[i]`` is the amplitude for the photon to be produced by source
    ``i``; the squared moduli are emission probabilities and must sum to
    one within ``NORMALIZATION_TOL``.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=complex)
        if vals.ndim != 1:
            raise DimensionError(f"amplitudes must be a 1-D vector, got shape {vals.shape}")
        ModeCount(vals.shape[0])
        if not np.all(np.isfinite(vals.view(float))):
            raise NormalizationError("amplitudes contain non-finite entries")
        with np.errstate(over="ignore"):  # an overflow is inf, which fails the check
            total = float(np.sum(np.abs(vals) ** 2))
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise NormalizationError(
                f"amplitudes square-sum to {total!r}, expected 1 within {NORMALIZATION_TOL}"
            )
        object.__setattr__(self, "values", _readonly(vals, complex))

    @classmethod
    def normalized(cls, values) -> "Amplitudes":
        """Build amplitudes from an unnormalized vector by exact rescaling."""
        vals = np.asarray(values, dtype=complex)
        with np.errstate(over="ignore"):  # a finite vector's squares can overflow to inf
            norm = float(np.linalg.norm(vals))
        if norm == math.inf and np.isfinite(vals).all():
            # Scaled by its largest part first, the norm overflows only beyond float range.
            scale = float(np.abs(np.stack([vals.real, vals.imag])).max())
            vals = vals / scale
            norm = float(np.linalg.norm(vals))
            if scale * norm == math.inf:  # Python arithmetic: an overflow is inf, not a warning
                raise NormalizationError("cannot normalize a vector whose norm overflows")
        if norm == 0.0 or not np.isfinite(norm):
            raise NormalizationError("cannot normalize a zero or non-finite vector")
        return cls(vals / norm)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def probabilities(self) -> np.ndarray:
        """Per-source emission probabilities ``|values|**2``."""
        return np.abs(self.values) ** 2

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.values, dtype=dtype)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the three density-matrix checks with measured deviations."""

    hermitian: bool
    trace_dev: float
    min_eig: float
    ok: bool


def validate_density(rho, tol: float | None = None) -> ValidationReport:
    """Check Hermiticity, unit trace, and positive semidefiniteness.

    ``rho`` may be a :class:`DensityMatrix` or any square complex
    array-like.  With ``tol=None`` each check uses its own default
    (``HERMITIAN_TOL``, ``TRACE_TOL``, ``PSD_TOL``); passing a single
    ``tol`` applies it to all three.  ``min_eig`` is the smallest
    eigenvalue of the Hermitian part of the input, which coincides with
    the spectrum whenever the Hermiticity check passes; that part is
    summed from halves, so it never overflows.  A check that overflows
    fails.
    """
    entries = np.asarray(rho, dtype=complex)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise DimensionError(f"density matrix must be square, got shape {entries.shape}")
    ModeCount(entries.shape[0])
    if tol is not None:
        if not (np.isfinite(tol) and tol > 0):
            raise DomainError(f"tolerance must be a positive real, got {tol!r}")
        hermitian_tol = trace_tol = psd_tol = float(tol)
    else:
        hermitian_tol, trace_tol, psd_tol = HERMITIAN_TOL, TRACE_TOL, PSD_TOL

    if not np.all(np.isfinite(entries.view(float))):
        return ValidationReport(False, float("nan"), float("nan"), False)

    with np.errstate(over="ignore", invalid="ignore"):  # finite entries can sum to inf or nan
        hermitian = bool(np.max(np.abs(entries - entries.conj().T)) <= hermitian_tol)
        trace_dev = float(abs(np.trace(entries) - 1.0))
    part = entries / 2.0 + entries.conj().T / 2.0  # halves of finite parts: their sum is finite
    min_eig = float(np.linalg.eigvalsh(part)[0])
    ok = hermitian and trace_dev <= trace_tol and min_eig >= -psd_tol
    return ValidationReport(hermitian, trace_dev, min_eig, ok)


@dataclass(frozen=True, eq=False)
class PairTable:
    """The C(N, 2) source pairs ``i < j`` of a state, i ascending then j.

    Every pairwise readout reads this one table, so all agree on the pair
    order and on which pairs are live.  ``modulus`` and ``arg`` are
    ``|rho_ij|`` and ``arg rho_ij``; ``live`` flags the sources whose
    population exceeds ``PAIR_FLOOR`` and ``live_pair`` the pairs of two
    live sources, the only pairs with a normalized coherence.
    """

    i: np.ndarray
    j: np.ndarray
    modulus: np.ndarray
    arg: np.ndarray
    live: np.ndarray
    live_pair: np.ndarray


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """N x N single-photon-sector state, validated on construction.

    ``entries[i, j]`` is the coefficient of ``||i><j||`` in the source
    basis.  Construction rejects anything that is not Hermitian, unit
    trace, and positive semidefinite within the default tolerances.
    """

    entries: np.ndarray
    n: ModeCount = field(init=False, repr=False)

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=complex)
        report = validate_density(arr)
        if not report.ok:
            raise InvalidDensityMatrixError(
                "not a valid density matrix: "
                f"hermitian={report.hermitian}, trace_dev={report.trace_dev:.3e}, "
                f"min_eig={report.min_eig:.3e}"
            )
        object.__setattr__(self, "entries", _readonly(arr, complex))
        object.__setattr__(self, "n", ModeCount(arr.shape[0]))

    @property
    def populations(self) -> np.ndarray:
        """Real diagonal: probability of the photon coming from each source."""
        return self.entries.diagonal().real

    @cached_property
    def pairs(self) -> PairTable:
        """The state's :class:`PairTable`, built on first use and kept."""
        i, j = np.triu_indices(int(self.n), 1)
        z = self.entries[i, j]
        live = self.populations > PAIR_FLOOR
        # hypot and math.atan2 equal the scalar abs and atan2 of each entry
        # to the last bit; array np.abs and np.arctan2 do not.
        modulus = np.hypot(z.real, z.imag)
        arg = [math.atan2(v.imag, v.real) for v in z.tolist()]
        return PairTable(*(_readonly(c, None) for c in (i, j, modulus, arg, live, live[i] & live[j])))

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.entries, dtype=dtype)


def as_density(rho) -> DensityMatrix:
    """Coerce an array-like to a validated :class:`DensityMatrix`."""
    return rho if isinstance(rho, DensityMatrix) else DensityMatrix(rho)


@dataclass(frozen=True)
class EmissionModel:
    """Amplitudes plus the weight ``p_id`` of the coherent part of the state.

    ``p_id`` is the probability that no which-path record exists anywhere;
    the complementary weight ``1 - p_id`` is implied and never stored.
    """

    amplitudes: Amplitudes
    p_id: float

    def __post_init__(self) -> None:
        p = self.p_id
        if not (np.isfinite(p) and 0.0 <= p <= 1.0):
            raise DomainError(f"p_id must lie in [0, 1], got {p!r}")
        object.__setattr__(self, "p_id", float(p))


@dataclass(frozen=True, eq=False)
class PhaseConfig:
    """Propagation phases (radians) from each source to one detection point."""

    phases: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.phases, dtype=float)
        if arr.ndim != 1:
            raise DimensionError(f"phases must be a 1-D vector, got shape {arr.shape}")
        ModeCount(arr.shape[0])
        if not np.all(np.isfinite(arr)):
            raise DomainError("phases contain non-finite entries")
        object.__setattr__(self, "phases", _readonly(arr, float))

    @property
    def n(self) -> int:
        return self.phases.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.phases, dtype=dtype)


def as_phases(phi) -> PhaseConfig:
    """Coerce an array-like to a :class:`PhaseConfig`."""
    return phi if isinstance(phi, PhaseConfig) else PhaseConfig(phi)


@dataclass(frozen=True)
class FieldScale:
    """Complex scale of the single-mode field.  Only ``|k|**2`` is observable."""

    k: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        k = complex(self.k)
        if not 0.0 < abs(k) * abs(k) < math.inf:
            raise DomainError(f"field scale must have |k|**2 positive and finite, got {self.k!r}")
        object.__setattr__(self, "k", k)

    @property
    def intensity_scale(self) -> float:
        return abs(self.k) ** 2

    def scaled(self, value):
        """``|k|**2 * value`` for a Python float or complex; ``DomainError`` when that is not finite."""
        product = self.intensity_scale * value  # Python arithmetic: an overflow is inf, not a warning
        if not cmath.isfinite(product):
            raise DomainError(f"|k|**2 = {self.intensity_scale!r} times {value!r} overflows")
        return product


def as_scale(k) -> FieldScale:
    """Coerce a number to a :class:`FieldScale`; ``None`` means unit scale."""
    if k is None:
        return FieldScale()
    return k if isinstance(k, FieldScale) else FieldScale(k)
