"""Decomposition of a single-photon state into coherent and incoherent parts.

A photon emitted by one of N sources with amplitudes ``alpha`` is described
by two extreme density matrices: the pure superposition (no which-path
record exists, full interference) and the diagonal mixture of the same
populations (the path is knowable in principle, no interference).  Any
state in the one-parameter family between them is their convex combination
with weight ``p_id`` on the pure part.

Going the other way, the weight can be read off from any single pair of
sources as ``|rho_ij| / sqrt(rho_ii * rho_jj)``.  For a family state all
C(N, 2) pairwise readings agree; :func:`estimate_pid` computes every one
of them and reports whether they do, rather than silently averaging a
matrix the family does not describe.
"""

from dataclasses import dataclass

import numpy as np

from .core import (
    Amplitudes,
    DensityMatrix,
    DomainError,
    EmissionModel,
    as_density,
)


def rho_indistinguishable(amplitudes: Amplitudes) -> DensityMatrix:
    """Density matrix of the pure superposition: the outer product of the
    amplitude vector with itself.  Rank one, unit trace."""
    return mix(EmissionModel(amplitudes, 1.0))


def rho_distinguishable(amplitudes: Amplitudes) -> DensityMatrix:
    """Density matrix of the fully which-path-marked photon: the diagonal
    mixture carrying the same emission probabilities and no coherence."""
    return mix(EmissionModel(amplitudes, 0.0))


def mix(model: EmissionModel) -> DensityMatrix:
    """Convex combination of the two extremes with weight ``model.p_id`` on
    the coherent part.

    Diagonal entries are the emission probabilities, exactly
    ``p_id |alpha_i|**2 + (1 - p_id) |alpha_i|**2`` with no imaginary part;
    off-diagonals are ``p_id * alpha_i * conj(alpha_j)``.  Every entry is
    built from real products of the parts of ``alpha``, which no SIMD path
    fuses, so its bits do not depend on the CPU.
    """
    a = model.amplitudes.values
    p = model.p_id
    cross = np.outer(a.imag, a.real)
    real = np.outer(a.real, a.real) + np.outer(a.imag, a.imag)
    coherent = real + 1j * (cross - cross.T)
    incoherent = np.diag(real.diagonal())
    return DensityMatrix(p * coherent + (1.0 - p) * incoherent)


@dataclass(frozen=True)
class PairEstimate:
    """One pairwise reading ``|rho_ij| / sqrt(rho_ii * rho_jj)``.

    ``p_ij`` is NaN when the pair is undefined (a source that never
    fires), never zero: zero would mean "incoherent", which is a
    different physical statement.
    """

    i: int
    j: int
    p_ij: float
    defined: bool


@dataclass(frozen=True)
class PidReport:
    """All C(N, 2) pairwise indistinguishability readings plus a verdict.

    ``consistent`` is true when every defined reading agrees within the
    consistency tolerance; only then is ``consensus`` (their arithmetic
    mean) present.  ``degenerate`` flags the corner case where no pair has
    two firing sources, e.g. a basis-state projector.
    """

    pairs: tuple[PairEstimate, ...]
    consensus: float | None
    spread: float
    consistent: bool
    degenerate: bool


def _pair_readings(rho: DensityMatrix, consistency_tol: float = 1e-9):
    """``(p_ij, spread, consensus)`` of :func:`estimate_pid`, ``p_ij`` an array in pair order."""
    table, pops = rho.pairs, rho.populations
    live = table.live_pair
    p_ij = np.full(live.shape, float("nan"))
    p_ij[live] = np.minimum(table.modulus[live] / np.sqrt(pops[table.i[live]] * pops[table.j[live]]), 1.0)
    defined_values = p_ij[live]
    spread = float(np.ptp(defined_values)) if live.any() else float("nan")
    consensus = float(np.mean(defined_values)) if spread <= consistency_tol else None  # not for the NaN spread
    return p_ij, spread, consensus


def estimate_pid(rho, consistency_tol: float = 1e-9) -> PidReport:
    """Read the coherent weight off every source pair of ``rho``.

    A pair is defined exactly when ``g1`` is: both populations exceed
    ``PAIR_FLOOR``.  Undefined pairs are reported with ``defined=False``
    and excluded from the spread and the consensus; the ratio is never
    formed for them.  A defined reading is clamped at 1: a state accepted
    up to ``PSD_TOL`` can put the raw ratio above 1 when a population is
    tiny, and no population floor bounds it.
    """
    if not (np.isfinite(consistency_tol) and consistency_tol > 0):
        raise DomainError(f"consistency tolerance must be positive, got {consistency_tol!r}")
    rho = as_density(rho)
    table = rho.pairs
    p_ij, spread, consensus = _pair_readings(rho, consistency_tol)
    pairs = map(PairEstimate, table.i.tolist(), table.j.tolist(), p_ij.tolist(), table.live_pair.tolist())
    return PidReport(tuple(pairs), consensus, spread, consensus is not None, not table.live_pair.any())
