"""Explicit truncated Fock space: ground truth by brute-force matrix traces.

Every quantity elsewhere in this package has a closed form in the density
matrix entries.  This module provides the independent route: write the
state space out explicitly (the vacuum plus the N states ``||m>`` with the
photon in mode m, dimension N + 1), represent the mode operators as dense
matrices, and evaluate correlation traces by literal matrix products.

Truncating at one total photon is not an approximation here, it is the
model: only a single detection event is ever considered.  With at most one
excitation, two annihilations in a row give the zero matrix, so every
higher-order correlation vanishes from the operator algebra itself rather
than from a numerical cutoff.

Dense matrices throughout, by design.  Simplicity beats speed in a
cross-check.  One shortcut is exact: ``a_m = |vac><m|`` is zero outside
its vacuum-row entry, so the detection field ``E+ = k sum_m exp(i phi_m) a_m``
is written as that one row, entry for entry the same matrix as the summed
ladder operators, and the trace still takes the literal dense products.
"""

import cmath
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .core import (
    DimensionError,
    DomainError,
    ModeCount,
    PhaseConfig,
    _check_index,
    _readonly,
    as_density,
    as_phases,
    as_scale,
)


@dataclass(frozen=True)
class FockSpace:
    """Basis ``|vac>, ||1>, ..., ||N>``; basis index m holds mode m - 1."""

    n_modes: ModeCount

    def __post_init__(self) -> None:
        if not isinstance(self.n_modes, ModeCount):
            object.__setattr__(self, "n_modes", ModeCount(self.n_modes))

    @property
    def dimension(self) -> int:
        return int(self.n_modes) + 1


@dataclass(frozen=True, eq=False)
class ModeOperator:
    """Dense matrix of a mode ladder operator on a :class:`FockSpace`."""

    matrix: np.ndarray
    mode: int
    kind: Literal["annihilation", "creation"]
    space: FockSpace = field(repr=False)

    def dagger(self) -> "ModeOperator":
        other = "creation" if self.kind == "annihilation" else "annihilation"
        return ModeOperator(self.matrix.conj().T, self.mode, other, self.space)


def annihilation(space: FockSpace, mode: int) -> ModeOperator:
    """``a_mode``: sends ``||mode>`` to the vacuum, kills everything else."""
    mode = _check_index(mode, space.n_modes, "mode")
    mat = np.zeros((space.dimension, space.dimension), dtype=complex)
    mat[0, mode + 1] = 1.0
    return ModeOperator(_readonly(mat, complex), mode, "annihilation", space)


def creation(space: FockSpace, mode: int) -> ModeOperator:
    """``a_mode^dagger``: conjugate transpose of :func:`annihilation`."""
    return annihilation(space, mode).dagger()


def embed(rho) -> np.ndarray:
    """Lift an N x N single-photon state to the (N+1) x (N+1) full space.

    The vacuum row and column are zero; the trace is preserved.
    """
    rho = as_density(rho)
    n = int(rho.n)
    full = np.zeros((n + 1, n + 1), dtype=complex)
    full[1:, 1:] = rho.entries
    return full


def trace_correlation(rho_full: np.ndarray, operators) -> complex:
    """``Tr(op_1 @ op_2 @ ... @ rho_full)`` with the product taken in the
    given order.  Operators may be :class:`ModeOperator` or raw matrices."""
    rho_full = np.asarray(rho_full, dtype=complex)
    if rho_full.ndim != 2 or rho_full.shape[0] != rho_full.shape[1]:
        raise DimensionError(f"full-space state must be square, got shape {rho_full.shape}")
    mats = [op.matrix if isinstance(op, ModeOperator) else np.asarray(op, dtype=complex) for op in operators]
    if not mats:
        raise DimensionError("need at least one operator")
    for mat in mats:
        if mat.shape != rho_full.shape:
            raise DimensionError(
                f"operator shape {mat.shape} does not match state shape {rho_full.shape}"
            )
    product = mats[0]
    for mat in mats[1:]:
        product = product @ mat
    return complex(np.trace(product @ rho_full))


def field_operator(space: FockSpace, phases: PhaseConfig, k=None) -> np.ndarray:
    """Positive-frequency detection field ``k * sum_m a_m exp(i phi_m)``.

    Every ``a_m`` holds a single 1 at ``[0, m + 1]``, so the sum is the zero
    matrix with ``exp(i phi_m)`` along its vacuum row: the same operator,
    bit for bit, built without N ladder matrices.
    """
    phases = as_phases(phases)
    if phases.n != int(space.n_modes):
        raise DimensionError(
            f"{phases.n} phases for {int(space.n_modes)} modes"
        )
    scale = as_scale(k)
    out = np.zeros((space.dimension, space.dimension), dtype=complex)
    out[0, 1:] = np.exp(1j * phases.phases)
    return scale.k * out


def oracle_intensity(rho, phases, k=None) -> float:
    """Detection probability at one point by explicit trace.

    Builds the field operator as a matrix and evaluates
    ``Tr(E_minus @ E_plus @ rho)`` on the embedded state, with no use of
    the closed-form intensity expression.  A field scale that makes the
    trace overflow raises ``DomainError``.
    """
    rho = as_density(rho)
    space = FockSpace(rho.n)
    e_plus = field_operator(space, phases, k)
    e_minus = e_plus.conj().T
    with np.errstate(over="ignore", invalid="ignore"):
        value = trace_correlation(embed(rho), [e_minus, e_plus])
    if not cmath.isfinite(value):
        raise DomainError(f"field scale {k!r} overflows the oracle's trace")
    return float(value.real)
