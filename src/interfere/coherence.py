"""Two-point coherence of the detected field, and the higher orders that vanish.

``g1(rho, i, j)`` is the normalized correlation between the fields radiated
by sources i and j; its modulus is what an interferometer can reveal about
the pair.  For any state in the one-parameter emission family the modulus
equals the coherent weight ``p_id`` for every pair at once, which is the
bridge between "how coherent" and "how little which-path information".

``g2`` and ``g3`` are the normally ordered four- and six-point functions.
With exactly one photon in play they are identically zero; they are
evaluated here through the explicit operator representation in
:mod:`interfere.oracle` so that the zero is derived, not declared.

Normalization note: ``g2``/``g3`` divide by the square root of the product
of the diagonal two-point functions.  That is not the textbook intensity
normalization, but the numerator vanishes identically, so the distinction
is unobservable; the square-root form is kept deliberately.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DensityMatrix,
    UndefinedPairError,
    _check_index,
    _readonly,
    as_density,
    as_scale,
)
from .oracle import FockSpace, annihilation, creation, embed, trace_correlation


def _population(rho: DensityMatrix, idx: int) -> float:
    pop = float(rho.entries[idx, idx].real)
    if not rho.pairs.live[idx]:
        raise UndefinedPairError(
            f"source {idx} has population {pop!r}; normalized coherence is undefined"
        )
    return pop


def big_g1(rho, i: int, j: int, k=None) -> complex:
    """Unnormalized two-point correlation ``Tr(rho E_minus(i) E_plus(j))``.

    Closed form: ``|k|**2 * rho[j, i]``.  The field's complex scale enters
    only through its modulus; a product that overflows raises
    ``DomainError``.
    """
    rho = as_density(rho)
    i, j = (_check_index(idx, rho.n, "source") for idx in (i, j))
    return as_scale(k).scaled(complex(rho.entries[j, i]))


def g1(rho, i: int, j: int) -> complex:
    """Degree of coherence ``rho[j, i] / sqrt(rho[i, i] * rho[j, j])``.

    The field scale cancels in the normalization.  Raises
    :class:`UndefinedPairError` when either source never fires.
    """
    rho = as_density(rho)
    i, j = (_check_index(idx, rho.n, "source") for idx in (i, j))
    denom = np.sqrt(_population(rho, i) * _population(rho, j))
    return complex(rho.entries[j, i] / denom)


@dataclass(frozen=True, eq=False)
class CoherenceMatrix:
    """All pairwise degrees of coherence, with undefined entries flagged.

    ``entries[i, j]`` is ``g1(rho, i, j)`` where defined and NaN otherwise;
    ``defined`` is the companion boolean mask.  Undefined is distinct from
    zero: zero coherence is a physical statement, a dead source is not.
    """

    entries: np.ndarray
    defined: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", _readonly(self.entries, complex))
        object.__setattr__(self, "defined", _readonly(self.defined, bool))


def coherence_matrix(rho) -> CoherenceMatrix:
    """Evaluate ``g1`` for every ordered source pair at once."""
    rho = as_density(rho)
    alive = rho.pairs.live
    defined = np.outer(alive, alive)
    pops = np.where(alive, rho.populations, 1.0)  # dead rows are masked below
    ratios = rho.entries.T / np.sqrt(np.outer(pops, pops))
    return CoherenceMatrix(np.where(defined, ratios, complex(float("nan"), float("nan"))), defined)


def _normal_ordered(rho, modes) -> complex:
    """``Tr(rho a+_m1 .. a+_mk a_mk .. a_m1)`` by explicit operator products
    in the truncated space, over the square root of the product of the
    populations of ``modes``."""
    rho = as_density(rho)
    modes = [_check_index(m, rho.n, "source") for m in modes]
    denom = np.sqrt(math.prod(_population(rho, m) for m in modes))
    space = FockSpace(rho.n)
    ladder = [creation(space, m) for m in modes] + [annihilation(space, m) for m in reversed(modes)]
    return complex(trace_correlation(embed(rho), ladder) / denom)


def g2(rho, i: int, j: int) -> complex:
    """Normalized four-point function for the pair (i, j).

    The numerator ``Tr(rho a_i+ a_j+ a_j a_i)`` is evaluated by explicit
    operator products in the truncated space; two annihilations on a
    one-photon state give the zero matrix, so the result is exactly zero
    for every valid state.
    """
    return _normal_ordered(rho, (i, j))


def g3(rho, i: int, j: int, l: int) -> complex:
    """Normalized six-point function for the triple (i, j, l).  Exactly zero
    for a one-photon state, by the same operator algebra as :func:`g2`."""
    return _normal_ordered(rho, (i, j, l))
