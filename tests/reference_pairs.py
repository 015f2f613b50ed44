"""Per-pair reference loops for the pair-table readouts.

These are the straightforward double loops over source pairs that the
library's pair table replaces.  ``tests/test_pair_table.py`` checks the
library against them: bit for bit where the arithmetic is the same, and
within a stated tolerance where only the summation order differs.
"""

import math

import numpy as np

FLOOR = 1e-15  # the library's PAIR_FLOOR


def pair_terms(entries: np.ndarray):
    """Ordered cosine terms of the intensity: (i, j, 2|rho_ij|, arg rho_ij)."""
    n = entries.shape[0]
    terms = []
    for i in range(n):
        for j in range(i + 1, n):
            mag = abs(entries[i, j])
            if mag > 0.0:
                terms.append((i, j, 2.0 * mag, math.atan2(entries[i, j].imag, entries[i, j].real)))
    return terms


def intensity_given_phases(base: float, terms, phases: np.ndarray):
    """Accumulate the intensity term by term, for one vector or an (M, N) batch."""
    phases = np.asarray(phases, dtype=float)
    batched = phases.ndim == 2
    total = np.full(phases.shape[0], base) if batched else base
    for i, j, amp, ang in terms:
        if batched:
            total = total + amp * np.cos(phases[:, i] - phases[:, j] + ang)
        else:
            total = total + amp * np.cos(phases[i] - phases[j] + ang)
    return total


def intensity(entries: np.ndarray, phases) -> float:
    base = float(entries.diagonal().real.sum())
    return float(1.0 * intensity_given_phases(base, pair_terms(entries), phases))


def pattern_values(entries: np.ndarray, geometry, x_min: float, x_max: float, samples: int) -> np.ndarray:
    positions = np.linspace(float(x_min), float(x_max), int(samples))
    phase_rows = (
        2.0 * np.pi / geometry.wavelength
        * np.hypot(geometry.screen_distance, positions[:, None] - geometry.source_positions[None, :])
    )
    base = float(entries.diagonal().real.sum())
    return intensity_given_phases(base, pair_terms(entries), phase_rows)


def pid_pairs(entries: np.ndarray):
    """(i, j, p_ij, defined) per pair, defined when the population product
    exceeds the floor."""
    pops = entries.diagonal().real
    n = entries.shape[0]
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            product = pops[i] * pops[j]
            if product > FLOOR:
                pairs.append((i, j, float(abs(entries[i, j]) / np.sqrt(product)), True))
            else:
                pairs.append((i, j, float("nan"), False))
    return pairs


def formula_v_and_sum_g(entries: np.ndarray):
    """Closed-form visibility and the sum of |g1| over pairs of live sources."""
    pops = entries.diagonal().real
    n = entries.shape[0]
    off_sum = 0.0
    sum_g = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            off_sum += abs(entries[i, j])
            if pops[i] > FLOOR and pops[j] > FLOOR:
                sum_g += abs(complex(entries[j, i] / np.sqrt(float(pops[i]) * float(pops[j]))))
    return 2.0 * off_sum / float(pops.sum()), sum_g


def born_residual(entries: np.ndarray, phases: np.ndarray) -> float:
    """``I_full - sum_pairs I_pair + (N - 2) * sum_singles`` over 2x2 submatrices."""
    n = entries.shape[0]
    full = float(intensity_given_phases(float(entries.diagonal().real.sum()), pair_terms(entries), phases))
    pair_sum = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            sub = entries[np.ix_((i, j), (i, j))]
            pair_sum += float(
                intensity_given_phases(float(sub.diagonal().real.sum()), pair_terms(sub), phases[[i, j]])
            )
    singles = float(entries.diagonal().real.sum())
    return full - pair_sum + (n - 2) * singles
