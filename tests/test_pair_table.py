"""The pair table and every readout served from it, against per-pair loops.

``reference_pairs`` holds the plain double loops over source pairs.  Where
the table performs the same arithmetic in the same order the results must
match bit for bit; ``formula_v``, ``sum_g`` and the Born residual sum their
pairs in a different order, so they are held to ``1e-14 * C(N, 2)``.
"""

import math

import numpy as np
import pytest

import interfere.interference as interference
import reference_pairs as ref
from interfere import (
    DensityMatrix,
    DetectionGeometry,
    UndefinedPairError,
    born_residual,
    coherence_matrix,
    estimate_pid,
    g1,
    intensity,
    pattern,
    visibility,
)

from helpers import random_density

STATES_PER_N = 7  # 7 x 31 values of N = 217 general states
PHASE_VECTORS = 3
PATTERN_SAMPLES = 201


def _geometry(rng, n):
    return DetectionGeometry(np.sort(rng.uniform(-2e-5, 2e-5, n)), rng.uniform(0.5, 2.0), rng.uniform(4e-7, 7e-7))


@pytest.mark.parametrize("n", range(2, 33))
def test_readouts_match_per_pair_loops(n, monkeypatch):
    # Only the closed-form readouts of visibility are compared; a stub scan
    # keeps N = 32 fast.
    monkeypatch.setattr(interference, "_scan_extrema", lambda rho, settings: (1.0, 0.0, 1.0, 0.0))
    tol = 1e-14 * math.comb(n, 2)
    rng = np.random.default_rng(2008 + n)
    for _ in range(STATES_PER_N):
        rho = random_density(rng, n)
        entries = rho.entries
        table = rho.pairs
        terms = ref.pair_terms(entries)
        assert len(terms) == math.comb(n, 2)
        assert np.array_equal(2.0 * table.modulus, [t[2] for t in terms])
        assert np.array_equal(table.arg, [t[3] for t in terms])
        assert np.array_equal(table.i, [t[0] for t in terms])
        assert np.array_equal(table.j, [t[1] for t in terms])

        report = estimate_pid(rho)
        got = [(p.i, p.j, p.p_ij, p.defined) for p in report.pairs]
        assert got == ref.pid_pairs(entries)

        for phi in rng.uniform(0.0, 2.0 * np.pi, size=(PHASE_VECTORS, n)):
            assert intensity(rho, phi) == ref.intensity(entries, phi)
            if n >= 3:
                assert abs(born_residual(rho, phi) - ref.born_residual(entries, phi)) <= tol

        geometry = _geometry(rng, n)
        got = pattern(rho, geometry, -0.05, 0.05, PATTERN_SAMPLES).intensities
        assert np.array_equal(got, ref.pattern_values(entries, geometry, -0.05, 0.05, PATTERN_SAMPLES))

        result = visibility(rho)
        formula_v, sum_g = ref.formula_v_and_sum_g(entries)
        assert abs(result.formula_v - formula_v) <= tol
        assert abs(result.sum_g - sum_g) <= tol


# 70001 samples span several blocks at every pair count.  pattern streams
# blocks of 2^15 // (pairs + N) rows: 241 samples at N = 16 and 63 at N = 32 end
# in a one-row block (blocks of 240 and 62 rows); 274 and 67 end one row past
# the kernel's own blocks of 2^15 // pairs rows (273 and 66).
@pytest.mark.parametrize("n, samples", [(2, 70001), (4, 70001), (16, 274), (32, 67), (16, 241), (32, 63)])
def test_long_pattern_matches_per_pair_loop(n, samples):
    rng = np.random.default_rng(77 + n)
    rho = random_density(rng, n)
    geometry = _geometry(rng, n)
    got = pattern(rho, geometry, -0.05, 0.05, samples).intensities
    assert np.array_equal(got, ref.pattern_values(rho.entries, geometry, -0.05, 0.05, samples))


def test_table_is_built_once_and_read_only():
    rho = random_density(np.random.default_rng(3), 4)
    table = rho.pairs
    assert rho.pairs is table
    for column in (table.i, table.j, table.modulus, table.arg, table.live, table.live_pair):
        assert not column.flags.writeable


# Two live sources with a tiny product, sources at and just above the floor,
# and a dead source: the per-source rule and the old product rule disagree
# on the first two.
EDGE_STATES = [
    np.array([[1e-8, 0.5e-8, 0.0], [0.5e-8, 1e-8, 0.0], [0.0, 0.0, 1.0 - 2e-8]]),
    np.diag([2e-15, 0.5, 0.5 - 2e-15]),
    np.diag([1e-15, 0.5, 0.5 - 1e-15]),
    np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 0.0]]),
]


@pytest.mark.parametrize("entries", EDGE_STATES)
def test_pair_defined_exactly_when_g1_is(entries):
    rho = DensityMatrix(entries)
    matrix = coherence_matrix(rho)
    for pair in estimate_pid(rho).pairs:
        try:
            expected = abs(g1(rho, pair.i, pair.j))
        except UndefinedPairError:
            expected = None
        assert pair.defined == (expected is not None)
        assert matrix.defined[pair.i, pair.j] == pair.defined
        if pair.defined:
            assert pair.p_ij == pytest.approx(expected, rel=1e-12)


def test_tiny_live_pair_is_defined_everywhere():
    rho = DensityMatrix(EDGE_STATES[0])
    first = estimate_pid(rho).pairs[0]
    assert (first.i, first.j, first.defined) == (0, 1, True)
    assert first.p_ij == pytest.approx(0.5, rel=1e-12)
    assert abs(coherence_matrix(rho).entries[0, 1]) == pytest.approx(0.5, rel=1e-12)
    assert visibility(rho).sum_g == pytest.approx(0.5, rel=1e-12)
