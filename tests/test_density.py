"""Decomposition construction and the pairwise readout of the coherent weight."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from interfere import (
    Amplitudes,
    DomainError,
    EmissionModel,
    estimate_pid,
    mix,
    rho_distinguishable,
    rho_indistinguishable,
    validate_density,
    visibility,
)

from helpers import equal_model, random_model
from test_certificate import _seed_109_state

# Real symmetric, unit trace, PSD, but the three pairwise readings disagree.
INCONSISTENT = np.array(
    [
        [0.50, 0.25, 0.15],
        [0.25, 0.30, 0.10],
        [0.15, 0.10, 0.20],
    ],
    dtype=complex,
)

# Reads [(amplitude bytes as hex, p_id), ...] as JSON and prints, per case, the
# entry bytes of mix and of both extremes.
FAMILY_BYTES = """
import json, sys
import numpy as np
from interfere import Amplitudes, EmissionModel, mix, rho_distinguishable, rho_indistinguishable
for values, p in json.load(sys.stdin):
    a = Amplitudes(np.frombuffer(bytes.fromhex(values), complex))
    rhos = mix(EmissionModel(a, p)), rho_indistinguishable(a), rho_distinguishable(a)
    print(*(rho.entries.tobytes().hex() for rho in rhos))
"""


class TestRhoIndistinguishable:
    def test_basis_state(self):
        rho = rho_indistinguishable(Amplitudes(np.array([1.0, 0.0], dtype=complex)))
        np.testing.assert_allclose(rho.entries, [[1, 0], [0, 0]], atol=1e-15)

    def test_symmetric_two_mode(self):
        rho = rho_indistinguishable(Amplitudes.normalized([1, 1]))
        np.testing.assert_allclose(rho.entries, np.full((2, 2), 0.5), atol=1e-15)

    def test_symmetric_three_mode(self):
        rho = rho_indistinguishable(Amplitudes.normalized([1, 1, 1]))
        np.testing.assert_allclose(rho.entries, np.full((3, 3), 1 / 3), atol=1e-15)

    def test_rank_one(self):
        rho = rho_indistinguishable(Amplitudes.normalized([0.3, 1.2 + 0.4j, -0.7]))
        eigs = np.linalg.eigvalsh(rho.entries)
        assert eigs[-1] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(eigs[:-1], 0.0, atol=1e-12)


class TestRhoDistinguishable:
    def test_symmetric(self):
        rho = rho_distinguishable(Amplitudes.normalized([1, 1]))
        np.testing.assert_allclose(rho.entries, np.diag([0.5, 0.5]), atol=1e-15)

    def test_unequal(self):
        rho = rho_distinguishable(Amplitudes(np.array([0.6, 0.8], dtype=complex)))
        np.testing.assert_allclose(rho.entries, np.diag([0.36, 0.64]), atol=1e-15)

    def test_basis_state(self):
        rho = rho_distinguishable(Amplitudes(np.array([1.0, 0.0, 0.0], dtype=complex)))
        np.testing.assert_allclose(rho.entries, np.diag([1.0, 0.0, 0.0]), atol=1e-15)


class TestMix:
    def test_full_coherence_endpoint(self):
        amps = Amplitudes.normalized([0.3, 1.0, -0.2 + 0.9j])
        full = mix(EmissionModel(amps, 1.0))
        np.testing.assert_allclose(full.entries, rho_indistinguishable(amps).entries, atol=1e-15)

    def test_no_coherence_endpoint(self):
        amps = Amplitudes.normalized([0.3, 1.0, -0.2 + 0.9j])
        none = mix(EmissionModel(amps, 0.0))
        np.testing.assert_allclose(none.entries, rho_distinguishable(amps).entries, atol=1e-15)

    def test_halfway_three_mode(self):
        rho = mix(equal_model(3, 0.5))
        np.testing.assert_allclose(np.diag(rho.entries), 1 / 3, atol=1e-15)
        off = rho.entries[~np.eye(3, dtype=bool)]
        np.testing.assert_allclose(off, 1 / 6, atol=1e-15)

    def test_same_bytes_on_the_sse_path(self):
        # A child on numpy's SSE path, where complex products are not fused,
        # must build the bytes this process builds: mix takes real products only.
        models = [random_model(np.random.default_rng(n), n, p) for n in (3, 5, 8) for p in (0.0, 0.3, 0.7, 1.0)]
        models.append(_seed_109_state())
        cases = [(model.amplitudes.values.tobytes().hex(), model.p_id) for model in models]
        child = subprocess.run(
            [sys.executable, "-c", FAMILY_BYTES],
            input=json.dumps(cases),
            capture_output=True,
            text=True,
            env={**os.environ, "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3"},
        )
        assert child.returncode == 0, child.stderr
        built = []
        for model in models:
            a = model.amplitudes
            rhos = mix(model), rho_indistinguishable(a), rho_distinguishable(a)
            built.append(" ".join(rho.entries.tobytes().hex() for rho in rhos))
            assert not rhos[0].entries.diagonal().imag.any()
            assert rhos[1].entries.tobytes() == mix(EmissionModel(a, 1.0)).entries.tobytes()
            assert rhos[2].entries.tobytes() == mix(EmissionModel(a, 0.0)).entries.tobytes()
        assert child.stdout.splitlines() == built

    def test_output_always_valid(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            assert validate_density(mix(random_model(rng, n)).entries).ok

    def test_endpoint_purity(self):
        rng = np.random.default_rng(43)
        rho = mix(random_model(rng, 5, p_id=1.0))
        eigs = np.linalg.eigvalsh(rho.entries)
        assert eigs[-1] == pytest.approx(1.0, abs=1e-9)


class TestEstimatePid:
    def test_family_round_trip(self):
        report = estimate_pid(mix(equal_model(3, 0.5)))
        assert report.consistent
        assert not report.degenerate
        assert report.consensus == pytest.approx(0.5, abs=1e-12)
        assert [ (p.i, p.j) for p in report.pairs ] == [(0, 1), (0, 2), (1, 2)]
        for pair in report.pairs:
            assert pair.defined
            assert pair.p_ij == pytest.approx(0.5, abs=1e-12)

    def test_diagonal_reads_zero(self):
        report = estimate_pid(np.diag([0.5, 0.5]).astype(complex))
        assert report.consistent
        assert report.consensus == pytest.approx(0.0, abs=1e-15)

    def test_inconsistent_matrix(self):
        report = estimate_pid(INCONSISTENT)
        values = [pair.p_ij for pair in report.pairs]
        assert values[0] == pytest.approx(0.6454972243679028, abs=1e-15)
        assert values[1] == pytest.approx(0.4743416490252569, abs=1e-15)
        assert values[2] == pytest.approx(0.4082482904638631, abs=1e-15)
        assert not report.consistent
        assert report.consensus is None
        assert report.spread == pytest.approx(values[0] - values[2], abs=1e-15)

    def test_basis_projector_is_degenerate(self):
        report = estimate_pid(np.diag([1.0, 0.0]).astype(complex))
        assert report.degenerate
        assert not report.consistent
        assert report.consensus is None
        assert not report.pairs[0].defined
        assert np.isnan(report.pairs[0].p_ij)

    def test_pair_count(self):
        rng = np.random.default_rng(44)
        for n in range(2, 9):
            report = estimate_pid(mix(random_model(rng, n)))
            assert len(report.pairs) == n * (n - 1) // 2

    def test_zero_population_pairs_excluded(self):
        # mode 3 never fires; pairs touching it are undefined, the rest agree
        rho = np.zeros((3, 3), dtype=complex)
        rho[:2, :2] = mix(equal_model(2, 0.7)).entries
        report = estimate_pid(rho)
        flags = {(p.i, p.j): p.defined for p in report.pairs}
        assert flags == {(0, 1): True, (0, 2): False, (1, 2): False}
        assert report.consistent
        assert report.consensus == pytest.approx(0.7, abs=1e-12)

    def test_reading_above_one_is_clamped(self):
        # Accepted up to PSD_TOL (min_eig about -9e-10), yet the raw ratio
        # |rho_01| / sqrt(rho_00 rho_11) is 30: a tiny population lets it grow.
        rho = np.array([[1e-12, 3e-5], [3e-5, 1 - 1e-12]], dtype=complex)
        assert validate_density(rho).ok
        report = estimate_pid(rho)
        assert report.pairs[0].p_ij <= 1.0 and report.consensus <= 1.0
        result = visibility(rho)
        assert result.sum_g <= 1.0 and result.bound <= 1.0

    def test_consistency_tol_must_be_positive(self):
        with pytest.raises(DomainError):
            estimate_pid(mix(equal_model(2, 0.5)), consistency_tol=0.0)

    def test_tolerance_controls_verdict(self):
        report = estimate_pid(INCONSISTENT, consistency_tol=1.0)
        assert report.consistent
        assert report.consensus is not None
