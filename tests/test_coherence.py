"""Coherence functions: closed forms, the coherence matrix, vanishing orders."""

import numpy as np
import pytest

from interfere import (
    UndefinedPairError,
    big_g1,
    coherence_matrix,
    g1,
    g2,
    g3,
    mix,
)

from helpers import equal_model, random_density, random_family_state, random_model


class TestBigG1:
    def test_symmetric_pure_pair(self):
        rho = mix(equal_model(2, 1.0))
        assert big_g1(rho, 0, 1) == pytest.approx(0.5, abs=1e-15)

    def test_same_point_is_population(self):
        rho = mix(equal_model(2, 0.4))
        assert big_g1(rho, 0, 0) == pytest.approx(rho.populations[0], abs=1e-15)

    def test_scale_squares(self):
        rho = mix(equal_model(3, 0.5))
        assert big_g1(rho, 1, 2, k=2.0) == pytest.approx(4.0 / 6.0, abs=1e-15)

    def test_index_out_of_range(self):
        rho = mix(equal_model(2, 0.5))
        with pytest.raises(IndexError):
            big_g1(rho, 0, 2)

    @pytest.mark.parametrize("readout", [big_g1, g1, g2])
    @pytest.mark.parametrize("index", [1.7, True, np.float64(2.0), -1])
    def test_index_not_an_in_range_integer(self, readout, index):
        rho = mix(equal_model(3, 0.5))
        with pytest.raises(IndexError):
            readout(rho, index, 0)
        with pytest.raises(IndexError):
            readout(rho, 0, index)

    def test_numpy_integer_indices_accepted(self):
        rho = mix(equal_model(3, 0.5))
        for readout in (big_g1, g1, g2):
            assert readout(rho, np.int64(1), np.int32(2)) == readout(rho, 1, 2)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(7)
        rho = random_density(rng, 4)
        assert big_g1(rho, 1, 3) == pytest.approx(np.conj(big_g1(rho, 3, 1)), abs=1e-15)


class TestG1:
    def test_family_modulus_is_coherent_weight(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            model = random_model(rng, n)
            rho = mix(model)
            for i in range(n):
                for j in range(i + 1, n):
                    assert abs(g1(rho, i, j)) == pytest.approx(model.p_id, abs=1e-12)

    def test_diagonal_state_has_zero_coherence(self):
        assert g1(np.diag([0.5, 0.5]).astype(complex), 0, 1) == 0.0

    def test_self_coherence_is_one(self):
        rho = mix(equal_model(3, 0.2))
        assert g1(rho, 1, 1) == pytest.approx(1.0, abs=1e-12)

    def test_zero_population_is_undefined(self):
        with pytest.raises(UndefinedPairError):
            g1(np.diag([1.0, 0.0]).astype(complex), 0, 1)

    def test_scale_free(self):
        rho = mix(equal_model(2, 0.6))
        assert g1(rho, 0, 1) == pytest.approx(big_g1(rho, 0, 1) / 0.5, abs=1e-15)


class TestCoherenceMatrix:
    def test_two_mode_family(self):
        matrix = coherence_matrix(mix(equal_model(2, 0.3)))
        np.testing.assert_allclose(matrix.entries, [[1.0, 0.3], [0.3, 1.0]], atol=1e-12)
        assert matrix.defined.all()

    def test_maximally_mixed_is_identity(self):
        matrix = coherence_matrix(np.eye(3, dtype=complex) / 3)
        np.testing.assert_allclose(matrix.entries, np.eye(3), atol=1e-12)

    def test_dead_mode_flagged_not_zeroed(self):
        matrix = coherence_matrix(np.diag([1.0, 0.0]).astype(complex))
        assert matrix.defined[0, 0]
        assert not matrix.defined[0, 1]
        assert not matrix.defined[1, 0]
        assert not matrix.defined[1, 1]
        assert np.isnan(matrix.entries[0, 1].real)

    def test_hermitian_and_bounded(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            matrix = coherence_matrix(random_density(rng, int(rng.integers(2, 7))))
            np.testing.assert_allclose(matrix.entries, matrix.entries.conj().T, atol=1e-12)
            assert np.all(np.abs(matrix.entries) <= 1.0 + 1e-12)

    def test_matches_entrywise_g1(self):
        rng = np.random.default_rng(10)
        rho = random_density(rng, 4)
        matrix = coherence_matrix(rho)
        for i in range(4):
            for j in range(4):
                assert matrix.entries[i, j] == pytest.approx(g1(rho, i, j), abs=1e-15)


class TestVanishingHigherOrders:
    def test_g2_zero_for_arbitrary_states(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            rho = random_density(rng, n)
            i, j = rng.integers(0, n, size=2)
            assert abs(g2(rho, int(i), int(j))) <= 1e-12

    def test_g2_pure_symmetric(self):
        assert abs(g2(mix(equal_model(2, 1.0)), 0, 1)) <= 1e-12

    def test_g2_same_index(self):
        rho = mix(random_model(np.random.default_rng(12), 2, 0.5))
        assert abs(g2(rho, 0, 0)) <= 1e-12

    def test_g3_zero_for_arbitrary_states(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = int(rng.integers(3, 7))
            rho = random_density(rng, n)
            i, j, l = (int(v) for v in rng.integers(0, n, size=3))
            assert abs(g3(rho, i, j, l)) <= 1e-12

    def test_g3_endpoints(self):
        assert abs(g3(mix(equal_model(3, 1.0)), 0, 0, 0)) <= 1e-12
        assert abs(g3(mix(equal_model(3, 0.0)), 0, 1, 2)) <= 1e-12

    def test_g2_undefined_pair(self):
        with pytest.raises(UndefinedPairError):
            g2(np.diag([1.0, 0.0]).astype(complex), 0, 1)


class TestFamilyPairwiseEquality:
    def test_all_pair_moduli_agree(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            n = int(rng.integers(3, 9))
            rho = random_family_state(rng, n)
            matrix = coherence_matrix(rho)
            off = np.abs(matrix.entries[~np.eye(n, dtype=bool)])
            assert off.max() - off.min() <= 1e-12
