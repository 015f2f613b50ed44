"""Truncated Fock-space oracle: operator algebra and trace evaluations."""

import numpy as np
import pytest

from interfere import (
    Amplitudes,
    DimensionError,
    EmissionModel,
    FockSpace,
    ModeCount,
    annihilation,
    creation,
    embed,
    field_operator,
    intensity,
    mix,
    oracle_intensity,
    trace_correlation,
)

from helpers import equal_model, random_density


class TestFockSpace:
    def test_dimension_counts_vacuum(self):
        assert FockSpace(3).dimension == 4
        assert FockSpace(ModeCount(5)).dimension == 6

    def test_rejects_single_mode(self):
        with pytest.raises(DimensionError):
            FockSpace(1)


class TestModeOperators:
    def test_annihilation_maps_mode_to_vacuum(self):
        space = FockSpace(3)
        a1 = annihilation(space, 1)
        ket = np.zeros(4)
        ket[2] = 1.0  # the photon in mode 1 (slot 0 is the vacuum)
        out = a1.matrix @ ket
        vac = np.zeros(4)
        vac[0] = 1.0
        np.testing.assert_allclose(out, vac, atol=1e-15)

    def test_annihilation_kills_other_modes(self):
        space = FockSpace(3)
        a1 = annihilation(space, 1)
        for slot in (0, 1, 3):
            ket = np.zeros(4)
            ket[slot] = 1.0
            np.testing.assert_allclose(a1.matrix @ ket, 0.0, atol=1e-15)

    def test_creation_is_exact_dagger(self):
        space = FockSpace(4)
        for mode in range(4):
            a = annihilation(space, mode)
            c = creation(space, mode)
            assert np.array_equal(c.matrix, a.matrix.conj().T)
            assert a.dagger().kind == "creation"

    def test_number_operator_is_projector(self):
        space = FockSpace(3)
        for mode in range(3):
            num = creation(space, mode).matrix @ annihilation(space, mode).matrix
            expected = np.zeros((4, 4))
            expected[mode + 1, mode + 1] = 1.0
            np.testing.assert_allclose(num, expected, atol=1e-15)

    def test_double_annihilation_is_zero_matrix(self):
        space = FockSpace(3)
        for i in range(3):
            for j in range(3):
                product = annihilation(space, i).matrix @ annihilation(space, j).matrix
                assert np.all(product == 0)

    def test_mode_out_of_range(self):
        with pytest.raises(IndexError):
            annihilation(FockSpace(2), 2)

    @pytest.mark.parametrize("build", [annihilation, creation])
    @pytest.mark.parametrize("mode", [1.7, True, np.float64(2.0), -1])
    def test_mode_not_an_in_range_integer(self, build, mode):
        with pytest.raises(IndexError):
            build(FockSpace(3), mode)

    def test_numpy_integer_mode_accepted(self):
        a = annihilation(FockSpace(3), np.int64(1))
        assert type(a.mode) is int and a.mode == 1
        np.testing.assert_array_equal(a.matrix, annihilation(FockSpace(3), 1).matrix)


class TestEmbed:
    def test_diagonal(self):
        full = embed(np.diag([0.5, 0.5]).astype(complex))
        np.testing.assert_allclose(full, np.diag([0.0, 0.5, 0.5]), atol=1e-15)

    def test_basis_state(self):
        basis = EmissionModel(Amplitudes(np.array([1.0, 0.0], dtype=complex)), 1.0)
        full = embed(mix(basis))
        expected = np.zeros((3, 3))
        expected[1, 1] = 1.0
        np.testing.assert_allclose(full, expected, atol=1e-15)

    def test_trace_preserved(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            rho = random_density(rng, int(rng.integers(2, 8)))
            assert np.trace(embed(rho)).real == pytest.approx(1.0, abs=1e-12)


class TestTraceCorrelation:
    def test_cross_term_reads_off_diagonal(self):
        space = FockSpace(2)
        rho_full = embed(mix(equal_model(2, 1.0)))
        value = trace_correlation(rho_full, [creation(space, 0), annihilation(space, 1)])
        assert value == pytest.approx(0.5, abs=1e-15)

    def test_two_annihilations_vanish(self):
        space = FockSpace(2)
        rho_full = embed(mix(equal_model(2, 1.0)))
        ops = [creation(space, 0), creation(space, 1), annihilation(space, 1), annihilation(space, 0)]
        assert trace_correlation(rho_full, ops) == pytest.approx(0.0, abs=1e-15)

    def test_population_readout(self):
        space = FockSpace(2)
        rho_full = embed(np.diag([0.3, 0.7]).astype(complex))
        value = trace_correlation(rho_full, [creation(space, 0), annihilation(space, 0)])
        assert value == pytest.approx(0.3, abs=1e-15)

    def test_dimension_mismatch(self):
        space2, space3 = FockSpace(2), FockSpace(3)
        rho_full = embed(np.diag([0.5, 0.5]).astype(complex))
        with pytest.raises(DimensionError):
            trace_correlation(rho_full, [annihilation(space3, 0)])
        with pytest.raises(DimensionError):
            trace_correlation(embed(np.eye(3, dtype=complex) / 3), [annihilation(space2, 0)])


class TestOracleIntensity:
    def test_constructive_two_slit(self):
        rho = mix(equal_model(2, 1.0))
        assert oracle_intensity(rho, [0.0, 0.0]) == pytest.approx(2.0, abs=1e-12)

    def test_three_slit_dark_point(self):
        rho = mix(equal_model(3, 1.0))
        phi = [0.0, 2 * np.pi / 3, 4 * np.pi / 3]
        assert oracle_intensity(rho, phi) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_state_is_flat(self):
        rho = np.diag([0.2, 0.3, 0.5]).astype(complex)
        rng = np.random.default_rng(22)
        for _ in range(5):
            phi = rng.uniform(0, 2 * np.pi, size=3)
            assert oracle_intensity(rho, phi) == pytest.approx(1.0, abs=1e-12)

    def test_matches_closed_form_on_random_states(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            rho = random_density(rng, n)
            phi = rng.uniform(0, 2 * np.pi, size=n)
            k = complex(rng.normal(), rng.normal()) or 1.0
            assert oracle_intensity(rho, phi, k) == pytest.approx(
                intensity(rho, phi, k), abs=1e-12
            )

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 32])
    def test_field_operator_is_the_literal_operator_sum(self, n):
        rng = np.random.default_rng(200 + n)
        space = FockSpace(n)
        for phi in (rng.uniform(0, 2 * np.pi, size=n), rng.uniform(-1e7, 1e7, size=n)):
            for k in (None, complex(rng.normal(), rng.normal())):
                total = np.zeros((n + 1, n + 1), dtype=complex)
                for m in range(n):
                    total += np.exp(1j * phi[m]) * annihilation(space, m).matrix
                expected = (1.0 + 0.0j if k is None else k) * total
                got = field_operator(space, phi, k)
                assert np.array_equal(got, expected)
                assert np.array_equal(np.signbit(got.view(float)), np.signbit(expected.view(float)))

    def test_field_operator_shape(self):
        space = FockSpace(3)
        op = field_operator(space, [0.0, 1.0, 2.0])
        assert op.shape == (4, 4)
        with pytest.raises(DimensionError):
            field_operator(space, [0.0, 1.0])
