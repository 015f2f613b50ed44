"""Core types: construction contracts, validation report, tolerances."""

import numpy as np
import pytest

from interfere import (
    Amplitudes,
    DensityMatrix,
    DimensionError,
    DomainError,
    EmissionModel,
    FieldScale,
    InvalidDensityMatrixError,
    ModeCount,
    NormalizationError,
    PhaseConfig,
    as_density,
    as_phases,
    as_scale,
    big_g1,
    intensity,
    oracle_intensity,
    validate_density,
)


class TestModeCount:
    def test_accepts_two_or_more(self):
        assert int(ModeCount(2)) == 2
        assert int(ModeCount(64)) == 64

    def test_rejects_one(self):
        with pytest.raises(DimensionError):
            ModeCount(1)

    def test_rejects_non_integer(self):
        with pytest.raises(DimensionError):
            ModeCount(2.5)

    def test_usable_as_index(self):
        assert np.zeros(ModeCount(3)).shape == (3,)


class TestAmplitudes:
    def test_valid_vector(self):
        a = Amplitudes(np.array([1.0, 0.0], dtype=complex))
        assert a.n == 2
        np.testing.assert_allclose(a.probabilities, [1.0, 0.0])

    def test_rejects_unnormalized(self):
        with pytest.raises(NormalizationError):
            Amplitudes(np.array([1.0, 1.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(NormalizationError):
            Amplitudes(np.array([np.nan, 1.0]))

    def test_rejects_matrix_input(self):
        with pytest.raises(DimensionError):
            Amplitudes(np.eye(2))

    def test_rejects_single_mode(self):
        with pytest.raises(DimensionError):
            Amplitudes(np.array([1.0]))

    def test_normalized_classmethod(self):
        a = Amplitudes.normalized([3.0, 4.0])
        np.testing.assert_allclose(a.probabilities, [0.36, 0.64], atol=1e-15)

    def test_normalized_rejects_zero_vector(self):
        with pytest.raises(NormalizationError):
            Amplitudes.normalized([0.0, 0.0])

    def test_overflowing_square_sum_fails_normalization(self):
        with pytest.raises(NormalizationError, match="^amplitudes square-sum to inf"):
            Amplitudes([1e200, 1e200])

    def test_array_conversion(self):
        a = Amplitudes([0.6, 0.8j])
        np.testing.assert_array_equal(np.asarray(a), [0.6, 0.8j])
        assert np.asarray(a).dtype == complex

    def test_values_are_read_only(self):
        a = Amplitudes.normalized([1.0, 1.0])
        with pytest.raises(ValueError):
            a.values[0] = 0.0


class TestValidateDensity:
    def test_valid_diagonal(self):
        report = validate_density(np.diag([0.5, 0.5]).astype(complex))
        assert report.ok
        assert report.hermitian
        assert report.min_eig == pytest.approx(0.5, abs=1e-12)
        assert report.trace_dev == pytest.approx(0.0, abs=1e-12)

    def test_psd_violation(self):
        report = validate_density(np.array([[0.5, 0.7], [0.7, 0.5]], dtype=complex))
        assert not report.ok
        assert report.min_eig == pytest.approx(-0.2, abs=1e-12)

    def test_trace_violation(self):
        report = validate_density(np.array([[0.6, 0.0], [0.0, 0.5]], dtype=complex))
        assert not report.ok
        assert report.trace_dev == pytest.approx(0.1, abs=1e-12)

    def test_hermiticity_violation(self):
        report = validate_density(np.array([[0.5, 0.2], [0.3, 0.5]], dtype=complex))
        assert not report.hermitian
        assert not report.ok

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            validate_density(np.ones((2, 3), dtype=complex))

    def test_single_mode_rejected(self):
        with pytest.raises(DimensionError):
            validate_density(np.ones((1, 1), dtype=complex))

    def test_non_finite_reports_not_ok(self):
        rho = np.diag([0.5, 0.5]).astype(complex)
        rho[0, 1] = np.nan
        report = validate_density(rho)
        assert not report.ok

    def test_tolerance_override_loosens_trace(self):
        rho = np.diag([0.55, 0.5]).astype(complex)
        assert not validate_density(rho).ok
        assert validate_density(rho, tol=0.1).ok

    def test_tolerance_must_be_positive(self):
        with pytest.raises(DomainError):
            validate_density(np.diag([0.5, 0.5]).astype(complex), tol=0.0)


class TestDensityMatrix:
    def test_construction_validates(self):
        rho = DensityMatrix(np.diag([0.4, 0.6]).astype(complex))
        np.testing.assert_allclose(rho.populations, [0.4, 0.6])
        assert int(rho.n) == 2

    def test_invalid_rejected(self):
        with pytest.raises(InvalidDensityMatrixError):
            DensityMatrix(np.array([[0.5, 0.7], [0.7, 0.5]], dtype=complex))

    def test_entries_read_only(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 0.9

    def test_as_density_passthrough(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
        assert as_density(rho) is rho
        assert isinstance(as_density(np.diag([0.5, 0.5])), DensityMatrix)

    def test_array_conversion(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
        assert np.asarray(rho).shape == (2, 2)


class TestEmissionModel:
    def test_valid(self):
        model = EmissionModel(Amplitudes.normalized([1, 1]), 0.5)
        assert model.p_id == 0.5

    @pytest.mark.parametrize("p", [-0.1, 1.1, np.nan])
    def test_out_of_range_p_id(self, p):
        with pytest.raises(DomainError):
            EmissionModel(Amplitudes.normalized([1, 1]), p)

    def test_endpoints_allowed(self):
        amps = Amplitudes.normalized([1, 1])
        assert EmissionModel(amps, 0.0).p_id == 0.0
        assert EmissionModel(amps, 1.0).p_id == 1.0


class TestPhaseConfig:
    def test_valid(self):
        phi = PhaseConfig(np.array([0.0, np.pi]))
        assert phi.n == 2

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            PhaseConfig(np.array([0.0, np.inf]))

    def test_rejects_matrix(self):
        with pytest.raises(DimensionError):
            PhaseConfig(np.zeros((2, 2)))

    def test_array_conversion(self):
        phi = PhaseConfig([0.0, 1.5])
        np.testing.assert_array_equal(np.asarray(phi), [0.0, 1.5])
        assert np.asarray(phi, dtype=complex).dtype == complex

    def test_as_phases_passthrough(self):
        phi = PhaseConfig(np.array([0.0, 1.0]))
        assert as_phases(phi) is phi
        assert as_phases([0.0, 1.0]).n == 2


class TestFieldScale:
    def test_default_is_unit(self):
        assert FieldScale().intensity_scale == 1.0

    def test_modulus_squared(self):
        assert FieldScale(2j).intensity_scale == pytest.approx(4.0)

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            FieldScale(0.0)

    @pytest.mark.parametrize("k", [1e155, 1e155j, complex(1e200, 1e200), 1e-170, np.inf, np.nan])
    def test_rejects_a_scale_whose_square_is_not_a_positive_float(self, k):
        with pytest.raises(DomainError, match=r"^field scale must have \|k\|\*\*2 positive and finite"):
            FieldScale(k)

    @pytest.mark.parametrize(
        "readout",
        [
            lambda k: intensity(np.eye(2) / 2, [0.0, 0.0], k=k),
            lambda k: big_g1(np.eye(2) / 2, 0, 0, k=k),
            lambda k: oracle_intensity(np.eye(2) / 2, [0.0, 0.0], k=k),
        ],
        ids=["intensity", "big_g1", "oracle_intensity"],
    )
    def test_overflowing_scale_is_a_domain_error_in_every_readout(self, readout):
        with pytest.raises(DomainError, match="^field scale must have"):
            readout(1e155)
        assert np.isfinite(readout(1e154))

    def test_as_scale_none_means_unit(self):
        assert as_scale(None).intensity_scale == 1.0
        assert as_scale(3.0).intensity_scale == pytest.approx(9.0)
