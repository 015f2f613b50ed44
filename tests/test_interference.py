"""Screen physics: intensity, geometry phases, patterns, visibility, Born check."""

import tracemalloc
import warnings

import numpy as np
import pytest

from interfere import (
    PSD_TOL,
    Amplitudes,
    DensityMatrix,
    DetectionGeometry,
    DimensionError,
    DomainError,
    EmissionModel,
    IntensityPattern,
    ScanSettings,
    born_residual,
    g1,
    intensity,
    mix,
    oracle_intensity,
    pattern,
    phases_from_geometry,
    validate_density,
    visibility,
)

from interfere import interference
from interfere.interference import DEFAULT_SCAN_SEED, DEFAULT_STARTS, MAX_PATTERN_VALUES, _scan_extrema

from helpers import equal_model, random_density, random_family_state, random_model

TWO_SLIT = DetectionGeometry([-5e-6, 5e-6], 1.0, 5e-7)

INCONSISTENT = np.array(
    [
        [0.50, 0.25, 0.15],
        [0.25, 0.30, 0.10],
        [0.15, 0.10, 0.20],
    ],
    dtype=complex,
)


class TestIntensity:
    def test_fully_constructive(self):
        rho = mix(equal_model(2, 1.0))
        assert intensity(rho, [0.0, 0.0]) == pytest.approx(2.0, abs=1e-12)

    def test_fully_destructive(self):
        rho = mix(equal_model(2, 1.0))
        assert intensity(rho, [0.0, np.pi]) == pytest.approx(0.0, abs=1e-12)

    def test_three_source_dark_point(self):
        rho = mix(equal_model(3, 1.0))
        assert intensity(rho, [0.0, 2 * np.pi / 3, 4 * np.pi / 3]) == pytest.approx(0.0, abs=1e-12)

    def test_scale_multiplies(self):
        rho = mix(equal_model(2, 0.5))
        phi = [0.3, 1.8]
        assert intensity(rho, phi, k=2.0) == pytest.approx(4.0 * intensity(rho, phi), abs=1e-12)

    def test_phase_count_mismatch(self):
        with pytest.raises(DimensionError):
            intensity(mix(equal_model(2, 0.5)), [0.0, 1.0, 2.0])

    def test_non_negative_for_random_states(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            rho = random_density(rng, n)
            phi = rng.uniform(0, 2 * np.pi, size=n)
            assert intensity(rho, phi) >= -1e-12

    def test_global_phase_shift_invariance(self):
        rng = np.random.default_rng(32)
        rho = random_density(rng, 4)
        phi = rng.uniform(0, 2 * np.pi, size=4)
        shifted = phi + 1.2345
        assert intensity(rho, shifted) == pytest.approx(intensity(rho, phi), abs=1e-12)

    def test_complex_off_diagonals_handled(self):
        # the entry's own phase shifts the fringe: the maximum sits where
        # the cosine argument cancels arg(rho_12), not at zero
        rng = np.random.default_rng(33)
        rho = random_family_state(rng, 2, p_id=1.0)
        ang = np.angle(rho.entries[0, 1])
        top = intensity(rho, [0.0, ang])
        assert top == pytest.approx(1.0 + 2.0 * abs(rho.entries[0, 1]), abs=1e-12)

    @pytest.mark.parametrize("readout", [intensity, born_residual])
    def test_phases_whose_differences_overflow_are_a_domain_error(self, readout):
        # 1e308 - (-1e308) overflows: a domain error that names the phases, with no
        # numpy warning; the oracle, which takes no difference, still answers.
        rho, phases = np.full((3, 3), 1 / 3), [1e308, -1e308, 0.0]
        with pytest.raises(DomainError, match=r"^the differences of phases \[1e\+308, -1e\+308, 0\.0\] overflow$"):
            readout(rho, phases)
        assert np.isfinite(oracle_intensity(rho, phases))


class TestDetectionGeometry:
    def test_valid(self):
        assert TWO_SLIT.n == 2

    def test_duplicate_positions_rejected(self):
        for positions in ([0.0, 0.0], [0.0, -0.0], [1e-6, 0.0, 1e-6]):
            with pytest.raises(DomainError, match="^source positions must be distinct$"):
                DetectionGeometry(positions, 1.0, 5e-7)

    def test_positive_distance_required(self):
        with pytest.raises(DomainError):
            DetectionGeometry([-1e-6, 1e-6], 0.0, 5e-7)

    def test_positive_wavelength_required(self):
        with pytest.raises(DomainError):
            DetectionGeometry([-1e-6, 1e-6], 1.0, -5e-7)

    def test_needs_two_sources(self):
        with pytest.raises(DimensionError):
            DetectionGeometry([0.0], 1.0, 5e-7)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_positions_rejected(self, bad):
        with pytest.raises(DomainError, match="^source positions contain non-finite entries$"):
            DetectionGeometry([0.0, bad], 1.0, 5e-7)


class TestPhasesFromGeometry:
    def test_on_axis_symmetric_paths(self):
        phi = phases_from_geometry(TWO_SLIT, 0.0)
        assert phi.phases[0] == phi.phases[1]

    def test_on_axis_is_global_maximum(self):
        rho = mix(equal_model(2, 1.0))
        center = intensity(rho, phases_from_geometry(TWO_SLIT, 0.0))
        assert center == pytest.approx(2.0, abs=1e-9)

    def test_half_period_point(self):
        # fringe period lambda*L/d = 50 mm; at x = 25 mm the two paths
        # differ by almost exactly half a wavelength
        phi = phases_from_geometry(TWO_SLIT, 0.025)
        assert phi.phases[0] == pytest.approx(12570298.562238133, rel=1e-14)
        assert phi.phases[1] == pytest.approx(12570295.421626767, rel=1e-14)
        assert phi.phases[1] - phi.phases[0] == pytest.approx(-3.140611365801021, abs=1e-8)

    def test_non_finite_coordinate_rejected(self):
        with pytest.raises(DomainError):
            phases_from_geometry(TWO_SLIT, np.nan)

    @pytest.mark.parametrize("screen_x", [1e308, -1e308])
    def test_overflowing_phases_rejected_without_warning(self, screen_x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="non-finite"):
                phases_from_geometry(DetectionGeometry([0.0, 1e-5], 1.0, 5e-7), screen_x)


class TestPattern:
    def test_diagonal_state_is_flat(self):
        result = pattern(np.diag([0.5, 0.5]).astype(complex), TWO_SLIT, -0.05, 0.05, 201)
        np.testing.assert_allclose(result.intensities, 1.0, atol=1e-12)

    def test_pure_state_full_contrast(self):
        result = pattern(mix(equal_model(2, 1.0)), TWO_SLIT, -0.05, 0.05, 2001)
        top, bottom = result.intensities.max(), result.intensities.min()
        assert (top - bottom) / (top + bottom) == pytest.approx(1.0, abs=1e-3)

    def test_half_coherent_contrast(self):
        result = pattern(mix(equal_model(2, 0.5)), TWO_SLIT, -0.05, 0.05, 2001)
        top, bottom = result.intensities.max(), result.intensities.min()
        assert (top - bottom) / (top + bottom) == pytest.approx(0.5, abs=1e-3)

    def test_sample_grid(self):
        result = pattern(mix(equal_model(2, 0.5)), TWO_SLIT, -0.01, 0.01, 11)
        assert result.positions[0] == -0.01
        assert result.positions[-1] == 0.01
        assert len(result.positions) == 11
        assert np.all(np.diff(result.positions) > 0)

    def test_bad_range_rejected(self):
        rho = mix(equal_model(2, 0.5))
        with pytest.raises(DomainError):
            pattern(rho, TWO_SLIT, 0.05, -0.05, 11)
        with pytest.raises(DomainError):
            pattern(rho, TWO_SLIT, -0.05, 0.05, 1)
        for samples in (2.9, 11.0, True, "11"):
            with pytest.raises(DomainError, match="must be an integer"):
                pattern(rho, TWO_SLIT, -0.05, 0.05, samples)
        assert len(pattern(rho, TWO_SLIT, -0.05, 0.05, np.int64(11)).positions) == 11

    def test_geometry_source_count_mismatch(self):
        with pytest.raises(DimensionError):
            pattern(mix(equal_model(3, 0.5)), TWO_SLIT, -0.05, 0.05, 11)

    def test_pattern_type_rejects_negative_intensities(self):
        with pytest.raises(DomainError):
            IntensityPattern(np.array([0.0, 1.0]), np.array([1.0, -1.0]), TWO_SLIT)

    @pytest.mark.parametrize(
        "positions, intensities",
        [([0.0, 1.0], [1.0, 1.0, 1.0]), ([0.0], [1.0]), ([[0.0, 1.0]], [[1.0, 1.0]])],
    )
    def test_pattern_type_rejects_mismatched_shapes(self, positions, intensities):
        with pytest.raises(DimensionError, match="^positions and intensities must be matching 1-D arrays"):
            IntensityPattern(np.array(positions), np.array(intensities), TWO_SLIT)

    @pytest.mark.parametrize(
        "sources, wavelength", [([-1e308, 1e308], 5e-7), ([0.0, 1e302], 5e-7), ([0.0, 1.0], 1e-308)]
    )
    def test_pattern_type_takes_a_geometry_whose_phase_span_overflows(self, sources, wavelength):
        geometry = DetectionGeometry(sources, 1.0, wavelength)
        result = IntensityPattern(np.array([0.0, 1.0]), np.array([1.0, 0.5]), geometry)
        assert result.geometry is geometry

    def test_pattern_type_rejects_unsorted_positions(self):
        with pytest.raises(DomainError):
            IntensityPattern(np.array([1.0, 0.0]), np.array([1.0, 1.0]), TWO_SLIT)

    def test_state_at_psd_tolerance_gives_a_pattern(self):
        # Accepted with min_eig = -5e-10; the dark fringe dips to about -1e-9.
        rho = DensityMatrix([[0.5, 0.5 + 5e-10], [0.5 + 5e-10, 0.5]])
        assert -PSD_TOL <= validate_density(rho).min_eig < 0
        result = pattern(rho, TWO_SLIT, -0.05, 0.05, 100001)
        assert -2 * PSD_TOL <= result.intensities.min() < 0

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_every_accepted_state_at_the_psd_floor_gives_a_pattern(self, n):
        # States whose eigenvalue -PSD_TOL (1 - 2e-8) has the eigenvector exp(-i phi) / sqrt(N)
        # of the screen's centre: an intensity of -N * PSD_TOL there, up to the kernel's rounding,
        # which takes some of them below -N * PSD_TOL.  Each accepted state gives a pattern.
        # Which draws are accepted and dip turns on the rounding of LAPACK's QR and of the
        # BLAS product, which changes with the OpenBLAS core; so at least 20 draws run, then
        # more until one dips, up to 200.  On the SkylakeX, Haswell, SandyBridge, Nehalem and
        # Prescott cores, 18-35 of the first 200 draws dip at each N, the first by draw 24.
        geometry = DetectionGeometry(np.linspace(-5e-6, 5e-6, n), 1.0, 5e-7)
        dark = np.exp(-1j * phases_from_geometry(geometry, 0.0).phases) / np.sqrt(n)
        rng = np.random.default_rng(1)
        centres = []
        for drawn in range(1, 201):
            draw = rng.normal(size=(n, n - 1)) + 1j * rng.normal(size=(n, n - 1))
            basis = np.linalg.qr(np.column_stack([dark, draw]))[0]
            basis[:, 0] = dark
            weights = rng.uniform(0.1, 1.0, n)
            weights[0] = -PSD_TOL * (1 - 2e-8)
            weights[1:] *= (1 - weights[0]) / weights[1:].sum()
            entries = (basis * weights) @ basis.conj().T
            if validate_density(entries).ok:
                centres.append(pattern(DensityMatrix(entries), geometry, -0.05, 0.05, 3).intensities[1])
            if drawn >= 20 and min(centres, default=0.0) < -n * PSD_TOL:
                break
        assert min(centres) < -n * PSD_TOL

    def test_oversized_sampling_rejected_before_allocating(self, monkeypatch):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(np, "linspace", reached)
        rho = mix(equal_model(2, 0.5))
        with pytest.raises(Reached):
            pattern(rho, TWO_SLIT, -0.05, 0.05, MAX_PATTERN_VALUES // 2)
        with pytest.raises(DomainError, match="pattern values"):
            pattern(rho, TWO_SLIT, -0.05, 0.05, MAX_PATTERN_VALUES // 2 + 1)

    def test_overflowing_phases_rejected_before_allocating(self, monkeypatch):
        def reached(*args, **kwargs):
            raise AssertionError("the screen positions were allocated")

        monkeypatch.setattr(np, "linspace", reached)
        rho = mix(equal_model(2, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflows"):
                pattern(rho, DetectionGeometry([0.0, 1e-5], 1.0, 5e-7), 1e300, 1e308, 3)
            # Phases finite at both ends, but the interval is wider than the largest double.
            with pytest.raises(DomainError, match="overflows"):
                pattern(rho, DetectionGeometry([0.0, 1e-5], 1.0, 1e6), -1e308, 1e308, 3)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 32])
    def test_matches_single_point_intensity_bit_for_bit(self, n):
        rng = np.random.default_rng(100 + n)
        rho = random_density(rng, n)
        geometry = DetectionGeometry(np.sort(rng.uniform(-2e-5, 2e-5, n)), rng.uniform(0.5, 2.0), rng.uniform(4e-7, 7e-7))
        result = pattern(rho, geometry, -0.05, 0.05, 1001)
        for x, value in zip(result.positions, result.intensities):
            assert value == intensity(rho, phases_from_geometry(geometry, x))

    @pytest.mark.parametrize("n", [2, 3, 8, 32])
    @pytest.mark.parametrize("blocks", ["short", "one-row tail"])
    def test_streamed_pattern_matches_one_table_bit_for_bit(self, n, blocks, monkeypatch):
        # pattern streams blocks of N phase values and their pair terms; the
        # one-table route hands the kernel every phase at once.  step - 1
        # samples fit in one block; 2 * step + 1 end in a one-row block, which
        # the kernel sums on its own rule.
        step = max(1, interference._KERNEL_BLOCK // (n * (n - 1) // 2 + n))
        samples = {"short": step - 1, "one-row tail": 2 * step + 1}[blocks]
        rng = np.random.default_rng(300 + n)
        rho = random_density(rng, n)
        geometry = DetectionGeometry(np.sort(rng.uniform(-2e-5, 2e-5, n)), rng.uniform(0.5, 2.0), rng.uniform(4e-7, 7e-7))
        kernel, rows = interference._intensity_given_phases, []

        def counted(base, pairs, phases):
            rows.append(len(phases))
            return kernel(base, pairs, phases)

        monkeypatch.setattr(interference, "_intensity_given_phases", counted)
        result = pattern(rho, geometry, -0.05, 0.05, samples)
        assert rows == {"short": [step - 1], "one-row tail": [step, step, 1]}[blocks]
        table = interference._path_phases(geometry, result.positions)
        whole = kernel(float(rho.populations.sum()), rho.pairs, table.T)
        assert result.intensities.tobytes() == whole.tobytes()

    def test_pattern_memory_grows_with_samples_only(self):
        # The positions and intensities take 2 * 8 bytes per sample, handed to
        # IntensityPattern uncopied; the phases and pair terms add one kernel
        # block, not N * 8 bytes per sample.
        samples = 100_000
        for n in (2, 8):
            rng = np.random.default_rng(300 + n)
            rho = random_density(rng, n)
            geometry = DetectionGeometry(np.sort(rng.uniform(-2e-5, 2e-5, n)), 1.0, 5e-7)
            pattern(rho, geometry, -0.05, 0.05, 11)
            tracemalloc.start()
            try:
                pattern(rho, geometry, -0.05, 0.05, samples)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2 * 8 * samples + 3 * 8 * interference._KERNEL_BLOCK, (n, peak)

    def test_pattern_arrays_are_read_only_and_not_shared_with_a_caller(self):
        result = pattern(mix(equal_model(2, 0.5)), TWO_SLIT, -0.05, 0.05, 11)
        assert not result.positions.flags.writeable and not result.intensities.flags.writeable

        def frozen_view(array):
            view = array[:]
            view.setflags(write=False)
            return view

        # The caller can still write through a writable array, and to the
        # array under a read-only view, so IntensityPattern must copy both.
        for given in (lambda array: array, frozen_view):
            positions, intensities = np.linspace(0.0, 1.0, 5), np.full(5, 0.5)
            held = IntensityPattern(given(positions), given(intensities), TWO_SLIT)
            positions[1], intensities[2] = 0.1, 0.7
            assert held.positions[1] == 0.25 and held.intensities[2] == 0.5
            assert not held.positions.flags.writeable and not held.intensities.flags.writeable

    def test_pattern_type_gate_scales_with_source_count(self):
        IntensityPattern(np.array([0.0, 1.0]), np.array([1.0, -1.5 * PSD_TOL]), TWO_SLIT)
        with pytest.raises(DomainError):
            IntensityPattern(np.array([0.0, 1.0]), np.array([1.0, -2.5 * PSD_TOL]), TWO_SLIT)


class TestVisibility:
    def test_two_mode_family_recovers_weight(self):
        rng = np.random.default_rng(34)
        for p in rng.uniform(0, 1, size=10):
            rho = mix(equal_model(2, float(p)))
            result = visibility(rho)
            assert result.formula_v == pytest.approx(p, abs=1e-12)
            assert result.scan_v == pytest.approx(p, abs=1e-6)

    def test_three_equal_sources_fully_coherent(self):
        result = visibility(mix(equal_model(3, 1.0)))
        assert result.formula_v == pytest.approx(2.0, abs=1e-12)
        assert result.scan_v == pytest.approx(1.0, abs=1e-3)
        assert result.i_max == pytest.approx(3.0, abs=1e-6)
        assert result.i_min <= 1e-6
        assert result.sum_g == pytest.approx(3.0, abs=1e-12)
        assert result.bound == pytest.approx(3.0, abs=1e-12)

    def test_diagonal_state_shows_nothing(self):
        result = visibility(np.diag([0.25, 0.75]).astype(complex))
        assert result.formula_v == 0.0
        assert result.scan_v == 0.0
        assert result.i_max == result.i_min == pytest.approx(1.0, abs=1e-12)
        assert result.bound == pytest.approx(0.0, abs=1e-15)

    def test_inconsistent_state_has_no_bound(self):
        result = visibility(INCONSISTENT)
        assert result.bound is None
        assert result.formula_v <= result.sum_g + 1e-12

    def test_bound_chain_on_family_states(self):
        rng = np.random.default_rng(35)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            model = random_model(rng, n)
            result = visibility(mix(model), scan=ScanSettings(starts=2))
            pairs = n * (n - 1) // 2
            assert result.formula_v <= result.sum_g + 1e-12
            assert result.sum_g <= pairs * model.p_id + 1e-12
            assert result.bound == pytest.approx(pairs * model.p_id, abs=1e-9)

    def test_scan_extrema_bracket_samples(self):
        rng = np.random.default_rng(36)
        rho = random_density(rng, 3)
        result = visibility(rho)
        for _ in range(50):
            phi = np.concatenate([[0.0], rng.uniform(0, 2 * np.pi, size=2)])
            value = intensity(rho, phi)
            assert result.i_min - 1e-9 <= value <= result.i_max + 1e-9

    @pytest.mark.parametrize("n", [3, 5])
    def test_state_at_psd_tolerance_gives_bracketing_extrema(self, n):
        # The scan starts from eigh's eigenvectors, and an accepted state may
        # be slightly indefinite.  Shifting a pure equal state down puts the
        # dark points below zero; the other state shifts one random eigenvalue.
        rng = np.random.default_rng(38 + n)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        values, vectors = np.linalg.eigh(a @ a.conj().T)
        values[0] = -0.5 * PSD_TOL * values[1:].sum()
        shifted_pure = np.full((n, n), 1.0 / n) - 0.5 * PSD_TOL * np.eye(n)
        for entries in (shifted_pure, (vectors * values) @ vectors.conj().T):
            rho = DensityMatrix(entries / np.trace(entries).real)
            assert -PSD_TOL < validate_density(rho).min_eig < -0.4 * PSD_TOL
            result = visibility(rho)
            lowest = _scan_extrema(rho, ScanSettings())[1]
            samples = [intensity(rho, row) for row in rng.uniform(0.0, 2.0 * np.pi, size=(64, n))]
            assert result.i_min >= 0.0
            assert result.i_max >= max(samples) - 1e-12
            assert lowest <= min(samples) + 1e-12
            assert result.i_min <= max(min(samples), 0.0) + 1e-12
            if entries is shifted_pure:
                # The raw minimum is proven below 0; its clamped interval stays proven.
                assert lowest < 0.0
                assert result.i_min_lower == result.i_min == 0.0 and result.min_certified

    def test_two_sources_in_closed_form(self, monkeypatch):
        def reached(*args, **kwargs):
            raise AssertionError("the two-source scan ran a search")

        monkeypatch.setattr(interference, "_descend", reached)
        monkeypatch.setattr(np.linalg, "eigh", reached)
        rng = np.random.default_rng(39)
        states = [kind(rng, 2) for kind in (random_density, random_family_state) for _ in range(20)]
        for rho in states + [mix(equal_model(2, 1.0)), DensityMatrix(np.diag([0.25, 0.75]))]:
            base = float(rho.populations.sum())
            modulus = float(rho.pairs.modulus[0])
            bright, dark = base + 2.0 * modulus, base - 2.0 * modulus
            assert _scan_extrema(rho, ScanSettings()) == (bright, dark, bright, dark)
            result = visibility(rho)
            assert (result.i_max, result.i_min) == (bright, max(dark, 0.0))
            assert (result.i_max_upper, result.i_min_lower) == (bright, dark)

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_subnormal_coherences_give_finite_extrema_without_warnings(self, n):
        # Field sums near 1e-310 are subnormal: dividing by |w| as a complex
        # number forms 1 / |w|, which overflows.
        rng = np.random.default_rng(40 + n)
        off = np.triu(1e-310 * rng.uniform(0.5, 1.0, (n, n)) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (n, n))), 1)
        rho = DensityMatrix(np.eye(n) / n + off + off.conj().T)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = visibility(rho)
        assert (result.i_max, result.i_min, result.scan_v) == (1.0, 1.0, 0.0)

    def test_scan_starts_rejected_before_any_work(self, monkeypatch):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        rho = random_density(np.random.default_rng(41), 3)
        monkeypatch.setattr(np.random, "default_rng", reached)
        monkeypatch.setattr(np.linalg, "eigh", reached)
        largest = MAX_PATTERN_VALUES // 3 - 3
        with pytest.raises(Reached):
            visibility(rho, ScanSettings(starts=largest))
        for starts in (largest + 1, 10**30):
            with pytest.raises(DomainError, match="pattern values"):
                visibility(rho, ScanSettings(starts=starts))

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_scan_reads_no_angle(self, monkeypatch, n):
        # The scan reads its extrema from the unit fields it holds: numpy's
        # AVX-512 arctan2 differs from glibc's, so a phase read back with
        # np.angle would move the bits from host to host.
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        rho = random_density(np.random.default_rng(4200 + n), n)
        monkeypatch.setattr(np, "angle", reached)
        monkeypatch.setattr(interference, "_intensity_given_phases", reached)
        result = visibility(rho)
        assert result.i_min_lower <= result.i_min < result.i_max <= result.i_max_upper, result

    def test_deterministic_above_grid_regime(self):
        rng = np.random.default_rng(37)
        rho = random_density(rng, 5)
        assert visibility(rho) == visibility(rho)

    def test_seeded_start_table_cache(self):
        # A cold and a warm call read the same table; a table above the size bound is not kept.
        seeded = interference._seeded_fields
        rho = random_density(np.random.default_rng(38), 3)
        seeded.cache_clear()
        cold = visibility(rho)
        assert visibility(rho) == cold
        assert (seeded.cache_info().hits, seeded.cache_info().currsize) == (1, 1)
        assert not seeded(DEFAULT_SCAN_SEED, DEFAULT_STARTS, 3).flags.writeable
        above = ScanSettings(starts=interference._KERNEL_BLOCK // 3 + 1)
        result = visibility(rho, above)
        assert result.i_min_lower <= result.i_min <= result.i_max <= result.i_max_upper
        assert seeded.cache_info().currsize == 1

    def test_scan_settings_validated(self):
        with pytest.raises(DomainError):
            ScanSettings(starts=0)
        # The grid size left with the grid; only the config schema keeps it.
        with pytest.raises(TypeError):
            ScanSettings(grid_points=8)

    def test_scan_settings_reject_negative_seed(self):
        # numpy.random.default_rng rejects a negative seed deep inside the scan.
        with pytest.raises(DomainError, match="seed must be at least 0"):
            ScanSettings(seed=-1)
        assert ScanSettings(seed=0).seed == 0

    @pytest.mark.parametrize(
        "field", [{"starts": 2.9}, {"starts": 8.0}, {"starts": True}, {"seed": 1.5}, {"seed": "3"}]
    )
    def test_scan_settings_reject_non_integers(self, field):
        with pytest.raises(DomainError):
            ScanSettings(**field)

    def test_scan_settings_accept_numpy_integers(self):
        settings = ScanSettings(starts=np.int32(3), seed=np.uint64(7))
        assert (settings.starts, settings.seed) == (3, 7)
        assert all(type(value) is int for value in (settings.starts, settings.seed))


class TestBornResidual:
    def test_hand_worked_three_source_case(self):
        # fully coherent equal three-source state at aligned phases:
        # full term 3, pair terms 3 * (4/3) = 4, single terms 1
        rho = mix(equal_model(3, 1.0))
        assert intensity(rho, [0.0, 0.0, 0.0]) == pytest.approx(3.0, abs=1e-12)
        assert born_residual(rho, [0.0, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)

    def test_zero_for_random_states_and_phases(self):
        rng = np.random.default_rng(38)
        for _ in range(100):
            n = int(rng.integers(3, 9))
            rho = random_density(rng, n)
            phi = rng.uniform(0, 2 * np.pi, size=n)
            assert abs(born_residual(rho, phi)) <= 1e-12

    def test_diagonal_state(self):
        rho = np.diag([0.2, 0.3, 0.5]).astype(complex)
        assert born_residual(rho, [0.4, 1.5, 2.6]) == pytest.approx(0.0, abs=1e-15)

    def test_two_sources_rejected(self):
        with pytest.raises(DimensionError, match="requires N >= 3"):
            born_residual(mix(equal_model(2, 1.0)), [0.0, 1.0])

    def test_phase_count_mismatch(self):
        with pytest.raises(DimensionError):
            born_residual(mix(equal_model(3, 1.0)), [0.0, 1.0])


class TestMandelAgreement:
    def test_formula_equals_scan_for_any_two_mode_state(self):
        rng = np.random.default_rng(39)
        for _ in range(20):
            rho = random_density(rng, 2)
            result = visibility(rho)
            assert result.formula_v == pytest.approx(result.scan_v, abs=1e-6)

    def test_balanced_states_recover_pairwise_coherence(self):
        # equal-intensity sources: both visibilities coincide with |g1|
        rng = np.random.default_rng(40)
        for _ in range(20):
            p = float(rng.uniform(0, 1))
            amps = np.exp(1j * rng.uniform(0, 2 * np.pi, size=2)) / np.sqrt(2.0)
            rho = mix(EmissionModel(Amplitudes(amps), p))
            result = visibility(rho)
            assert result.formula_v == pytest.approx(abs(g1(rho, 0, 1)), abs=1e-12)
            assert result.scan_v == pytest.approx(abs(g1(rho, 0, 1)), abs=1e-6)
