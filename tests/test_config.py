"""Config parsing: strictness, round-trip fidelity, seed resolution."""

import json

import numpy as np
import pytest

from interfere import (
    DEFAULT_SCAN_SEED,
    DEFAULT_STARTS,
    ConfigError,
    ExperimentConfig,
    mix,
)

from helpers import equal_model

FAMILY = {
    "amplitudes": [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]],
    "p_id": 0.7,
}

RHO = {
    "rho": [
        [[0.5, 0.0], [0.35, 0.0]],
        [[0.35, 0.0], [0.5, 0.0]],
    ]
}


def write(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestParsing:
    def test_family_config(self):
        config = ExperimentConfig.from_dict(FAMILY)
        assert config.n == 2
        assert config.p_id == 0.7
        np.testing.assert_allclose(
            np.asarray(config.density()), mix(equal_model(2, 0.7)).entries, atol=1e-12
        )

    def test_rho_config(self):
        config = ExperimentConfig.from_dict(RHO)
        assert config.n == 2
        assert config.rho[0, 1] == 0.35 + 0.0j

    def test_state_matrix_keeps_invalid_rho(self):
        doc = {"rho": [[[0.45, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.45, 0.0]]]}
        config = ExperimentConfig.from_dict(doc)
        assert config.state_matrix()[0, 0] == 0.45

    def test_both_specs_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({**FAMILY, **RHO})

    def test_missing_state_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"amplitudes": FAMILY["amplitudes"]})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"p_id": 0.5})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({**FAMILY, "extra": 1})

    def test_amplitude_entries_must_be_pairs(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"amplitudes": [0.7, 0.7], "p_id": 0.5})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"amplitudes": [[0.7], [0.7]], "p_id": 0.5})

    def test_normalization_gate(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"amplitudes": [[1.0, 0.0], [1.0, 0.0]], "p_id": 0.5})

    def test_near_normalized_is_rescaled_exactly(self):
        close = 0.70710678  # off at the eighth decimal, inside the gate
        config = ExperimentConfig.from_dict({"amplitudes": [[close, 0.0], [close, 0.0]], "p_id": 1.0})
        rho = config.density()
        assert float(np.trace(np.asarray(rho)).real) == pytest.approx(1.0, abs=1e-15)

    def test_p_id_range_checked(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"amplitudes": FAMILY["amplitudes"], "p_id": 1.5})

    def test_rho_rows_must_be_square(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"rho": [[[1.0, 0.0]], [[0.0, 0.0]]]})

    def test_non_finite_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"amplitudes": [[1.0, 0.0], [float("nan"), 0.0]], "p_id": 0.5})

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([], "config root must be a JSON object, got list"),
            ({"amplitudes": {}, "p_id": 0.5}, "amplitudes must be a list of at least 2"),
            ({"amplitudes": [[1.0, 0.0]], "p_id": 0.5}, "amplitudes must be a list of at least 2"),
            ({"rho": "eye"}, "rho must be a list of at least 2 rows"),
            ({"rho": [[[1.0, 0.0]]]}, "rho must be a list of at least 2 rows"),
            ({**FAMILY, "geometry": []}, "geometry must be an object"),
            (
                {**FAMILY, "geometry": {"source_positions": 0.0, "screen_distance": 1.0, "wavelength": 5e-7}},
                "geometry.source_positions must be a list of reals",
            ),
            ({**FAMILY, "scan": [1]}, "scan must be an object"),
        ],
    )
    def test_wrong_shapes_rejected(self, doc, message):
        with pytest.raises(ConfigError, match=f"^{message}"):
            ExperimentConfig.from_dict(doc)

    def test_overflowing_amplitudes_fail_normalization(self):
        with pytest.raises(ConfigError, match="^amplitudes square-sum to inf"):
            ExperimentConfig.from_dict({"amplitudes": [[1e200, 0.0], [1e200, 0.0]], "p_id": 0.5})

    def test_booleans_are_not_numbers(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"amplitudes": FAMILY["amplitudes"], "p_id": True})


class TestGeometrySection:
    def test_parsed(self):
        doc = {**FAMILY, "geometry": {"source_positions": [-1e-6, 1e-6], "screen_distance": 1.0, "wavelength": 5e-7}}
        config = ExperimentConfig.from_dict(doc)
        assert config.geometry.wavelength == 5e-7

    def test_source_count_must_match_state(self):
        doc = {**FAMILY, "geometry": {"source_positions": [-1e-6, 0.0, 1e-6], "screen_distance": 1.0, "wavelength": 5e-7}}
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(doc)

    def test_missing_field_rejected(self):
        doc = {**FAMILY, "geometry": {"source_positions": [-1e-6, 1e-6], "wavelength": 5e-7}}
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(doc)

    def test_bad_values_rejected(self):
        doc = {**FAMILY, "geometry": {"source_positions": [-1e-6, 1e-6], "screen_distance": -1.0, "wavelength": 5e-7}}
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(doc)


class TestScanSection:
    def test_partial_section_allowed(self):
        config = ExperimentConfig.from_dict({**FAMILY, "scan": {"seed": 7}})
        assert config.scan == {"seed": 7}
        assert ExperimentConfig.from_dict(FAMILY).scan == {}

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({**FAMILY, "scan": {"grid_points": 1}})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({**FAMILY, "scan": {"starts": 0}})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({**FAMILY, "scan": {"seed": 1.5}})

    @pytest.mark.parametrize(
        "grid_points, message",
        [
            (2.9, "grid_points must be an integer, got 2.9"),
            (8.0, "grid_points must be an integer, got 8.0"),
            (True, "grid_points must be an integer, got True"),
            (1, "grid_points must be at least 2, got 1"),
        ],
    )
    def test_grid_points_still_validated(self, grid_points, message):
        # grid_points steers no scan, but old configs carry it.
        with pytest.raises(ConfigError, match=f"^bad scan: {message}$"):
            ExperimentConfig.from_dict({**FAMILY, "scan": {"grid_points": grid_points}})

    def test_grid_points_accepts_numpy_integer(self):
        config = ExperimentConfig.from_dict({**FAMILY, "scan": {"grid_points": np.int64(8), "starts": 3}})
        assert config.scan == {"grid_points": 8, "starts": 3}
        assert json.dumps(config.to_json_dict()["scan"]) == '{"grid_points": 8, "starts": 3}'
        assert config.scan_settings() == ExperimentConfig.from_dict({**FAMILY, "scan": {"starts": 3}}).scan_settings()

    def test_resolution_order(self):
        bare = ExperimentConfig.from_dict(FAMILY)
        assert bare.scan_settings().seed == DEFAULT_SCAN_SEED
        assert bare.scan_settings(env_seed=11).seed == 11
        configured = ExperimentConfig.from_dict({**FAMILY, "scan": {"seed": 7}})
        assert configured.scan_settings(env_seed=11).seed == 7
        assert configured.scan_settings(override_seed=3, env_seed=11).seed == 3

    def test_defaults_fill_gaps(self):
        settings = ExperimentConfig.from_dict(FAMILY).scan_settings()
        assert settings.starts == DEFAULT_STARTS
        assert settings.seed == DEFAULT_SCAN_SEED
        assert ExperimentConfig.from_dict({**FAMILY, "scan": {"seed": 7}}).scan_settings().starts == DEFAULT_STARTS


class TestRoundTrip:
    @pytest.mark.parametrize(
        "doc",
        [
            FAMILY,
            RHO,
            {
                "amplitudes": [[0.5773502691896258, 0.0], [0.0, 0.5773502691896258], [-0.5773502691896258, 0.0]],
                "p_id": 0.123456789,
                "geometry": {"source_positions": [-1e-5, 0.0, 1e-5], "screen_distance": 1.0, "wavelength": 5e-7},
                "scan": {"grid_points": 64, "starts": 16, "seed": 42},
                "tolerance": 1e-10,
            },
        ],
    )
    def test_parse_emit_parse_is_identity(self, doc):
        config = ExperimentConfig.from_dict(doc)
        emitted = config.to_json_dict()
        again = ExperimentConfig.from_dict(json.loads(json.dumps(emitted)))
        assert again.to_json_dict() == emitted
        assert emitted.get("scan") == doc.get("scan")
        if config.rho is None:
            assert np.array_equal(again.amplitudes, config.amplitudes)
        else:
            assert np.array_equal(again.rho, config.rho)


class TestFromPath:
    def test_reads_file(self, tmp_path):
        config = ExperimentConfig.from_path(write(tmp_path, FAMILY))
        assert config.p_id == 0.7

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_path(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_path(path)

    def test_nan_literal_rejected(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"amplitudes": [[NaN, 0.0], [1.0, 0.0]], "p_id": 0.5}', encoding="utf-8")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_path(path)

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({**FAMILY, "tolerance": 0.0})
