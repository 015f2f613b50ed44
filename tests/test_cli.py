"""End-to-end command-line runs through ``python -m interfere``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from interfere import DomainError, cli
from interfere.interference import MAX_PATTERN_VALUES

EQUAL_TWO = [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]]
EQUAL_THREE = [
    [0.5773502691896258, 0.0],
    [0.5773502691896258, 0.0],
    [0.5773502691896258, 0.0],
]
THREE_SOURCE = str(Path(__file__).resolve().parents[1] / "configs" / "three_source.json")
SHORT_TRACE = {"rho": [[[0.45, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.45, 0.0]]]}
INCONSISTENT = {
    "rho": [
        [[0.50, 0.0], [0.25, 0.0], [0.15, 0.0]],
        [[0.25, 0.0], [0.30, 0.0], [0.10, 0.0]],
        [[0.15, 0.0], [0.10, 0.0], [0.20, 0.0]],
    ]
}
TWO_SLIT_GEOMETRY = {
    "source_positions": [-5e-6, 5e-6],
    "screen_distance": 1.0,
    "wavelength": 5e-7,
}


def run(*args, env_extra=None):
    # The child turns numpy's RuntimeWarnings into errors, as the suite does.
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "interfere", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def config_file(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def family2(tmp_path):
    return config_file(tmp_path, {"amplitudes": EQUAL_TWO, "p_id": 0.7}, "family2.json")


@pytest.fixture
def family3(tmp_path):
    return config_file(tmp_path, {"amplitudes": EQUAL_THREE, "p_id": 1.0}, "family3.json")


class TestValidate:
    def test_valid_family(self, family2):
        proc = run("validate", "--config", family2)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["ok"] is True

    def test_short_trace_fails_with_report(self, tmp_path):
        doc = {"rho": [[[0.45, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.45, 0.0]]]}
        proc = run("validate", "--config", config_file(tmp_path, doc))
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        assert not report["ok"]
        assert report["trace_dev"] == pytest.approx(0.1, abs=1e-12)

    def test_finite_entries_whose_checks_overflow_give_the_report_alone(self, tmp_path):
        doc = {"rho": [[[1e308, 0.0], [-1e308, 0.0]], [[1e308, 0.0], [1e308, 0.0]]]}
        proc = run("validate", "--config", config_file(tmp_path, doc))
        assert proc.returncode == 1 and proc.stderr == ""
        assert json.loads(proc.stdout) == {"hermitian": False, "trace_dev": None, "min_eig": 1e308, "ok": False}

    def test_overflowing_amplitudes_give_one_error_line(self, tmp_path):
        doc = {"amplitudes": [[1e200, 0.0], [1e200, 0.0]], "p_id": 0.5}
        proc = run("validate", "--config", config_file(tmp_path, doc))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "square-sum to inf" in proc.stderr

    def test_missing_file(self, tmp_path):
        proc = run("validate", "--config", str(tmp_path / "absent.json"))
        assert proc.returncode == 2
        assert proc.stderr.strip()

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        proc = run("validate", "--config", str(path))
        assert proc.returncode == 2

    def test_tolerance_flag_loosens(self, tmp_path):
        doc = {"rho": [[[0.55, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}
        path = config_file(tmp_path, doc)
        assert run("validate", "--config", path).returncode == 1
        assert run("validate", "--config", path, "--tolerance", "0.1").returncode == 0


class TestPid:
    def test_family_consensus(self, tmp_path):
        path = config_file(tmp_path, {"amplitudes": EQUAL_TWO, "p_id": 0.5})
        proc = run("pid", "--config", path)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["consensus"] == pytest.approx(0.5, abs=1e-12)
        assert report["pairs"][0]["i"] == 1
        assert report["pairs"][0]["j"] == 2

    def test_inconsistent_matrix_lists_all_pairs(self, tmp_path):
        doc = {
            "rho": [
                [[0.50, 0.0], [0.25, 0.0], [0.15, 0.0]],
                [[0.25, 0.0], [0.30, 0.0], [0.10, 0.0]],
                [[0.15, 0.0], [0.10, 0.0], [0.20, 0.0]],
            ]
        }
        proc = run("pid", "--config", config_file(tmp_path, doc))
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        values = [pair["p_ij"] for pair in report["pairs"]]
        assert values == pytest.approx([0.6454972243679028, 0.4743416490252569, 0.4082482904638631])
        assert report["consensus"] is None
        assert not report["consistent"]

    def test_basis_state_degenerate(self, tmp_path):
        doc = {"rho": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}
        proc = run("pid", "--config", config_file(tmp_path, doc))
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        assert report["degenerate"] is True
        assert report["pairs"][0]["p_ij"] is None


class TestCoherence:
    def test_two_mode_family(self, tmp_path):
        path = config_file(tmp_path, {"amplitudes": EQUAL_TWO, "p_id": 0.3})
        proc = run("coherence", "--config", path)
        assert proc.returncode == 0
        lines = proc.stdout.strip().split("\n")
        assert lines[0] == "i,j,re,im,abs,defined"
        rows = {tuple(line.split(",")[:2]): line.split(",") for line in lines[1:]}
        assert float(rows[("1", "2")][4]) == pytest.approx(0.3, abs=1e-12)
        assert rows[("1", "2")][5] == "true"

    def test_diagonal_state_zero_off_diagonals(self, tmp_path):
        doc = {"rho": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}
        proc = run("coherence", "--config", config_file(tmp_path, doc))
        rows = [line.split(",") for line in proc.stdout.strip().split("\n")[1:]]
        off = [row for row in rows if row[0] != row[1]]
        assert all(float(row[4]) == 0.0 for row in off)

    def test_dead_mode_rows_undefined(self, tmp_path):
        doc = {"rho": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}
        proc = run("coherence", "--config", config_file(tmp_path, doc))
        rows = [line.split(",") for line in proc.stdout.strip().split("\n")[1:]]
        flags = {(row[0], row[1]): row[5] for row in rows}
        assert flags[("1", "1")] == "true"
        assert flags[("1", "2")] == "false"
        assert flags[("2", "2")] == "false"


class TestPattern:
    def test_full_contrast_fringes(self, tmp_path):
        doc = {"amplitudes": EQUAL_TWO, "p_id": 1.0, "geometry": TWO_SLIT_GEOMETRY}
        proc = run(
            "pattern", "--config", config_file(tmp_path, doc),
            "--x-min", "-0.05", "--x-max", "0.05", "--samples", "2001",
        )
        assert proc.returncode == 0
        lines = proc.stdout.strip().split("\n")
        assert lines[0] == "x_m,intensity"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        top, bottom = max(values), min(values)
        assert (top - bottom) / (top + bottom) == pytest.approx(1.0, abs=1e-3)

    def test_incoherent_pattern_is_flat(self, tmp_path):
        doc = {"amplitudes": EQUAL_TWO, "p_id": 0.0, "geometry": TWO_SLIT_GEOMETRY}
        proc = run("pattern", "--config", config_file(tmp_path, doc), "--samples", "101")
        values = {line.split(",")[1] for line in proc.stdout.strip().split("\n")[1:]}
        assert len(values) == 1
        assert float(values.pop()) == pytest.approx(1.0, abs=1e-12)

    def test_three_source_dark_points(self, tmp_path):
        doc = {
            "amplitudes": EQUAL_THREE,
            "p_id": 1.0,
            "geometry": {
                "source_positions": [-1e-5, 0.0, 1e-5],
                "screen_distance": 1.0,
                "wavelength": 5e-7,
            },
        }
        proc = run(
            "pattern", "--config", config_file(tmp_path, doc),
            "--x-min", "-0.05", "--x-max", "0.05", "--samples", "4001",
        )
        values = [float(line.split(",")[1]) for line in proc.stdout.strip().split("\n")[1:]]
        assert min(values) >= 0.0
        assert min(values) <= 1e-3 * max(values)

    def test_requires_geometry(self, tmp_path, family2):
        out_file = tmp_path / "pattern.csv"
        proc = run("pattern", "--config", family2, "--output", str(out_file))
        assert proc.returncode == 2
        assert "geometry" in proc.stderr
        assert proc.stdout == "" and not out_file.exists()

    def test_deterministic_bytes(self, tmp_path):
        doc = {"amplitudes": EQUAL_TWO, "p_id": 0.7, "geometry": TWO_SLIT_GEOMETRY}
        path = config_file(tmp_path, doc)
        first = run("pattern", "--config", path, "--samples", "101").stdout
        second = run("pattern", "--config", path, "--samples", "101").stdout
        assert first == second


class TestVisibility:
    def test_two_mode_mandel_point(self, family2):
        proc = run("visibility", "--config", family2)
        assert proc.returncode == 0
        result = json.loads(proc.stdout)
        assert result["formula_v"] == pytest.approx(0.7, abs=1e-12)
        assert result["scan_v"] == pytest.approx(0.7, abs=1e-6)
        assert result["bound"] == pytest.approx(0.7, abs=1e-12)

    def test_three_equal_fully_coherent(self, family3):
        proc = run("visibility", "--config", family3)
        result = json.loads(proc.stdout)
        assert result["formula_v"] == pytest.approx(2.0, abs=1e-12)
        assert result["scan_v"] == pytest.approx(1.0, abs=1e-3)

    def test_diagonal_state(self, tmp_path):
        doc = {"rho": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}
        proc = run("visibility", "--config", config_file(tmp_path, doc))
        result = json.loads(proc.stdout)
        assert result["formula_v"] == 0.0
        assert result["scan_v"] == 0.0


class TestBornCheck:
    def test_three_source_identity(self, family3):
        proc = run("born-check", "--config", family3, "--phase-samples", "50", "--seed", "5")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["max_abs_residual"] <= 1e-12

    def test_two_sources_rejected(self, family2):
        proc = run("born-check", "--config", family2)
        assert proc.returncode == 1
        assert "requires N >= 3" in proc.stderr

    def test_seed_flag_reproduces_bytes(self, family3):
        first = run("born-check", "--config", family3, "--seed", "9")
        second = run("born-check", "--config", family3, "--seed", "9")
        assert first.stdout == second.stdout

    def test_env_seed_matches_flag(self, family3):
        via_env = run("born-check", "--config", family3, env_extra={"INTERFERE_SEED": "9"})
        via_flag = run("born-check", "--config", family3, "--seed", "9")
        assert via_env.stdout == via_flag.stdout

    def test_bad_env_seed(self, family3):
        proc = run("born-check", "--config", family3, env_extra={"INTERFERE_SEED": "many"})
        assert proc.returncode == 2


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert run().returncode == 2

    def test_unknown_command(self):
        assert run("frobnicate").returncode == 2

    def test_config_flag_required(self):
        assert run("validate").returncode == 2


@pytest.mark.parametrize(
    "args",
    [
        ("pattern", "--samples", "1"),
        ("pattern", "--x-min", "0.1", "--x-max", "-0.1"),
        ("pattern", "--x-min", "nan"),
        ("pattern", "--x-min", "0", "--x-max", "5e-324", "--samples", "3"),
        ("validate", "--tolerance", "-1"),
        ("pid", "--tolerance", "0"),
        ("pattern", "--x-min", "1e300", "--x-max", "1e308", "--samples", "3"),
        ("born-check", "--phase-samples", "0"),
    ],
)
def test_out_of_range_flag_is_usage_error(tmp_path, args):
    doc = {"amplitudes": EQUAL_TWO, "p_id": 0.7, "geometry": TWO_SLIT_GEOMETRY}
    proc = run(args[0], "--config", config_file(tmp_path, doc), *args[1:])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_library_domain_error_is_usage_error(tmp_path, monkeypatch, capsys, family2):
    def outside(*args, **kwargs):
        raise DomainError("an argument outside its domain")

    monkeypatch.setattr(cli, "visibility", outside)
    doc = {"amplitudes": EQUAL_THREE, "p_id": 1.0}
    assert cli.main(["visibility", "--config", config_file(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: an argument outside its domain\n"
    # Too few sources is a DimensionError, not a usage error.
    assert cli.main(["born-check", "--config", family2]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: born residual requires N >= 3 sources, got 2\n"


def test_invalid_state_is_reported_before_a_bad_pattern_flag(tmp_path, capsys):
    doc = {"rho": [[[0.45, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.45, 0.0]]], "geometry": TWO_SLIT_GEOMETRY}
    assert cli.main(["pattern", "--config", config_file(tmp_path, doc), "--samples", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: not a valid density matrix")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("samples", [MAX_PATTERN_VALUES // 2 + 1, 10**9])
def test_oversized_sampling_is_usage_error_before_any_work(tmp_path, monkeypatch, capsys, samples):
    def reached(*args, **kwargs):
        raise AssertionError("the screen positions were allocated")

    monkeypatch.setattr(cli.np, "linspace", reached)
    doc = {"amplitudes": EQUAL_TWO, "p_id": 0.7, "geometry": TWO_SLIT_GEOMETRY}
    assert cli.main(["pattern", "--config", config_file(tmp_path, doc), "--samples", str(samples)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "pattern values" in captured.err


@pytest.mark.parametrize(
    "source, command",
    [
        pytest.param("config", ["visibility"], id="config-starts"),
        pytest.param("flag", ["born-check", "--phase-samples", str(MAX_PATTERN_VALUES // 3 + 1)], id="phase-samples"),
    ],
)
def test_oversized_scan_work_is_usage_error_before_any_work(tmp_path, monkeypatch, capsys, source, command):
    def reached(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli.np.random, "default_rng", reached)
    monkeypatch.setattr(cli.np.linalg, "eigh", reached)
    monkeypatch.setattr(cli, "born_residual", reached)
    doc = {"amplitudes": EQUAL_THREE, "p_id": 1.0}
    if source == "config":
        doc["scan"] = {"starts": MAX_PATTERN_VALUES // 3 - 2}
    assert cli.main([command[0], "--config", config_file(tmp_path, doc), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "pattern values" in captured.err


@pytest.mark.parametrize("grid_points, code", [(256, 0), (1, 2)])
def test_scan_grid_points_still_validated(tmp_path, grid_points, code):
    # grid_points no longer steers the scan, but the config schema keeps it.
    doc = {"amplitudes": EQUAL_THREE, "p_id": 1.0, "scan": {"grid_points": grid_points}}
    proc = run("visibility", "--config", config_file(tmp_path, doc))
    assert proc.returncode == code
    if code == 2:
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: bad scan: grid_points must be at least 2")


def test_scan_grid_points_do_not_steer_visibility(tmp_path):
    doc = {"amplitudes": EQUAL_THREE, "p_id": 0.6}
    plain = run("visibility", "--config", config_file(tmp_path, doc, "plain.json"))
    gridded = run("visibility", "--config", config_file(tmp_path, {**doc, "scan": {"grid_points": 3}}, "grid.json"))
    assert plain.returncode == gridded.returncode == 0
    assert gridded.stdout == plain.stdout


@pytest.mark.parametrize("command", ["coherence", "pattern", "visibility"])
def test_tolerance_flag_only_where_a_verdict_reads_it(tmp_path, command):
    doc = {"amplitudes": EQUAL_TWO, "p_id": 0.7, "geometry": TWO_SLIT_GEOMETRY, "tolerance": 1e-9}
    path = config_file(tmp_path, doc)
    proc = run(command, "--config", path, "--tolerance", "5")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--tolerance" in proc.stderr
    assert run(command, "--config", path).returncode == 0


@pytest.mark.parametrize(
    "command, flags, env_extra, scan",
    [
        ("born-check", ("--seed", "-1"), None, None),
        ("visibility", (), {"INTERFERE_SEED": "-1"}, None),
        ("visibility", (), None, {"seed": -1}),
    ],
    ids=["flag", "environment", "config"],
)
def test_negative_seed_is_usage_error(tmp_path, command, flags, env_extra, scan):
    doc = {"amplitudes": EQUAL_THREE, "p_id": 1.0}
    if scan is not None:
        doc["scan"] = scan
    proc = run(command, "--config", config_file(tmp_path, doc), *flags, env_extra=env_extra)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "seed must be at least 0" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize(
    "data",
    [
        b"\xff\xfe{}",
        b"[" * 100_000 + b"]" * 100_000,
        b'{"amplitudes": [[1, 0], [0, 0]], "p_id": ' + b"1" * 5000 + b"}",
        b'{"amplitudes": [[1, 0], [0, 0]], "p_id": 1' + b"0" * 400 + b"}",
    ],
    ids=["not-utf8", "nested-too-deep", "too-many-digits", "beyond-float-range"],
)
def test_unusable_config_file_is_usage_error(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_bytes(data)
    proc = run("validate", "--config", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "command, doc, flags, code",
    [
        ("validate", SHORT_TRACE, (), 1),
        ("pid", INCONSISTENT, (), 1),
        ("coherence", None, (), 0),
        ("pattern", None, ("--samples", "11"), 0),
        ("visibility", None, (), 0),
        ("born-check", None, ("--tolerance", "1e-300"), 1),
    ],
    ids=["validate", "pid", "coherence", "pattern", "visibility", "born-check"],
)
def test_output_file_holds_what_stdout_shows(tmp_path, command, doc, flags, code):
    config = THREE_SOURCE if doc is None else config_file(tmp_path, doc)
    out_file = tmp_path / "report.out"
    shown = run(command, "--config", config, *flags)
    written = run(command, "--config", config, *flags, "--output", str(out_file))
    assert shown.returncode == written.returncode == code
    assert written.stdout == written.stderr == ""
    assert out_file.read_bytes() == shown.stdout.encode()

    broken = tmp_path / "broken.json"
    broken.write_text("{", encoding="utf-8")
    unwritten = tmp_path / "unwritten.out"
    failed = run(command, "--config", str(broken), *flags, "--output", str(unwritten))
    assert failed.returncode == 2 and failed.stdout == ""
    assert not unwritten.exists()

    missing = run(command, "--config", config, *flags, "--output", str(tmp_path / "absent" / "report.out"))
    assert missing.returncode == 2 and missing.stdout == ""
    assert missing.stderr.startswith("error: ") and missing.stderr.count("\n") == 1
