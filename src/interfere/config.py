"""Experiment configuration files: strict JSON in, the same numbers out.

A configuration names a state in exactly one of two ways: an amplitude
vector plus ``p_id`` (a family state built by :func:`interfere.density.mix`)
or an explicit density matrix.  Complex numbers are two-element
``[re, im]`` arrays throughout; there is no other encoding.  Optional
sections add a detection geometry, phase-scan settings, and a tolerance
override.  The scan section is kept as written: ``starts`` and ``seed``
become :class:`~interfere.interference.ScanSettings`, while ``grid_points``
steers nothing and is only accepted and validated so older configs parse.

Parsing is strict: unknown keys, wrong shapes, out-of-range values, and
non-finite numbers are all rejected with :class:`ConfigError`.  A config
that parses is echoed back by :meth:`ExperimentConfig.to_json_dict` with
bit-identical numbers, so parse -> emit -> parse is a fixed point.

:class:`ConfigError` deliberately does not subclass ``InterfereError``:
a broken config file is a usage problem (exit code 2 at the command line),
not a domain verdict about a state (exit code 1).
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import Amplitudes, EmissionModel, InterfereError, _check_integer, as_density
from .density import mix
from .interference import DetectionGeometry, ScanSettings

# A config's amplitudes may be off normalization by this much; they are
# rescaled exactly before use.  Looser than the library's own 1e-9 gate on
# purpose: hand-written decimals deserve some slack.
AMPLITUDE_NORM_TOL = 1e-6

_TOP_KEYS = {"amplitudes", "p_id", "rho", "geometry", "scan", "tolerance"}
_GEOMETRY_KEYS = {"source_positions", "screen_distance", "wavelength"}
_SCAN_KEYS = {"grid_points", "starts", "seed"}


class ConfigError(Exception):
    """The configuration file cannot be used as written."""


def _require_keys(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _real(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond float range: its digit count, not its literal
        raise ConfigError(f"{where} must be finite, got an integer of {len(str(abs(value)))} digits") from None
    if not math.isfinite(number):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return number


def _complex_pair(value, where: str) -> complex:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{where} must be a [re, im] pair, got {value!r}")
    return complex(_real(value[0], f"{where}[0]"), _real(value[1], f"{where}[1]"))


def _pair_out(z: complex) -> list:
    return [float(z.real), float(z.imag)]


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """One parsed configuration, holding the file's numbers verbatim.

    ``amplitudes``/``rho`` keep the values exactly as written (no
    renormalization) so the file round-trips; :meth:`density` applies the
    exact rescaling when the state is actually built.  ``scan`` is the
    validated scan section as written, ``{}`` when absent.
    """

    amplitudes: np.ndarray | None
    p_id: float | None
    rho: np.ndarray | None
    geometry: DetectionGeometry | None
    scan: dict
    tolerance: float | None

    @classmethod
    def from_dict(cls, doc) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError(f"config root must be a JSON object, got {type(doc).__name__}")
        _require_keys(doc, _TOP_KEYS, "config")

        has_family = "amplitudes" in doc or "p_id" in doc
        has_rho = "rho" in doc
        if has_family and has_rho:
            raise ConfigError("give either amplitudes + p_id or rho, not both")
        if not has_rho and not ("amplitudes" in doc and "p_id" in doc):
            raise ConfigError("state missing: need amplitudes + p_id together, or rho")

        amplitudes = p_id = rho = None
        if has_rho:
            rho = cls._parse_rho(doc["rho"])
            n = rho.shape[0]
        else:
            amplitudes = cls._parse_amplitudes(doc["amplitudes"])
            n = amplitudes.shape[0]
            p_id = _real(doc["p_id"], "p_id")
            if not 0.0 <= p_id <= 1.0:
                raise ConfigError(f"p_id must lie in [0, 1], got {p_id!r}")

        geometry = cls._parse_geometry(doc.get("geometry"), n)
        scan = cls._parse_scan(doc.get("scan"))

        tolerance = None
        if "tolerance" in doc:
            tolerance = _real(doc["tolerance"], "tolerance")
            if tolerance <= 0.0:
                raise ConfigError(f"tolerance must be positive, got {tolerance!r}")

        return cls(amplitudes, p_id, rho, geometry, scan, tolerance)

    @classmethod
    def from_path(cls, path) -> "ExperimentConfig":
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        try:
            # Reject the NaN/Infinity extension json.loads would accept.
            doc = json.loads(text, parse_constant=_reject_constant)
        except (ValueError, RecursionError) as exc:  # also too many digits, or nested too deep
            raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)

    @staticmethod
    def _parse_amplitudes(raw) -> np.ndarray:
        if not isinstance(raw, list) or len(raw) < 2:
            raise ConfigError("amplitudes must be a list of at least 2 [re, im] pairs")
        values = np.array(
            [_complex_pair(entry, f"amplitudes[{idx}]") for idx, entry in enumerate(raw)]
        )
        with np.errstate(over="ignore"):  # an overflow is inf, which fails the check
            total = float(np.sum(np.abs(values) ** 2))
        if abs(total - 1.0) > AMPLITUDE_NORM_TOL:
            raise ConfigError(
                f"amplitudes square-sum to {total!r}, expected 1 within {AMPLITUDE_NORM_TOL}"
            )
        return values

    @staticmethod
    def _parse_rho(raw) -> np.ndarray:
        if not isinstance(raw, list) or len(raw) < 2:
            raise ConfigError("rho must be a list of at least 2 rows")
        n = len(raw)
        rows = []
        for i, row in enumerate(raw):
            if not isinstance(row, list) or len(row) != n:
                raise ConfigError(f"rho row {i} must have {n} [re, im] pairs")
            rows.append([_complex_pair(entry, f"rho[{i}][{j}]") for j, entry in enumerate(row)])
        return np.array(rows)

    @staticmethod
    def _parse_geometry(raw, n: int) -> DetectionGeometry | None:
        if raw is None:
            return None
        if not isinstance(raw, dict):
            raise ConfigError("geometry must be an object")
        _require_keys(raw, _GEOMETRY_KEYS, "geometry")
        missing = _GEOMETRY_KEYS - set(raw)
        if missing:
            raise ConfigError(f"geometry is missing {sorted(missing)}")
        positions = raw["source_positions"]
        if not isinstance(positions, list):
            raise ConfigError("geometry.source_positions must be a list of reals")
        if len(positions) != n:
            raise ConfigError(
                f"geometry has {len(positions)} source positions for {n} sources"
            )
        try:
            return DetectionGeometry(
                [_real(p, f"source_positions[{i}]") for i, p in enumerate(positions)],
                _real(raw["screen_distance"], "screen_distance"),
                _real(raw["wavelength"], "wavelength"),
            )
        except InterfereError as exc:
            raise ConfigError(f"bad geometry: {exc}") from exc

    @staticmethod
    def _parse_scan(raw) -> dict:
        if raw is None:
            return {}
        if not isinstance(raw, dict):
            raise ConfigError("scan must be an object")
        _require_keys(raw, _SCAN_KEYS, "scan")
        try:
            if "grid_points" in raw:
                _check_integer("grid_points", raw["grid_points"], 2)
            ScanSettings(**{key: value for key, value in raw.items() if key != "grid_points"})
        except InterfereError as exc:
            raise ConfigError(f"bad scan: {exc}") from exc
        return {key: int(value) for key, value in raw.items()}

    @property
    def n(self) -> int:
        return self.amplitudes.shape[0] if self.rho is None else self.rho.shape[0]

    def state_matrix(self) -> np.ndarray:
        """The configured state as a raw matrix, no validity judgement.

        An explicit ``rho`` is returned exactly as written, valid or not;
        the validate command exists to report on it.  A family state is
        always valid by construction.
        """
        if self.rho is not None:
            return self.rho.copy()
        return np.asarray(self.density())

    def density(self):
        """The configured state as a validated density matrix."""
        if self.rho is not None:
            return as_density(self.rho)
        model = EmissionModel(Amplitudes.normalized(self.amplitudes), self.p_id)
        return mix(model)

    def scan_settings(self, override_seed=None, env_seed=None) -> ScanSettings:
        """Resolve scan settings: flag beats config beats environment beats ScanSettings' default."""
        seed = self.scan.get("seed", env_seed)
        if override_seed is not None:
            seed = override_seed
        given = {"starts": self.scan.get("starts"), "seed": seed}
        try:
            return ScanSettings(**{name: value for name, value in given.items() if value is not None})
        except InterfereError as exc:
            raise ConfigError(f"bad scan: {exc}") from exc

    def to_json_dict(self) -> dict:
        """Rebuild the JSON document with the parsed numbers, bit for bit."""
        doc = {}
        if self.rho is not None:
            doc["rho"] = [[_pair_out(z) for z in row] for row in self.rho]
        else:
            doc["amplitudes"] = [_pair_out(z) for z in self.amplitudes]
            doc["p_id"] = self.p_id
        if self.geometry is not None:
            doc["geometry"] = {
                "source_positions": [float(p) for p in self.geometry.source_positions],
                "screen_distance": self.geometry.screen_distance,
                "wavelength": self.geometry.wavelength,
            }
        if self.scan:
            doc["scan"] = dict(self.scan)
        if self.tolerance is not None:
            doc["tolerance"] = self.tolerance
        return doc


def _reject_constant(token: str):
    raise ConfigError(f"non-finite JSON constant {token!r} is not allowed in configs")
