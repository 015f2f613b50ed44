"""Command-line front end: configs in, CSV/JSON reports out.

Six subcommands, one job each:

``validate``
    Check the configured state against the density-matrix contract and
    print the report.
``pid``
    All pairwise indistinguishability readings with the consensus verdict.
``coherence``
    The normalized coherence matrix as CSV.
``pattern``
    The fringe pattern over a screen interval as CSV (needs a geometry
    section in the config).
``visibility``
    Both visibility readings plus the bound chain quantities.
``born-check``
    Max absolute pairwise-decomposition residual over sampled phases.

Exit codes: 0 success, 1 the computation ran but the verdict is negative
(invalid state, inconsistent readings, residual above tolerance) or any
other library error, 2 the command never got to a verdict (bad usage,
unreadable or malformed config, or a library ``DomainError``: an argument
outside its domain).  ``pattern`` reports an invalid state before a bad flag.

Output conventions: source indices are 1-based here (library code is
0-based); floats print with 17 significant digits so every double
round-trips; identical config, flags, and seed give byte-identical bytes.
The ``INTERFERE_SEED`` environment variable replaces the built-in default
scan seed; an explicit config value or ``--seed`` flag still wins.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from .coherence import coherence_matrix
from .config import ConfigError, ExperimentConfig
from .core import DomainError, InterfereError, _check_integer, validate_density
from .density import estimate_pid
from .interference import born_residual, check_budget, pattern, visibility

_BORN_DEFAULT_TOL = 1e-12


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _jsonable(value):
    """None for anything JSON cannot carry as a number."""
    if value is None:
        return None
    value = float(value)
    return value if math.isfinite(value) else None


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _csv_text(header: str, rows) -> str:
    lines = [header]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _emit(text: str, output: str) -> None:
    if output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _env_seed() -> int | None:
    raw = os.environ.get("INTERFERE_SEED")
    if raw is None or raw.strip() == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"INTERFERE_SEED must be an integer, got {raw!r}") from None


def _tolerance(args, config: ExperimentConfig, default=None):
    """Flag beats config beats the command's default."""
    if args.tolerance is not None:
        return args.tolerance
    if config.tolerance is not None:
        return config.tolerance
    return default


def cmd_validate(args, config: ExperimentConfig) -> int:
    report = validate_density(config.state_matrix(), tol=_tolerance(args, config))
    payload = {
        "hermitian": report.hermitian,
        "trace_dev": _jsonable(report.trace_dev),
        "min_eig": _jsonable(report.min_eig),
        "ok": report.ok,
    }
    _emit(_json_text(payload), args.output)
    return 0 if report.ok else 1


def cmd_pid(args, config: ExperimentConfig) -> int:
    tol = _tolerance(args, config)
    report = estimate_pid(config.density(), **({} if tol is None else {"consistency_tol": tol}))
    payload = {
        "pairs": [
            {
                "i": pair.i + 1,
                "j": pair.j + 1,
                "p_ij": _jsonable(pair.p_ij) if pair.defined else None,
                "defined": pair.defined,
            }
            for pair in report.pairs
        ],
        "consensus": _jsonable(report.consensus),
        "spread": _jsonable(report.spread),
        "consistent": report.consistent,
        "degenerate": report.degenerate,
    }
    _emit(_json_text(payload), args.output)
    return 0 if report.consistent else 1


def cmd_coherence(args, config: ExperimentConfig) -> int:
    matrix = coherence_matrix(config.density())
    rows = []
    for i in range(matrix.entries.shape[0]):
        for j in range(matrix.entries.shape[1]):
            entry = matrix.entries[i, j]
            rows.append(
                (
                    str(i + 1),
                    str(j + 1),
                    _fmt(entry.real),
                    _fmt(entry.imag),
                    _fmt(abs(entry)),
                    "true" if matrix.defined[i, j] else "false",
                )
            )
    _emit(_csv_text("i,j,re,im,abs,defined", rows), args.output)
    return 0


def cmd_pattern(args, config: ExperimentConfig) -> int:
    if config.geometry is None:
        raise ConfigError("pattern needs a geometry section in the config")
    result = pattern(config.density(), config.geometry, args.x_min, args.x_max, args.samples)
    rows = [
        (_fmt(x), _fmt(value))
        for x, value in zip(result.positions, result.intensities)
    ]
    _emit(_csv_text("x_m,intensity", rows), args.output)
    return 0


def cmd_visibility(args, config: ExperimentConfig) -> int:
    settings = config.scan_settings(env_seed=_env_seed())
    result = visibility(config.density(), scan=settings)
    payload = {
        "formula_v": _jsonable(result.formula_v),
        "scan_v": _jsonable(result.scan_v),
        "i_max": _jsonable(result.i_max),
        "i_min": _jsonable(result.i_min),
        "sum_g": _jsonable(result.sum_g),
        "bound": _jsonable(result.bound),
    }
    _emit(_json_text(payload), args.output)
    return 0


def cmd_born_check(args, config: ExperimentConfig) -> int:
    _check_integer("--phase-samples", args.phase_samples, 1)
    check_budget(args.phase_samples, config.n, f"--phase-samples {args.phase_samples}")
    rho = config.density()
    settings = config.scan_settings(override_seed=args.seed, env_seed=_env_seed())
    rng = np.random.default_rng(settings.seed)
    samples = rng.uniform(0.0, 2.0 * np.pi, size=(args.phase_samples, config.n))
    worst = max(abs(born_residual(rho, row)) for row in samples)
    _emit(_json_text({"max_abs_residual": _jsonable(worst)}), args.output)
    return 0 if worst <= _tolerance(args, config, _BORN_DEFAULT_TOL) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interfere",
        description="Single-photon multi-source interference calculations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help_text, tolerance=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
        p.add_argument("--output", default="-", help="output file, '-' for standard output")
        if tolerance:
            p.add_argument("--tolerance", type=float, default=None, help="override the command's tolerance")
        p.set_defaults(handler=handler)
        return p

    command("validate", cmd_validate, "check the configured state, print the report", tolerance=True)
    command("pid", cmd_pid, "pairwise indistinguishability readings and consensus", tolerance=True)
    command("coherence", cmd_coherence, "normalized coherence matrix as CSV")

    p = command("pattern", cmd_pattern, "fringe pattern over a screen interval as CSV")
    p.add_argument("--x-min", type=float, default=-0.05, help="left screen coordinate in meters")
    p.add_argument("--x-max", type=float, default=0.05, help="right screen coordinate in meters")
    p.add_argument("--samples", type=int, default=501, help="number of screen samples")

    command("visibility", cmd_visibility, "formula and scan visibility with bounds")

    p = command(
        "born-check", cmd_born_check, "max pairwise-decomposition residual over sampled phases", tolerance=True
    )
    p.add_argument("--phase-samples", type=int, default=100, help="number of sampled phase vectors")
    p.add_argument("--seed", type=int, default=None, help="seed for phase sampling")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        tolerance = getattr(args, "tolerance", None)
        if tolerance is not None and not (math.isfinite(tolerance) and tolerance > 0):
            raise ConfigError(f"--tolerance must be a finite positive number, got {tolerance!r}")
        return args.handler(args, ExperimentConfig.from_path(args.config))
    except (ConfigError, OSError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InterfereError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
