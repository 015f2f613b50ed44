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

Each handler returns its report text and exit code; ``main`` alone writes
the text, to standard output or to ``--output``, so an error that ends a
command writes no report.

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


def _fields(result, *names) -> dict:
    """``result``'s named fields for a JSON report: flags as they are, numbers through ``_jsonable``."""
    values = {name: getattr(result, name) for name in names}
    return {name: value if isinstance(value, bool) else _jsonable(value) for name, value in values.items()}


def cmd_validate(args, config: ExperimentConfig) -> tuple[str, int]:
    report = validate_density(config.state_matrix(), tol=_tolerance(args, config))
    return _json_text(_fields(report, "hermitian", "trace_dev", "min_eig", "ok")), 0 if report.ok else 1


def cmd_pid(args, config: ExperimentConfig) -> tuple[str, int]:
    tol = _tolerance(args, config)
    report = estimate_pid(config.density(), **({} if tol is None else {"consistency_tol": tol}))
    pairs = [{"i": pair.i + 1, "j": pair.j + 1, **_fields(pair, "p_ij", "defined")} for pair in report.pairs]
    payload = {"pairs": pairs, **_fields(report, "consensus", "spread", "consistent", "degenerate")}
    return _json_text(payload), 0 if report.consistent else 1


def cmd_coherence(args, config: ExperimentConfig) -> tuple[str, int]:
    matrix = coherence_matrix(config.density())
    rows = [
        (str(i + 1), str(j + 1), _fmt(entry.real), _fmt(entry.imag), _fmt(abs(entry)),
         "true" if matrix.defined[i, j] else "false")
        for (i, j), entry in np.ndenumerate(matrix.entries)
    ]
    return _csv_text("i,j,re,im,abs,defined", rows), 0


def cmd_pattern(args, config: ExperimentConfig) -> tuple[str, int]:
    if config.geometry is None:
        raise ConfigError("pattern needs a geometry section in the config")
    result = pattern(config.density(), config.geometry, args.x_min, args.x_max, args.samples)
    rows = [(_fmt(x), _fmt(value)) for x, value in zip(result.positions, result.intensities)]
    return _csv_text("x_m,intensity", rows), 0


def cmd_visibility(args, config: ExperimentConfig) -> tuple[str, int]:
    result = visibility(config.density(), scan=config.scan_settings(env_seed=_env_seed()))
    return _json_text(_fields(result, "formula_v", "scan_v", "i_max", "i_min", "sum_g", "bound")), 0


def cmd_born_check(args, config: ExperimentConfig) -> tuple[str, int]:
    _check_integer("--phase-samples", args.phase_samples, 1)
    check_budget(args.phase_samples, config.n, f"--phase-samples {args.phase_samples}")
    rho = config.density()
    settings = config.scan_settings(override_seed=args.seed, env_seed=_env_seed())
    rng = np.random.default_rng(settings.seed)
    samples = rng.uniform(0.0, 2.0 * np.pi, size=(args.phase_samples, config.n))
    worst = max(abs(born_residual(rho, row)) for row in samples)
    passed = worst <= _tolerance(args, config, _BORN_DEFAULT_TOL)
    return _json_text({"max_abs_residual": _jsonable(worst)}), 0 if passed else 1


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
        text, code = args.handler(args, ExperimentConfig.from_path(args.config))
        if args.output == "-":
            sys.stdout.write(text)
        else:
            with open(args.output, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        return code
    except (ConfigError, OSError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InterfereError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
