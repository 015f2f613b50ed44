"""Committed answers of the reference scan for states whose walk is slow.

At N = 4 ``reference_scan.scan_extrema`` walks the 256^3 grid once per
extremum, about 2 s for one state, so ``test_default_settings_match_reference``
reads that state's ``(i_max, i_min)`` from ``reference_extrema.json``
instead, and ``test_old_scan_miss_is_not_certified`` reads the grid-minimum
phases of its seed-109 state, which the reference descends from.  The file
stores each state's entries with its answer, so a test can check that it
scans the very state the reference did.  Regenerate it from the repository
root after a change to the reference or to the states:

    PYTHONPATH=src:tests python tests/reference_extrema.py
"""

import json
from pathlib import Path

import numpy as np

PATH = Path(__file__).with_name("reference_extrema.json")


def _entries(case):
    return np.array(case["real"]) + 1j * np.array(case["imag"])


def load(n):
    """``[(entries, (i_max, i_min)), ...]`` stored for ``n`` sources."""
    return [(_entries(case), tuple(case["extrema"])) for case in json.loads(PATH.read_text())[str(n)]]


def load_seed_109_grid_minimum():
    """``(entries, phases)``: the seed-109 state and the minimum of its 256^3 grid."""
    case = json.loads(PATH.read_text())["seed_109_grid_minimum"]
    return _entries(case), np.array(case["phases"])


def main():
    import reference_scan as ref
    import test_certificate as tc
    import test_scan_engine as tse
    from interfere import ScanSettings, mix

    def stored(rho, **answer):
        return {"real": rho.entries.real.tolist(), "imag": rho.entries.imag.tolist(), **answer}

    cases = [stored(rho, extrema=ref.scan_extrema(rho, ScanSettings())) for rho in tse.default_settings_states(4)]
    rho = mix(tc._seed_109_state())
    _, phases = ref._grid_extremum(float(rho.populations.sum()), rho.pairs, 4, ref.GRID_POINTS, -1.0)
    grid_minimum = stored(rho, phases=phases.tolist())
    PATH.write_text(json.dumps({"4": cases, "seed_109_grid_minimum": grid_minimum}, indent=1) + "\n")


if __name__ == "__main__":
    main()
