"""Committed answers of the reference scan for states whose walk is slow.

At N = 4 ``reference_scan.scan_extrema`` walks the 256^3 grid once per
extremum, about 2 s for one state, so ``test_default_settings_match_reference``
reads that state's ``(i_max, i_min)`` from ``reference_extrema.json``
instead.  The file stores each state's entries with its extrema, so a test
can check that it scans the very state the reference did.  Regenerate it
from the repository root after a change to the reference or to the state:

    PYTHONPATH=src:tests python tests/reference_extrema.py
"""

import json
from pathlib import Path

import numpy as np

PATH = Path(__file__).with_name("reference_extrema.json")


def load(n):
    """``[(entries, (i_max, i_min)), ...]`` stored for ``n`` sources."""
    stored = json.loads(PATH.read_text())[str(n)]
    return [(np.array(case["real"]) + 1j * np.array(case["imag"]), tuple(case["extrema"])) for case in stored]


def main():
    import reference_scan as ref
    import test_scan_engine as tse
    from interfere import ScanSettings

    cases = [
        {
            "real": rho.entries.real.tolist(),
            "imag": rho.entries.imag.tolist(),
            "extrema": ref.scan_extrema(rho, ScanSettings()),
        }
        for rho in tse.default_settings_states(4)
    ]
    PATH.write_text(json.dumps({"4": cases}, indent=1) + "\n")


if __name__ == "__main__":
    main()
