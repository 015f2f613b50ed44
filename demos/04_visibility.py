"""Two readings of fringe visibility, and why they disagree beyond N = 2.

The formula reading sums all off-diagonal coherence and can exceed 1 when
more than two sources interfere. The scan reading searches detection
phases for the actual brightest and darkest points, so it never leaves
[0, 1], and proves each within 1e-12 when it prints "certified". For two
sources the readings coincide.
"""

import numpy as np

from interfere import Amplitudes, EmissionModel, g1, mix, visibility

print("two balanced sources, sweeping p_id:")
print(f"  {'p_id':>6} {'formula_v':>11} {'scan_v':>11} {'|g1|':>11}")
for p_id in (0.0, 0.25, 0.5, 0.75, 1.0):
    rho = mix(EmissionModel(Amplitudes.normalized([1.0, 1.0]), p_id=p_id))
    result = visibility(rho)
    print(
        f"  {p_id:>6.2f} {result.formula_v:>11.6f} {result.scan_v:>11.6f}"
        f" {abs(g1(rho, 0, 1)):>11.6f}"
    )

print()
print("equal sources at full coherence, sweeping the source count:")
print("(the true extrema lie in [i_min_lower, i_min] and [i_max, i_max_upper])")
print(
    f"  {'N':>3} {'formula_v':>11} {'scan_v':>11} {'i_max':>8} {'i_max_upper':>12}"
    f" {'i_min':>10} {'i_min_lower':>12} {'certified':>10} {'bound':>7}"
)
for n in (2, 3, 4):
    rho = mix(EmissionModel(Amplitudes.normalized(np.ones(n)), p_id=1.0))
    result = visibility(rho)
    certified = "yes" if result.max_certified and result.min_certified else "no"
    print(
        f"  {n:>3} {result.formula_v:>11.6f} {result.scan_v:>11.6f}"
        f" {result.i_max:>8.4f} {result.i_max_upper:>12.9f}"
        f" {result.i_min:>10.2e} {result.i_min_lower:>12.2e} {certified:>10} {result.bound:>7.2f}"
    )

print()
print("formula_v tracks (N - 1) p_id for equal sources and is a reading of")
print("coherence, not of any single realizable fringe contrast.")
