"""Dephasing noise between the two measurements: causal at every waiting time.

The off-diagonal coherences decay as gamma(t) = exp(-t/tau), the PDM
spectrum is {1, 0, +-gamma/2}, and the minimum eigenvalue approaches zero
from below without ever reaching it. f_tr decays as exp(-t/tau).
"""

from pdmsim import NoiseModel, SweepConfig, emit_svg, rows_to_csv, run_sweep

cfg = SweepConfig(
    bloch=(0, 0, 1),
    noise=NoiseModel("dephasing", tau=1.0),
    t_min=0.0,
    t_max=5.0,
    points=11,
)
sweep = run_sweep(cfg)
print(rows_to_csv(sweep))

with open("dephasing_sweep.svg", "w") as fh:
    fh.write(emit_svg(sweep))
print("wrote dephasing_sweep.svg")
