"""Sharp causal/spacelike transition under depolarizing noise.

Starting from the maximally mixed state, the PDM is
(II + lam (XX + YY + ZZ))/4 with lam(t) = exp(-t/tau); its minimum
eigenvalue (1 - 3 lam)/4 crosses zero at lam = 1/3, i.e. t = ln 3. A pure
initial state shows no such crossing: its minimum eigenvalue stays
strictly negative at every finite time.
"""

import math

from pdmsim import NoiseModel, SweepConfig, find_transition, run_sweep

mixed = SweepConfig(
    bloch=(0, 0, 0),
    noise=NoiseModel("depolarizing", tau=1.0),
    t_min=0.0,
    t_max=5.0,
    points=11,
)
sweep = run_sweep(mixed)
for t, w, f, causal in zip(sweep.t, sweep.eigenvalues, sweep.f_tr, sweep.causal):
    print(
        f"t = {t:5.2f}  min eig = {w[0]:+.6f}  "
        f"f_tr = {f:.6f}  {'causal' if causal else 'spacelike_compatible'}"
    )

t_star = find_transition(mixed)
print(f"\ntransition time t* = {t_star:.9f}  (ln 3 = {math.log(3):.9f})")

pure = SweepConfig(
    bloch=(0, 0, 1),
    noise=NoiseModel("depolarizing", tau=1.0),
    t_min=0.0,
    t_max=5.0,
    points=11,
)
print("pure initial state transition:", find_transition(pure))
