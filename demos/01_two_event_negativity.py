"""Two measurements on one qubit give a matrix no spatial state can produce.

A single qubit in |0> is measured twice with nothing happening in between.
Collecting the expectation values of all 16 products of Pauli outcomes into
a density-matrix-shaped object yields a Hermitian unit-trace matrix with a
negative eigenvalue: proof that the two "systems" cannot be spacelike
separated.
"""

import numpy as np

from pdmsim import build_pdm, classify, f_tr, state_from_bloch, two_event_schedule

s = two_event_schedule(state_from_bloch([0, 0, 1]), None)
R = build_pdm(s)

print("pseudo-density matrix (real part):")
print(np.round(R.matrix.real, 6))

rep = classify(R)
print("\neigenvalues:", np.round(rep.eigenvalues, 6))
print("minimum eigenvalue:", rep.min_eigenvalue)
print("classification:", rep.classification)
print("causality monotone f_tr = ||R||_tr - 1 =", f_tr(R))

# Compare with the same two measurements on two *separate* qubits in |00>:
from pdmsim import DensityState, Event, Schedule

rho = DensityState(np.kron(np.diag([1, 0]), np.diag([1, 0])).astype(complex))
spacelike = Schedule(rho, (Event(1, 0, 0), Event(2, 1, 0)))
print("\nspacelike version:", classify(build_pdm(spacelike)).classification)
