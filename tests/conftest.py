import numpy as np
import pytest

from pdmsim import DensityState
from pdmsim.linalg import PAULIS, kron
from pdmsim.verify import TrialDraws, draw_schedules, qr_isometries, schedule_width, stinespring_channels


def random_hermitian(dim, rng):
    G = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (G + G.conj().T) / 2


def random_density(qubits, rng):
    """Random full-rank mixed state from a Ginibre matrix."""
    d = 2**qubits
    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    M = G @ G.conj().T
    return DensityState(M / np.trace(M).real)


def random_pure(qubits, rng):
    d = 2**qubits
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    v /= np.linalg.norm(v)
    return DensityState(np.outer(v, v.conj()))


def ginibre(rows, cols, rng):
    """Complex Gaussian matrix: all real parts are drawn first, then all imaginary parts."""
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def haar_unitary(dim, rng):
    """Haar-random unitary: QR of a complex Ginibre matrix, phase-fixed."""
    return qr_isometries([ginibre(dim, dim, rng)], haar=True)[0]


def random_bloch(rng):
    """A Bloch vector of uniform direction and a radius uniform in [0, 1)."""
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return v * rng.uniform(0, 1)


def random_cptp(qubits, kraus_rank, rng):
    """Random CPTP channel from a random Stinespring isometry (QR of a Gaussian)."""
    d = 2**qubits
    return stinespring_channels([ginibre(d * kraus_rank, d, rng)])[0]


def random_schedule(rng, max_events=4):
    """Random schedule with <= max_events events on 1-3 qubits and random CPTP gaps, drawn as ``pdm verify`` draws.

    ``rng`` serves as both of the trial's streams: its uniforms, then its normals.
    """
    draws = TrialDraws(rng, rng, range(1))
    return draw_schedules(draws, draws.uniform(schedule_width(max_events)), max_events)[0]


def pdm_expectation(R, assignment):
    """Read an expectation back out of the PDM's matrix: Tr((tensor of Paulis) R)."""
    return float(np.trace(kron([PAULIS[l] for l in assignment]) @ R.matrix).real)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
