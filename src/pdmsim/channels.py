"""Density matrices, Kraus-form CPTP channels and time-parametrized noise models."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantViolation, UsageError
from .linalg import HERM_ATOL, PSD_ATOL, I2, X, Y, Z, dagger, embed_operator, hermitian_eig

TP_ATOL = 1e-10


@dataclass(frozen=True)
class DensityState:
    """A validated n-qubit density matrix."""

    matrix: np.ndarray
    qubit_count: int

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=complex)
        d = 2**self.qubit_count
        if M.shape != (d, d):
            raise InvariantViolation(f"state shape {M.shape} does not match {self.qubit_count} qubits")
        if np.max(np.abs(M - M.conj().T)) > HERM_ATOL:
            raise InvariantViolation("density matrix is not Hermitian")
        if abs(np.trace(M).real - 1.0) > HERM_ATOL or abs(np.trace(M).imag) > HERM_ATOL:
            raise InvariantViolation("density matrix trace is not 1")
        w, _ = hermitian_eig(M, vectors=False)
        if w[0] < -PSD_ATOL:
            raise InvariantViolation(f"density matrix has eigenvalue {w[0]:.3e} < -{PSD_ATOL}")
        object.__setattr__(self, "matrix", M)

    @classmethod
    def from_matrix(cls, M: np.ndarray) -> "DensityState":
        d = np.asarray(M).shape[0]
        n = int(round(math.log2(d)))
        if 2**n != d:
            raise UsageError(f"dimension {d} is not a power of 2")
        return cls(np.asarray(M, dtype=complex), n)


def state_from_bloch(r) -> DensityState:
    """Single-qubit state (I + r.x X + r.y Y + r.z Z)/2 from a Bloch vector."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise UsageError("Bloch vector must have 3 components")
    if not np.all(np.isfinite(r)):
        raise UsageError(f"Bloch vector components must be finite, got {r.tolist()}")
    if np.linalg.norm(r) > 1 + 1e-12:
        raise UsageError(f"Bloch vector norm {np.linalg.norm(r):.6f} exceeds 1")
    M = (I2 + r[0] * X + r[1] * Y + r[2] * Z) / 2.0
    return DensityState(M, 1)


@dataclass(frozen=True)
class KrausChannel:
    """A CPTP map given by its Kraus operators, all acting on ``acts_on`` qubits."""

    kraus_ops: tuple
    acts_on: int = 1

    def __post_init__(self):
        if len(self.kraus_ops) == 0:
            raise UsageError("a channel needs at least one Kraus operator")
        d = 2**self.acts_on
        ops = tuple(np.asarray(K, dtype=complex) for K in self.kraus_ops)
        for K in ops:
            if K.shape != (d, d):
                raise UsageError(f"Kraus operator shape {K.shape} does not act on {self.acts_on} qubits")
        object.__setattr__(self, "kraus_ops", ops)

    @property
    def dim(self) -> int:
        return 2**self.acts_on


def identity_channel(qubit_count: int = 1) -> KrausChannel:
    return KrausChannel((np.eye(2**qubit_count, dtype=complex),), qubit_count)


def unitary_channel(U: np.ndarray) -> KrausChannel:
    U = np.asarray(U, dtype=complex)
    if np.max(np.abs(U.conj().T @ U - np.eye(U.shape[0]))) > TP_ATOL:
        raise UsageError("matrix is not unitary")
    n = int(round(math.log2(U.shape[0])))
    return KrausChannel((U,), n)


def make_channel(kind: str, param: float) -> KrausChannel:
    """Standard single-qubit noise channels.

    dephasing(gamma): off-diagonals survive with factor gamma.
    depolarizing(lam): the Bloch vector shrinks by lam.
    amplitude_damping(p): decay toward |0> with probability p.
    """
    if not (0.0 <= param <= 1.0):
        raise UsageError(f"{kind} parameter must be in [0, 1], got {param}")
    if kind == "dephasing":
        g = param
        ops = (math.sqrt((1 + g) / 2) * I2, math.sqrt((1 - g) / 2) * Z)
    elif kind == "depolarizing":
        lam = param
        ops = (
            math.sqrt((1 + 3 * lam) / 4) * I2,
            math.sqrt((1 - lam) / 4) * X,
            math.sqrt((1 - lam) / 4) * Y,
            math.sqrt((1 - lam) / 4) * Z,
        )
    elif kind == "amplitude_damping":
        p = param
        ops = (
            np.array([[1, 0], [0, math.sqrt(1 - p)]], dtype=complex),
            np.array([[0, math.sqrt(p)], [0, 0]], dtype=complex),
        )
    else:
        raise UsageError(f"unknown channel kind {kind!r}")
    return KrausChannel(ops, 1)


def dephasing_about_axis(axis: np.ndarray, g: float) -> KrausChannel:
    """Dephasing that preserves the given Pauli axis and shrinks the other two by g."""
    if not (0.0 <= g <= 1.0):
        raise UsageError(f"dephasing parameter must be in [0, 1], got {g}")
    A = np.asarray(axis, dtype=complex)
    return KrausChannel((math.sqrt((1 + g) / 2) * I2, math.sqrt((1 - g) / 2) * A), 1)


def compose(first: KrausChannel, then: KrausChannel) -> KrausChannel:
    """Channel applying ``first`` and then ``then`` (pairwise Kraus products)."""
    if first.acts_on != then.acts_on:
        raise UsageError("cannot compose channels of different dimension")
    ops = tuple(B @ A for B in then.kraus_ops for A in first.kraus_ops)
    return KrausChannel(ops, first.acts_on)


def apply_channel_to_matrix(ch: KrausChannel, M: np.ndarray, targets, qubit_count: int) -> np.ndarray:
    """Linear action of the channel on an operator of the full system, or on each of a (..., D, D) stack.

    The Kraus operators are embedded as one stack, and each term K_k M K_k^dag
    is one product over the whole stack, added into the result as it is
    made. So a call holds about three times the stack's memory, whatever the
    Kraus count.
    """
    if ch.acts_on != len(targets):
        raise UsageError(f"channel acts on {ch.acts_on} qubits but {len(targets)} targets given")
    M = np.asarray(M, dtype=complex)
    ks = embed_operator(np.asarray(ch.kraus_ops), targets, qubit_count)
    out = ks[0] @ M @ dagger(ks[0])
    for K in ks[1:]:
        out += K @ M @ dagger(K)
    return out


def apply_channel(ch: KrausChannel, rho: DensityState, targets=None) -> DensityState:
    """Apply the channel to the given qubits of a density matrix."""
    if targets is None:
        targets = list(range(ch.acts_on))
    M = apply_channel_to_matrix(ch, rho.matrix, targets, rho.qubit_count)
    # Symmetrize away rounding dust before revalidation.
    return DensityState((M + M.conj().T) / 2.0, rho.qubit_count)


def choi_matrices(channels) -> np.ndarray:
    """Unnormalized Choi matrices sum_ij |i><j| (x) E(|i><j|) as a (T, d^2, d^2) stack.

    Entry ((i, a), (j, b)) is sum_k K_k[a, i] conj(K_k[b, j]): one contraction
    over the Kraus operators of all the channels, summed per channel. The
    channels must share one dimension; their Kraus counts may differ.
    """
    chans = list(channels)
    if not chans:
        raise UsageError("choi_matrices needs at least one channel")
    d = chans[0].dim
    if any(ch.dim != d for ch in chans):
        raise UsageError("choi_matrices needs channels of one dimension")
    ks = np.array([K for ch in chans for K in ch.kraus_ops])
    starts = np.cumsum([0] + [len(ch.kraus_ops) for ch in chans[:-1]])
    terms = np.einsum("kai,kbj->kiajb", ks, ks.conj())
    return np.add.reduceat(terms, starts, axis=0).reshape(len(chans), d * d, d * d)


def choi_matrix(ch: KrausChannel) -> np.ndarray:
    """Unnormalized Choi matrix of one channel; see ``choi_matrices``."""
    return choi_matrices([ch])[0]


def tp_residual(ch: KrausChannel) -> float:
    """Trace-preservation residual max|sum_k K_k^dag K_k - I|."""
    ks = np.asarray(ch.kraus_ops)
    acc = np.einsum("kba,kbc->ac", ks.conj(), ks)
    return float(np.max(np.abs(acc - np.eye(ch.dim))))


@dataclass(frozen=True)
class ChannelReport:
    tp_residual: float
    choi_min_eigenvalue: float
    valid: bool


def validate_channel(ch: KrausChannel) -> ChannelReport:
    """Check trace preservation and complete positivity of a Kraus channel."""
    tp = tp_residual(ch)
    C = choi_matrix(ch)
    w, _ = hermitian_eig(C, vectors=False)
    cmin = float(w[0])
    return ChannelReport(tp, cmin, tp <= TP_ATOL and cmin >= -PSD_ATOL)


@dataclass(frozen=True)
class NoiseModel:
    """Time-parametrized noise family.

    kind: dephasing | depolarizing | amplitude_damping | unitary | composite.
    tau: the exponential time constant (seconds) for the noise kinds.
    unitary: fixed unitary for kind="unitary".
    members: ordered submodels for kind="composite", applied left to right.
    """

    kind: str
    tau: float | None = None
    unitary: np.ndarray | None = None
    members: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.kind in ("dephasing", "depolarizing", "amplitude_damping"):
            if self.tau is None or not self.tau > 0 or not math.isfinite(self.tau):
                raise UsageError(
                    f"{self.kind} model requires a finite time constant tau > 0, got {self.tau!r}"
                )
        elif self.kind == "unitary":
            if self.unitary is None:
                raise UsageError("unitary model requires a matrix")
        elif self.kind == "composite":
            if len(self.members) == 0:
                raise UsageError("composite model requires at least one member")
        else:
            raise UsageError(f"unknown noise model kind {self.kind!r}")


def channel_at_time(model: NoiseModel, t: float) -> KrausChannel:
    """Snapshot the noise model at waiting time t (seconds).

    dephasing: gamma(t) = exp(-t/tau); depolarizing: lam(t) = exp(-t/tau);
    amplitude_damping: p(t) = 1 - exp(-t/tau). t = 0 is always the identity.
    """
    if t < 0:
        raise UsageError(f"time must be nonnegative, got {t}")
    if model.kind == "dephasing":
        return make_channel("dephasing", math.exp(-t / model.tau))
    if model.kind == "depolarizing":
        return make_channel("depolarizing", math.exp(-t / model.tau))
    if model.kind == "amplitude_damping":
        return make_channel("amplitude_damping", 1.0 - math.exp(-t / model.tau))
    if model.kind == "unitary":
        U = np.asarray(model.unitary, dtype=complex)
        if t == 0:
            return identity_channel(int(round(math.log2(U.shape[0]))))
        return unitary_channel(U)
    # composite: left-to-right composition of the members at the same time
    ch = channel_at_time(model.members[0], t)
    for m in model.members[1:]:
        ch = compose(ch, channel_at_time(m, t))
    return ch
