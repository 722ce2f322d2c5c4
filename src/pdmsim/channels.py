"""Density matrices, Kraus-form CPTP channels and time-parametrized noise models."""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantViolation, UsageError
from .linalg import (
    PAULI_STACK,
    PSD_ATOL,
    I2,
    X,
    Y,
    Z,
    dagger,
    hermitian_eig,
    qubits_of_dim,
    read_only,
    require_hermitian_unit_trace,
    single_threaded,
)

TP_ATOL = 1e-10
#: Bytes ``noise_kraus`` may return. A composite's Kraus count is the product
#: of its members', so m depolarizing members give 4^m operators per time:
#: at the 256 times of a transition scan, 5 members take 16 MiB and 6 would
#: take 64 MiB.
KRAUS_BYTE_BUDGET = 32 * 2**20
#: The Kraus-operator count of each single-qubit noise family, by name: the
#: one list of the families ``NoiseModel``, ``noise_kraus`` and the file parsers accept.
FAMILY_KRAUS_COUNTS = {"dephasing": 2, "depolarizing": 4, "amplitude_damping": 2}


@dataclass(frozen=True, eq=False)
class DensityState:
    """A validated n-qubit density matrix, held as a read-only copy; n is read from its dimension.

    Equality is identity, so a state hashes; compare ``matrix`` for equal entries.
    """

    matrix: np.ndarray

    def __post_init__(self):
        M = read_only(np.array(self.matrix, dtype=complex))
        if M.ndim != 2 or M.shape[0] != M.shape[1] or not qubits_of_dim(len(M)):
            raise InvariantViolation(f"state shape {M.shape} is not 2^n x 2^n for any n >= 1")
        _require_density(M)
        object.__setattr__(self, "matrix", M)

    @property
    def qubit_count(self) -> int:
        return qubits_of_dim(len(self.matrix))


def _require_density(M: np.ndarray) -> None:
    """Raise ``InvariantViolation`` unless M is a density matrix: Hermitian, unit trace and PSD.

    M is one matrix or a (T, D, D) stack, checked with one
    ``require_hermitian_unit_trace`` and one ``hermitian_eig``; in a stack the
    first bad matrix k is named "density matrix k of the stack".
    """
    require_hermitian_unit_trace(M, "density matrix")
    w = hermitian_eig(M)
    # Written to fail on NaN, which every comparison loses.
    if w.min() >= -PSD_ATOL:
        return
    low = w.reshape(-1, w.shape[-1])[:, 0]
    k = int(np.argmax(~(low >= -PSD_ATOL)))
    what = f"density matrix {k} of the stack" if M.ndim > 2 else "density matrix"
    raise InvariantViolation(f"{what} has eigenvalue {low[k]:.3e} < -{PSD_ATOL}")


def density_states(stack) -> list[DensityState]:
    """The density matrices of a (T, D, D) stack as T states, checked as one stack.

    One ``require_hermitian_unit_trace`` and one eigenvalue solve check every
    matrix; each state then holds its read-only row of one copy of the stack.
    """
    M = read_only(np.array(stack, dtype=complex))
    if M.ndim != 3 or len(M) == 0 or M.shape[1] != M.shape[2] or not qubits_of_dim(M.shape[1]):
        raise InvariantViolation(f"state stack shape {M.shape} is not (T, 2^n, 2^n) for any T, n >= 1")
    _require_density(M)
    states = [object.__new__(DensityState) for _ in range(len(M))]
    for st, row in zip(states, M):
        object.__setattr__(st, "matrix", row)
    return states


def state_from_bloch(r) -> DensityState:
    """Single-qubit state (I + r.x X + r.y Y + r.z Z)/2 from a Bloch vector."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise UsageError("Bloch vector must have 3 components")
    if not np.all(np.isfinite(r)):
        raise UsageError(f"Bloch vector components must be finite, got {r.tolist()}")
    if np.linalg.norm(r) > 1 + 1e-12:
        raise UsageError(f"Bloch vector norm {np.linalg.norm(r):.6f} exceeds 1")
    return DensityState(bloch_matrix(r))


def bloch_matrix(r) -> np.ndarray:
    """The matrix (I + r.x X + r.y Y + r.z Z)/2, unvalidated; ``state_from_bloch`` checks r."""
    return (I2 + r[0] * X + r[1] * Y + r[2] * Z) / 2.0


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A map given by its Kraus operators, held as a read-only (K, d, d) copy, on log2(d) qubits.

    Completely positive by construction; ``tp_residual`` measures trace
    preservation. Equality is identity, so a channel hashes.
    """

    kraus_ops: np.ndarray

    def __post_init__(self):
        try:
            ks = read_only(np.array(self.kraus_ops, dtype=complex))
        except (TypeError, ValueError):
            raise UsageError("Kraus operators must be square matrices of one shape") from None
        if ks.ndim != 3 or len(ks) == 0 or ks.shape[1] != ks.shape[2] or not qubits_of_dim(ks.shape[1]):
            raise UsageError(
                f"Kraus operators must form a (K, d, d) array with K >= 1 and d a power of two >= 2, "
                f"got shape {ks.shape}"
            )
        object.__setattr__(self, "kraus_ops", ks)

    @property
    def qubits(self) -> int:
        return qubits_of_dim(self.kraus_ops.shape[-1])

    @functools.cached_property
    def tp_residual(self) -> float:
        """Trace-preservation residual max|sum_k K_k^dag K_k - I|.

        Computed once per channel and kept on it, so a unitary gap checked by
        ``unitary_channel`` and again by its ``Schedule`` costs one computation.
        A maker of many channels may store it first (``stinespring_channels``).
        """
        return float(tp_residuals(self.kraus_ops[None])[0])


def tp_residuals(kraus: np.ndarray) -> np.ndarray:
    """max|sum_k K_k^dag K_k - I| of each channel of a (T, K, d, d) Kraus array, shape (T,).

    One contraction over the whole array, so a stack of channels costs one call.
    """
    acc = np.einsum("tkba,tkbc->tac", kraus.conj(), kraus)
    return np.max(np.abs(acc - np.eye(kraus.shape[-1])), axis=(1, 2))


def unitary_channel(U: np.ndarray) -> KrausChannel:
    """The one-Kraus channel U; U is unitary exactly when that channel is trace preserving."""
    ch = KrausChannel(np.asarray(U, dtype=complex)[None])
    # Written to fail on NaN, which every comparison loses.
    if not ch.tp_residual <= TP_ATOL:
        raise UsageError("matrix is not unitary")
    return ch


def is_noise_family(kind) -> bool:
    """Whether ``kind`` names a noise family of ``FAMILY_KRAUS_COUNTS``; a JSON list or object names none."""
    return isinstance(kind, str) and kind in FAMILY_KRAUS_COUNTS


def _family_kraus(kind: str, s: np.ndarray) -> np.ndarray:
    """Kraus operators of a single-qubit noise family at the strengths s, shape (T, K, 2, 2).

    The one place each family's formula is written; ``make_channel`` and
    ``noise_kraus`` both call it.
    """
    if kind == "dephasing":
        w = np.empty((len(s), 2))
        w[:, 0] = (1 + s) / 2
        w[:, 1] = (1 - s) / 2
        return np.sqrt(w)[..., None, None] * PAULI_STACK[::3]  # I and Z
    if kind == "depolarizing":
        w = np.empty((len(s), 4))
        w[:, 0] = (1 + 3 * s) / 4
        w[:, 1:] = ((1 - s) / 4)[:, None]
        return np.sqrt(w)[..., None, None] * PAULI_STACK
    if kind == "amplitude_damping":
        ks = np.zeros((len(s), 2, 2, 2), dtype=complex)
        ks[:, 0, 0, 0] = 1.0
        ks[:, 0, 1, 1] = np.sqrt(1 - s)
        ks[:, 1, 0, 1] = np.sqrt(s)
        return ks
    raise UsageError(f"unknown channel kind {kind!r}")


def make_channel(kind: str, param: float) -> KrausChannel:
    """Standard single-qubit noise channels: ``noise_kraus``'s family formulas at one strength.

    dephasing(gamma): off-diagonals survive with factor gamma.
    depolarizing(lam): the Bloch vector shrinks by lam.
    amplitude_damping(p): decay toward |0> with probability p.
    """
    if not (0.0 <= param <= 1.0):
        raise UsageError(f"{kind} parameter must be in [0, 1], got {param}")
    return KrausChannel(_family_kraus(kind, np.array([param], dtype=float))[0])


def compose(first: KrausChannel, then: KrausChannel) -> KrausChannel:
    """Channel applying ``first`` and then ``then`` (pairwise Kraus products)."""
    if first.qubits != then.qubits:
        raise UsageError("cannot compose channels of different dimension")
    return KrausChannel(np.array([B @ A for B in then.kraus_ops for A in first.kraus_ops]))


@single_threaded
def kraus_sum(E: np.ndarray, M: np.ndarray) -> np.ndarray:
    """sum_k E_k M E_k^dag, for one channel on a stack of operators or a stack of channels on one.

    E is one channel's (K, D, D) Kraus operators and M a (..., D, D) stack, or
    E is a (..., K, D, D) stack of channels and M one (D, D) operator; the
    result has the stack's shape. For one channel on N operators, the sum is
    two 2-D products: (K D x D) @ (D x N D) makes every E_k M_n, and
    (N D x K D) @ (K D x D) multiplies them by the E_k^dag stacked along its
    inner axis, so the sum over k is made inside the product. For a stack of
    T channels, the first product is (T K D x D) @ (D x D) and the second a
    batch of T (D x K D) @ (K D x D) products. Both run under
    ``single_threaded``, so OpenBLAS keeps them on the calling thread. An
    all-zero operator adds nothing, so rows with fewer operators may be
    padded with them.
    """
    K, D = E.shape[-3], E.shape[-1]
    Ed = dagger(E).reshape(E.shape[:-3] + (K * D, D))
    if E.ndim == 3:
        stack = M.reshape(-1, D, D)
        n = len(stack)
        A = E.reshape(K * D, D) @ stack.transpose(1, 0, 2).reshape(D, n * D)
        A = A.reshape(K, D, n, D).transpose(2, 1, 0, 3).reshape(n * D, K * D)
        return (A @ Ed).reshape(M.shape)
    if M.ndim != 2:
        raise UsageError("kraus_sum takes one channel on a stack or a stack of channels on one operator")
    Es, Ed = E.reshape(-1, K * D, D), Ed.reshape(-1, K * D, D)
    t = len(Es)
    A = (Es.reshape(t * K * D, D) @ M).reshape(t, K, D, D)
    return (A.transpose(0, 2, 1, 3).reshape(t, D, K * D) @ Ed).reshape(E.shape[:-3] + (D, D))


def choi_stack(ks: np.ndarray) -> np.ndarray:
    """Unnormalized Choi matrices sum_ij |i><j| (x) E(|i><j|) of a (T, K, d, d) Kraus array.

    Entry ((i, a), (j, b)) of row t is sum_k K_tk[a, i] conj(K_tk[b, j]): one
    contraction over the whole array, shape (T, d^2, d^2). All-zero Kraus
    operators add nothing, so rows with fewer operators may be padded with them.
    """
    T, _, d, _ = ks.shape
    return np.einsum("tkai,tkbj->tiajb", ks, ks.conj()).reshape(T, d * d, d * d)


def kraus_array(channels) -> np.ndarray:
    """Kraus operators of channels of one dimension as one (T, K, d, d) array, K the largest count.

    Fewer operators are padded with zero ones, which add nothing to ``kraus_sum`` or ``choi_stack``.
    """
    chans = list(channels)
    if not chans:
        raise UsageError("kraus_array needs at least one channel")
    d = chans[0].kraus_ops.shape[-1]
    if any(ch.kraus_ops.shape[-1] != d for ch in chans):
        raise UsageError("kraus_array needs channels of one dimension")
    ks = np.zeros((len(chans), max(len(ch.kraus_ops) for ch in chans), d, d), dtype=complex)
    for row, ch in zip(ks, chans):
        row[: len(ch.kraus_ops)] = ch.kraus_ops
    return ks


@dataclass(frozen=True, eq=False)
class NoiseModel:
    """Time-parametrized noise family.

    kind: dephasing | depolarizing | amplitude_damping | unitary | composite.
    tau: the exponential time constant (seconds) for the noise kinds.
    unitary: fixed unitary for kind="unitary", held as a read-only copy.
    members: ordered submodels for kind="composite", applied left to right, held as a tuple.

    Equality is identity, so a model hashes.
    """

    kind: str
    tau: float | None = None
    unitary: np.ndarray | None = None
    members: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if is_noise_family(self.kind):
            if not isinstance(self.tau, numbers.Real) or not self.tau > 0 or not math.isfinite(self.tau):
                raise UsageError(
                    f"{self.kind} model requires a finite time constant tau > 0, got {self.tau!r}"
                )
        elif self.kind == "unitary":
            if self.unitary is None:
                raise UsageError("unitary model requires a matrix")
            try:
                U = read_only(np.array(self.unitary, dtype=complex))
            except (TypeError, ValueError):
                raise UsageError("unitary model requires a matrix of numbers") from None
            object.__setattr__(self, "unitary", U)
        elif self.kind == "composite":
            try:
                object.__setattr__(self, "members", tuple(self.members))
            except TypeError:
                raise UsageError(f"composite members must be a sequence of models, got {self.members!r}") from None
            if len(self.members) == 0:
                raise UsageError("composite model requires at least one member")
            for m in self.members:
                if not isinstance(m, NoiseModel):
                    raise UsageError(f"composite members must be noise models, got {m!r}")
        else:
            raise UsageError(f"unknown noise model kind {self.kind!r}")


def noise_kraus(model: NoiseModel, ts) -> np.ndarray:
    """Kraus operators of the noise model at every waiting time in ts, as one (T, K, d, d) array.

    Row k is the channel after waiting ts[k] seconds:

    - dephasing: gamma(t) = exp(-t/tau)
    - depolarizing: lam(t) = exp(-t/tau)
    - amplitude_damping: p(t) = 1 - exp(-t/tau)
    - unitary: the fixed unitary, and the identity at t = 0
    - composite: the members at the same time, applied left to right, as
      the pairwise products of their Kraus operators in ``compose``'s order

    t = 0 is always the identity channel. A negative (or NaN) time is a
    ``UsageError``, and so is a result over ``KRAUS_BYTE_BUDGET``, which is
    worked out from the model before anything is built.
    """
    ts = np.asarray(ts, dtype=float).reshape(-1)
    bad = ts[~(ts >= 0)]
    if bad.size:
        raise UsageError(f"time must be nonnegative, got {bad[0]}")
    count, d = _kraus_shape(model)
    needed = 16 * len(ts) * count * d * d
    if needed > KRAUS_BYTE_BUDGET:
        what = f"a composite of {len(model.members)} members" if model.members else f"{model.kind} noise"
        raise UsageError(
            f"{what} has {count} Kraus operators per time and needs {needed} bytes "
            f"at {len(ts)} times, over the {KRAUS_BYTE_BUDGET}-byte budget"
        )
    return _kraus_at(model, ts)


def _kraus_shape(model: NoiseModel) -> tuple[int, int]:
    """The Kraus count and dimension of the model at one time, read from the model alone."""
    if model.kind == "unitary":
        return 1, len(model.unitary)
    if model.kind == "composite":
        shapes = [_kraus_shape(m) for m in model.members]
        return math.prod(k for k, _ in shapes), shapes[0][1]
    return FAMILY_KRAUS_COUNTS[model.kind], 2


def _kraus_at(model: NoiseModel, ts: np.ndarray) -> np.ndarray:
    if model.kind == "unitary":
        U = unitary_channel(model.unitary).kraus_ops[0]
        return np.where((ts == 0)[:, None, None, None], np.eye(len(U)), U)
    if model.kind == "composite":
        ks = _kraus_at(model.members[0], ts)
        for m in model.members[1:]:
            ks = _kraus_products(_kraus_at(m, ts), ks)
        return ks
    # libm's exp per time, not numpy's: the two differ in the last bit on a few
    # percent of inputs, and one-time channels in schedule files go through
    # here, so ``pdm build`` prints the same digits as with ``math.exp``.
    decay = np.array([math.exp(-t / model.tau) for t in ts.tolist()])
    return _family_kraus(model.kind, 1.0 - decay if model.kind == "amplitude_damping" else decay)


def _kraus_products(then: np.ndarray, first: np.ndarray) -> np.ndarray:
    """then[t, b] @ first[t, a] at index b * K_a + a, ``compose``'s order, for (T, K, d, d) arrays.

    Written as d broadcast outer products: numpy's batched matmul and einsum
    both take ~5x longer on stacks of 2x2 matrices.
    """
    d = first.shape[-1]
    if then.shape[-1] != d:
        raise UsageError("cannot compose channels of different dimension")
    B, A = then[:, :, None], first[:, None]
    out = B[..., :, :1] * A[..., :1, :]
    for j in range(1, d):
        out += B[..., :, j : j + 1] * A[..., j : j + 1, :]
    return out.reshape(len(first), -1, d, d)


def channel_at_time(model: NoiseModel, t: float) -> KrausChannel:
    """Snapshot the noise model at waiting time t (seconds): ``noise_kraus`` at one time."""
    return KrausChannel(noise_kraus(model, [t])[0])
