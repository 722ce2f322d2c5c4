"""Dense complex operator algebra for small multi-qubit systems.

Everything here works on plain ``numpy`` complex arrays. The fixed
convention throughout the package: tensor factor 1 is the *leftmost*
Kronecker factor and the most significant bit of the computational basis
index, i.e. basis states are |b1 b2 ... bn> with b1 the high bit.
"""

from __future__ import annotations

import ctypes
import functools
import pathlib
from typing import Iterator, Sequence

import numpy as np

from .errors import InvariantViolation, UsageError

# Tolerances shared across the package.
HERM_ATOL = 1e-12
PSD_ATOL = 1e-10


def _blas_thread_calls():
    """OpenBLAS's calls that get and set its thread count, from the copy numpy bundles, or None.

    numpy's wheels ship OpenBLAS as ``numpy.libs/libscipy_openblas64_-*.so``
    (``numpy/.dylibs`` on macOS); loading it again returns the copy numpy
    already uses. A numpy built against another BLAS has neither call.
    """
    root = pathlib.Path(np.__file__).parent
    for path in sorted([*root.parent.glob("numpy.libs/*scipy_openblas*"), *root.glob(".dylibs/*scipy_openblas*")]):
        try:
            lib = ctypes.CDLL(str(path))
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype, get.argtypes = ctypes.c_int, []
        set_.restype, set_.argtypes = None, [ctypes.c_int]
        return get, set_
    return None


#: The (get, set) pair of OpenBLAS thread-count calls, or None when numpy's BLAS has none.
_BLAS_THREADS = _blas_thread_calls()


def single_threaded(f):
    """f, run with OpenBLAS's thread count set to 1 and the count it found restored after.

    A product or eigensolve large enough for OpenBLAS to split wakes its
    worker threads, which on a busy 2-vCPU host took 5-15 ms per call and
    varied from call to call, against ~0.1 ms for the work. The count is
    restored in a ``finally``, so a raise restores it too, and a guarded call
    inside another restores the outer call's 1. Without the calls (numpy on
    another BLAS) f is returned unchanged. The count is process-wide: pdmsim
    calls from two Python threads at once may leave it at 1.
    """
    if _BLAS_THREADS is None:
        return f
    get, set_ = _BLAS_THREADS

    @functools.wraps(f)
    def guarded(*args, **kwargs):
        threads = get()
        set_(1)
        try:
            return f(*args, **kwargs)
        finally:
            set_(threads)

    return guarded


def read_only(M: np.ndarray) -> np.ndarray:
    """M, made read-only: a constant every caller shares, which no caller may change."""
    M.setflags(write=False)
    return M


I2 = read_only(np.eye(2, dtype=complex))
X = read_only(np.array([[0, 1], [1, 0]], dtype=complex))
Y = read_only(np.array([[0, -1j], [1j, 0]], dtype=complex))
Z = read_only(np.array([[1, 0], [0, -1]], dtype=complex))

#: Single-qubit Pauli matrices indexed by label 0..3 (I, X, Y, Z), read-only.
PAULIS = (I2, X, Y, Z)
#: The same Paulis stacked by label as one read-only (4, 2, 2) array.
PAULI_STACK = read_only(np.stack(PAULIS))


def kron(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of a nonempty list, leftmost factor most significant.

    A factor may be a ``(..., m, n)`` stack; the leading axes broadcast, so
    ``kron([K, I])`` pairs I with each operator of a stack K. Each step is one
    broadcast outer product: np.kron's entries bit for bit, in about a fifth
    of its time on a pair of 2x2 factors and a third on a stack of 50.
    """
    if len(factors) == 0:
        raise UsageError("kron requires at least one factor")
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        f = np.asarray(f)
        (m, n), (p, q) = out.shape[-2:], f.shape[-2:]
        out = out[..., :, None, :, None] * f[..., None, :, None, :]
        out = out.reshape(out.shape[:-4] + (m * p, n * q))
    return out


def dagger(M: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a ``(..., D, D)`` stack."""
    return M.swapaxes(-1, -2).conj()


def is_hermitian(M: np.ndarray) -> bool:
    """Whether a matrix, or every matrix of a ``(..., D, D)`` stack, is Hermitian to ``HERM_ATOL``."""
    return bool(abs(M - dagger(M)).max() <= HERM_ATOL)


def require_hermitian_unit_trace(M: np.ndarray, name: str) -> None:
    """Raise ``InvariantViolation`` unless M is Hermitian with trace 1, both to ``HERM_ATOL``.

    M is one matrix, called ``name``, or a ``(T, D, D)`` stack whose first bad
    matrix k is called "``name`` k of the stack". The trace's real and
    imaginary parts are checked apart. Every check fails on a NaN.
    """
    tr = np.trace(M, axis1=-2, axis2=-1)
    ok = (abs(tr.real - 1.0) <= HERM_ATOL) & (abs(tr.imag) <= HERM_ATOL)
    if ok.all() and is_hermitian(M):
        return
    stack, tr, ok = M.reshape((-1,) + M.shape[-2:]), np.ravel(tr), np.ravel(ok)
    k = next(k for k, A in enumerate(stack) if not (is_hermitian(A) and ok[k]))
    what = f"{name} {k} of the stack" if M.ndim > 2 else name
    problem = f"has trace {tr[k]}, not 1" if is_hermitian(stack[k]) else "is not Hermitian"
    raise InvariantViolation(f"{what} {problem}")


def qubits_of_dim(d: int) -> int | None:
    """n with 2^n = d, or None when d is not a power of two.

    The one map from a dimension to a qubit count. It never computes 2^n, so
    a caller may compare the result with a count read from a file, however large.
    """
    return d.bit_length() - 1 if d >= 1 and d & (d - 1) == 0 else None


def chunk_slices(count: int, item_size: int, budget: int) -> Iterator[slice]:
    """Slices that cover ``range(count)`` in order, ``max(1, budget // item_size)`` items each.

    They are made one at a time, so a loop over many chunks holds one slice.
    """
    size = max(1, budget // item_size)
    return (slice(lo, lo + size) for lo in range(0, count, size))


@single_threaded
def hermitian_eig(M: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix or of each matrix of a ``(..., D, D)`` stack.

    Returns them real and ascending along the last axis. The input is
    symmetrized as ``(M + M^dag)/2`` before solving to absorb rounding noise;
    inputs farther than ``HERM_ATOL`` from Hermitian are rejected (for a
    stack, one such matrix rejects the whole stack).

    No eigenvectors are solved for: the eigenvalues alone cost less. The
    solve runs under ``single_threaded``: unguarded, from 64x64 (a 6-event
    PDM) up, OpenBLAS's worker thread ran as long as the calling thread
    (2-vCPU x86-64 host, OpenBLAS 0.3.31).
    """
    M = np.asarray(M, dtype=complex)
    if not is_hermitian(M):
        raise UsageError("hermitian_eig requires a Hermitian matrix")
    return np.linalg.eigvalsh((M + dagger(M)) / 2.0)


def embed_operator(K: np.ndarray, qubit: int, qubit_count: int) -> np.ndarray:
    """Embed a single-qubit operator acting on ``qubit`` into a ``qubit_count``-qubit system.

    ``K`` is one 2x2 operator or a ``(..., 2, 2)`` stack of them, each
    embedded as ``kron([I, K, I])``; identity acts on every other qubit.
    """
    K = np.asarray(K, dtype=complex)
    if not 0 <= qubit < qubit_count:
        raise UsageError(f"qubit {qubit} out of range for {qubit_count} qubits")
    if K.ndim < 2 or K.shape[-2:] != (2, 2):
        raise UsageError(f"operator shape {K.shape} does not act on one qubit")
    return kron([np.eye(2**qubit), K, np.eye(2 ** (qubit_count - qubit - 1))])
