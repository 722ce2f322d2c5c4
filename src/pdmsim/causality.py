"""Trace-norm causality monotone and randomized checks of its axioms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, apply_channel_to_matrix
from .errors import UsageError
from .linalg import PSD_ATOL, dagger, hermitian_eig
from .schedule import PseudoDensityMatrix

CHECK_ATOL = 1e-9
CAUSAL, SPACELIKE = "causal", "spacelike_compatible"

# Tolerance policy. A PDM is classified from its ascending spectrum w alone:
# it is "causal" iff causal_margin(w) = w[0] + PSD_ATOL < 0, and then
# f_tr = sum|w| - 1; otherwise it is "spacelike_compatible" and f_tr is
# exactly 0. A PDM has unit trace to HERM_ATOL, so a causal spectrum has
# sum|w| - 1 >= 2 PSD_ATOL - HERM_ATOL > 0: "causal" holds iff f_tr > 0.
# Eigenvalues in [-PSD_ATOL, 0) are rounding noise, not negativity, and count
# toward neither. No function takes another tolerance.


def causal_margin(w) -> np.ndarray:
    """``w[..., 0] + PSD_ATOL`` for spectra ascending along the last axis of ``w``.

    Negative exactly where the PDM is causal. This is the only place the
    causal threshold is written: for doubles, ``w0 + PSD_ATOL < 0`` holds
    exactly when ``w0 < -PSD_ATOL``, and the sum is 0 exactly when
    ``w0 == -PSD_ATOL``.
    """
    return np.asarray(w, dtype=float)[..., 0] + PSD_ATOL


def spectrum_verdict(w) -> tuple[np.ndarray, np.ndarray]:
    """``(f_tr, causal)`` from eigenvalues ascending along the last axis of ``w``.

    Works on one spectrum (0-d results) or a stack of them; see the tolerance
    policy above.
    """
    w = np.asarray(w, dtype=float)
    causal = causal_margin(w) < 0
    return np.where(causal, np.sum(np.abs(w), axis=-1) - 1.0, 0.0), causal


def _f_tr_matrix(M: np.ndarray) -> np.ndarray:
    """f_tr of a matrix (0-d result) or of each matrix of a stack, from one eigenvalue solve."""
    return spectrum_verdict(hermitian_eig(M))[0]


def f_tr(R: PseudoDensityMatrix) -> float:
    """Causality monotone ||R||_tr - 1, reported as 0 unless R is causal."""
    return float(_f_tr_matrix(R.matrix))


@dataclass(frozen=True)
class CausalityReport:
    f_tr: float
    eigenvalues: tuple
    min_eigenvalue: float
    classification: str  # CAUSAL | SPACELIKE


def classify(R: PseudoDensityMatrix) -> CausalityReport:
    """Classify a PDM as causal or spacelike-compatible under the tolerance policy above."""
    w = hermitian_eig(R.matrix)
    value, causal = spectrum_verdict(w)
    return CausalityReport(
        f_tr=float(value),
        eigenvalues=tuple(float(x) for x in w),
        min_eigenvalue=float(w[0]),
        classification=CAUSAL if causal else SPACELIKE,
    )


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary: QR of a complex Ginibre matrix, phase-fixed."""
    G = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    Q, Rm = np.linalg.qr(G)
    d = np.diagonal(Rm)
    return Q * (d / np.abs(d))


def random_cptp(qubits: int, kraus_rank: int, rng: np.random.Generator) -> KrausChannel:
    """Random CPTP channel from a random Stinespring isometry (QR of a Gaussian)."""
    d = 2**qubits
    G = rng.normal(size=(d * kraus_rank, d)) + 1j * rng.normal(size=(d * kraus_rank, d))
    Q, _ = np.linalg.qr(G)  # isometry: Q^dag Q = I_d
    ops = tuple(Q[k * d : (k + 1) * d, :] for k in range(kraus_rank))
    return KrausChannel(ops, qubits)


@dataclass(frozen=True)
class CheckReport:
    passed: bool
    trials: int
    max_deviation: float


#: Bytes of trial matrices a stacked axiom check holds at once. A chunk has
#: at least one trial, so a large PDM is checked one trial at a time.
CHECK_STACK_BYTES = 2**20


def _trial_chunks(trials: int, dim: int):
    """Consecutive ranges of trials whose (dim, dim) complex matrices fit in CHECK_STACK_BYTES."""
    size = max(1, CHECK_STACK_BYTES // (16 * dim * dim))
    return (range(lo, min(lo + size, trials)) for lo in range(0, trials, size))


def check_unitary_invariance(
    R: PseudoDensityMatrix, trials: int = 100, seed: int = 0
) -> CheckReport:
    """f_tr(U R U^dag) must equal f_tr(R) for Haar-random unitaries U.

    Trials are stacked in chunks of at most CHECK_STACK_BYTES, one eigenvalue
    solve per chunk.
    """
    if trials < 1:
        raise UsageError("trials must be >= 1")
    base = f_tr(R)
    dim = R.matrix.shape[0]
    worst = -np.inf
    for ks in _trial_chunks(trials, dim):
        Us = np.stack([haar_unitary(dim, np.random.default_rng(seed + k)) for k in ks])
        # np.maximum keeps a NaN, so it fails the check.
        worst = np.maximum(worst, np.max(np.abs(_f_tr_matrix(Us @ R.matrix @ dagger(Us)) - base)))
    worst = float(worst)
    return CheckReport(worst <= CHECK_ATOL, trials, worst)


def check_local_monotonicity(
    R: PseudoDensityMatrix, trials: int = 100, seed: int = 0
) -> CheckReport:
    """f_tr must not increase under a CPTP channel on a single event factor.

    Trials are stacked in chunks of at most CHECK_STACK_BYTES, one eigenvalue
    solve per chunk.
    """
    if trials < 1:
        raise UsageError("trials must be >= 1")
    base = f_tr(R)
    n = R.event_count
    worst = -np.inf
    for ks in _trial_chunks(trials, R.matrix.shape[0]):
        outs = []
        for k in ks:
            rng = np.random.default_rng(seed + k)
            ch = random_cptp(1, int(rng.integers(1, 5)), rng)
            factor = int(rng.integers(0, n))
            outs.append(apply_channel_to_matrix(ch, R.matrix, [factor], n))
        worst = np.maximum(worst, np.max(_f_tr_matrix(np.stack(outs)) - base))
    worst = float(worst)
    return CheckReport(worst <= CHECK_ATOL, trials, max(0.0, worst))


def check_convexity(Rs, weights) -> CheckReport:
    """f_tr of a mixture must not exceed the mixture of f_tr values."""
    ws = np.asarray(weights, dtype=float)
    if len(Rs) != len(ws) or len(Rs) == 0:
        raise UsageError("need matching nonempty lists of PDMs and weights")
    if np.any(ws < 0) or abs(ws.sum() - 1.0) > 1e-12:
        raise UsageError("weights must be nonnegative and sum to 1")
    dims = {R.matrix.shape for R in Rs}
    if len(dims) != 1:
        raise UsageError("all PDMs must share one dimension")
    mix = sum(w * R.matrix for w, R in zip(ws, Rs))
    gap = float(_f_tr_matrix(mix)) - sum(w * f_tr(R) for w, R in zip(ws, Rs))
    return CheckReport(gap <= CHECK_ATOL, len(Rs), max(0.0, gap))
