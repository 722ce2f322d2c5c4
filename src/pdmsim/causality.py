"""Trace-norm causality monotone and randomized checks of its axioms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, kraus_array, kraus_sum, tp_residuals
from .errors import UsageError
from .linalg import PSD_ATOL, chunk_slices, dagger, embed_operator, hermitian_eig
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
    """f_tr of a matrix (0-d result) or of each matrix of a stack, from one eigenvalue solve.

    A matrix with a non-finite entry gets NaN, so one bad trial cannot stop a stacked check.
    """
    finite = np.all(np.isfinite(M), axis=(-2, -1))
    w = hermitian_eig(np.where(finite[..., None, None], M, 0.0))
    return np.where(finite, spectrum_verdict(w)[0], np.nan)


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


def ginibre(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Complex Gaussian matrix: all real parts are drawn first, then all imaginary parts."""
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def qr_isometries(gaussians, haar: bool = False) -> list[np.ndarray]:
    """The Q factor of each Gaussian matrix's QR, in input order, from one ``np.linalg.qr`` per shape.

    A stacked QR gives each matrix the Q and R of its own call, bit for bit.
    A tall Q is an isometry, Q^dag Q = I. With ``haar``, each column of Q
    takes the phase of R's diagonal entry, which makes the Q of a square
    Ginibre matrix Haar-random.
    """
    out = [None] * len(gaussians)
    for rows in _shape_groups(gaussians):
        Q, Rm = np.linalg.qr(np.stack([gaussians[i] for i in rows]))
        if haar:
            d = np.diagonal(Rm, axis1=-2, axis2=-1)
            Q = Q * (d / np.abs(d))[:, None, :]
        for i, q in zip(rows, Q):
            out[i] = q
    return out


def _shape_groups(arrays) -> list[list[int]]:
    """The indices of ``arrays`` grouped by shape, groups in order of first appearance."""
    groups = {}
    for i, a in enumerate(arrays):
        groups.setdefault(a.shape, []).append(i)
    return list(groups.values())


def stinespring_channels(gaussians) -> list[KrausChannel]:
    """Random channels, one per Gaussian, from its Stinespring isometry Q (``qr_isometries``).

    A (K D, D) Gaussian gives a channel of Kraus rank K on log2(D) qubits,
    whose Kraus operators are Q's consecutive D x D row blocks. Each shape's
    trace-preservation residuals come from one ``tp_residuals`` contraction
    and are stored on its channels, so a ``Schedule`` that checks them reads
    a number instead of computing one per channel.
    """
    channels = [KrausChannel(V.reshape(-1, V.shape[1], V.shape[1])) for V in qr_isometries(gaussians)]
    for rows in _shape_groups(gaussians):
        residuals = tp_residuals(np.stack([channels[i].kraus_ops for i in rows]))
        for i, r in zip(rows, residuals):
            object.__setattr__(channels[i], "tp_residual", float(r))
    return channels


def cptp_draw(qubits: int, rng: np.random.Generator) -> np.ndarray:
    """A random channel's draws: a Kraus rank of 1-4, then its Gaussian for ``stinespring_channels``."""
    d = 2**qubits
    return ginibre(d * int(rng.integers(1, 5)), d, rng)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary: QR of a complex Ginibre matrix, phase-fixed."""
    return qr_isometries([ginibre(dim, dim, rng)], haar=True)[0]


@dataclass(frozen=True)
class SuiteResult:
    """The verdict of one randomized check, as ``pdm verify`` prints it."""

    name: str
    passed: bool
    #: inf when the worst trial's matrix is not finite.
    max_deviation: float
    #: The worst case, such as trial k and for local monotonicity the event
    #: its channel acted on. Trial k draws from seed + k (``worst_trial``).
    detail: str = ""


#: Bytes of trial matrices a stacked axiom check holds at once. A chunk has
#: at least one trial, so a large PDM is checked one trial at a time.
CHECK_STACK_BYTES = 2**20


def worst_deviation(devs: np.ndarray) -> tuple[int, float]:
    """Flat index and value of the first largest deviation, a non-finite one counted as inf.

    A NaN would lose every comparison and hide the other deviations; as inf it fails.
    """
    devs = np.where(np.isfinite(devs), devs, np.inf)
    k = int(np.argmax(devs))
    return k, float(devs.flat[k])


def worst_trial(seed: int, trials: int, trial_bytes: int, evaluate):
    """The first largest deviation of seeded trials, its index and its trial's context.

    Trial k draws from ``np.random.default_rng(seed + k)``. The trials run in
    chunks of at most CHECK_STACK_BYTES, ``trial_bytes`` a trial (at least one
    trial a chunk): ``evaluate(rngs)`` takes a chunk's generators and returns
    its deviations, trial axis first, and one context per trial (or None).
    As each trial has its own generator, ``evaluate`` may draw a chunk's
    trials one kind of draw at a time: each generator's draws keep their
    order. Only the worst case is kept from chunk to chunk, so memory does
    not grow with ``trials``. Returns ``(deviation, index, context)``:
    ``index`` is the deviation's index over all trials, its first entry the
    trial.
    """
    if trials < 1:
        raise UsageError("trials must be >= 1")
    worst = (-np.inf, None, None)
    for chunk in chunk_slices(trials, trial_bytes, CHECK_STACK_BYTES):
        devs, context = evaluate([np.random.default_rng(seed + k) for k in range(trials)[chunk]])
        i, dev = worst_deviation(devs)
        if dev > worst[0]:
            k, *rest = np.unravel_index(i, np.shape(devs))
            index = (chunk.start + int(k), *map(int, rest))
            worst = (dev, index, None if context is None else context[k])
    return worst


def check_unitary_invariance(
    R: PseudoDensityMatrix, trials: int = 100, seed: int = 0
) -> SuiteResult:
    """f_tr(U R U^dag) must equal f_tr(R) for Haar-random unitaries U.

    A chunk of trials draws its Ginibre matrices first, then takes its
    unitaries from one QR and its f_tr values from one eigenvalue solve.
    ``detail`` names the trial of the largest deviation.
    """
    base = f_tr(R)
    dim = R.matrix.shape[0]

    def deviations(rngs):
        Us = np.stack(qr_isometries([ginibre(dim, dim, rng) for rng in rngs], haar=True))
        return np.abs(_f_tr_matrix(Us @ R.matrix @ dagger(Us)) - base), None

    worst, (k,), _ = worst_trial(seed, trials, 16 * dim * dim, deviations)
    return SuiteResult("unitary_invariance", worst <= CHECK_ATOL, worst, f"trial {k}")


def check_local_monotonicity(
    R: PseudoDensityMatrix, trials: int = 100, seed: int = 0
) -> SuiteResult:
    """f_tr must not increase under a CPTP channel on a single event factor.

    Each trial draws a random channel of Kraus rank 1-4 and the factor it
    acts on. A chunk draws all its trials first and takes their channels
    from one QR per Kraus rank (``stinespring_channels``). They are
    zero-padded into one ``kraus_array`` (a zero operator adds nothing) and
    applied to R with one ``kraus_sum`` per event factor, over the trials on
    that factor, and the chunk is one eigenvalue solve. ``detail`` names the
    trial of the largest rise and its event.
    """
    base = f_tr(R)
    n = R.event_count
    dim = R.matrix.shape[0]

    def rises(rngs):
        kraus = kraus_array(stinespring_channels([cptp_draw(1, rng) for rng in rngs]))
        factor = np.array([rng.integers(0, n) for rng in rngs])
        outs = np.empty((len(kraus), dim, dim), dtype=complex)
        for f in range(n):
            on_f = factor == f
            if on_f.any():
                outs[on_f] = kraus_sum(embed_operator(kraus[on_f], f, n), R.matrix)
        return _f_tr_matrix(outs) - base, factor

    # A trial holds 4 embedded Kraus operators: 4 matrices of the PDM's dimension.
    worst, (k,), factor = worst_trial(seed, trials, 4 * 16 * dim * dim, rises)
    detail = f"trial {k} on event {factor + 1}"
    return SuiteResult("local_monotonicity", worst <= CHECK_ATOL, max(0.0, worst), detail)


def convexity_gaps(Rs: np.ndarray, weights) -> np.ndarray:
    """f_tr of each trial's mixture minus the mixture of its f_tr values, shape (T,).

    ``Rs`` is a (T, m, D, D) array of T trials' m PDM matrices and ``weights``
    has shape (T, m); each row is nonnegative and sums to 1. The f_tr of all
    T*m matrices and T mixtures come from one eigenvalue solve.
    """
    ws = np.asarray(weights, dtype=float)
    if Rs.ndim != 4 or Rs.shape[:2] != ws.shape or Rs.size == 0:
        raise UsageError("need matching nonempty lists of PDMs and weights")
    # Written to pass only on numbers, so a NaN weight fails it.
    if not (np.all(ws >= 0) and np.all(np.abs(ws.sum(axis=1) - 1.0) <= 1e-12)):
        raise UsageError("weights must be nonnegative and sum to 1")
    T, m, D, _ = Rs.shape
    mixes = np.sum(ws[..., None, None] * Rs, axis=1)
    values = _f_tr_matrix(np.concatenate([Rs.reshape(T * m, D, D), mixes]))
    return values[T * m :] - np.sum(ws * values[: T * m].reshape(T, m), axis=1)
