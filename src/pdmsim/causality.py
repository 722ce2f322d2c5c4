"""Trace-norm causality monotone and its tolerance policy."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import PSD_ATOL, hermitian_eig
from .schedule import PseudoDensityMatrix

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


def f_tr(R: PseudoDensityMatrix) -> float:
    """Causality monotone ||R||_tr - 1, reported as 0 unless R is causal."""
    return float(spectrum_verdict(hermitian_eig(R.matrix))[0])


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
