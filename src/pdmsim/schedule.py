"""Measurement-event schedules and pseudo-density matrices.

A schedule is an initial state plus ordered time slices of single-qubit
Pauli measurement events, with an optional CPTP channel acting between
adjacent slices. The pseudo-density matrix (PDM) over the events is
assembled from the expectation values of products of the +-1 measurement
outcomes, one tensor factor per event in event-id order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    TP_ATOL,
    DensityState,
    KrausChannel,
    choi_stack,
    kraus_sum,
    tp_residuals,
)
from .errors import InvariantViolation, UsageError
from .linalg import (
    I2,
    PAULI_STACK,
    chunk_slices,
    dagger,
    embed_operator,
    kron,
    qubits_of_dim,
    read_only,
    require_hermitian_unit_trace,
    single_threaded,
)

#: Bytes ``build_pdm`` may use for its largest working stack plus the output
#: matrix. Measured on a 2-vCPU x86-64 host with OpenBLAS: a 9-event 1-qubit
#: chain needs 8 MiB and builds in ~45 ms (eigensolve ~0.2 s); a 10-event
#: chain would need 32 MiB, ~0.2 s to build and 1-1.5 s to eigensolve.
PDM_BYTE_BUDGET = 8 * 2**20
MAX_ORACLE_BRANCH_EVENTS = 12
#: Bytes of Lueders branches ``oracle_expectations`` holds for one chunk of
#: rows; a chunk has at least one row.
ORACLE_STACK_BYTES = 2**16

# Basis-change unitaries U with U sigma U^dag = Z, for labels X, Y, Z.
_H = read_only(np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2))
_SDG = read_only(np.array([[1, 0], [0, -1j]], dtype=complex))
_BASIS_CHANGE = (_H, read_only(_H @ _SDG), I2)
_CNOT = read_only(
    np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
)
# The ancilla protocol's fixed operators, primary qubit left and ancilla right:
# the ancilla's |0><0|, its Z readout, and per label the copy block
# U^dag CNOT U with U the label's basis change on the primary (I4 for label 0).
_ANCILLA_0 = read_only(np.array([[1, 0], [0, 0]], dtype=complex))
_ANCILLA_Z = read_only(kron([I2, PAULI_STACK[3]]))
_COPY_BLOCKS = np.stack(
    [np.eye(4, dtype=complex)]
    + [dagger(kron([U, I2])) @ _CNOT @ kron([U, I2]) for U in _BASIS_CHANGE]
)
_COPY_BLOCKS.setflags(write=False)

# The Jordan products (P m + m P)/2 of a 2x2 block m with the Paulis P of
# labels 0..3, as one (4, 16) matrix: row (r, c) is m's entry, column
# (l, r', c') the product's. (P m)[r', c'] takes P[r', r] m[r, c'] and
# (m P)[r', c'] takes m[r', c] P[c, c'].
_JORDAN = (
    np.einsum("lpr,cd->rclpd", PAULI_STACK, I2) + np.einsum("rp,lcd->rclpd", I2, PAULI_STACK)
).reshape(4, 16) / 2.0
_JORDAN.setflags(write=False)
#: The same products one label at a time: block l is the (4, 4) map from m's
#: entries to those of (P_l m + m P_l)/2.
_JORDAN_BY_LABEL = read_only(_JORDAN.reshape(4, 4, 4).transpose(1, 0, 2).copy())


#: The +-1 outcomes of a Lueders pair (P+, P-), in that order.
_OUTCOMES = read_only(np.array([1.0, -1.0]))
#: Entries each of the cached event-operator tables below may hold; one entry
#: is a (4, D, D) or (4, 2, D, D) stack, so this bounds the memory they keep.
_EVENT_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_EVENT_CACHE_SIZE)
def _event_paulis(qubit: int, qubit_count: int) -> np.ndarray:
    """The Paulis of labels 0..3 on ``qubit``, embedded in the full register, as a read-only (4, D, D) stack."""
    return read_only(embed_operator(PAULI_STACK, qubit, qubit_count))


@functools.lru_cache(maxsize=_EVENT_CACHE_SIZE)
def _event_projectors(qubit: int, qubit_count: int) -> np.ndarray:
    """The Lueders pairs (P+, P-) = (I +- A)/2 of labels 0..3 on ``qubit`` as a read-only (4, 2, D, D) stack.

    Label 0 (A = I) gets the pair (I, 0): a branch passes unchanged and its
    -1 twin is exactly zero.
    """
    A = _event_paulis(qubit, qubit_count)
    I = np.eye(2**qubit_count)
    return read_only(np.stack([(I + A) / 2.0, (I - A) / 2.0], axis=1))


def _pauli_labels(assignments, event_count: int) -> np.ndarray:
    """Validate a batch of Pauli assignments, each one integer label 0..3 per event.

    Returns the labels as a (P, event_count) integer array. A 2-D numeric
    array is checked as a whole; any other batch is first turned into one
    by ``_label_rows``. A bool or float label is rejected, never cast.
    """
    labels = assignments
    if not (isinstance(labels, np.ndarray) and labels.ndim == 2 and labels.dtype.kind in "biufc"):
        labels = _label_rows(assignments, event_count)
    if len(labels) == 0:
        raise UsageError("need at least one assignment")
    if labels.shape[1] != event_count:
        raise UsageError(f"assignment length {labels.shape[1]} does not match {event_count} events")
    if labels.dtype.kind in "bfc":
        raise UsageError(f"assignment labels must be integers 0..3, got {labels[0, 0]!r}")
    bad = (labels < 0) | (labels > 3)
    if bad.any():
        row = labels[int(np.argmax(bad.any(axis=1)))]
        raise UsageError(f"assignment labels must be 0..3, got {tuple(int(x) for x in row)}")
    return labels.astype(np.intp, copy=False)


def _label_rows(assignments, event_count: int) -> np.ndarray:
    """A sequence of assignments as an integer array, checked label by label.

    A Python bool is an int, and an int list may hide one, so each label's
    type is checked here; ``_pauli_labels`` checks the values. Labels too
    large for an integer array are kept as Python ints, so a range error
    still prints them exactly.
    """
    rows = []
    for a in assignments:
        try:
            a = tuple(a)
        except TypeError:
            raise UsageError(f"an assignment must be a sequence of labels, got {a!r}") from None
        if len(a) != event_count:
            raise UsageError(f"assignment length {len(a)} does not match {event_count} events")
        for x in a:
            if isinstance(x, (bool, np.bool_)) or not isinstance(x, (int, np.integer)):
                raise UsageError(f"assignment labels must be integers 0..3, got {x!r}")
        rows.append(tuple(int(x) for x in a))
    try:
        return np.array(rows, dtype=np.intp)
    except OverflowError:
        return np.array(rows, dtype=object)


@dataclass(frozen=True)
class Event:
    """One measurement event: a (qubit, time slice) point, ordered by 1-based id."""

    id: int
    qubit: int
    slice_index: int


@dataclass(frozen=True, eq=False)
class Schedule:
    """An initial state, measurement events in time slices, and a channel (or None) in each gap.

    The register is the initial state's: ``qubit_count`` is read from it.
    Equality is identity, so a schedule hashes.
    """

    initial_state: DensityState
    events: tuple
    inter_slice_channels: tuple = ()

    def __post_init__(self):
        if not isinstance(self.initial_state, DensityState):
            raise UsageError(f"initial_state must be a DensityState, got {type(self.initial_state).__name__}")
        events = tuple(self.events)
        object.__setattr__(self, "events", events)
        if not events:
            raise UsageError("a schedule needs at least one event")
        for e in events:
            if not isinstance(e, Event):
                raise UsageError(f"events must be Event records, got {e!r}")
        ids = sorted(e.id for e in events)
        if ids != list(range(1, len(events) + 1)):
            raise UsageError(f"event ids must be contiguous 1..n, got {ids}")
        indices = sorted({e.slice_index for e in events})
        if indices != list(range(len(indices))):
            raise UsageError(f"slice indices must be contiguous 0..S-1, got {indices}")
        slices = tuple(
            tuple(sorted((e for e in events if e.slice_index == s), key=lambda e: e.qubit))
            for s in indices
        )
        for s, sl in enumerate(slices):
            qubits = [e.qubit for e in sl]
            if len(set(qubits)) != len(qubits):
                raise UsageError(f"slice {s} has repeated qubits {qubits}")
            if any(q < 0 or q >= self.qubit_count for q in qubits):
                raise UsageError(f"slice {s} touches qubits {qubits} out of range")
        # Not a field: derived from `events`.
        object.__setattr__(self, "_slices", slices)
        channels = tuple(self.inter_slice_channels)
        gaps = len(slices) - 1
        if len(channels) == 0:
            channels = tuple([None] * gaps)
        if len(channels) != gaps:
            raise UsageError(f"expected {gaps} inter-slice channels, got {len(channels)}")
        for gap, ch in enumerate(channels):
            if ch is None:
                continue
            if not isinstance(ch, KrausChannel):
                raise UsageError(f"inter_slice_channels[{gap}] must be a KrausChannel or None, got {ch!r}")
            if ch.qubits != self.qubit_count:
                raise UsageError("inter-slice channel dimension does not match system")
            _require_trace_preserving(gap, ch.tp_residual)
        object.__setattr__(self, "inter_slice_channels", channels)

    @property
    def qubit_count(self) -> int:
        return self.initial_state.qubit_count

    @property
    def event_count(self) -> int:
        return len(self.events)

    @property
    def slice_count(self) -> int:
        return len(self._slices)

    def events_in_slice(self, s: int) -> tuple:
        """Events of one slice ordered by qubit index (they commute; order fixed for reproducibility)."""
        return self._slices[s] if 0 <= s < len(self._slices) else ()


def _require_trace_preserving(gap: int, residual: float) -> None:
    # Written to fail on NaN, which every comparison loses.
    if not residual <= TP_ATOL:
        if math.isfinite(residual):
            problem = f"max|sum K^dag K - I| = {residual:.3e} > {TP_ATOL}"
        else:
            problem = "a Kraus operator has a non-finite entry"
        raise UsageError(f"gap channel {gap} is not trace preserving: {problem}")


def two_event_schedule(initial: DensityState, channel: KrausChannel | None) -> Schedule:
    """Two consecutive measurement events on one qubit with a channel in the gap."""
    if initial.qubit_count != 1:
        raise UsageError(f"a two-event schedule needs a 1-qubit initial state, got {initial.qubit_count}")
    return Schedule(
        initial_state=initial,
        events=(Event(1, 0, 0), Event(2, 0, 1)),
        inter_slice_channels=(channel,),
    )


def two_event_pdm_stack(initial, kraus: np.ndarray) -> np.ndarray:
    """PDMs of two consecutive events on one qubit, one per gap channel, as a (T, 4, 4) stack.

    ``kraus`` is the gap channels' (T, K, 2, 2) Kraus array, as ``noise_kraus``
    and ``kraus_array`` return it; all-zero operators that pad a row add
    nothing. Row k equals
    ``build_pdm(two_event_schedule(state_k, KrausChannel(kraus[k]))).matrix``.

    Closed form (Horsman et al. 2017; Fullwood & Parzygnat 2022): the PDM of
    two consecutive measurement events on one qubit with gap channel E is the
    Jordan product R = {rho (x) I, J(E)}/2, where J(E) = sum_ij |i><j| (x) E(|j><i|)
    is the Choi matrix partially transposed on its first factor. ``initial``
    is one 1-qubit ``DensityState`` for every row or a sequence of one per
    row; rho (x) I is broadcast over the rows. A channel that is not trace
    preserving is a ``UsageError``; the stack is checked to be Hermitian with
    unit trace.
    """
    shared = isinstance(initial, DensityState)
    states = (initial,) if shared else tuple(initial)
    if any(st.qubit_count != 1 for st in states):
        raise UsageError("the two-event closed form needs a 1-qubit initial state")
    kraus = np.asarray(kraus)
    shape = kraus.shape
    if kraus.ndim != 4 or len(kraus) == 0 or shape[2] != shape[3] or not qubits_of_dim(shape[3]):
        raise UsageError(f"the two-event closed form needs a (T, K, 2, 2) Kraus array, got {shape}")
    if shape[3] != 2:
        raise UsageError(f"gap channel acts on {qubits_of_dim(shape[3])} qubits, not 1")
    if not shared and len(states) != len(kraus):
        raise UsageError(f"got {len(states)} initial states for {len(kraus)} gap channels")
    tp = tp_residuals(kraus)
    k = int(np.argmax(tp))
    _require_trace_preserving(k, tp[k])
    # C[k, i, a, j, b] is Choi entry ((i, a), (j, b)) of channel k.
    C = choi_stack(kraus).reshape(-1, 2, 2, 2, 2)
    J = C.transpose(0, 3, 2, 1, 4).reshape(-1, 4, 4)
    rho = initial.matrix if shared else np.stack([st.matrix for st in states])
    # kron pairs I with one rho, or with each rho of a (T, 2, 2) stack.
    A = kron([rho, I2])
    R = (A @ J + J @ A) / 2.0
    require_hermitian_unit_trace(R, "PDM")
    return R


def expectations(s: Schedule, assignments) -> np.ndarray:
    """Expectations of the product of +-1 outcomes for a batch of Pauli assignments, shape (P,).

    Measuring a non-identity Pauli A and weighting by the outcome maps the
    running operator M to (AM + MA)/2 = P+ M P+ - P- M P-; an identity label
    leaves M as it is. The rows run through ``build_pdm``'s pass, ``_forward``,
    in chunks whose stacks fit ``PDM_BYTE_BUDGET``, or of one row: a row holds
    one operator, and while an event maps it (``_measure``) three more (its
    2x2 blocks, their product and the product reordered) and its label's
    4x4 block of ``_JORDAN``.
    """
    labels = _pauli_labels(assignments, s.event_count)
    chunks = chunk_slices(len(labels), 16 * (4 * 4**s.qubit_count + 16), PDM_BYTE_BUDGET)
    return np.concatenate([_forward(s, labels[rows]) for rows in chunks])


def expectation(s: Schedule, assignment) -> float:
    """Expectation of the product of +-1 outcomes for one Pauli assignment; see ``expectations``."""
    return float(expectations(s, [assignment])[0])


def oracle_expectations(s: Schedule, assignments) -> np.ndarray:
    """Brute-force cross-check of ``expectations`` by explicit branch enumeration, shape (P,).

    Every non-identity event splits the evolution into its two projective
    outcomes (Lueders rule, unnormalized so the trace carries the branch
    probability); the result is the probability-weighted sum of outcome
    products over all branches. The rows run in chunks whose branches fit in
    ORACLE_STACK_BYTES; see ``_oracle_chunk``. ``MAX_ORACLE_BRANCH_EVENTS``
    bounds the events that are non-identity in any row.
    """
    labels = _pauli_labels(assignments, s.event_count)
    k = int(np.count_nonzero(labels.any(axis=0)))
    if k > MAX_ORACLE_BRANCH_EVENTS:
        raise UsageError(f"{k} non-identity events exceeds the branch limit")
    row_bytes = 16 * 2**k * 4**s.qubit_count
    chunks = chunk_slices(len(labels), row_bytes, ORACLE_STACK_BYTES)
    return np.concatenate([_oracle_chunk(s, labels[rows]) for rows in chunks])


def _oracle_chunk(s: Schedule, labels: np.ndarray) -> np.ndarray:
    """Branch enumeration for a (P, events) label array, shape (P,).

    The branches of all rows are held as one (P, 2^k, D, D) stack, k the
    number of events that are non-identity in any row, with their outcome
    products as a (P, 2^k) sign array. Branch oB + b is branch b followed by
    outcome o (0: +1, 1: -1): each index bit is one outcome, so the product
    is (-1)^popcount(index) in any bit order and the signs, built in order
    2b + o, fit the stack as it is. A row whose label is 0 at a splitting event
    takes the pair (I, 0), so its -1 branch is zero and adds nothing. A None
    gap is the identity and is skipped.

    Each row's pair multiplies all of that row's B branches at once: the
    pair stacked as (2D, D) times the branches side by side as (D, B D)
    makes every P_o M_b, and each outcome's (B D, D) stack of those times
    P_o makes every P_o M_b P_o. That is 3 products per row and event,
    not 4B: numpy's batched complex matmul calls BLAS once per matrix,
    which costs about as much for a 2x2 product as for an 8x8 one.
    """
    n = s.qubit_count
    D = 2**n
    P = len(labels)
    branches = np.broadcast_to(s.initial_state.matrix, (P, 1, D, D))
    signs = np.ones((P, 1))
    for sl, ch in enumerate(s.inter_slice_channels + (None,)):
        for ev in s.events_in_slice(sl):
            column = labels[:, ev.id - 1]
            if not column.any():
                continue
            pair = _event_projectors(ev.qubit, n)[column]
            B = branches.shape[1]
            # left[p, o, r, b, c] = (P_o M_b)[r, c]
            left = pair.reshape(P, 2 * D, D) @ branches.transpose(0, 2, 1, 3).reshape(P, D, B * D)
            left = left.reshape(P, 2, D, B, D).transpose(0, 1, 3, 2, 4).reshape(P, 2, B * D, D)
            branches = (left @ pair).reshape(P, 2 * B, D, D)
            signs = (signs[:, :, None] * _OUTCOMES).reshape(P, -1)
        if ch is not None:
            branches = kraus_sum(ch.kraus_ops, branches)
    return np.einsum("pb,pb->p", signs, np.trace(branches, axis1=2, axis2=3).real)


def expectation_oracle(s: Schedule, assignment) -> float:
    """Branch-enumeration expectation of one Pauli assignment; see ``oracle_expectations``."""
    return float(oracle_expectations(s, [assignment])[0])


@dataclass(frozen=True, eq=False)
class PseudoDensityMatrix:
    """Hermitian unit-trace (possibly non-PSD) matrix over the event tensor space.

    ``coefficients`` stores the raw expectation of every Pauli assignment,
    flat-indexed base 4 with event 1 the most significant digit, as a
    read-only copy. The read-only matrix R = sum_l c_l P_l / 2^n is assembled
    from them (``_assemble``) on its first read and kept; it is derived, not
    a field, so a caller that reads only expectations never pays for it.
    Equality is identity, so a PDM hashes.
    """

    events: tuple
    coefficients: np.ndarray

    def __post_init__(self):
        n = len(self.events)
        c = read_only(np.array(self.coefficients, dtype=float))
        if c.shape != (4**n,):
            raise InvariantViolation(f"expected {4**n} coefficients, got {c.shape}")
        # Every check is written to pass only on a number, so a NaN fails it.
        if not np.max(np.abs(c)) <= 1 + 1e-12:
            raise InvariantViolation("a stored expectation lies outside [-1, 1]")
        if not abs(c[0] - 1.0) <= 1e-12:
            raise InvariantViolation("all-identity expectation must be 1")
        object.__setattr__(self, "coefficients", c)

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """The read-only matrix, assembled and checked Hermitian with unit trace on first read."""
        R = _assemble(self.coefficients.reshape((4,) * self.event_count))
        require_hermitian_unit_trace(R, "PDM")
        return read_only(R)

    @property
    def event_count(self) -> int:
        return len(self.events)

    def stored_expectations(self, assignments) -> np.ndarray:
        """The stored expectations of a batch of Pauli assignments, shape (P,)."""
        labels = _pauli_labels(assignments, self.event_count)
        return self.coefficients[labels @ 4 ** np.arange(self.event_count - 1, -1, -1)]


def _measure(stack: np.ndarray, qubit: int, qubit_count: int, labels: np.ndarray | None = None) -> np.ndarray:
    """Extend a (B, D, D) operator stack by one event's label axis, to (4B, D, D), or by each one's own label.

    Entry 4b + l is the Jordan product (A M_b + M_b A)/2 for the Pauli A of
    label l on ``qubit``, which is M_b itself for l = 0. Each product mixes
    only the four entries of M_b that differ in that qubit's row and column
    bit, so the stack is read as an (N, 4) array of such 2x2 blocks and all
    four labels are written by one 2-D product with ``_JORDAN``. Its nonzero
    weights are +-1/2 and +-i/2, at most two per entry, so every entry is
    exact up to one rounding of a sum of two exact terms. With a (B,) array
    of ``labels``, entry b is M_b's product for its own label only, by the
    label's (4, 4) block of ``_JORDAN``, and the stack keeps its shape. The
    product runs under ``_forward``'s ``single_threaded`` guard.
    """
    B, D = stack.shape[0], stack.shape[-1]
    lo, hi = 2**qubit, 2 ** (qubit_count - qubit - 1)
    width = 4 if labels is None else 1
    # Axes (b, row high, row low, column high, column low, row bit, column bit).
    blocks = stack.reshape(B, lo, 2, hi, lo, 2, hi).transpose(0, 1, 3, 4, 6, 2, 5)
    if labels is None:
        products = blocks.reshape(-1, 4) @ _JORDAN
    else:
        products = blocks.reshape(B, -1, 4) @ _JORDAN_BY_LABEL[labels]
    products = products.reshape(blocks.shape[:5] + (width, 2, 2)).transpose(0, 5, 1, 6, 2, 3, 7, 4)
    return products.reshape(width * B, D, D)


def _apply_gap(stack: np.ndarray, ch: KrausChannel) -> np.ndarray:
    """Apply the channel to every operator of the stack at once.

    Two ways, chosen by timing both on a 2-vCPU x86-64 host with OpenBLAS:

    - The D^2 x D^2 superoperator, for a stack of at least D^2 operators on
      up to 3 qubits whose channel has K Kraus operators with D < 8K, as one
      (B x D^2) @ (D^2 x D^2) product. Per operator it costs D^4
      multiply-adds against the Kraus products' 2KD^3, and its few large
      products beat their many small ones unless that is 4x as many: a
      unitary (K = 1) 3-qubit gap ran ~1.5x faster as Kraus products, a
      rank-2 one and every 1- and 2-qubit gap faster as the superoperator.
      With ``kraus_sum`` as two 2-D products per chunk, the superoperator
      still built three 9-event 1-qubit chains (dephasing, depolarizing,
      amplitude damping) in ~97 ms against ~122 ms.
    - Kraus products (``kraus_sum``), in blocks of 64 KiB of the stack, for
      every other stack: unitary 3-qubit gaps, wide registers and early slices.
      The blocks are overwritten in place, so this way the stack is never
      held twice. ``stack`` must be the engine's own array.

    Either way the products run under ``_forward``'s ``single_threaded``
    guard, so OpenBLAS keeps them on the calling thread.
    """
    B, D = stack.shape[0], stack.shape[-1]
    ks = ch.kraus_ops
    if B >= D * D and D <= 8 and D < 8 * len(ks):
        # Row-major vec: vec(sum_k K M K^dag) = vec(M) @ S with S[(b,c),(a,d)] =
        # sum_k K[a,b] conj(K[d,c]), the Choi matrix with its two middle indices swapped.
        S = choi_stack(ks[None])[0].reshape((D,) * 4).transpose(0, 2, 1, 3).reshape(D * D, D * D)
        return (stack.reshape(B, D * D) @ S).reshape(B, D, D)
    for rows in chunk_slices(B, 16 * D * D, 2**16):  # blocks of 64 KiB
        stack[rows] = kraus_sum(ks, stack[rows])
    return stack


#: Row l is the Pauli P_l flattened: (label, row bit, column bit).
_PAULI_MAP = PAULI_STACK.reshape(4, 4)


def _map_axes(t: np.ndarray, count: int, W: np.ndarray) -> np.ndarray:
    """Map each of the first ``count`` axes of ``t``, 4 long each, through the 4x4 matrix W.

    Each step is the 2-D product ``t.reshape(4, -1).T @ W``, which moves the
    mapped axis to the end, so after ``count`` steps the axes are the rest
    followed by the mapped ones in their old order. The result is returned
    flat as (-1, 4). Its callers, ``_forward`` and ``_assemble``, run it under
    ``single_threaded``.
    """
    for _ in range(count):
        t = t.reshape(4, -1).T @ W
    return t


def _readout(stack: np.ndarray, qubits: list, qubit_count: int) -> np.ndarray:
    """Tr(P_l M) for every Pauli string l on ``qubits`` and every M of the stack.

    Returns shape (B, 4^len(qubits)), labels in ``qubits`` order. Qubits not
    listed are traced out first, each as the sum of its two diagonal blocks.
    Then Tr(P M) = sum_ij P[i, j] M[j, i] takes each listed qubit's (column
    bit, row bit) pair of M to its label through ``_map_axes``.
    """
    B = len(stack)
    kept = list(range(qubit_count))
    for q in range(qubit_count):
        if q not in qubits:
            i = kept.index(q)
            kept.remove(q)
            m = stack.reshape(B, 2**i, 2, 2 ** (len(kept) - i), 2**i, 2, 2 ** (len(kept) - i))
            stack = m[:, :, 0, :, :, 0] + m[:, :, 1, :, :, 1]
    k = len(kept)
    pairs = [axis for q in qubits for axis in (1 + k + kept.index(q), 1 + kept.index(q))]
    t = stack.reshape((B,) + (2,) * (2 * k)).transpose(pairs + [0])
    return _map_axes(t, k, _PAULI_MAP.T).reshape(B, -1)


@single_threaded
def _assemble(coeffs: np.ndarray) -> np.ndarray:
    """sum_l c_l (P_l1 (x) ... (x) P_ln) / 2^n for a coefficient tensor of shape (4,)*n.

    ``_map_axes`` takes each event's label to its (row, column) entry with
    the Pauli map, so the axes become (row_1, col_1, ..., row_n, col_n). The
    sum is then made exactly Hermitian, (A + A^dag)/2, to remove rounding dust.
    """
    n = coeffs.ndim
    t = _map_axes(coeffs, n, _PAULI_MAP)
    # Move the rows first.
    t = t.reshape((2,) * (2 * n)).transpose(np.arange(2 * n).reshape(n, 2).T.reshape(-1))
    A = t.reshape(2**n, 2**n)
    return (A + A.conj().T) * (0.5 / 2**n)


@single_threaded
def _forward(s: Schedule, labels: np.ndarray | None = None) -> np.ndarray:
    """Expectations by one forward pass: of all 4^n assignments, or of each row of ``labels``.

    Events extend the operator stack (``_measure``), gaps act on all of it
    (``_apply_gap``) and the last slice is read out as Pauli traces
    (``_readout``; distinct-qubit Paulis commute, so the nested Jordan
    products have exactly that trace). With ``labels`` None the stack holds
    every label prefix, and the result is flat-indexed base 4 with event 1
    the most significant digit. With a validated (P, events) label array it
    holds one operator per row, which each event that is not identity in
    every row maps by the row's own label, and the result has shape (P,).
    """
    n, q = s.event_count, s.qubit_count
    last = s.events_in_slice(s.slice_count - 1)
    if labels is None:
        # complex128 entries: the stack entering the last slice, then the matrix.
        needed = 16 * (4 ** (n - len(last) + q) + 4**n)
        if needed > PDM_BYTE_BUDGET:
            raise UsageError(
                f"a schedule of {n} events on {q} qubit(s) needs {needed} bytes, "
                f"over the {PDM_BYTE_BUDGET}-byte budget"
            )
        stack = s.initial_state.matrix[None]
    else:
        stack = np.repeat(s.initial_state.matrix[None], len(labels), axis=0)  # _apply_gap writes to it
    for sl in range(s.slice_count - 1):
        for ev in s.events_in_slice(sl):
            if labels is None:
                stack = _measure(stack, ev.qubit, q)
            elif labels[:, ev.id - 1].any():
                stack = _measure(stack, ev.qubit, q, labels[:, ev.id - 1])
        ch = s.inter_slice_channels[sl]
        if ch is not None:  # the stack is _measure's output or the copy, never the state's own matrix
            stack = _apply_gap(stack, ch)
    coeffs = _readout(stack, [ev.qubit for ev in last], q).real
    if labels is not None:
        column = labels[:, [ev.id - 1 for ev in last]] @ 4 ** np.arange(len(last) - 1, -1, -1)
        return coeffs[np.arange(len(labels)), column]
    order = [ev.id - 1 for sl in range(s.slice_count) for ev in s.events_in_slice(sl)]
    return coeffs.reshape((4,) * n).transpose(np.argsort(order)).reshape(-1)


def build_pdm(s: Schedule) -> PseudoDensityMatrix:
    """Assemble the PDM from all 4^n assignment expectations (n = event count), by ``_forward``."""
    if not isinstance(s, Schedule):
        raise UsageError(f"build_pdm needs a Schedule, got {s!r}")
    return PseudoDensityMatrix(tuple(sorted(s.events, key=lambda ev: ev.id)), _forward(s))


def reduce_pdm(R: PseudoDensityMatrix, keep) -> PseudoDensityMatrix:
    """Partial trace over the dropped event factors.

    ``keep`` is a set of integer event ids; a bool is rejected, never read
    as 0 or 1. The reduced PDM's expectations are the parent's with the
    dropped events set to identity, and its matrix is assembled from them,
    which is the partial trace; kept events are renumbered 1..k in their
    original order.
    """
    try:
        ids = tuple(keep)
    except TypeError:
        raise UsageError(f"keep must be a set of event ids, got {keep!r}") from None
    for i in ids:
        if isinstance(i, (bool, np.bool_)) or not isinstance(i, (int, np.integer)):
            raise UsageError(f"keep ids must be integer event ids, got {i!r}")
    keep_ids = sorted(set(ids))
    n = R.event_count
    if not keep_ids:
        raise UsageError("keep must be a nonempty set of event ids")
    if any(i < 1 or i > n for i in keep_ids):
        raise UsageError(f"keep ids {keep_ids} out of range 1..{n}")
    positions = [i - 1 for i in keep_ids]
    # Dropped events take the identity label 0.
    keep_axes = tuple(slice(None) if i in positions else 0 for i in range(n))
    coeffs = R.coefficients.reshape((4,) * n)[keep_axes].reshape(-1)
    events = tuple(
        Event(i + 1, R.events[pos].qubit, R.events[pos].slice_index)
        for i, pos in enumerate(positions)
    )
    return PseudoDensityMatrix(events, coeffs)


def ancilla_expectations(s: Schedule, assignments) -> np.ndarray:
    """Ancilla-parity readout of a two-event single-qubit schedule for a batch of assignments, shape (P,).

    Simulates the primary qubit with a |0> ancilla: each non-identity event
    rotates the measured Pauli onto Z, copies the outcome bit into the
    ancilla with a CNOT, and rotates back; the gap channel acts on the
    primary only (a None gap is skipped). Returns <Z> of the ancilla, which
    equals ``expectations``. All assignments run as one (P, 4, 4) stack;
    label 0's copy block is I.
    """
    labels = _pauli_labels(assignments, s.event_count)
    if s.qubit_count != 1 or s.event_count != 2 or s.slice_count != 2:
        raise UsageError("ancilla protocol requires one qubit and exactly two slices of one event")
    # Primary is qubit 0 (left factor), ancilla qubit 1.
    rho = kron([s.initial_state.matrix, _ANCILLA_0])
    (ch,) = s.inter_slice_channels
    for sl in range(2):
        (ev,) = s.events_in_slice(sl)
        block = _COPY_BLOCKS[labels[:, ev.id - 1]]
        rho = block @ rho @ dagger(block)
        if sl == 0 and ch is not None:
            rho = kraus_sum(kron([ch.kraus_ops, I2]), rho)
    return np.trace(_ANCILLA_Z @ rho, axis1=1, axis2=2).real


def ancilla_expectation(s: Schedule, assignment) -> float:
    """Ancilla-parity readout of one Pauli assignment; see ``ancilla_expectations``."""
    return float(ancilla_expectations(s, [assignment])[0])
