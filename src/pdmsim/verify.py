"""Self-verification suites: golden values, engine/oracle equivalence, axiom checks.

Every randomized check lives here: its random draws, the seeded trial loop
that chunks its trials and keeps the worst one (``worst_trial``), and the
``SuiteResult`` it reports. These back ``pdm verify`` and double as helpers
for the test suite.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .causality import f_tr, spectrum_verdict
from .channels import (
    KrausChannel,
    NoiseModel,
    bloch_matrix,
    channel_at_time,
    compose,
    density_states,
    kraus_array,
    kraus_sum,
    noise_kraus,
    state_from_bloch,
    tp_residuals,
)
from .errors import UsageError
from .linalg import chunk_slices, dagger, embed_operator, hermitian_eig, kron, read_only
from .schedule import (
    Event,
    PseudoDensityMatrix,
    Schedule,
    ancilla_expectations,
    build_pdm,
    expectations,
    oracle_expectations,
    two_event_pdm_stack,
    two_event_schedule,
)

CHECK_ATOL = 1e-9


@dataclass(frozen=True)
class SuiteResult:
    """The verdict of one randomized check, as ``pdm verify`` prints it."""

    name: str
    passed: bool
    #: inf when the worst trial's matrix is not finite.
    max_deviation: float
    #: The worst case, such as trial k and for local monotonicity the event
    #: its channel acted on. Trial k reads the k-th block of each of its
    #: suite's own two random streams (``worst_trial``).
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


class TrialDraws:
    """A chunk's share of a randomized check's two random streams, made by ``worst_trial``.

    ``uniform(width)`` reads the chunk's ``(m, width)`` block of uniforms in
    [0, 1), one row per trial. ``normal(counts)`` reads ``sum(counts)``
    standard normals in one read and returns them as one array per entry of
    ``counts``, in order: views of that read, ``counts[j]`` normals for the
    chunk's j-th trial (or input, where a trial draws several). Each may be
    read once per chunk, so trial k reads the k-th block of each stream at
    every chunk size, as long as the suite asks for one width in every chunk
    and a trial's count depends on its own uniforms only. ``trials`` is the
    chunk's range of trial indices.
    """

    def __init__(self, uniform_rng: np.random.Generator, normal_rng: np.random.Generator, trials: range):
        self.trials = trials
        self._unread = {"uniform": uniform_rng, "normal": normal_rng}

    def __len__(self) -> int:
        return len(self.trials)

    def _stream(self, name: str) -> np.random.Generator:
        if name not in self._unread:
            raise RuntimeError(f"the {name} stream was already read in this chunk")
        return self._unread.pop(name)

    def uniform(self, width: int) -> np.ndarray:
        return self._stream("uniform").random((len(self.trials), width))

    def normal(self, counts) -> list[np.ndarray]:
        z = self._stream("normal").standard_normal(int(np.sum(counts)))
        return np.split(z, np.cumsum(counts)[:-1])


def worst_trial(seed: int, trials: int, trial_bytes: int, evaluate, *, key: int):
    """The first largest deviation of seeded trials, its index and its trial's context.

    The trials draw from two generators made once per call: a uniform
    stream seeded with ``[seed, key, 0]`` and a normal stream seeded with
    ``[seed, key, 1]``. ``key`` is a constant of the calling check, so that
    no two checks read the same streams. ``seed`` is an integer >= 0 (numpy
    takes no negative seed) and ``trials`` one >= 1; a bool is neither. The
    trials run in chunks of at most CHECK_STACK_BYTES, ``trial_bytes`` a
    trial (at least one trial a chunk): ``evaluate(draws)`` reads a chunk's
    draws from its ``TrialDraws`` and returns its deviations, trial axis
    first, and one context per trial (or None). Trial k reads the k-th block
    of each stream, so the chunk size does not change the results. Only the
    worst case is kept from chunk to chunk, so memory does not grow with
    ``trials``. Returns ``(deviation, index, context)``: ``index`` is the
    deviation's index over all trials, its first entry the trial.
    """
    for name, value, least in (("trials", trials, 1), ("seed", seed, 0)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise UsageError(f"{name} must be an integer, got {value!r}")
        if value < least:
            raise UsageError(f"{name} must be >= {least}, got {value}")
    streams = [np.random.default_rng([int(seed), key, stream]) for stream in (0, 1)]
    worst = (-np.inf, None, None)
    for chunk in chunk_slices(trials, trial_bytes, CHECK_STACK_BYTES):
        devs, context = evaluate(TrialDraws(*streams, range(trials)[chunk]))
        i, dev = worst_deviation(devs)
        if dev > worst[0]:
            k, *rest = np.unravel_index(i, np.shape(devs))
            index = (chunk.start + int(k), *map(int, rest))
            worst = (dev, index, None if context is None else context[k])
    return worst


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


def _f_tr_matrix(M: np.ndarray) -> np.ndarray:
    """f_tr of a matrix (0-d result) or of each matrix of a stack, from one eigenvalue solve.

    A matrix with a non-finite entry gets NaN, so one bad trial cannot stop a stacked check.
    """
    finite = np.all(np.isfinite(M), axis=(-2, -1))
    w = hermitian_eig(np.where(finite[..., None, None], M, 0.0))
    return np.where(finite, spectrum_verdict(w)[0], np.nan)


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


#: Eq.-style golden PDM for |0>, two consecutive measurements, no noise.
GOLDEN_TWO_EVENT = read_only(
    np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.0],
            [0.0, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ],
        dtype=complex,
    )
)
GOLDEN_EIGENVALUES = (-0.5, 0.0, 0.5, 1.0)


def golden_schedule() -> Schedule:
    return two_event_schedule(state_from_bloch([0, 0, 1]), None)


def _kraus_ranks(u: np.ndarray) -> np.ndarray:
    """A Kraus rank of 1-4 per uniform: 1 + floor(4 u)."""
    return 1 + (4 * u).astype(int)


def _complex_gaussian(z: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """A complex Gaussian matrix from 2 rows cols normals ``z``: all real parts first, then all imaginary parts."""
    re, im = z.reshape(2, rows, cols)
    return re + 1j * im


def bloch_vectors(z: np.ndarray, radii) -> np.ndarray:
    """Random Bloch vectors, one per row of 3 normals ``z``: the row's direction at its radius in [0, 1)."""
    return z / np.linalg.norm(z, axis=1, keepdims=True) * np.reshape(radii, (-1, 1))


def two_event_draws(draws: TrialDraws, u: np.ndarray) -> tuple[list, list]:
    """One random two-event input per row of ``u``: a Bloch state, then a CPTP gap of Kraus rank 1-4.

    Row i of ``u`` holds input i's uniforms: its Bloch radius, then its Kraus
    rank K. Its normals are 3 for its Bloch direction, then the (2K, 2)
    Gaussian of its gap's Stinespring isometry; one ``draws.normal`` reads
    all of them, in row order. The states are checked as one
    ``density_states`` stack, and the gap channels come from one QR per
    Kraus rank (``stinespring_channels``).
    """
    ranks = _kraus_ranks(u[:, 1])
    blocks = draws.normal(3 + 8 * ranks)
    blochs = bloch_vectors(np.array([z[:3] for z in blocks]), u[:, 0])
    gaussians = [_complex_gaussian(z[3:], 2 * K, 2) for z, K in zip(blocks, ranks)]
    return density_states(bloch_matrix(blochs.T[..., None, None])), stinespring_channels(gaussians)


def schedule_width(max_events: int) -> int:
    """Uniforms a schedule of at most ``max_events`` events reads (``draw_schedules``)."""
    return 4 * max_events + 4


def draw_schedules(draws: TrialDraws, u: np.ndarray, max_events: int) -> list[Schedule]:
    """Random schedules of 1 to ``max_events`` events on 1-3 qubits, one per row of ``u``.

    A row's first ``schedule_width(max_events)`` uniforms, with E =
    ``max_events``, are read in this order:

    - the qubit count, then the event count
    - 3 per event: a qubit, a coin, and a qubit for a new slice. An event
      opens a new slice when its qubit is taken in the current one, or else
      (after the slice's first event) when the coin is below 0.4.
    - a Kraus rank per gap, E - 1 in all
    - a Bloch radius per qubit, 3 in all

    A schedule's normals are 3 per qubit for its Bloch directions, 9 in all,
    then its gaps' Stinespring Gaussians; one ``draws.normal`` reads all of
    them, in row order. A schedule on q qubits uses its first q Bloch
    vectors: its initial state is the product of their states, and the
    schedules of one qubit count make their products as one stack, checked
    by one ``density_states`` call. The gap channels come from one QR per
    Gaussian shape (``stinespring_channels``).
    """
    ranks_at, radii_at = 3 * max_events + 2, 4 * max_events + 1
    layouts = []
    for row, ranks in zip(u.tolist(), _kraus_ranks(u[:, ranks_at:radii_at]).tolist()):
        qubits = 1 + int(3 * row[0])
        events, slice_index, used = [], 0, set()
        for eid in range(1, 2 + int(max_events * row[1])):
            pick, coin, repick = row[3 * eid - 1 : 3 * eid + 2]
            q = int(qubits * pick)
            if q in used or (used and coin < 0.4):
                slice_index += 1
                used = set()
                q = int(qubits * repick)
            used.add(q)
            events.append(Event(eid, q, slice_index))
        layouts.append((tuple(events), qubits, ranks[:slice_index]))
    blocks = draws.normal([9 + 2 * 4**q * sum(ranks) for _, q, ranks in layouts])
    blochs = bloch_vectors(np.array([z[:9] for z in blocks]).reshape(-1, 3), u[:, radii_at : radii_at + 3])
    blochs = blochs.reshape(-1, 3, 3)
    gaussians, states = [], {}
    for (_, qubits, ranks), z in zip(layouts, blocks):
        d, at = 2**qubits, 9
        for K in ranks:
            gaussians.append(_complex_gaussian(z[at : at + 2 * d * d * K], d * K, d))
            at += 2 * d * d * K
    for q in {q for _, q, _ in layouts}:
        rows = [i for i, (_, qubits, _) in enumerate(layouts) if qubits == q]
        # factors[j] stacks qubit j's Bloch states, one per schedule of the group.
        factors = bloch_matrix(blochs[rows, :q].T[..., None, None])
        states.update(zip(rows, density_states(kron(list(factors)))))
    channels = iter(stinespring_channels(gaussians))
    return [
        Schedule(states[i], events, tuple(next(channels) for _ in ranks))
        for i, (events, _, ranks) in enumerate(layouts)
    ]


#: Bytes of Gaussians a ``draw_schedules`` trial of at most 4 events may
#: draw: 3 gaps of Kraus rank 4 on 3 qubits, (32, 8) complex entries each.
_SCHEDULE_DRAW_BYTES = 3 * 16 * 32 * 8
#: Bytes one PDM of a two-event trial holds until its chunk is checked: its
#: Gaussian, state, channel and matrix as arrays and Python objects (tracemalloc
#: put it at ~2-3 KB).
_TWO_EVENT_PDM_BYTES = 4096


#: Random assignments ``suite_engine_oracle`` checks per trial, besides the all-identity one.
_RANDOM_PICKS = 8
#: The sides ``suite_engine_oracle`` checks against the oracle, in column order.
_SIDES = ("expectation", "build_pdm")
#: All 16 Pauli assignments of two events, in ``itertools.product`` order.
_ALL_PAIRS = read_only(np.array(list(itertools.product(range(4), repeat=2))))


def _plain(labels) -> tuple:
    """An assignment as a tuple of plain ints, for messages."""
    return tuple(int(x) for x in labels)


def suite_golden() -> SuiteResult:
    R = build_pdm(golden_schedule())
    dev = float(np.max(np.abs(R.matrix - GOLDEN_TWO_EVENT)))
    w = hermitian_eig(R.matrix)
    dev = max(dev, float(np.max(np.abs(w - np.array(GOLDEN_EIGENVALUES)))))
    dev = max(dev, abs(f_tr(R) - 1.0))
    return SuiteResult("golden_two_event", dev <= 1e-10, dev)


def suite_engine_oracle(seed: int = 0, trials: int = 200) -> SuiteResult:
    """The branch oracle vs ``expectations`` and vs ``build_pdm``'s coefficients.

    Each trial draws a schedule (``draw_schedules``) and ``_RANDOM_PICKS``
    random assignments, adds the all-identity one, and evaluates them as one
    batch on each side. A pick's label for event j is floor(4 u) of the
    trial's uniform for that pick and event, read after its schedule's. A
    chunk of trials is drawn first and its schedules built together, their
    gap channels from one QR per Gaussian shape. ``detail`` names the side
    and the assignment of the worst deviation.
    """
    width = schedule_width(4)

    def deviations(draws):
        u = draws.uniform(width + _RANDOM_PICKS * 4)
        schedules = draw_schedules(draws, u, 4)
        picks = (4 * u[:, width:]).astype(np.int64).reshape(-1, _RANDOM_PICKS, 4)
        batches = []
        devs = []
        for s, p in zip(schedules, picks):
            labels = np.vstack([p[:, : s.event_count], np.zeros((1, s.event_count), dtype=np.int64)])
            want = oracle_expectations(s, labels)
            got = np.stack([expectations(s, labels), build_pdm(s).stored_expectations(labels)], axis=1)
            devs.append(np.abs(got - want[:, None]))
            batches.append(labels)
        # Axes (trial, pick, side), row-major: the first maximum is the one a per-pick loop would keep.
        return np.array(devs), batches

    worst, (k, pick, side), labels = worst_trial(seed, trials, _SCHEDULE_DRAW_BYTES, deviations, key=1)
    detail = f"{_SIDES[side]}: trial {k} assignment {_plain(labels[pick])}"
    return SuiteResult("engine_vs_oracle", worst <= 1e-12, worst, detail)


def suite_ancilla(seed: int = 0, trials: int = 50) -> SuiteResult:
    """The ancilla protocol vs ``expectations`` on all 16 assignments of random two-event schedules.

    A chunk of trials is drawn first (``two_event_draws``).
    """

    def deviations(draws):
        devs = []
        for st, ch in zip(*two_event_draws(draws, draws.uniform(2))):
            s = two_event_schedule(st, ch)
            devs.append(np.abs(ancilla_expectations(s, _ALL_PAIRS) - expectations(s, _ALL_PAIRS)))
        return np.array(devs), None

    worst, (k, i), _ = worst_trial(seed, trials, _TWO_EVENT_PDM_BYTES, deviations, key=2)
    detail = f"trial {k} assignment {_plain(_ALL_PAIRS[i])}"
    return SuiteResult("ancilla_protocol", worst <= 1e-10, worst, detail)


def suite_closed_form(seed: int = 0, trials: int = 50) -> SuiteResult:
    """Both input forms of ``two_event_pdm_stack`` vs ``build_pdm`` on random two-event schedules.

    Trial k draws its input state and its CPTP gap of Kraus rank 1-4
    (``two_event_draws``); a chunk of trials is one stack with one state per
    row. One more trial, on streams of its own (stream key 4), checks the
    sweep path. Its uniforms are a Bloch radius and the time constants of
    amplitude damping and dephasing, each 0.5 + 1.5 u; its normals are 3 for
    the Bloch direction, then the 2x2 Gaussian of a Haar unitary. That one state and the composite of amplitude damping, the
    unitary and dephasing (members that do not commute) are evaluated at
    t = 0, 1 and 2 by one ``noise_kraus`` call into a stack on that state.
    Each row is checked against ``build_pdm`` of the ``compose`` of the
    members' ``channel_at_time`` at its time.
    """
    ts = np.linspace(0.0, 2.0, 3)

    def deviations(draws):
        states, channels = two_event_draws(draws, draws.uniform(2))
        stack = two_event_pdm_stack(states, kraus_array(channels))
        built = np.array([build_pdm(two_event_schedule(st, ch)).matrix for st, ch in zip(states, channels)])
        return np.max(np.abs(built - stack), axis=(1, 2)), None

    def sweep_deviations(draws):
        ((radius, damping, dephasing),) = draws.uniform(3)
        (z,) = draws.normal([3 + 8])
        state = state_from_bloch(bloch_vectors(z[None, :3], radius)[0])
        members = (
            NoiseModel("amplitude_damping", tau=0.5 + 1.5 * float(damping)),
            NoiseModel("unitary", unitary=qr_isometries([_complex_gaussian(z[3:], 2, 2)], haar=True)[0]),
            NoiseModel("dephasing", tau=0.5 + 1.5 * float(dephasing)),
        )
        swept = two_event_pdm_stack(state, noise_kraus(NoiseModel("composite", members=members), ts))
        per_time = [functools.reduce(compose, [channel_at_time(m, t) for m in members]) for t in ts]
        built = np.array([build_pdm(two_event_schedule(state, ch)).matrix for ch in per_time])
        return np.max(np.abs(built - swept), axis=(1, 2))[None], None

    worst, (k,), _ = worst_trial(seed, trials, _TWO_EVENT_PDM_BYTES, deviations, key=3)
    swept, (_, i), _ = worst_trial(seed, 1, _TWO_EVENT_PDM_BYTES, sweep_deviations, key=4)
    detail = f"trial {k}" if worst >= swept else f"sweep path at t={float(ts[i])!r}"
    worst = max(worst, swept)
    return SuiteResult("closed_form_two_event", worst <= 1e-12, worst, detail)


def suite_unitary_invariance(R: PseudoDensityMatrix, seed: int = 0, trials: int = 200) -> SuiteResult:
    """f_tr(U R U^dag) must equal f_tr(R) for Haar-random unitaries U.

    Each trial reads the 2 D^2 normals of one D x D Ginibre matrix. A chunk
    takes its unitaries from one QR and its f_tr values from one eigenvalue
    solve. ``detail`` names the trial of the largest deviation.
    """
    base = f_tr(R)
    dim = R.matrix.shape[0]

    def deviations(draws):
        z = draws.normal(np.full(len(draws), 2 * dim * dim))
        Us = np.stack(qr_isometries([_complex_gaussian(row, dim, dim) for row in z], haar=True))
        return np.abs(_f_tr_matrix(Us @ R.matrix @ dagger(Us)) - base), None

    worst, (k,), _ = worst_trial(seed, trials, 16 * dim * dim, deviations, key=5)
    return SuiteResult("unitary_invariance", worst <= CHECK_ATOL, worst, f"trial {k}")


def suite_local_monotonicity(R: PseudoDensityMatrix, seed: int = 0, trials: int = 200) -> SuiteResult:
    """f_tr must not increase under a CPTP channel on a single event factor.

    Each trial's uniforms are a Kraus rank K of 1-4 and the factor its
    channel acts on, floor(n u) of n; its normals are the (2K, 2) Gaussian
    of the channel's Stinespring isometry. A chunk draws all its trials
    first and takes their channels from one QR per Kraus rank
    (``stinespring_channels``). They are zero-padded into one
    ``kraus_array`` (a zero operator adds nothing) and applied to R with one
    ``kraus_sum`` per event factor, over the trials on that factor, and the
    chunk is one eigenvalue solve. ``detail`` names the trial of the largest
    rise and its event.
    """
    base = f_tr(R)
    n = R.event_count
    dim = R.matrix.shape[0]

    def rises(draws):
        u = draws.uniform(2)
        ranks = _kraus_ranks(u[:, 0])
        gaussians = [_complex_gaussian(z, 2 * K, 2) for z, K in zip(draws.normal(8 * ranks), ranks)]
        kraus = kraus_array(stinespring_channels(gaussians))
        factor = (n * u[:, 1]).astype(int)
        outs = np.empty((len(kraus), dim, dim), dtype=complex)
        for f in range(n):
            on_f = factor == f
            if on_f.any():
                outs[on_f] = kraus_sum(embed_operator(kraus[on_f], f, n), R.matrix)
        return _f_tr_matrix(outs) - base, factor

    # A trial holds 4 embedded Kraus operators: 4 matrices of the PDM's dimension.
    worst, (k,), factor = worst_trial(seed, trials, 4 * 16 * dim * dim, rises, key=6)
    detail = f"trial {k} on event {factor + 1}"
    return SuiteResult("local_monotonicity", worst <= CHECK_ATOL, max(0.0, worst), detail)


def suite_convexity(seed: int = 0, trials: int = 200) -> SuiteResult:
    """Convexity of f_tr on mixtures of two random two-event PDMs.

    Each trial draws two (state, CPTP gap of Kraus rank 1-4) pairs
    (``two_event_draws``) and a weight p: its uniforms are the pairs' two
    each, then p. A chunk's PDMs come from one closed-form stack, one state
    per row, and ``convexity_gaps`` takes the f_tr of them and of the
    chunk's mixtures from one eigenvalue solve. ``detail`` names the trial
    of the largest gap.
    """

    def gaps(draws):
        u = draws.uniform(5)
        states, channels = two_event_draws(draws, u[:, :4].reshape(-1, 2))
        weights = np.stack([u[:, 4], 1 - u[:, 4]], axis=1)
        Rs = two_event_pdm_stack(states, kraus_array(channels)).reshape(-1, 2, 4, 4)
        return convexity_gaps(Rs, weights), None

    worst, (k,), _ = worst_trial(seed, trials, 2 * _TWO_EVENT_PDM_BYTES, gaps, key=7)
    return SuiteResult("convexity", worst <= CHECK_ATOL, max(0.0, worst), f"trial {k}")


def run_all(seed: int = 0, trials: int = 200) -> list[SuiteResult]:
    # Each randomized suite reads its own uniform and normal stream, seeded
    # with [seed, key, 0] and [seed, key, 1] for its stream key (1-7), trial k
    # the k-th block of each; ``worst_trial`` makes them and checks the seed
    # and the trial count.
    golden = build_pdm(golden_schedule())
    return [
        suite_golden(),
        suite_engine_oracle(seed, trials),
        suite_ancilla(seed, max(1, trials // 4)),
        suite_closed_form(seed, max(1, trials // 4)),
        suite_unitary_invariance(golden, seed, trials),
        suite_local_monotonicity(golden, seed, trials),
        suite_convexity(seed, max(1, trials // 2)),
    ]
