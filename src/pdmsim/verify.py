"""Self-verification suites: golden values, engine/oracle equivalence, axiom checks.

These back ``pdm verify`` and double as helpers for the test suite.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

import numpy as np

from .causality import (
    CHECK_ATOL,
    SuiteResult,
    convexity_gaps,
    check_local_monotonicity,
    check_unitary_invariance,
    cptp_draw,
    f_tr,
    haar_unitary,
    stinespring_channels,
    worst_trial,
)
from .channels import (
    NoiseModel,
    bloch_matrix,
    channel_at_time,
    compose,
    density_states,
    kraus_array,
    noise_kraus,
    state_from_bloch,
)
from .errors import UsageError
from .linalg import hermitian_eig, kron, read_only
from .schedule import (
    Event,
    Schedule,
    ancilla_expectations,
    build_pdm,
    expectations,
    oracle_expectations,
    two_event_pdm_stack,
    two_event_schedule,
)

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


def random_bloch(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return v * rng.uniform(0, 1)


def two_event_draws(rngs) -> tuple[list, list]:
    """One random two-event input per generator: a Bloch state, then a CPTP gap of Kraus rank 1-4.

    The states are checked as one ``density_states`` stack, and the gap
    channels come from one QR per Kraus rank (``stinespring_channels``).
    """
    blochs, gaussians = zip(*[(random_bloch(rng), cptp_draw(1, rng)) for rng in rngs])
    return density_states([bloch_matrix(r) for r in blochs]), stinespring_channels(gaussians)


class _ScheduleDraw(NamedTuple):
    """What a random schedule draws, before any matrix is built from it; one Bloch vector per qubit."""

    events: tuple
    #: One ``cptp_draw`` per gap channel.
    gaussians: list
    blochs: list


def draw_schedule(rng: np.random.Generator, max_events: int) -> _ScheduleDraw:
    """Draw a random schedule of 1 to ``max_events`` events on 1-3 qubits; ``build_schedules`` builds it."""
    qubits = int(rng.integers(1, 4))
    n_events = int(rng.integers(1, max_events + 1))
    events, slice_index, used = [], 0, set()
    for eid in range(1, n_events + 1):
        q = int(rng.integers(0, qubits))
        if q in used or (used and rng.random() < 0.4):
            slice_index += 1
            used = set()
            q = int(rng.integers(0, qubits))
        used.add(q)
        events.append(Event(eid, q, slice_index))
    gaussians = [cptp_draw(qubits, rng) for _ in range(slice_index)]
    blochs = [random_bloch(rng) for _ in range(qubits)]
    return _ScheduleDraw(tuple(events), gaussians, blochs)


def build_schedules(draws) -> list[Schedule]:
    """The schedules of a list of draws, their gap channels from one QR per Gaussian shape.

    Each initial state is the product of its qubits' Bloch states. The draws
    of one qubit count make their products as one stack, checked by one
    ``density_states`` call.
    """
    channels = iter(stinespring_channels([G for d in draws for G in d.gaussians]))
    states = {}
    for q in {len(d.blochs) for d in draws}:
        rows = [i for i, d in enumerate(draws) if len(d.blochs) == q]
        # factors[j] stacks qubit j's Bloch states, one per draw of the group.
        factors = np.array([[bloch_matrix(r) for r in draws[i].blochs] for i in rows]).swapaxes(0, 1)
        states.update(zip(rows, density_states(kron(list(factors)))))
    return [
        Schedule(states[i], d.events, tuple(next(channels) for _ in d.gaussians))
        for i, d in enumerate(draws)
    ]


#: Bytes of Gaussians a ``draw_schedule`` trial of at most 4 events may
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

    Each trial draws a schedule (``draw_schedule``) and ``_RANDOM_PICKS`` random
    assignments, adds the all-identity one, and evaluates them as one batch
    on each side. A chunk of trials is drawn first and its schedules built
    together, their gap channels from one QR per Gaussian shape. ``detail``
    names the side and the assignment of the worst deviation.
    """

    def deviations(rngs):
        draws = [draw_schedule(rng, 4) for rng in rngs]
        # Each trial's picks in one draw (the same stream as one draw per pick), then the all-identity one.
        picks = [rng.integers(0, 4, size=(_RANDOM_PICKS, len(d.events))) for rng, d in zip(rngs, draws)]
        batches = [np.vstack([p, np.zeros_like(p[:1])]) for p in picks]
        devs = []
        for s, labels in zip(build_schedules(draws), batches):
            want = oracle_expectations(s, labels)
            got = np.stack([expectations(s, labels), build_pdm(s).stored_expectations(labels)], axis=1)
            devs.append(np.abs(got - want[:, None]))
        # Axes (trial, pick, side), row-major: the first maximum is the one a per-pick loop would keep.
        return np.array(devs), batches

    worst, (k, pick, side), labels = worst_trial(seed, trials, _SCHEDULE_DRAW_BYTES, deviations)
    detail = f"{_SIDES[side]}: trial {k} assignment {_plain(labels[pick])}"
    return SuiteResult("engine_vs_oracle", worst <= 1e-12, worst, detail)


def suite_ancilla(seed: int = 0, trials: int = 50) -> SuiteResult:
    """The ancilla protocol vs ``expectations`` on all 16 assignments of random two-event schedules.

    A chunk of trials is drawn first (``two_event_draws``).
    """

    def deviations(rngs):
        devs = []
        for st, ch in zip(*two_event_draws(rngs)):
            s = two_event_schedule(st, ch)
            devs.append(np.abs(ancilla_expectations(s, _ALL_PAIRS) - expectations(s, _ALL_PAIRS)))
        return np.array(devs), None

    worst, (k, i), _ = worst_trial(seed, trials, _TWO_EVENT_PDM_BYTES, deviations)
    detail = f"trial {k} assignment {_plain(_ALL_PAIRS[i])}"
    return SuiteResult("ancilla_protocol", worst <= 1e-10, worst, detail)


def suite_closed_form(seed: int = 0, trials: int = 50) -> SuiteResult:
    """Both input forms of ``two_event_pdm_stack`` vs ``build_pdm`` on random two-event schedules.

    Trial k draws its input state and its CPTP gap of Kraus rank 1-4
    (``two_event_draws``); a chunk of trials is one stack with one state per
    row. One more trial, drawn from seed + trials, checks the sweep path: one
    state and a random composite of amplitude damping, a unitary and
    dephasing (members that do not commute), evaluated at t = 0, 1 and 2 by
    one ``noise_kraus`` call into a stack on that one state. Each row is
    checked against ``build_pdm`` of the ``compose`` of the members'
    ``channel_at_time`` at its time.
    """
    ts = np.linspace(0.0, 2.0, 3)

    def deviations(rngs):
        states, channels = two_event_draws(rngs)
        stack = two_event_pdm_stack(states, kraus_array(channels))
        built = np.array([build_pdm(two_event_schedule(st, ch)).matrix for st, ch in zip(states, channels)])
        return np.max(np.abs(built - stack), axis=(1, 2)), None

    def sweep_deviations(rngs):
        (rng,) = rngs
        state = state_from_bloch(random_bloch(rng))
        damping, dephasing = (float(tau) for tau in rng.uniform(0.5, 2.0, size=2))
        members = (
            NoiseModel("amplitude_damping", tau=damping),
            NoiseModel("unitary", unitary=haar_unitary(2, rng)),
            NoiseModel("dephasing", tau=dephasing),
        )
        swept = two_event_pdm_stack(state, noise_kraus(NoiseModel("composite", members=members), ts))
        per_time = [functools.reduce(compose, [channel_at_time(m, t) for m in members]) for t in ts]
        built = np.array([build_pdm(two_event_schedule(state, ch)).matrix for ch in per_time])
        return np.max(np.abs(built - swept), axis=(1, 2))[None], None

    worst, (k,), _ = worst_trial(seed, trials, _TWO_EVENT_PDM_BYTES, deviations)
    swept, (_, i), _ = worst_trial(seed + trials, 1, _TWO_EVENT_PDM_BYTES, sweep_deviations)
    detail = f"trial {k}" if worst >= swept else f"sweep path at t={float(ts[i])!r}"
    worst = max(worst, swept)
    return SuiteResult("closed_form_two_event", worst <= 1e-12, worst, detail)


def suite_unitary_invariance(seed: int = 0, trials: int = 200) -> SuiteResult:
    """f_tr of the golden PDM under Haar-random unitaries; ``detail`` names the worst trial."""
    return check_unitary_invariance(build_pdm(golden_schedule()), trials, seed)


def suite_local_monotonicity(seed: int = 0, trials: int = 200) -> SuiteResult:
    """f_tr of the golden PDM under random one-event channels; ``detail`` names the worst trial."""
    return check_local_monotonicity(build_pdm(golden_schedule()), trials, seed)


def suite_convexity(seed: int = 0, trials: int = 200) -> SuiteResult:
    """Convexity of f_tr on mixtures of two random two-event PDMs.

    Each trial draws two (state, CPTP gap of Kraus rank 1-4) pairs and a
    weight p. A chunk's PDMs come from one closed-form stack, one state per
    row, and ``convexity_gaps`` takes the f_tr of them and of the chunk's
    mixtures from one eigenvalue solve. ``detail`` names the trial of the
    largest gap.
    """

    def gaps(rngs):
        states, channels = two_event_draws([rng for rng in rngs for _ in range(2)])
        weights = [[p, 1 - p] for p in (float(rng.uniform(0, 1)) for rng in rngs)]
        Rs = two_event_pdm_stack(states, kraus_array(channels)).reshape(-1, 2, 4, 4)
        return convexity_gaps(Rs, weights), None

    worst, (k,), _ = worst_trial(seed, trials, 2 * _TWO_EVENT_PDM_BYTES, gaps)
    return SuiteResult("convexity", worst <= CHECK_ATOL, max(0.0, worst), f"trial {k}")


def run_all(seed: int = 0, trials: int = 200) -> list[SuiteResult]:
    if trials < 1:
        raise UsageError("trials must be >= 1")
    # Trial k of every randomized suite draws from numpy's generator seeded with seed + k
    # (``worst_trial``), and numpy takes no negative seed.
    if seed < 0:
        raise UsageError(f"seed must be >= 0, got {seed}")
    return [
        suite_golden(),
        suite_engine_oracle(seed, trials),
        suite_ancilla(seed, max(1, trials // 4)),
        suite_closed_form(seed, max(1, trials // 4)),
        suite_unitary_invariance(seed, trials),
        suite_local_monotonicity(seed, trials),
        suite_convexity(seed, max(1, trials // 2)),
    ]
