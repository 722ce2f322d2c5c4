import itertools
import re
import tracemalloc

import numpy as np
import pytest

import pdmsim
from pdmsim import (
    DensityState,
    Event,
    InvariantViolation,
    KrausChannel,
    NoiseModel,
    PseudoDensityMatrix,
    Schedule,
    UsageError,
    ancilla_expectation,
    ancilla_expectations,
    build_pdm,
    channel_at_time,
    compose,
    expectation,
    expectation_oracle,
    expectations,
    kraus_array,
    make_channel,
    oracle_expectations,
    reduce_pdm,
    state_from_bloch,
    two_event_pdm_stack,
    two_event_schedule,
    unitary_channel,
)
import pdmsim.schedule as schedule
from pdmsim.channels import kraus_sum
from pdmsim.linalg import I2, PAULI_STACK, PAULIS, X, embed_operator, kron
from pdmsim.schedule import PDM_BYTE_BUDGET, _event_paulis, _event_projectors
from pdmsim.verify import GOLDEN_TWO_EVENT, golden_schedule, suite_engine_oracle

from conftest import haar_unitary, pdm_expectation, random_bloch, random_cptp, random_density, random_schedule


def mixed_two_event(channel):
    return two_event_schedule(state_from_bloch([0, 0, 0]), channel)


def oracle_branch_list(s, assignment):
    """Reference branch oracle: a list of (outcome product, operator) pairs, one Kraus loop per branch."""
    n = s.qubit_count
    branches = [(1.0, s.initial_state.matrix.copy())]
    for sl in range(s.slice_count):
        for ev in s.events_in_slice(sl):
            label = assignment[ev.id - 1]
            if label == 0:
                continue
            A = embed_operator(PAULIS[label], ev.qubit, n)
            P_plus = (np.eye(2**n) + A) / 2.0
            P_minus = (np.eye(2**n) - A) / 2.0
            branches = [
                (sign * prod, P @ M @ P)
                for prod, M in branches
                for sign, P in ((1.0, P_plus), (-1.0, P_minus))
            ]
        if sl < s.slice_count - 1:
            ch = s.inter_slice_channels[sl] or KrausChannel(np.eye(2**n)[None])
            branches = [
                (prod, sum(K @ M @ K.conj().T for K in ch.kraus_ops)) for prod, M in branches
            ]
    return float(sum(prod * np.trace(M).real for prod, M in branches))


def expectation_loop(s, assignment):
    """Reference engine: one running operator and one Kraus loop per gap for a single assignment."""
    n = s.qubit_count
    M = s.initial_state.matrix.copy()
    for sl in range(s.slice_count):
        for ev in s.events_in_slice(sl):
            label = assignment[ev.id - 1]
            if label == 0:
                continue
            A = embed_operator(PAULIS[label], ev.qubit, n)
            M = (A @ M + M @ A) / 2.0
        if sl < s.slice_count - 1:
            ch = s.inter_slice_channels[sl] or KrausChannel(np.eye(2**n)[None])
            M = sum(K @ M @ K.conj().T for K in ch.kraus_ops)
    return float(np.trace(M).real)


def ancilla_loop(s, assignment):
    """Reference ancilla protocol for a single assignment of a two-event 1-qubit schedule."""
    H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    basis_change = {1: H, 2: H @ np.diag([1, -1j]), 3: I2}
    cnot = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
    rho = np.kron(s.initial_state.matrix, np.diag([1.0, 0.0]))
    for sl in range(2):
        (ev,) = s.events_in_slice(sl)
        label = assignment[ev.id - 1]
        if label != 0:
            U = np.kron(basis_change[label], I2)
            block = U.conj().T @ cnot @ U
            rho = block @ rho @ block.conj().T
        if sl == 0:
            ch = s.inter_slice_channels[0] or KrausChannel(I2[None])
            rho = sum(np.kron(K, I2) @ rho @ np.kron(K, I2).conj().T for K in ch.kraus_ops)
    return float(np.trace(np.kron(I2, PAULIS[3]) @ rho).real)


class TestExpectation:
    def test_golden_values(self):
        s = golden_schedule()
        # |0>, identity evolution: ZZ, XX, YY, ZI, IZ and II all equal 1.
        for a in ((0, 0), (1, 1), (2, 2), (3, 3), (3, 0), (0, 3)):
            assert expectation(s, a) == pytest.approx(1.0, abs=1e-14)
        for a in ((1, 0), (0, 1), (2, 0), (1, 2), (3, 1)):
            assert expectation(s, a) == pytest.approx(0.0, abs=1e-14)

    def test_depolarizing_gap_zz(self):
        for lam in (0.0, 0.35, 1.0):
            s = mixed_two_event(make_channel("depolarizing", lam))
            assert expectation(s, (3, 3)) == pytest.approx(lam, abs=1e-13)

    def test_length_mismatch(self):
        with pytest.raises(UsageError):
            expectation(golden_schedule(), (3,))

    def test_anticommutator_equals_weighted_projectors(self, rng):
        for _ in range(10):
            rho = random_density(1, rng).matrix
            for A in PAULIS[1:]:
                P_plus = (np.eye(2) + A) / 2
                P_minus = (np.eye(2) - A) / 2
                lhs = (A @ rho + rho @ A) / 2
                rhs = P_plus @ rho @ P_plus - P_minus @ rho @ P_minus
                assert np.max(np.abs(lhs - rhs)) <= 1e-14


class TestExpectationOracle:
    def test_all_identity_is_one(self, rng):
        for k in range(5):
            s = random_schedule(np.random.default_rng(k))
            assert expectation_oracle(s, (0,) * s.event_count) == pytest.approx(1.0, abs=1e-12)

    def test_xx_on_ground_state(self):
        assert expectation_oracle(golden_schedule(), (1, 1)) == pytest.approx(1.0, abs=1e-13)

    def test_dephasing_gap_xx(self):
        for gamma in (0.0, 0.45, 1.0):
            s = mixed_two_event(make_channel("dephasing", gamma))
            assert expectation_oracle(s, (1, 1)) == pytest.approx(gamma, abs=1e-13)

    def test_matches_engine_on_random_schedules(self):
        for k in range(50):
            rng = np.random.default_rng(k)
            s = random_schedule(rng)
            for _ in range(6):
                a = tuple(rng.integers(0, 4, size=s.event_count))
                assert abs(expectation(s, a) - expectation_oracle(s, a)) <= 1e-12

    def test_stacked_branches_match_branch_list(self):
        for k in range(60):
            rng = np.random.default_rng(500 + k)
            noisy = random_schedule(rng, max_events=5)
            noiseless = Schedule(noisy.initial_state, noisy.events)
            n = noisy.event_count
            picks = [tuple(rng.integers(0, 4, size=n)) for _ in range(6)]
            picks.append(tuple(rng.integers(1, 4, size=n)))  # every event splits: 2^n branches
            for s in (noisy, noiseless):
                for a in picks:
                    assert abs(expectation_oracle(s, a) - oracle_branch_list(s, a)) <= 1e-14

    def test_event_tables_are_read_only(self):
        for qubit, n in ((0, 1), (1, 3), (2, 3)):
            A = _event_paulis(qubit, n)
            P = _event_projectors(qubit, n)
            assert _event_paulis(qubit, n) is A
            for label in range(4):
                assert np.array_equal(A[label], embed_operator(PAULIS[label], qubit, n))
                assert np.array_equal(P[label, 0] - P[label, 1], A[label])
            # Label 0 splits into (I, 0): the -1 branch is exactly zero.
            assert np.array_equal(P[0, 0], np.eye(2**n)) and not P[0, 1].any()
            with pytest.raises(ValueError):
                A[1, 0, 0] = 7.0
            with pytest.raises(ValueError):
                P[1, 0, 0, 0] = 7.0
        # The 1-qubit table holds a copy, not the shared Pauli constants.
        A = _event_paulis(0, 1)
        assert not any(np.shares_memory(A, P) for P in (PAULI_STACK, *PAULIS))


class TestBuildPdm:
    def test_golden_matrix(self):
        R = build_pdm(golden_schedule())
        assert np.max(np.abs(R.matrix - GOLDEN_TWO_EVENT)) <= 1e-12

    def test_nan_pdm_rejected(self):
        R = build_pdm(golden_schedule())
        with pytest.raises(InvariantViolation, match="outside"):
            PseudoDensityMatrix(R.events, np.full_like(R.coefficients, np.nan))
        for k in (0, 5):
            c = R.coefficients.copy()
            c[k] = np.nan
            with pytest.raises(InvariantViolation, match="outside"):
                PseudoDensityMatrix(R.events, c)

    def test_matrix_is_assembled_from_the_coefficients(self):
        for k in range(10):
            R = build_pdm(random_schedule(np.random.default_rng(k)))
            again = PseudoDensityMatrix(R.events, R.coefficients)
            assert np.array_equal(again.matrix, R.matrix)
            want = sum(
                c * kron([PAULIS[l] for l in a])
                for c, a in zip(R.coefficients, itertools.product(range(4), repeat=R.event_count))
            ) / 2**R.event_count
            assert np.max(np.abs(R.matrix - want)) <= 1e-14
            assert not R.matrix.flags.writeable and not R.coefficients.flags.writeable

    def test_matrix_is_assembled_only_when_read(self, monkeypatch):
        calls = []
        real = schedule._assemble
        monkeypatch.setattr(schedule, "_assemble", lambda c: calls.append(1) or real(c))
        # engine_vs_oracle reads only stored expectations.
        assert suite_engine_oracle(3, 20).passed
        assert calls == []
        R = build_pdm(random_schedule(np.random.default_rng(2)))
        assert calls == []
        first = R.matrix
        assert R.matrix is first and calls == [1]
        assert not first.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            first[0, 0] = 2.0

    def test_matrix_is_checked_on_first_read(self, monkeypatch):
        R = build_pdm(golden_schedule())
        monkeypatch.setattr(schedule, "_assemble", lambda c: np.triu(np.ones((4, 4))) / 4)
        lazy = PseudoDensityMatrix(R.events, R.coefficients)
        with pytest.raises(InvariantViolation, match="PDM"):
            lazy.matrix

    def test_coefficients_are_checked(self):
        R = build_pdm(golden_schedule())
        with pytest.raises(InvariantViolation, match="expected 16 coefficients"):
            PseudoDensityMatrix(R.events, R.coefficients[:4])
        c = R.coefficients.copy()
        c[3] = 1.5
        with pytest.raises(InvariantViolation, match="outside"):
            PseudoDensityMatrix(R.events, c)
        with pytest.raises(InvariantViolation, match="all-identity expectation must be 1"):
            PseudoDensityMatrix(R.events, R.coefficients * 0.5)

    def test_coefficients_are_copied(self):
        R = build_pdm(golden_schedule())
        c = R.coefficients.copy()
        held = PseudoDensityMatrix(R.events, c)
        c[5] = 0.5
        assert np.array_equal(held.coefficients, R.coefficients)

    def test_single_slice_reduces_to_state(self, rng):
        rho = random_density(2, rng)
        s = Schedule(rho, (Event(1, 0, 0), Event(2, 1, 0)))
        R = build_pdm(s)
        assert np.max(np.abs(R.matrix - rho.matrix)) <= 1e-12

    def test_depolarizing_family_matrix(self):
        lam = 0.6
        R = build_pdm(mixed_two_event(make_channel("depolarizing", lam)))
        expected = (
            np.eye(4) + lam * (kron([PAULIS[1]] * 2) + kron([PAULIS[2]] * 2) + kron([PAULIS[3]] * 2))
        ) / 4
        assert np.max(np.abs(R.matrix - expected)) <= 1e-12

    def test_invariants(self):
        for k in range(10):
            R = build_pdm(random_schedule(np.random.default_rng(k)))
            assert np.max(np.abs(R.matrix - R.matrix.conj().T)) <= 1e-12
            assert np.trace(R.matrix).real == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(R.coefficients)) <= 1 + 1e-12
            assert R.stored_expectations([(0,) * R.event_count])[0] == pytest.approx(1.0, abs=1e-12)

    def test_event_cap(self, rng):
        # A 10-event chain needs a 4^9 * 4 stack plus a 1024 x 1024 matrix: 32 MiB.
        rho = random_density(1, rng)
        events = tuple(Event(i + 1, 0, i) for i in range(10))
        s = Schedule(rho, events)
        with pytest.raises(UsageError, match=f"33554432 bytes, over the {PDM_BYTE_BUDGET}-byte"):
            build_pdm(s)


def _layout(qubits, slices, rng, none_gaps=(), ranks=()):
    """Events from ``slices`` (lists of qubits per slice), ids assigned in time order.

    Gaps listed in ``none_gaps`` are identity; the others are random CPTP maps,
    gap g of Kraus rank ``ranks[g % len(ranks)]`` if ranks are given and of a
    random rank 1-3 if not.
    """
    events, eid = [], 1
    for si, sl in enumerate(slices):
        for q in sl:
            events.append(Event(eid, q, si))
            eid += 1
    channels = tuple(
        None
        if g in none_gaps
        else random_cptp(qubits, ranks[g % len(ranks)] if ranks else int(rng.integers(1, 4)), rng)
        for g in range(len(slices) - 1)
    )
    return Schedule(random_density(qubits, rng), tuple(events), channels)


ENGINE_CASES = {
    "1q-single-slice": lambda rng: _layout(1, [[0]], rng),
    "2q-single-slice": lambda rng: _layout(2, [[1, 0]], rng),
    "3q-single-slice": lambda rng: _layout(3, [[2, 0, 1]], rng),
    "1q-chain-5-none-gaps": lambda rng: _layout(1, [[0]] * 5, rng, none_gaps=(0, 2)),
    "2q-last-slice-2": lambda rng: _layout(2, [[0], [1], [0, 1]], rng),
    "2q-5-events-none-gap": lambda rng: _layout(2, [[0, 1], [1], [1, 0]], rng, none_gaps=(1,)),
    "3q-last-slice-3": lambda rng: _layout(3, [[1], [0, 2, 1]], rng),
    "3q-5-events-1-per-slice": lambda rng: _layout(3, [[0], [2], [1], [2], [0]], rng),
    "3q-5-events-all-none": lambda rng: _layout(3, [[2, 0], [1], [0, 1]], rng, none_gaps=(0, 1)),
    # 4^4 operators of 16 x 16 before the last gap: per-Kraus products in blocks.
    "4q-5-events-1-per-slice": lambda rng: _layout(4, [[0], [1], [2], [3], [0]], rng),
    # Stacks of 4^3 and 4^4 operators of 8 x 8 reach the last two gaps. Unitary
    # gaps take the per-Kraus products there, rank-2 and rank-4 gaps the
    # superoperator.
    "3q-5-events-unitary-gaps": lambda rng: _layout(3, [[0], [1], [2], [0], [1]], rng, ranks=(1,)),
    "3q-5-events-rank-2-4-gaps": lambda rng: _layout(
        3, [[0], [1], [2], [0], [1]], rng, ranks=(2, 4)
    ),
    # The fifth event's Pauli action sees 4^4 operators of 8 x 8: 8 chunks.
    "3q-6-events-1-per-slice": lambda rng: _layout(3, [[0], [1], [2], [0], [1], [2]], rng),
    # Event 1 is the later measurement: the label axes must be permuted back.
    "2q-ids-out-of-time-order": lambda rng: Schedule(
        random_density(2, rng),
        (Event(1, 0, 1), Event(2, 1, 0), Event(3, 0, 0)),
        (random_cptp(2, 2, rng),),
    ),
}


class TestBatchedEngine:
    """``build_pdm``'s single forward pass against the per-assignment reference loop."""

    @pytest.mark.parametrize("case", sorted(ENGINE_CASES))
    def test_matches_expectation_on_every_assignment(self, case, rng):
        s = ENGINE_CASES[case](rng)
        R = build_pdm(s)
        n = s.event_count
        dim = 2**n
        ref = np.zeros((dim, dim), dtype=complex)
        for idx, a in enumerate(itertools.product(range(4), repeat=n)):
            e = expectation_loop(s, a)
            assert abs(R.coefficients[idx] - e) <= 1e-12
            ref += e * kron([PAULIS[l] for l in a])
        assert np.max(np.abs(R.matrix - ref / dim)) <= 1e-12

    def test_eight_event_chain_matches_oracle(self):
        rng = np.random.default_rng(8)
        s = _layout(1, [[0]] * 8, rng)
        R = build_pdm(s)
        for _ in range(12):
            a = tuple(rng.integers(0, 4, size=8))
            assert abs(R.stored_expectations([a])[0] - expectation_oracle(s, a)) <= 1e-12

    def test_peak_allocation(self):
        # The largest working stack of this layout is 4^4 operators of 8 x 8:
        # 256 KiB. Building the full last-slice stack would take 1 MiB alone.
        s = _layout(3, [[0], [1], [2], [0], [1]], np.random.default_rng(3))
        build_pdm(s)
        tracemalloc.start()
        try:
            build_pdm(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2**20

    @pytest.mark.parametrize("rank", [1, 2, 4])
    def test_gap_paths_on_a_full_stack(self, rank, rng, monkeypatch):
        # D^2 = 64 operators of 8 x 8: a one-Kraus gap takes the per-Kraus
        # products (kraus_sum), a rank-2 or rank-4 gap the superoperator.
        ch = random_cptp(3, rank, rng)
        stack = rng.normal(size=(64, 8, 8)) + 1j * rng.normal(size=(64, 8, 8))
        want = np.stack([sum(K @ M @ K.conj().T for K in ch.kraus_ops) for M in stack])
        calls = []
        monkeypatch.setattr(schedule, "kraus_sum", lambda E, M: calls.append(len(M)) or kraus_sum(E, M))
        got = schedule._apply_gap(stack.copy(), ch)
        assert np.max(np.abs(got - want)) <= 1e-13
        assert (sum(calls) == 64) if rank == 1 else not calls


class TestPauliLayers:
    """``_measure`` and ``_readout``, written as 2-D products, against their definitions."""

    @pytest.mark.parametrize("qubits", [1, 2, 3, 4])
    def test_matches_jordan_products(self, qubits, rng):
        # 40 operators: 2 chunks at 3 qubits and 5 at 4.
        D = 2**qubits
        stack = rng.normal(size=(40, D, D)) + 1j * rng.normal(size=(40, D, D))
        for q in range(qubits):
            got = schedule._measure(stack, q, qubits).reshape(40, 4, D, D)
            for label in range(4):
                A = embed_operator(PAULIS[label], q, qubits)
                want = (A @ stack + stack @ A) / 2.0
                assert np.max(np.abs(got[:, label] - want)) <= 1e-14

    @pytest.mark.parametrize(
        "qubits, listed",
        [(1, [0]), (2, [1]), (2, [1, 0]), (3, [1]), (3, [2, 0]), (3, [2, 0, 1]), (4, [3, 1]), (4, [0, 3, 2, 1])],
    )
    def test_readout_matches_traces(self, qubits, listed, rng):
        D = 2**qubits
        stack = rng.normal(size=(6, D, D)) + 1j * rng.normal(size=(6, D, D))
        got = schedule._readout(stack, listed, qubits)
        for idx, labels in enumerate(itertools.product(range(4), repeat=len(listed))):
            factors = [I2] * qubits
            for q, l in zip(listed, labels):
                factors[q] = PAULIS[l]
            P = kron(factors)
            want = np.trace(P @ stack, axis1=1, axis2=2)
            assert np.max(np.abs(got[:, idx] - want)) <= 1e-13


class TestBatchedReferencePaths:
    """The batched expectation, oracle and ancilla paths against per-assignment reference loops."""

    @staticmethod
    def requests():
        """(schedule, label array) pairs: random schedules with and without gaps, and the engine layouts."""
        for k in range(60):
            rng = np.random.default_rng(700 + k)
            noisy = random_schedule(rng, max_events=5)
            noiseless = Schedule(noisy.initial_state, noisy.events)
            n = noisy.event_count
            labels = rng.integers(0, 4, size=(7, n))
            labels[0] = 0  # an all-identity row
            labels[-1] = rng.integers(1, 4, size=n)  # a row that splits at every event
            labels[1:-1, rng.integers(0, n)] = 0  # an event that is identity in every row but the last
            # Rows that are non-identity only in the last slice.
            last_only = rng.integers(0, 4, size=(4, n))
            last_only[:, [ev.id - 1 for sl in range(noisy.slice_count - 1) for ev in noisy.events_in_slice(sl)]] = 0
            for s in (noisy, noiseless):
                yield s, labels
                yield s, labels[1:-1]
                yield s, labels[[3, 1, 3, 3, -1, 1]]  # duplicate rows
                yield s, last_only
        for k, case in enumerate(sorted(ENGINE_CASES)):
            rng = np.random.default_rng(780 + k)
            s = ENGINE_CASES[case](rng)
            yield s, rng.integers(0, 4, size=(6, s.event_count))

    def test_random_schedules_match_loops(self):
        for s, picks in self.requests():
            got_e = expectations(s, picks)
            got_o = oracle_expectations(s, picks)
            got_s = build_pdm(s).stored_expectations(picks)
            for p, a in enumerate(picks):
                assert abs(got_e[p] - expectation_loop(s, a)) <= 1e-14
                assert abs(got_o[p] - oracle_branch_list(s, a)) <= 1e-14
                assert abs(got_s[p] - expectation_loop(s, a)) <= 1e-12
            assert abs(got_e[0] - expectation(s, picks[0])) <= 1e-14

    @pytest.mark.parametrize("rows_per_chunk, chunks", [(1, [1] * 20), (3, [3] * 6 + [2])])
    def test_expectation_chunks_match_one_call(self, rows_per_chunk, chunks, monkeypatch):
        # A row holds at most 4 operators of 8 x 8 and one 4 x 4 block at 3 qubits: 4352 bytes.
        for k in range(10):
            rng = np.random.default_rng(760 + k)
            s = _layout(3, [[0], [1, 2], [0]], rng) if k % 2 else _layout(3, [[2], [0], [1], [2]], rng)
            labels = rng.integers(0, 4, size=(20, 4))
            want = expectations(s, labels)
            calls = []
            forward = schedule._forward
            with monkeypatch.context() as m:
                m.setattr(schedule, "PDM_BYTE_BUDGET", rows_per_chunk * 16 * (4 * 4**3 + 16))
                m.setattr(schedule, "_forward", lambda s, rows: calls.append(len(rows)) or forward(s, rows))
                got = expectations(s, labels)
            assert calls == chunks
            assert np.max(np.abs(got - want)) <= 1e-14

    def test_row_path_matches_four_label_products(self, monkeypatch):
        # Each row's product with its own label is, to the bit, the four-label
        # product of the row with that label's entry kept.
        measure = schedule._measure

        def four_labels(stack, qubit, qubit_count, labels=None):
            out = measure(stack, qubit, qubit_count)
            return out if labels is None else out[4 * np.arange(len(stack)) + labels]

        for k in range(30):
            rng = np.random.default_rng(820 + k)
            s = random_schedule(rng, max_events=5)
            labels = rng.integers(0, 4, size=(int(rng.integers(1, 200)), s.event_count))
            got = expectations(s, labels)
            with monkeypatch.context() as m:
                m.setattr(schedule, "_measure", four_labels)
                want = expectations(s, labels)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("stack_bytes", [1, 3 * 16 * 2**4 * 4**3])
    def test_oracle_chunks_match_one_stack(self, stack_bytes, monkeypatch):
        # One row per chunk, and chunks of 3 rows for 3 qubits with 4 splitting events.
        for k in range(20):
            rng = np.random.default_rng(750 + k)
            s = random_schedule(rng, max_events=5)
            labels = rng.integers(0, 4, size=(8, s.event_count))
            want = oracle_expectations(s, labels)
            with monkeypatch.context() as m:
                m.setattr(schedule, "ORACLE_STACK_BYTES", stack_bytes)
                got = oracle_expectations(s, labels)
            assert np.max(np.abs(got - want)) <= 1e-14

    def test_oracle_peak_allocation(self):
        # Nine rows of 3 qubits with 4 splitting events end with 16 branches of
        # 8 x 8 each, 16 KiB a row: in one stack the call peaked at ~380 KiB,
        # in chunks of 64 KiB at ~170 KiB.
        s = _layout(3, [[0], [1], [2], [0]], np.random.default_rng(3))
        labels = np.random.default_rng(1).integers(1, 4, size=(9, 4))
        oracle_expectations(s, labels)
        tracemalloc.start()
        try:
            oracle_expectations(s, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2**18

    def test_one_event_schedules(self):
        for k in range(10):
            rng = np.random.default_rng(800 + k)
            s = random_schedule(rng, max_events=1)
            assert s.event_count == 1
            picks = [(label,) for label in range(4)]
            got_e, got_o = expectations(s, picks), oracle_expectations(s, picks)
            for p, a in enumerate(picks):
                assert abs(got_e[p] - expectation_loop(s, a)) <= 1e-14
                assert abs(got_o[p] - oracle_branch_list(s, a)) <= 1e-14

    def test_ancilla_matches_loop(self):
        pairs = list(itertools.product(range(4), repeat=2))
        for k in range(20):
            rng = np.random.default_rng(900 + k)
            s = two_event_schedule(
                state_from_bloch(random_bloch(rng)), random_cptp(1, int(rng.integers(1, 5)), rng)
            )
            got = ancilla_expectations(s, pairs)
            for p, a in enumerate(pairs):
                assert abs(got[p] - ancilla_loop(s, a)) <= 1e-14

    def test_branch_limit(self):
        s = _layout(1, [[0]] * 13, np.random.default_rng(13))
        with pytest.raises(UsageError, match="13 non-identity events exceeds the branch limit"):
            expectation_oracle(s, (1,) * 13)
        # 12 splitting events are within the limit.
        a = (0,) + (3,) * 12
        assert abs(expectation_oracle(s, a) - expectation(s, a)) <= 1e-12
        # The limit counts the events that split in any row of a batch.
        with pytest.raises(UsageError, match="13 non-identity events"):
            oracle_expectations(s, [(0,) + (1,) * 12, (1,) + (0,) * 12])


class TestPdmExpectation:
    def test_golden_z_first(self):
        R = build_pdm(golden_schedule())
        assert pdm_expectation(R, (3, 0)) == pytest.approx(1.0, abs=1e-12)

    def test_all_identity_unit_trace(self):
        R = build_pdm(mixed_two_event(make_channel("dephasing", 0.4)))
        assert pdm_expectation(R, (0, 0)) == pytest.approx(1.0, abs=1e-12)

    def test_depolarizing_xx(self):
        R = build_pdm(mixed_two_event(make_channel("depolarizing", 0.5)))
        assert pdm_expectation(R, (1, 1)) == pytest.approx(0.5, abs=1e-12)

    def test_round_trip_all_assignments(self):
        for k in range(10):
            s = random_schedule(np.random.default_rng(100 + k))
            R = build_pdm(s)
            for a in itertools.product(range(4), repeat=s.event_count):
                got = pdm_expectation(R, a)
                assert abs(got - expectation_loop(s, a)) <= 1e-12
                assert abs(got - R.stored_expectations([a])[0]) <= 1e-12


class TestReducePdm:
    def test_golden_marginals(self):
        R = build_pdm(golden_schedule())
        ket0 = np.array([[1, 0], [0, 0]], dtype=complex)
        assert np.max(np.abs(reduce_pdm(R, {1}).matrix - ket0)) <= 1e-12
        assert np.max(np.abs(reduce_pdm(R, {2}).matrix - ket0)) <= 1e-12

    def test_keep_all_unchanged(self):
        R = build_pdm(golden_schedule())
        assert np.max(np.abs(reduce_pdm(R, {1, 2}).matrix - R.matrix)) <= 1e-14

    def test_marginal_consistency_random(self):
        for k in range(20):
            rng = np.random.default_rng(200 + k)
            s = random_schedule(rng, max_events=3)
            R = build_pdm(s)
            n = R.event_count
            if n < 2:
                continue
            keep = sorted(rng.choice(range(1, n + 1), size=n - 1, replace=False))
            red = reduce_pdm(R, keep)
            for a in itertools.product(range(4), repeat=len(keep)):
                padded = [0] * n
                for pos, label in zip(keep, a):
                    padded[pos - 1] = label
                assert abs(pdm_expectation(red, a) - R.stored_expectations([padded])[0]) <= 1e-12

    def test_matrix_is_the_partial_trace(self):
        # The reduced matrix is assembled from the sliced coefficients; it
        # must equal the parent matrix with the dropped factors traced out.
        for k in range(20):
            rng = np.random.default_rng(400 + k)
            R = build_pdm(random_schedule(rng, max_events=4))
            n = R.event_count
            keep = sorted(rng.choice(range(1, n + 1), size=int(rng.integers(1, n + 1)), replace=False))
            t = R.matrix.reshape((2,) * (2 * n))
            for i in sorted(set(range(n)) - {e - 1 for e in keep}, reverse=True):
                t = np.trace(t, axis1=i, axis2=i + t.ndim // 2)
            want = t.reshape(2 ** len(keep), 2 ** len(keep))
            assert np.max(np.abs(reduce_pdm(R, keep).matrix - want)) <= 1e-14

    def test_empty_keep(self):
        with pytest.raises(UsageError):
            reduce_pdm(build_pdm(golden_schedule()), set())

    @pytest.mark.parametrize(
        "keep, want",
        [
            ({1.5}, "keep ids must be integer event ids, got 1.5"),
            ("12", "keep ids must be integer event ids, got '1'"),
            ({True}, "keep ids must be integer event ids, got True"),
            ([1, np.True_], "keep ids must be integer event ids, got np.True_"),
            (2, "keep must be a set of event ids, got 2"),
        ],
    )
    def test_keep_ids_must_be_integers(self, keep, want):
        # A bool is an int in Python, and a string iterates as characters: neither is read as an id.
        with pytest.raises(UsageError, match=re.escape(want)):
            reduce_pdm(build_pdm(golden_schedule()), keep)


class TestAncillaExpectation:
    def test_golden_xx(self):
        assert ancilla_expectation(golden_schedule(), (1, 1)) == pytest.approx(1.0, abs=1e-12)

    def test_golden_xy(self):
        assert ancilla_expectation(golden_schedule(), (1, 2)) == pytest.approx(0.0, abs=1e-12)

    def test_depolarizing_yy(self):
        s = mixed_two_event(make_channel("depolarizing", 0.4))
        assert ancilla_expectation(s, (2, 2)) == pytest.approx(0.4, abs=1e-12)

    def test_matches_engine_all_assignments(self, rng):
        for k in range(20):
            trial_rng = np.random.default_rng(300 + k)
            s = two_event_schedule(
                state_from_bloch(random_bloch(trial_rng)),
                random_cptp(1, int(trial_rng.integers(1, 5)), trial_rng),
            )
            for a in itertools.product(range(4), repeat=2):
                assert abs(ancilla_expectation(s, a) - expectation(s, a)) <= 1e-10

    def test_shape_violation(self, rng):
        s = Schedule(random_density(2, rng), (Event(1, 0, 0), Event(2, 1, 0)))
        with pytest.raises(UsageError):
            ancilla_expectation(s, (1, 1))


class TestAssignmentLabels:
    @pytest.mark.parametrize("bad", [(True, 0), (3.7, 0), (1.0, 1), ("1", 0), (4, 0), (-1, 0)])
    def test_rejects_non_label(self, bad):
        s = golden_schedule()
        R = build_pdm(s)
        for read in (
            lambda a: expectation(s, a),
            lambda a: expectation_oracle(s, a),
            lambda a: R.stored_expectations([a]),
        ):
            with pytest.raises(UsageError):
                read(bad)

    @pytest.mark.parametrize(
        "bad",
        [
            [(1, 1), (True, 0)],
            [(1, True)],
            [(1, 1), (2, 0.0)],
            [(1, 1), (np.float64(2), 0)],
            [(0, 0), (0, 4)],
            [(0, 0), (-1, 0)],
            [(0, 0), (-1, 2**63)],
            [(2**70, 0)],
            [(1, 1), (1, 1, 1)],
            [(1, 1), 3],
            (1, 1),
            [],
            np.array([(1, 1), (1, 0)], dtype=bool),
            np.array([(1.0, 1.0)]),
            np.array([(1, 1), (1, 4)]),
            np.array([(1, 1, 1)]),
            np.array([(0, -1), (1, 4)], dtype=np.int8),
            np.array([1, 1]),
            np.array([], dtype=int),
            np.zeros((0, 2), dtype=int),
            np.zeros((0, 3), dtype=int),
        ],
    )
    def test_rejects_bad_batch(self, bad):
        s = golden_schedule()
        R = build_pdm(s)
        for read in (
            lambda a: expectations(s, a),
            lambda a: oracle_expectations(s, a),
            lambda a: ancilla_expectations(s, a),
            R.stored_expectations,
        ):
            with pytest.raises(UsageError):
                read(bad)

    @pytest.mark.parametrize(
        "array, message",
        [
            (np.array([(1, 0), (1, 1)], dtype=bool), "integers 0..3, got np.True_"),
            (np.array([(1.0, 0.0)]), "integers 0..3, got np.float64(1.0)"),
            (np.array([(0, 0), (0, 4)]), "0..3, got (0, 4)"),
            (np.array([(0, 0), (-1, 0)], dtype=np.int8), "0..3, got (-1, 0)"),
            (np.array([(1, 1, 1)]), "length 3 does not match 2 events"),
            (np.zeros((0, 2), dtype=int), "need at least one assignment"),
        ],
    )
    def test_array_and_list_batches_fail_alike(self, array, message):
        # An array batch is checked as a whole, a list label by label on its
        # way to an array; holding the same labels, both fail with one message.
        s = golden_schedule()
        errors = []
        for batch in (array, [tuple(row) for row in array]):
            with pytest.raises(UsageError) as info:
                expectations(s, batch)
            errors.append(str(info.value))
        assert errors[0] == errors[1] and message in errors[0]

    def test_batch_forms_agree(self):
        s = _layout(2, [[0, 1], [1]], np.random.default_rng(5))
        picks = [(1, 2, 3), (0, 0, 0), (3, 0, 1)]
        want = [expectation(s, a) for a in picks]
        for form in (
            picks,
            [tuple(np.int32(x) for x in a) for a in picks],
            np.array(picks, dtype=np.uint8),
            np.array(picks),
        ):
            assert np.max(np.abs(expectations(s, form) - want)) <= 1e-14

    def test_accepts_numpy_integers(self):
        s = golden_schedule()
        R = build_pdm(s)
        a = np.array([1, 1], dtype=np.int64)
        assert expectation(s, a) == pytest.approx(1.0, abs=1e-14)
        assert R.stored_expectations([(np.int32(3), np.uint8(0))])[0] == pytest.approx(1.0, abs=1e-12)


class TestScheduleValidation:
    def test_slices_computed_once_match_events(self):
        for k in range(20):
            s = random_schedule(np.random.default_rng(k), max_events=5)
            assert s.slice_count == 1 + max(e.slice_index for e in s.events)
            for sl in range(s.slice_count):
                expected = sorted((e for e in s.events if e.slice_index == sl), key=lambda e: e.qubit)
                assert list(s.events_in_slice(sl)) == expected
            assert s.events_in_slice(s.slice_count) == ()
            assert s.events_in_slice(-1) == ()

    def test_no_events(self, rng):
        with pytest.raises(UsageError, match="at least one event"):
            Schedule(random_density(1, rng), ())

    def test_non_contiguous_ids(self, rng):
        with pytest.raises(UsageError):
            Schedule(random_density(1, rng), (Event(1, 0, 0), Event(3, 0, 1)))

    def test_repeated_qubit_in_slice(self, rng):
        with pytest.raises(UsageError):
            Schedule(random_density(1, rng), (Event(1, 0, 0), Event(2, 0, 0)))

    def test_qubit_count_is_read_from_the_state(self, rng):
        for qubits in (1, 2, 3):
            s = Schedule(random_density(qubits, rng), (Event(1, qubits - 1, 0),))
            assert s.qubit_count == qubits
        with pytest.raises(UsageError, match="out of range"):
            Schedule(random_density(1, rng), (Event(1, 1, 0),))

    def test_two_event_schedule_needs_one_qubit(self, rng):
        with pytest.raises(UsageError, match="needs a 1-qubit initial state, got 2"):
            two_event_schedule(random_density(2, rng), None)

    def test_channel_dim_mismatch(self, rng):
        with pytest.raises(UsageError):
            Schedule(
                random_density(2, rng),
                (Event(1, 0, 0), Event(2, 0, 1)),
                (make_channel("dephasing", 0.5),),
            )

    def test_non_trace_preserving_gap_rejected(self, rng):
        leaky = KrausChannel([I2, X])
        with pytest.raises(UsageError, match=r"channel 0 is not trace preserving.*1\.000e\+00"):
            two_event_schedule(random_density(1, rng), leaky)
        with pytest.raises(UsageError, match="channel 1 is not trace preserving"):
            Schedule(
                random_density(1, rng),
                (Event(1, 0, 0), Event(2, 0, 1), Event(3, 0, 2)),
                (None, KrausChannel([0.9 * I2])),
            )


    def test_nan_gap_rejected(self, rng):
        # A NaN residual fails every comparison, so it must not pass as trace preserving.
        nan = KrausChannel([np.full((2, 2), np.nan)])
        with pytest.raises(UsageError, match="channel 0 is not trace preserving: a Kraus operator has a non-finite"):
            two_event_schedule(random_density(1, rng), nan)
        with pytest.raises(UsageError, match="not unitary"):
            unitary_channel(np.array([[np.nan, 0], [0, 1]]))


class TestTwoEventClosedForm:
    def test_matches_build_pdm_on_random_states_and_channels(self):
        rng = np.random.default_rng(2017)
        worst = 0.0
        for _ in range(200):
            rho = state_from_bloch(random_bloch(rng))
            ch = random_cptp(1, int(rng.integers(1, 5)), rng)
            (R,) = two_event_pdm_stack(rho, ch.kraus_ops[None])
            worst = max(worst, np.max(np.abs(R - build_pdm(two_event_schedule(rho, ch)).matrix)))
        assert worst <= 1e-12

    def test_one_stack_of_varying_kraus_counts(self, rng):
        rho = random_density(1, rng)
        model = NoiseModel(
            "composite",
            members=(NoiseModel("depolarizing", tau=1.0), NoiseModel("amplitude_damping", tau=2.0)),
        )
        chans = [
            KrausChannel(I2[None]),
            unitary_channel(haar_unitary(2, rng)),
            make_channel("dephasing", 0.4),
            make_channel("depolarizing", 0.7),
            channel_at_time(model, 0.8),  # 8 Kraus operators
            compose(make_channel("dephasing", 0.5), random_cptp(1, 3, rng)),
        ]
        stack = two_event_pdm_stack(rho, kraus_array(chans))
        assert stack.shape == (len(chans), 4, 4)
        for ch, R in zip(chans, stack):
            assert np.max(np.abs(R - build_pdm(two_event_schedule(rho, ch)).matrix)) <= 1e-12
        # A None gap is the identity channel of row 0.
        assert np.max(np.abs(stack[0] - build_pdm(two_event_schedule(rho, None)).matrix)) <= 1e-12

    def test_one_state_per_row(self):
        rng = np.random.default_rng(22)
        states = [state_from_bloch(random_bloch(rng)) for _ in range(30)]
        chans = [random_cptp(1, int(rng.integers(1, 5)), rng) for _ in range(30)]
        stack = two_event_pdm_stack(states, kraus_array(chans))
        assert stack.shape == (30, 4, 4)
        for rho, ch, R in zip(states, chans, stack):
            (want,) = two_event_pdm_stack(rho, ch.kraus_ops[None])
            assert np.max(np.abs(R - want)) <= 1e-15

    def test_per_row_states_checked(self, rng):
        rho = state_from_bloch([0, 0, 1])
        identity = I2[None, None]
        with pytest.raises(UsageError, match="got 2 initial states for 3 gap channels"):
            two_event_pdm_stack([rho, rho], np.repeat(identity, 3, axis=0))
        with pytest.raises(UsageError, match="1-qubit initial state"):
            two_event_pdm_stack([rho, random_density(2, rng)], np.repeat(identity, 2, axis=0))

    def test_multi_qubit_channel_rejected(self, rng):
        U = haar_unitary(4, rng)
        with pytest.raises(UsageError, match="gap channel acts on 2 qubits, not 1"):
            two_event_pdm_stack(state_from_bloch([0, 0, 1]), unitary_channel(U).kraus_ops[None])

    def test_bad_inputs_rejected(self, rng):
        identity = I2[None, None]
        with pytest.raises(UsageError, match="1-qubit initial state"):
            two_event_pdm_stack(random_density(2, rng), identity)
        # No rows, one channel's (K, 2, 2) operators, a list of channel objects,
        # and operators that are not square or not 2^n wide.
        for bad in (
            np.zeros((0, 1, 2, 2)),
            I2[None],
            [KrausChannel(I2[None])] * 2,
            np.zeros((2, 1, 4, 2)),
            np.zeros((2, 1, 3, 3)),
        ):
            with pytest.raises(UsageError, match=r"needs a \(T, K, 2, 2\) Kraus array"):
                two_event_pdm_stack(random_density(1, rng), bad)
        one = KrausChannel(I2[None])
        with pytest.raises(UsageError, match="gap channel 2 is not trace preserving"):
            two_event_pdm_stack(random_density(1, rng), kraus_array([one, one, KrausChannel([I2, X])]))
        nan = KrausChannel([I2, np.diag([0, np.nan])])
        with pytest.raises(UsageError, match="gap channel 1 is not trace preserving: a Kraus operator has a non-finite"):
            two_event_pdm_stack(random_density(1, rng), kraus_array([one, nan, one]))


def test_equality_is_identity_and_every_type_hashes():
    # Each type holds arrays, whose == is elementwise: equality is identity.
    s, twin = (two_event_schedule(state_from_bloch([0, 0, 1]), make_channel("dephasing", 0.5)) for _ in range(2))
    for a, b in [
        (s.initial_state, twin.initial_state),
        (s.inter_slice_channels[0], twin.inter_slice_channels[0]),
        (s, twin),
        (build_pdm(s), build_pdm(twin)),
    ]:
        assert a == a and not a != a
        assert a != b and not a == b
        assert hash(a) == hash(a)
        assert len({a, b, a}) == 2


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Schedule(np.eye(2) / 2, (Event(1, 0, 0),)), "initial_state must be a DensityState, got ndarray"),
        (
            lambda: pdmsim.SweepConfig((0, 0, 0), pdmsim.NoiseModel("dephasing", tau=1.0), "0", 1.0, 3),
            "t_min must be a real number, got '0'",
        ),
        (
            lambda: pdmsim.NoiseModel("dephasing", tau="1"),
            "dephasing model requires a finite time constant tau > 0, got '1'",
        ),
        (lambda: build_pdm("x"), "build_pdm needs a Schedule, got 'x'"),
    ],
    ids=["schedule-state", "sweep-t_min", "noise-tau", "build_pdm-schedule"],
)
def test_wrong_typed_constructor_argument_is_a_usage_error(call, message):
    # Each was a bare AttributeError or TypeError from deep inside the call.
    with pytest.raises(UsageError) as err:
        call()
    assert str(err.value) == message
