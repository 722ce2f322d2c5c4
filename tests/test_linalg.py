import numpy as np
import pytest

from pdmsim import (
    InvariantViolation,
    PseudoDensityMatrix,
    UsageError,
    build_pdm,
    hermitian_eig,
    kron,
    make_channel,
    state_from_bloch,
    two_event_schedule,
)
from pdmsim import channels, linalg, schedule
from pdmsim.causality import haar_unitary
from pdmsim.linalg import (
    I2,
    PAULIS,
    X,
    Y,
    Z,
    chunk_slices,
    embed_operator,
    qubits_of_dim,
    require_hermitian_unit_trace,
)
from pdmsim.verify import GOLDEN_TWO_EVENT

from conftest import random_hermitian


def trace_norm(M):
    """The sum of the absolute eigenvalues of a Hermitian matrix."""
    return float(np.sum(np.abs(hermitian_eig(M))))


class TestPauliMatrix:
    def test_identity(self):
        assert np.array_equal(PAULIS[0], np.eye(2))

    def test_x(self):
        assert np.array_equal(PAULIS[1], np.array([[0, 1], [1, 0]]))

    def test_y(self):
        assert np.array_equal(PAULIS[2], np.array([[0, -1j], [1j, 0]]))

    def test_properties(self):
        for label in (1, 2, 3):
            P = PAULIS[label]
            assert np.allclose(P, P.conj().T)
            assert np.allclose(P @ P, np.eye(2))
            assert abs(np.trace(P)) < 1e-15


class TestKron:
    def test_identity_pair(self):
        assert np.array_equal(kron([I2, I2]), np.eye(4))

    def test_z_times_identity(self):
        assert np.array_equal(kron([Z, I2]), np.diag([1, 1, -1, -1]).astype(complex))

    def test_xx_antidiagonal(self):
        M = kron([X, X])
        expected = np.zeros((4, 4))
        expected[0, 3] = expected[1, 2] = expected[2, 1] = expected[3, 0] = 1
        assert np.array_equal(M, expected)

    def test_empty_list_rejected(self):
        with pytest.raises(UsageError):
            kron([])

    def test_associativity(self, rng):
        for _ in range(20):
            A, B, C = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
            left = kron([A, kron([B, C])])
            right = kron([kron([A, B]), C])
            assert np.max(np.abs(left - right)) <= 1e-14

    def test_bit_identical_to_numpy(self, rng):
        for shape in ((2, 2), (4, 2), (3, 8)):
            A = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            B = rng.normal(size=shape[::-1]) + 1j * rng.normal(size=shape[::-1])
            assert np.array_equal(kron([A, B]), np.kron(A, B))
            assert np.array_equal(kron([A, B, A]), np.kron(np.kron(A, B), A))

    def test_stacks_broadcast(self, rng):
        # A stack pairs its operators with one factor, or with a stack's row by row.
        K = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
        L = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
        got = kron([K, X])
        assert got.shape == (5, 4, 4)
        assert all(np.array_equal(got[t], np.kron(K[t], X)) for t in range(5))
        got = kron([K, L])
        assert got.shape == (5, 8, 8)
        assert all(np.array_equal(got[t], np.kron(K[t], L[t])) for t in range(5))


def kron_embedding(K, q, n):
    """The reference embedding of one 2x2 operator on qubit q of n: np.kron with identities."""
    return np.kron(np.eye(2**q), np.kron(K, np.eye(2 ** (n - q - 1))))


class TestEmbedOperator:
    def test_matches_kron_reference(self, rng):
        # One operator and a (T, 4, 2, 2) Kraus stack on every qubit of 1- to 5-qubit registers.
        K = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        ks = rng.normal(size=(3, 4, 2, 2)) + 1j * rng.normal(size=(3, 4, 2, 2))
        for n in range(1, 6):
            for q in range(n):
                assert np.array_equal(embed_operator(K, q, n), kron_embedding(K, q, n))
                out = embed_operator(ks, q, n)
                assert out.shape == (3, 4, 2**n, 2**n)
                for idx in np.ndindex(3, 4):
                    assert np.array_equal(out[idx], kron_embedding(ks[idx], q, n))

    @pytest.mark.parametrize("qubits, targets", [(1, [0]), (3, [0, 1, 2]), (2, [1]), (3, [2, 0])])
    def test_stack_matches_per_operator(self, qubits, targets, rng):
        # A stack on each target qubit in turn equals its operators embedded one by one.
        ks = rng.normal(size=(2, 3, 2, 2)) + 1j * rng.normal(size=(2, 3, 2, 2))
        for q in targets:
            out = embed_operator(ks, q, qubits)
            assert out.shape == (2, 3, 2**qubits, 2**qubits)
            for idx in np.ndindex(2, 3):
                assert np.array_equal(out[idx], embed_operator(ks[idx], q, qubits))

    def test_qubit_out_of_range(self):
        for q, n in ((-1, 2), (2, 2), (0, 0)):
            with pytest.raises(UsageError, match="out of range"):
                embed_operator(X, q, n)

    def test_shape_mismatch(self):
        with pytest.raises(UsageError):
            embed_operator(np.eye(4), 0, 2)
        with pytest.raises(UsageError):
            embed_operator(np.ones(2), 0, 1)


class TestQubitsOfDim:
    def test_powers_of_two(self):
        assert [qubits_of_dim(2**n) for n in range(12)] == list(range(12))
        assert qubits_of_dim(2**10_000) == 10_000

    def test_other_dimensions(self):
        for d in (0, -2, -1, 3, 6, 12, 2**40 + 1):
            assert qubits_of_dim(d) is None


class TestHermitianEig:
    def test_pauli_z(self):
        w = hermitian_eig(Z)
        assert np.allclose(w, [-1, 1])

    def test_golden_matrix(self):
        w = hermitian_eig(GOLDEN_TWO_EVENT)
        assert np.allclose(w, [-0.5, 0, 0.5, 1], atol=1e-10)

    def test_isotropic_family(self):
        # lam = 1/2: one eigenvalue (1 - 3 lam)/4, three at (1 + lam)/4.
        lam = 0.5
        M = np.eye(4) / 4 + lam * (kron([X, X]) + kron([Y, Y]) + kron([Z, Z])) / 4
        w = hermitian_eig(M)
        assert np.allclose(w, [-0.125, 0.375, 0.375, 0.375], atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(UsageError):
            hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_eigenvalues_only(self, rng):
        for dim in (2, 8, 32):
            M = random_hermitian(dim, rng)
            w = hermitian_eig(M)
            assert w.shape == (dim,)
            assert np.all(np.diff(w) >= -1e-14)
            assert np.max(np.abs(w - np.linalg.eigvalsh(M))) <= 1e-12

    def test_stack_matches_per_matrix(self, rng):
        stack = np.stack([random_hermitian(4, rng) for _ in range(7)])
        w = hermitian_eig(stack)
        assert w.shape == (7, 4)
        for M, row in zip(stack, w):
            assert np.max(np.abs(row - hermitian_eig(M))) <= 1e-12

    def test_stack_with_one_non_hermitian_rejected(self, rng):
        stack = np.stack([random_hermitian(4, rng) for _ in range(3)])
        stack[1, 0, 1] += 1e-6
        with pytest.raises(UsageError):
            hermitian_eig(stack)


def numpy_blas() -> str:
    """The name of the BLAS numpy was built with, or "unknown" where numpy cannot say."""
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


class FakeThreads:
    """A thread count held in Python, read and written by a get/set pair like OpenBLAS's."""

    def __init__(self, count):
        self.count = count

    def get(self):
        return self.count

    def set(self, count):
        self.count = count


class TestSingleThreaded:
    @pytest.fixture
    def threads(self, monkeypatch):
        fake = FakeThreads(3)
        monkeypatch.setattr(linalg, "_BLAS_THREADS", (fake.get, fake.set))
        return fake

    def test_call_sees_one_thread_and_restores_the_count(self, threads):
        seen = []

        @linalg.single_threaded
        def f(x):
            seen.append(threads.count)
            return x + 1

        assert f(1) == 2
        assert seen == [1]
        assert threads.count == 3

    def test_count_is_restored_after_a_raise(self, threads):
        @linalg.single_threaded
        def f():
            raise ValueError("inside")

        with pytest.raises(ValueError, match="inside"):
            f()
        assert threads.count == 3

    def test_nested_calls_restore_the_outer_count(self, threads):
        seen = []
        inner = linalg.single_threaded(lambda: seen.append(threads.count))

        @linalg.single_threaded
        def outer():
            inner()
            seen.append(threads.count)

        outer()
        assert seen == [1, 1]
        assert threads.count == 3

    def test_without_the_calls_f_is_returned(self, monkeypatch):
        monkeypatch.setattr(linalg, "_BLAS_THREADS", None)

        def f():
            pass

        assert linalg.single_threaded(f) is f

    @pytest.mark.skipif(numpy_blas() != "scipy-openblas", reason="numpy is not built with scipy-openblas")
    def test_guarded_functions_run_on_one_thread(self, monkeypatch):
        # Each guarded function calls the spied name inside its guard: the
        # spy reads OpenBLAS's own count there.
        assert linalg._BLAS_THREADS is not None
        get, set_ = linalg._BLAS_THREADS
        s = two_event_schedule(state_from_bloch([0.1, 0.2, 0.3]), make_channel("depolarizing", 0.5))
        coefficients = build_pdm(s).coefficients
        calls = {
            "hermitian_eig": (linalg, "is_hermitian", lambda: hermitian_eig(GOLDEN_TWO_EVENT)),
            "kraus_sum": (channels, "dagger", lambda: channels.kraus_sum(np.stack([X, Z]) / np.sqrt(2), np.eye(2))),
            "_forward": (schedule, "_readout", lambda: build_pdm(s)),
            "_assemble": (schedule, "_map_axes", lambda: PseudoDensityMatrix(s.events, coefficients).matrix),
        }
        before = get()
        try:
            for name, (module, callee, call) in calls.items():
                seen = []
                real = getattr(module, callee)

                def spy(*args, real=real, seen=seen):
                    seen.append(get())
                    return real(*args)

                monkeypatch.setattr(module, callee, spy)
                set_(2)
                call()
                assert seen and set(seen) == {1}, name
                assert get() == 2, name
                monkeypatch.undo()
        finally:
            set_(before)


class TestTraceNorm:
    def test_maximally_mixed(self):
        assert trace_norm(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-14)

    def test_golden_matrix(self):
        assert trace_norm(GOLDEN_TWO_EVENT) == pytest.approx(2.0, abs=1e-12)

    def test_dephased_two_event(self):
        # Spectrum {1, 0, +-gamma/2} at gamma = 1/2 sums to 3/2 in absolute value.
        gamma = 0.5
        M = GOLDEN_TWO_EVENT.copy()
        M[1, 2] = M[2, 1] = gamma / 2
        assert trace_norm(M) == pytest.approx(1.5, abs=1e-12)

    def test_unitary_invariance(self, rng):
        M = random_hermitian(4, rng)
        base = trace_norm(M)
        for _ in range(20):
            U = haar_unitary(4, rng)
            assert abs(trace_norm(U @ M @ U.conj().T) - base) <= 1e-10

    def test_bounds_pauli_overlap(self, rng):
        M = random_hermitian(4, rng)
        tn = trace_norm(M)
        assert tn >= abs(np.trace(M).real) - 1e-12
        for a in range(4):
            for b in range(4):
                P = kron([PAULIS[a], PAULIS[b]])
                assert abs(np.trace(P @ M).real) <= tn + 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(UsageError):
            trace_norm(np.array([[0, 2], [0, 0]], dtype=complex))


class TestChunkSlices:
    def test_budget_below_one_item_gives_one_item_slices(self):
        assert list(chunk_slices(3, 100, 10)) == [slice(0, 1), slice(1, 2), slice(2, 3)]

    def test_exact_multiple(self):
        assert list(chunk_slices(6, 16, 32)) == [slice(0, 2), slice(2, 4), slice(4, 6)]

    @pytest.mark.parametrize("count", [1, 5, 7, 64])
    @pytest.mark.parametrize("budget", [1, 16, 48, 100, 10_000])
    def test_every_index_once_in_order(self, count, budget):
        slices = list(chunk_slices(count, 16, budget))
        assert [i for sl in slices for i in range(count)[sl]] == list(range(count))
        size = max(1, budget // 16)
        assert all(1 <= len(range(count)[sl]) <= size for sl in slices)

    def test_nothing_to_slice(self):
        assert list(chunk_slices(0, 16, 64)) == []


def mixed_with_trace_shift(shift) -> np.ndarray:
    """The 8x8 maximally mixed state with its trace moved by ``shift``, kept Hermitian to 1e-12.

    An imaginary shift is spread over the diagonal, 1/8 per entry, so each
    entry's anti-Hermitian part stays below the tolerance.
    """
    M = np.eye(8, dtype=complex) / 8
    if isinstance(shift, complex):
        M += np.eye(8) * shift / 8
    else:
        M[0, 0] += shift
    return M


class TestRequireHermitianUnitTrace:
    def test_accepts_a_state_and_a_stack(self):
        rho = np.diag([0.25, 0.75]).astype(complex)
        require_hermitian_unit_trace(rho, "density matrix")
        require_hermitian_unit_trace(np.stack([rho, rho[::-1, ::-1]]), "PDM")

    @pytest.mark.parametrize("shift", [0.5e-12, 0.5e-12j])
    def test_trace_within_tolerance_passes(self, shift):
        require_hermitian_unit_trace(mixed_with_trace_shift(shift), "PDM")

    @pytest.mark.parametrize(
        "shift,message",
        [(2e-12, "has trace"), (2e-12j, "has trace"), (np.nan, "is not Hermitian")],
    )
    def test_one_matrix(self, shift, message):
        with pytest.raises(InvariantViolation, match=f"^density matrix {message}"):
            require_hermitian_unit_trace(mixed_with_trace_shift(shift), "density matrix")

    def test_non_hermitian_matrix(self):
        M = np.array([[0.5, 1e-6], [0, 0.5]], dtype=complex)
        with pytest.raises(InvariantViolation, match="^PDM is not Hermitian$"):
            require_hermitian_unit_trace(M, "PDM")

    @pytest.mark.parametrize(
        "shift,message",
        [(2e-12, "has trace"), (2e-12j, "has trace"), (np.nan, "is not Hermitian")],
    )
    def test_stack_names_the_row(self, shift, message):
        stack = np.stack([mixed_with_trace_shift(0.0)] * 2 + [mixed_with_trace_shift(shift)] * 2)
        with pytest.raises(InvariantViolation, match=f"^PDM 2 of the stack {message}"):
            require_hermitian_unit_trace(stack, "PDM")

    def test_stack_names_a_non_hermitian_row(self):
        stack = np.stack([mixed_with_trace_shift(0.0)] * 3)
        stack[1, 0, 1] += 1e-6
        with pytest.raises(InvariantViolation, match="^PDM 1 of the stack is not Hermitian$"):
            require_hermitian_unit_trace(stack, "PDM")
