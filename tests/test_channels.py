import math

import numpy as np
import pytest

from pdmsim import (
    InvariantViolation,
    KrausChannel,
    NoiseModel,
    UsageError,
    build_pdm,
    channel_at_time,
    choi_stack,
    compose,
    density_states,
    kraus_array,
    make_channel,
    noise_kraus,
    state_from_bloch,
    two_event_pdm_stack,
    two_event_schedule,
    unitary_channel,
)
from pdmsim import channels
from pdmsim.channels import (
    TP_ATOL,
    DensityState,
    kraus_sum,
)
from pdmsim.linalg import I2, X, Y, Z, embed_operator
from pdmsim.verify import GOLDEN_TWO_EVENT

from conftest import haar_unitary, random_cptp, random_density


def bloch_of(M):
    return np.array([np.trace(P @ M).real for P in (X, Y, Z)])


def act(ch, rho, qubit=None):
    """The channel's action on a state's matrix: on the whole register, or on one qubit of it."""
    ks = ch.kraus_ops
    return kraus_sum(ks if qubit is None else embed_operator(ks, qubit, rho.qubit_count), rho.matrix)


def dephasing_about(axis, g):
    """Dephasing that keeps the Bloch component along a Pauli axis and shrinks the other two by g."""
    return KrausChannel([math.sqrt((1 + g) / 2) * I2, math.sqrt((1 - g) / 2) * axis])


def choi_of(ch):
    """Unnormalized Choi matrix of one channel, as a one-row ``choi_stack``."""
    return choi_stack(kraus_array([ch]))[0]


def choi_loop(ch):
    """Reference Choi matrix: sum_ij |i><j| (x) E(|i><j|), one basis operator at a time."""
    d = ch.kraus_ops.shape[-1]
    C = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            Eij = np.zeros((d, d), dtype=complex)
            Eij[i, j] = 1.0
            out = sum(K @ Eij @ K.conj().T for K in ch.kraus_ops)
            C += np.kron(Eij, out)
    return C


def apply_loop(ch, M, targets, qubit_count):
    """Reference channel action on the whole register or on one target qubit, one Kraus operator at a time."""
    out = np.zeros_like(M)
    for K in ch.kraus_ops:
        if len(targets) < qubit_count:
            (q,) = targets
            K = np.kron(np.eye(2**q), np.kron(K, np.eye(2 ** (qubit_count - q - 1))))
        out += K @ M @ K.conj().T
    return out


class TestStateFromBloch:
    def test_ground_state(self):
        assert np.allclose(state_from_bloch([0, 0, 1]).matrix, [[1, 0], [0, 0]])

    def test_maximally_mixed(self):
        assert np.allclose(state_from_bloch([0, 0, 0]).matrix, np.eye(2) / 2)

    def test_plus_state(self):
        assert np.allclose(state_from_bloch([1, 0, 0]).matrix, np.full((2, 2), 0.5))

    def test_rejects_outside_ball(self):
        with pytest.raises(UsageError):
            state_from_bloch([0.8, 0.8, 0.8])

    def test_rejects_non_finite(self):
        for r in ([float("nan"), 0, 0], [0, float("inf"), 0]):
            with pytest.raises(UsageError, match="finite"):
                state_from_bloch(r)

    def test_density_state_invariants_enforced(self):
        with pytest.raises(InvariantViolation):
            DensityState(np.diag([0.5, 0.6]).astype(complex))
        with pytest.raises(InvariantViolation):
            DensityState(np.diag([1.5, -0.5]).astype(complex))

    def test_nan_density_state_is_an_invariant_violation(self):
        for M in (np.full((2, 2), np.nan), np.diag([np.nan, 0.5])):
            with pytest.raises(InvariantViolation, match="not Hermitian"):
                DensityState(M.astype(complex))

    @pytest.mark.parametrize("shape", [(3, 3), (1, 1), (2, 4), (4,), (1, 2, 2), (6, 6)])
    def test_density_state_needs_a_qubit_register(self, shape):
        M = np.zeros(shape, dtype=complex)
        M.flat[0] = 1.0
        with pytest.raises(InvariantViolation, match="is not 2\\^n x 2\\^n"):
            DensityState(M)

    def test_density_state_holds_a_read_only_copy(self, rng):
        for qubits in (1, 2, 3):
            M = random_density(qubits, rng).matrix.copy()
            rho = DensityState(M)
            assert rho.qubit_count == qubits
            M[0, 0] = 3
            assert rho.matrix[0, 0] != 3 and not rho.matrix.flags.writeable


class TestKrausChannel:
    def test_holds_a_read_only_copy(self):
        # The channel once shared memory with U, and its residual was cached:
        # a later write to U changed the channel but not its checked residual.
        U = np.eye(2, dtype=complex)
        ch = unitary_channel(U)
        U[0, 0] = 3
        assert np.array_equal(ch.kraus_ops, np.eye(2)[None]) and ch.tp_residual == 0.0
        assert not ch.kraus_ops.flags.writeable
        with pytest.raises(ValueError):
            ch.kraus_ops[0, 0, 0] = 3
        R = build_pdm(two_event_schedule(state_from_bloch([0, 0, 1]), ch))
        assert np.max(np.abs(R.matrix - GOLDEN_TWO_EVENT)) <= 1e-12

    def test_residual_is_of_the_copy(self):
        ks = np.stack([I2, X]) / math.sqrt(2)
        ch = KrausChannel(ks)
        ks *= 2
        assert ch.tp_residual <= 1e-15
        assert np.array_equal(ch.kraus_ops * 2, ks)

    def test_qubits_read_from_the_dimension(self, rng):
        for qubits in (1, 2, 3):
            ch = random_cptp(qubits, 2, rng)
            assert ch.qubits == qubits and ch.kraus_ops.shape == (2, 2**qubits, 2**qubits)
        assert KrausChannel(np.eye(4)[None]).qubits == 2

    @pytest.mark.parametrize(
        "ops",
        [[], np.eye(2), [np.eye(3)], [np.eye(1)], [np.eye(6)], np.ones((1, 2, 4)), [I2, np.eye(4)], [["a"]]],
    )
    def test_rejects_what_is_not_a_kraus_stack(self, ops):
        with pytest.raises(UsageError, match="Kraus operators must"):
            KrausChannel(ops)

    def test_non_unitary_shapes_rejected(self):
        for U in (np.eye(3), np.ones((2, 4)), np.ones(2)):
            with pytest.raises(UsageError):
                unitary_channel(U)


class TestMakeChannel:
    def test_dephasing_identity_limit(self, rng):
        ch = make_channel("dephasing", 1.0)
        rho = random_density(1, rng)
        assert np.allclose(act(ch, rho), rho.matrix, atol=1e-14)

    def test_depolarizing_fully_mixing(self, rng):
        ch = make_channel("depolarizing", 0.0)
        rho = random_density(1, rng)
        assert np.allclose(act(ch, rho), np.eye(2) / 2, atol=1e-14)

    def test_dephasing_scales_off_diagonals(self):
        for gamma in (0.0, 0.3, 0.8):
            out = act(make_channel("dephasing", gamma), state_from_bloch([1, 0, 0]))
            assert np.allclose(out, [[0.5, gamma / 2], [gamma / 2, 0.5]], atol=1e-14)

    def test_depolarizing_shrinks_bloch(self):
        out = act(make_channel("depolarizing", 0.5), state_from_bloch([0, 0, 1]))
        assert np.allclose(out, np.diag([0.75, 0.25]), atol=1e-14)

    def test_amplitude_damping_kraus(self):
        ch = make_channel("amplitude_damping", 0.36)
        K0, K1 = ch.kraus_ops
        assert np.allclose(K0, [[1, 0], [0, 0.8]])
        assert np.allclose(K1, [[0, 0.6], [0, 0]])

    def test_all_standard_channels_valid(self):
        for kind in ("dephasing", "depolarizing", "amplitude_damping"):
            for p in (0.0, 0.25, 0.99, 1.0):
                assert make_channel(kind, p).tp_residual <= TP_ATOL

    def test_out_of_range(self):
        with pytest.raises(UsageError):
            make_channel("dephasing", 1.5)
        with pytest.raises(UsageError):
            make_channel("nonsense", 0.5)


class TestApplyChannel:
    def test_identity(self, rng):
        rho = random_density(2, rng)
        out = act(KrausChannel(np.eye(4)[None]), rho)
        assert np.allclose(out, rho.matrix, atol=1e-14)

    def test_full_dephasing_on_plus(self):
        out = act(make_channel("dephasing", 0.0), state_from_bloch([1, 0, 0]))
        assert np.allclose(out, np.eye(2) / 2, atol=1e-14)

    def test_embedding_on_target(self, rng):
        # Noise on qubit 1 of a product state leaves qubit 0 untouched.
        a = state_from_bloch([0.3, 0.2, 0.4])
        b = state_from_bloch([0, 0, 0.9])
        rho = DensityState(np.kron(a.matrix, b.matrix))
        out = act(make_channel("depolarizing", 0.5), rho, 1)
        b_out = act(make_channel("depolarizing", 0.5), b)
        assert np.allclose(out, np.kron(a.matrix, b_out), atol=1e-13)

    def test_preserves_validity(self, rng):
        for _ in range(20):
            rho = random_density(1, rng)
            for kind, p in (("dephasing", 0.3), ("amplitude_damping", 0.7)):
                M = act(make_channel(kind, p), rho)
                assert abs(np.trace(M).real - 1) <= 1e-12
                assert np.max(np.abs(M - M.conj().T)) <= 1e-12
                assert np.linalg.eigvalsh(M)[0] >= -1e-10

    @pytest.mark.parametrize(
        "qubits, targets", [(1, [0]), (2, [0, 1]), (3, [0, 1, 2]), (2, [1]), (3, [0]), (3, [1])]
    )
    def test_stack_matches_per_matrix(self, qubits, targets, rng):
        # A gap acts on the whole register, or on one qubit through embed_operator.
        D = 2**qubits
        for rank in (1, 2, 4):
            ch = random_cptp(len(targets), rank, rng)
            ks = ch.kraus_ops
            if len(targets) < qubits:
                ks = embed_operator(ks, targets[0], qubits)
            stack = rng.normal(size=(5, D, D)) + 1j * rng.normal(size=(5, D, D))
            out = kraus_sum(ks, stack)
            assert out.shape == stack.shape
            for M, got in zip(stack, out):
                assert np.max(np.abs(got - kraus_sum(ks, M))) <= 1e-14
                assert np.max(np.abs(got - apply_loop(ch, M, targets, qubits))) <= 1e-14

    def test_kraus_sum_of_padded_channels(self, rng):
        # One (T, 4, 2, 2) array of channels of ranks 1-4, zero-padded, on one factor.
        M = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        chans = [random_cptp(1, rank, rng) for rank in (1, 4, 2, 3)]
        kraus = kraus_array(chans)
        out = kraus_sum(embed_operator(kraus, 1, 3), M)
        for ch, got in zip(chans, out):
            assert np.max(np.abs(got - apply_loop(ch, M, [1], 3))) <= 1e-14


def long_stack(rank, D):
    """3 floor(2^15 / (rank D^3)) + 1: a stack length that once split ``kraus_sum`` into four chunks."""
    return 3 * (2**15 // (rank * D**3)) + 1


class TestKrausSum:
    """The two-product kernel against ``apply_loop``, one Kraus operator and one matrix at a time."""

    @pytest.mark.parametrize("qubits", [1, 2, 3])
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_one_channel_on_a_stack(self, qubits, rank, rng):
        D = 2**qubits
        ch = random_cptp(qubits, rank, rng)
        for shape in ((3, 5), (long_stack(rank, D),)):
            stack = rng.normal(size=shape + (D, D)) + 1j * rng.normal(size=shape + (D, D))
            out = kraus_sum(ch.kraus_ops, stack)
            assert out.shape == stack.shape
            for M, got in zip(stack.reshape(-1, D, D), out.reshape(-1, D, D)):
                assert np.max(np.abs(got - apply_loop(ch, M, range(qubits), qubits))) <= 1e-14

    @pytest.mark.parametrize("qubits", [1, 2, 3])
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_stack_of_channels_on_one_operand(self, qubits, rank, rng):
        D = 2**qubits
        for shape in ((3, 5), (long_stack(rank, D),)):
            chans = [random_cptp(qubits, rank, rng) for _ in range(math.prod(shape))]
            E = np.stack([ch.kraus_ops for ch in chans]).reshape(shape + (rank, D, D))
            M = rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D))
            out = kraus_sum(E, M)
            assert out.shape == shape + (D, D)
            for ch, got in zip(chans, out.reshape(-1, D, D)):
                assert np.max(np.abs(got - apply_loop(ch, M, range(qubits), qubits))) <= 1e-14

    def test_one_side_must_be_one_matrix(self, rng):
        E = random_cptp(1, 2, rng).kraus_ops
        with pytest.raises(UsageError, match="one channel on a stack"):
            kraus_sum(np.stack([E, E]), np.stack([np.eye(2), np.eye(2)]))


class TestDensityStates:
    def test_rows_are_read_only_states(self, rng):
        for qubits in (1, 2, 3):
            stack = np.stack([random_density(qubits, rng).matrix for _ in range(4)])
            states = density_states(stack)
            assert len(states) == 4
            for st, M in zip(states, stack):
                assert isinstance(st, DensityState) and st.qubit_count == qubits
                assert np.array_equal(st.matrix, DensityState(M).matrix)
                assert not st.matrix.flags.writeable
            stack[0, 0, 0] = 3
            assert states[0].matrix[0, 0] != 3

    @pytest.mark.parametrize(
        "spoil, problem",
        [
            (lambda M: M + np.array([[0, 0.1], [0, 0]]), "is not Hermitian"),
            (lambda M: 1.1 * M, "has trace"),
            (lambda M: np.diag([1.5, -0.5]).astype(complex), "has eigenvalue -5.000e-01"),
        ],
    )
    def test_names_the_bad_member(self, spoil, problem, rng):
        for k in (0, 2):
            stack = np.stack([random_density(1, rng).matrix for _ in range(3)])
            stack[k] = spoil(stack[k])
            with pytest.raises(InvariantViolation, match=f"^density matrix {k} of the stack {problem}"):
                density_states(stack)
        # One matrix alone is named without an index.
        with pytest.raises(InvariantViolation, match=f"^density matrix {problem}"):
            DensityState(stack[2])

    @pytest.mark.parametrize("shape", [(2, 2), (0, 2, 2), (2, 3, 3), (2, 2, 4), (1, 1, 1)])
    def test_rejects_what_is_not_a_state_stack(self, shape):
        with pytest.raises(InvariantViolation, match="is not \\(T, 2\\^n, 2\\^n\\)"):
            density_states(np.zeros(shape))


class TestValidateChannel:
    def test_valid_mixing(self):
        ch = KrausChannel([I2 / math.sqrt(2), X / math.sqrt(2)])
        assert ch.tp_residual <= TP_ATOL and ch.tp_residual <= 1e-14

    def test_not_trace_preserving(self):
        residual = KrausChannel([I2, X]).tp_residual
        assert not residual <= TP_ATOL
        assert residual == pytest.approx(1.0, abs=1e-12)

    def test_identity_choi_rank_one(self):
        C = choi_of(KrausChannel(I2[None]))
        w = np.linalg.eigvalsh(C)
        assert np.allclose(w, [0, 0, 0, 2], atol=1e-12)

    def test_tp_residual(self):
        assert make_channel("depolarizing", 0.3).tp_residual <= 1e-15
        assert KrausChannel([I2, X]).tp_residual == pytest.approx(1.0, abs=1e-15)


class TestChoiMatrix:
    @pytest.mark.parametrize("qubits", [1, 2, 3])
    def test_matches_loop_formula(self, qubits):
        rng = np.random.default_rng(77 + qubits)
        for _ in range(10):
            ch = random_cptp(qubits, int(rng.integers(1, 5)), rng)
            assert np.max(np.abs(choi_of(ch) - choi_loop(ch))) <= 1e-14

    def test_stack_with_mixed_kraus_counts(self):
        rng = np.random.default_rng(5)
        chans = [random_cptp(1, rank, rng) for rank in (3, 1, 4, 2, 1)]
        stack = choi_stack(kraus_array(chans))
        assert stack.shape == (5, 4, 4)
        for ch, C in zip(chans, stack):
            assert np.max(np.abs(C - choi_loop(ch))) <= 1e-14

    def test_stack_rejects_mixed_dimensions(self):
        with pytest.raises(UsageError, match="one dimension"):
            kraus_array([KrausChannel(I2[None]), KrausChannel(np.eye(4)[None])])
        with pytest.raises(UsageError, match="at least one channel"):
            kraus_array([])


class TestKrausArray:
    def test_mixed_ranks_are_padded_with_zero_operators(self):
        rng = np.random.default_rng(11)
        chans = [random_cptp(2, rank, rng) for rank in (2, 4, 1)]
        ks = kraus_array(chans)
        assert ks.shape == (3, 4, 4, 4) and ks.dtype == complex
        for row, ch in zip(ks, chans):
            rank = len(ch.kraus_ops)
            assert np.array_equal(row[:rank], ch.kraus_ops)
            assert not row[rank:].any()


class TestChannelAtTime:
    def test_time_zero_is_identity(self, rng):
        models = [
            NoiseModel("dephasing", tau=0.7),
            NoiseModel("depolarizing", tau=2.0),
            NoiseModel("amplitude_damping", tau=1.3),
            NoiseModel("composite", members=(NoiseModel("dephasing", tau=1.0),)),
        ]
        for model in models:
            ch = channel_at_time(model, 0.0)
            for _ in range(20):
                rho = random_density(1, rng)
                assert np.max(np.abs(act(ch, rho) - rho.matrix)) <= 1e-12

    def test_dephasing_half_life(self):
        ch = channel_at_time(NoiseModel("dephasing", tau=1.0), math.log(2))
        out = act(ch, state_from_bloch([1, 0, 0]))
        assert np.allclose(out, [[0.5, 0.25], [0.25, 0.5]], atol=1e-14)

    def test_composite_sequential_scaling(self):
        model = NoiseModel(
            "composite",
            members=(NoiseModel("dephasing", tau=1.0), NoiseModel("depolarizing", tau=2.0)),
        )
        # Bloch direction (1,0,1) normalized into the ball.
        s = 1 / math.sqrt(2)
        out = act(channel_at_time(model, 1.0), state_from_bloch([s, 0, s]))
        r = bloch_of(out)
        assert r[0] == pytest.approx(s * math.exp(-1) * math.exp(-0.5), abs=1e-12)
        assert r[2] == pytest.approx(s * math.exp(-0.5), abs=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(UsageError):
            channel_at_time(NoiseModel("dephasing", tau=1.0), -0.1)

    def test_non_finite_tau_rejected(self):
        for tau in (float("inf"), float("nan")):
            with pytest.raises(UsageError, match="tau"):
                NoiseModel("depolarizing", tau=tau)


class TestComposition:
    def test_compose_matches_sequential(self, rng):
        ch1 = make_channel("dephasing", 0.6)
        ch2 = make_channel("amplitude_damping", 0.3)
        for _ in range(10):
            rho = random_density(1, rng)
            seq = kraus_sum(ch2.kraus_ops, act(ch1, rho))
            joint = act(compose(ch1, ch2), rho)
            assert np.max(np.abs(seq - joint)) <= 1e-12

    def test_three_axis_dephasing_is_depolarizing(self):
        # Dephasing about X, Y and Z in turn with strength g shrinks every
        # Bloch axis by g*g (each axis is hit by exactly two of the three),
        # i.e. the composite is depolarizing with lam = g**2.
        for g in (0.3, 0.7, 1.0):
            comp = compose(
                compose(dephasing_about(X, g), dephasing_about(Y, g)),
                dephasing_about(Z, g),
            )
            scales = []
            for i in range(3):
                r = np.zeros(3)
                r[i] = 1.0
                out = act(comp, state_from_bloch(r))
                scales.append(bloch_of(out)[i])
            assert np.allclose(scales, [g**2, g**2, g**2], atol=1e-12)
            dep = make_channel("depolarizing", g**2)
            assert np.max(np.abs(choi_of(comp) - choi_of(dep))) <= 1e-10


def family_reference(kind, s):
    """Kraus operators of a noise family at strength s, written out one operator at a time."""
    if kind == "dephasing":
        return (math.sqrt((1 + s) / 2) * I2, math.sqrt((1 - s) / 2) * Z)
    if kind == "depolarizing":
        w = math.sqrt((1 - s) / 4)
        return (math.sqrt((1 + 3 * s) / 4) * I2, w * X, w * Y, w * Z)
    return (
        np.array([[1, 0], [0, math.sqrt(1 - s)]], dtype=complex),
        np.array([[0, math.sqrt(s)], [0, 0]], dtype=complex),
    )


def model_reference(model, t):
    """The channel of a noise model at time t: per-member formulas joined with ``compose``."""
    if model.kind == "unitary":
        U = np.asarray(model.unitary, dtype=complex)
        return KrausChannel([np.eye(len(U)) if t == 0 else U])
    if model.kind == "composite":
        ch = model_reference(model.members[0], t)
        for m in model.members[1:]:
            ch = compose(ch, model_reference(m, t))
        return ch
    decay = math.exp(-t / model.tau)
    s = 1 - decay if model.kind == "amplitude_damping" else decay
    return KrausChannel(family_reference(model.kind, s))


_U = haar_unitary(2, np.random.default_rng(5))
KERNEL_MODELS = {
    "dephasing": NoiseModel("dephasing", tau=0.8),
    "depolarizing": NoiseModel("depolarizing", tau=1.7),
    "amplitude_damping": NoiseModel("amplitude_damping", tau=2.2),
    "unitary": NoiseModel("unitary", unitary=_U),
    "composite2": NoiseModel(
        "composite", members=(NoiseModel("depolarizing", tau=1.2), NoiseModel("amplitude_damping", tau=0.6))
    ),
    "composite3": NoiseModel(
        "composite",
        members=(
            NoiseModel("amplitude_damping", tau=0.9),
            NoiseModel("unitary", unitary=_U),
            NoiseModel("dephasing", tau=3.0),
        ),
    ),
}
KERNEL_GRIDS = {
    "linear": np.linspace(0.0, 6.0, 25),
    "log": np.concatenate([[0.0], np.geomspace(1e-4, 40.0, 24)]),
}


class TestNoiseKernel:
    @pytest.mark.parametrize("grid", sorted(KERNEL_GRIDS))
    @pytest.mark.parametrize("name", sorted(KERNEL_MODELS))
    def test_rows_match_per_time_channels(self, name, grid):
        model, ts = KERNEL_MODELS[name], KERNEL_GRIDS[grid]
        ks = noise_kraus(model, ts)
        refs = [model_reference(model, float(t)) for t in ts]
        assert ks.shape == (len(ts), len(refs[0].kraus_ops), 2, 2)
        for row, ref in zip(ks, refs):
            assert np.max(np.abs(row - ref.kraus_ops)) <= 1e-15
        assert np.max(np.abs(choi_stack(ks) - choi_stack(kraus_array(refs)))) <= 1e-15

    @pytest.mark.parametrize("kind", ["dephasing", "depolarizing", "amplitude_damping"])
    def test_decay_rows_are_bit_exact(self, kind):
        # Strengths come from libm's exp, so a one-time channel in a schedule
        # file has the same bits, and ``pdm build`` prints the same digits.
        model = KERNEL_MODELS[kind]
        ts = np.concatenate([KERNEL_GRIDS["linear"], KERNEL_GRIDS["log"]])
        for t, row in zip(ts, noise_kraus(model, ts)):
            assert np.array_equal(row, model_reference(model, float(t)).kraus_ops)

    def test_make_channel_matches_written_formulas(self):
        for kind in ("dephasing", "depolarizing", "amplitude_damping"):
            for s in (0.0, 0.3, 1 / 3, 1.0):
                got = make_channel(kind, s).kraus_ops
                assert np.array_equal(got, np.asarray(family_reference(kind, s)))

    def test_unitary_is_identity_at_time_zero(self):
        for U in (_U, haar_unitary(4, np.random.default_rng(6))):
            ks = noise_kraus(NoiseModel("unitary", unitary=U), [0.0, 1.0, 0.0])
            assert np.array_equal(ks[[0, 2], 0], np.stack([np.eye(len(U))] * 2))
            assert np.array_equal(ks[1, 0], U)

    def test_non_unitary_matrix_rejected(self):
        with pytest.raises(UsageError, match="not unitary"):
            noise_kraus(NoiseModel("unitary", unitary=2 * I2), [0.5])

    @pytest.mark.parametrize("name", sorted(KERNEL_MODELS))
    def test_negative_time_rejected(self, name):
        for ts in ([-0.1], [0.0, 1.0, -1e-300], [math.nan]):
            with pytest.raises(UsageError, match="time must be nonnegative"):
                noise_kraus(KERNEL_MODELS[name], ts)

    def test_mixed_member_dimensions_rejected(self):
        model = NoiseModel(
            "composite",
            members=(NoiseModel("dephasing", tau=1.0), NoiseModel("unitary", unitary=np.eye(4))),
        )
        with pytest.raises(UsageError, match="different dimension"):
            noise_kraus(model, [0.5])

    def test_kraus_budget_checked_before_building(self, monkeypatch):
        # The budget is worked out from the model: past it nothing is built.
        monkeypatch.setattr(channels, "_kraus_at", lambda model, ts: "built")
        twelve = NoiseModel("composite", members=(NoiseModel("depolarizing", tau=1.0),) * 12)
        want = f"a composite of 12 members has {4**12} Kraus operators per time and needs {2**30} bytes"
        with pytest.raises(UsageError, match=want):
            noise_kraus(twelve, [0.5])
        # composite2 holds 8 operators of 2x2, 512 bytes per time.
        fits = channels.KRAUS_BYTE_BUDGET // 512
        assert noise_kraus(KERNEL_MODELS["composite2"], np.zeros(fits)) == "built"
        with pytest.raises(UsageError, match=f"at {fits + 1} times, over the"):
            noise_kraus(KERNEL_MODELS["composite2"], np.zeros(fits + 1))

    def test_non_tp_stack_rejected_by_closed_form(self):
        good = noise_kraus(KERNEL_MODELS["composite2"], np.linspace(0, 2, 5))
        bad = good.copy()
        bad[3, 0] *= 1.01
        rho = state_from_bloch([0.1, 0.2, 0.3])
        assert two_event_pdm_stack(rho, good).shape == (5, 4, 4)
        with pytest.raises(UsageError, match="gap channel 3 is not trace preserving"):
            two_event_pdm_stack(rho, bad)
