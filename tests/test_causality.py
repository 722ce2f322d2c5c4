import math

import numpy as np
import pytest

from pdmsim import (
    KrausChannel,
    NoiseModel,
    SweepConfig,
    UsageError,
    build_pdm,
    channel_at_time,
    classify,
    f_tr,
    find_transition,
    hermitian_eig,
    kraus_array,
    make_channel,
    reduce_pdm,
    spectrum_verdict,
    state_from_bloch,
    suite_local_monotonicity,
    suite_unitary_invariance,
    two_event_pdm_stack,
    two_event_schedule,
    unitary_channel,
)
import pdmsim.verify as verify
from pdmsim.verify import (
    CHECK_ATOL,
    _f_tr_matrix,
    convexity_gaps,
    ginibre,
    haar_unitary,
    qr_isometries,
    stinespring_channels,
    worst_deviation,
    worst_trial,
)
from pdmsim.channels import kraus_sum
from pdmsim.linalg import PAULIS, PSD_ATOL, embed_operator
from pdmsim.schedule import Event, Schedule
from pdmsim.verify import golden_schedule, random_bloch

from conftest import random_cptp, random_density, random_pure, random_schedule


def dephasing_pdm(gamma):
    return build_pdm(two_event_schedule(state_from_bloch([0, 0, 1]), make_channel("dephasing", gamma)))


def depolarizing_pdm(lam):
    return build_pdm(two_event_schedule(state_from_bloch([0, 0, 0]), make_channel("depolarizing", lam)))


def distort_trial(monkeypatch, trial, distort):
    """Make ``verify.qr_isometries`` return ``distort(Q)`` for the isometry of one trial.

    The axiom checks draw one Gaussian per trial, in trial order, so the
    isometry's index over all calls is its trial. Returns the list of
    isometries seen so far.
    """
    real = verify.qr_isometries
    seen = []

    def distorted(gaussians, haar=False):
        out = real(gaussians, haar)
        out = [distort(Q) if len(seen) + i == trial else Q for i, Q in enumerate(out)]
        seen.extend(out)
        return out

    monkeypatch.setattr(verify, "qr_isometries", distorted)
    return seen


def unitary_invariance_loop(R, trials, seed):
    """Reference: one eigensolve per trial of max |f_tr(U R U^dag) - f_tr(R)|."""
    base = f_tr(R)
    worst = 0.0
    for k in range(trials):
        U = haar_unitary(R.matrix.shape[0], np.random.default_rng(seed + k))
        worst = max(worst, abs(float(_f_tr_matrix(U @ R.matrix @ U.conj().T)) - base))
    return worst


def local_monotonicity_loop(R, trials, seed):
    """Reference: one eigensolve per trial of the largest rise of f_tr under a one-factor channel."""
    base = f_tr(R)
    worst = -np.inf
    for k in range(trials):
        rng = np.random.default_rng(seed + k)
        ch = random_cptp(1, int(rng.integers(1, 5)), rng)
        factor = int(rng.integers(0, R.event_count))
        out = kraus_sum(embed_operator(ch.kraus_ops, factor, R.event_count), R.matrix)
        worst = max(worst, float(_f_tr_matrix(out)) - base)
    return max(0.0, worst)


def convexity_loop(seed, trials):
    """Reference: ``suite_convexity``'s draws, one ``build_pdm`` per PDM and one gap per trial."""
    gaps = []
    for k in range(trials):
        rng = np.random.default_rng(seed + k)
        Rs = [
            build_pdm(
                two_event_schedule(
                    state_from_bloch(random_bloch(rng)),
                    random_cptp(1, int(rng.integers(1, 5)), rng),
                )
            )
            for _ in range(2)
        ]
        p = float(rng.uniform(0, 1))
        mix = p * Rs[0].matrix + (1 - p) * Rs[1].matrix
        gaps.append(float(_f_tr_matrix(mix)) - p * f_tr(Rs[0]) - (1 - p) * f_tr(Rs[1]))
        # convexity_gaps on this one mixture reports the same gap.
        (gap,) = convexity_gaps(np.array([[R.matrix for R in Rs]]), [[p, 1 - p]])
        assert abs(gap - gaps[-1]) <= 1e-15
    return np.array(gaps)


class TestFtr:
    def test_zero_for_density_matrices(self, rng):
        rho = random_density(2, rng)
        s = Schedule(rho, (Event(1, 0, 0), Event(2, 1, 0)))
        assert f_tr(build_pdm(s)) == pytest.approx(0.0, abs=1e-12)

    def test_golden_is_one(self):
        assert f_tr(build_pdm(golden_schedule())) == pytest.approx(1.0, abs=1e-12)

    def test_depolarizing_family(self):
        for lam in (0.0, 0.2, 1 / 3, 0.5, 0.9):
            expected = max(0.0, (3 * lam - 1) / 2)
            assert f_tr(depolarizing_pdm(lam)) == pytest.approx(expected, abs=1e-10)
        assert f_tr(depolarizing_pdm(0.5)) == pytest.approx(0.25, abs=1e-12)


class TestClassify:
    def test_golden_causal(self):
        rep = classify(build_pdm(golden_schedule()))
        assert rep.classification == "causal"
        assert rep.min_eigenvalue == pytest.approx(-0.5, abs=1e-12)
        assert rep.f_tr == pytest.approx(sum(abs(x) for x in rep.eigenvalues) - 1, abs=1e-12)

    def test_single_slice_spacelike(self, rng):
        rho = random_density(2, rng)
        s = Schedule(rho, (Event(1, 0, 0), Event(2, 1, 0)))
        assert classify(build_pdm(s)).classification == "spacelike_compatible"

    def test_weak_dephasing_still_causal(self):
        rep = classify(dephasing_pdm(0.01))
        assert rep.classification == "causal"
        assert rep.min_eigenvalue == pytest.approx(-0.005, abs=1e-12)


class TestTolerancePolicy:
    @pytest.mark.parametrize("delta", [1e-10, -1e-10])
    def test_depolarizing_within_tolerance_of_one_third(self, delta):
        # lambda_min = (1 - 3 lam)/4 = -+7.5e-11 lies inside [-PSD_ATOL, PSD_ATOL]:
        # not causal, so the monotone reads exactly 0.
        R = depolarizing_pdm(1 / 3 + delta)
        rep = classify(R)
        assert abs(rep.min_eigenvalue) <= PSD_ATOL
        assert rep.classification == "spacelike_compatible"
        assert rep.f_tr == 0.0
        assert f_tr(R) == 0.0

    def test_depolarizing_past_tolerance_is_causal(self):
        rep = classify(depolarizing_pdm(1 / 3 + 1e-9))
        assert rep.min_eigenvalue < -PSD_ATOL
        assert rep.classification == "causal"
        assert rep.f_tr == pytest.approx(1.5e-9, rel=1e-5)

    def test_verdict_on_a_stack_matches_rows(self):
        W = np.array([[-0.5, 0.0, 0.5, 1.0], [-5e-11, 0.0, 0.5, 0.5], [-2e-10, 0.1, 0.4, 0.5]])
        values, causal = spectrum_verdict(W)
        assert causal.tolist() == [True, False, True]
        assert values[1] == 0.0 and values[2] > 0
        for w, v, c in zip(W, values, causal):
            one = spectrum_verdict(w)
            assert (float(one[0]), bool(one[1])) == (v, c)


class TestDephasingFamily:
    def test_spectrum_and_monotone_on_grid(self):
        # Spectrum {1, 0, +-gamma/2}: strictly negative minimum for every
        # gamma > 0, so the family never becomes positive semi-definite.
        for gamma in np.linspace(0.02, 1.0, 50):
            rep = classify(dephasing_pdm(float(gamma)))
            assert np.allclose(
                rep.eigenvalues, sorted([-gamma / 2, 0.0, gamma / 2, 1.0]), atol=1e-10
            )
            assert rep.f_tr == pytest.approx(gamma, abs=1e-10)
            assert rep.min_eigenvalue < 0
            assert rep.classification == "causal"


class TestDepolarizingTransition:
    def test_classification_flips_at_one_third(self):
        lo, hi = 0.0, 1.0  # bisect lambda itself
        for _ in range(60):
            mid = (lo + hi) / 2
            if classify(depolarizing_pdm(mid)).classification == "causal":
                hi = mid
            else:
                lo = mid
        assert (lo + hi) / 2 == pytest.approx(1 / 3, abs=1e-9)

    def test_time_domain_transition(self):
        cfg = SweepConfig(
            bloch=(0, 0, 0),
            noise=NoiseModel("depolarizing", tau=1.0),
            t_min=0.0,
            t_max=5.0,
            points=10,
        )
        t = find_transition(cfg)
        assert t == pytest.approx(math.log(3), abs=1e-6)


class TestMonotoneAxioms:
    def test_unitary_invariance_identity_and_swap(self):
        R = build_pdm(golden_schedule())
        base = f_tr(R)
        SWAP = np.eye(4)[[0, 2, 1, 3]].astype(complex)
        for U in (np.eye(4, dtype=complex), SWAP):
            moved = U @ R.matrix @ U.conj().T
            from pdmsim.verify import _f_tr_matrix

            assert abs(_f_tr_matrix(moved) - base) <= 1e-12

    def test_unitary_invariance_randomized(self):
        rep = suite_unitary_invariance(build_pdm(golden_schedule()), seed=5, trials=100)
        assert rep.passed and rep.max_deviation <= 1e-9

    def test_local_monotonicity_fully_depolarizing(self):
        R = build_pdm(golden_schedule())
        rep = suite_local_monotonicity(R, seed=0, trials=1)
        assert rep.passed
        # Explicit extreme case: killing event 2 gives |0><0| (x) I/2.
        collapsed = build_pdm(
            two_event_schedule(state_from_bloch([0, 0, 1]), make_channel("depolarizing", 0.0))
        )
        assert f_tr(collapsed) == pytest.approx(0.0, abs=1e-12)

    def test_local_monotonicity_randomized(self):
        rep = suite_local_monotonicity(build_pdm(golden_schedule()), seed=11, trials=200)
        assert rep.passed and rep.max_deviation <= 1e-9

    @pytest.mark.parametrize("stack_bytes", [None, 3 * 16 * 4 * 4])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_stacked_checks_match_per_trial_loops(self, seed, stack_bytes, monkeypatch):
        if stack_bytes is not None:
            # Chunks of 3 trials of a 4x4 PDM (40 = 13 * 3 + 1), one trial of a larger one.
            monkeypatch.setattr(verify, "CHECK_STACK_BYTES", stack_bytes)
        R_random = build_pdm(random_schedule(np.random.default_rng(seed), max_events=3))
        for R in (build_pdm(golden_schedule()), R_random):
            for check, reference in (
                (suite_unitary_invariance, unitary_invariance_loop),
                (suite_local_monotonicity, local_monotonicity_loop),
            ):
                rep = check(R, seed=seed, trials=40)
                want = reference(R, trials=40, seed=seed)
                assert rep.passed == (want <= 1e-9)
                assert abs(rep.max_deviation - want) <= 1e-12

    @pytest.mark.parametrize("stack_bytes", [None, 3 * 16 * 4 * 4])
    def test_checks_see_the_first_and_last_trial(self, stack_bytes, monkeypatch):
        # One trial's isometry is doubled, which doubles its unitary or its
        # channel's Kraus operators and raises its f_tr; the report must fail
        # and name that trial.
        if stack_bytes is not None:
            monkeypatch.setattr(verify, "CHECK_STACK_BYTES", stack_bytes)
        R = build_pdm(golden_schedule())
        for check in (suite_unitary_invariance, suite_local_monotonicity):
            for distorted in (0, 39):
                with monkeypatch.context() as m:
                    seen = distort_trial(m, distorted, lambda Q: 2 * Q)
                    rep = check(R, seed=3, trials=40)
                assert len(seen) == 40
                assert not rep.passed and rep.max_deviation > 0.01
                assert rep.detail.split()[:2] == ["trial", str(distorted)]

    @pytest.mark.parametrize("stack_bytes", [None, 3 * 16 * 4 * 4])
    @pytest.mark.parametrize("bad", [0, 17, 39])
    def test_non_finite_trial_fails_its_check(self, bad, stack_bytes, monkeypatch):
        # A NaN unitary or channel in one trial gives that trial deviation inf:
        # the check fails and names it instead of raising a usage error.
        if stack_bytes is not None:
            monkeypatch.setattr(verify, "CHECK_STACK_BYTES", stack_bytes)
        R = build_pdm(golden_schedule())
        for check in (suite_unitary_invariance, suite_local_monotonicity):
            with monkeypatch.context() as m:
                seen = distort_trial(m, bad, lambda Q: np.full_like(Q, np.nan))
                rep = check(R, seed=3, trials=40)
            assert len(seen) == 40
            assert not rep.passed and rep.max_deviation == np.inf
            assert rep.detail.split()[:2] == ["trial", str(bad)]

    def test_non_finite_convexity_trial_fails(self):
        R = build_pdm(golden_schedule()).matrix
        Rs = np.stack([np.stack([R, R])] * 3)
        Rs[1, 0, 0, 0] = np.nan
        assert worst_deviation(convexity_gaps(Rs, np.full((3, 2), 0.5))) == (1, np.inf)

    def test_convexity_single_element(self):
        R = build_pdm(golden_schedule())
        assert abs(convexity_gaps(np.array([[R.matrix]]), [[1.0]])[0]) <= 1e-12

    def test_convexity_with_swapped_copy(self):
        R = build_pdm(golden_schedule())
        SWAP = np.eye(4)[[0, 2, 1, 3]].astype(complex)
        swapped = build_pdm(golden_schedule())
        # Same PDM conjugated by the factor swap is still a valid mixture input.
        from pdmsim.verify import _f_tr_matrix

        mix = 0.5 * R.matrix + 0.5 * SWAP @ swapped.matrix @ SWAP.conj().T
        assert _f_tr_matrix(mix) <= 0.5 * f_tr(R) + 0.5 * f_tr(swapped) + 1e-9

    def test_convexity_randomized_pairs(self):
        from pdmsim.verify import suite_convexity

        res = suite_convexity(seed=3, trials=100)
        assert res.passed

    def test_convexity_bad_weights(self):
        R = build_pdm(golden_schedule()).matrix
        pair = np.array([[R, R]])
        with pytest.raises(UsageError):
            convexity_gaps(pair, [[0.7, 0.7]])
        for bad in ([np.nan, 1.0], [-0.5, 1.5]):
            with pytest.raises(UsageError, match="weights"):
                convexity_gaps(pair, [bad])
        with pytest.raises(UsageError, match="matching"):
            convexity_gaps(np.stack([[R, R]] * 3), [[0.5, 0.5]] * 2)

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_stacked_convexity_matches_per_trial_loop(self, seed):
        from pdmsim.verify import suite_convexity

        gaps = convexity_loop(seed, trials=30)
        res = suite_convexity(seed=seed, trials=30)
        assert res.passed == bool(np.all(gaps <= 1e-9))
        assert abs(res.max_deviation - max(0.0, gaps.max())) <= 1e-12
        assert res.detail == f"trial {int(np.argmax(gaps))}"

    def test_convexity_names_the_distorted_trial(self, monkeypatch):
        import pdmsim.verify as verify

        exact = verify.two_event_pdm_stack

        def distorted(states, kraus):
            # Trial 6's pair becomes diag(0, 0, 0, 5) (PSD, f_tr 0) and
            # diag(1.5, -0.5, 0, 0) (f_tr 1): the mixture with weight p on the
            # first has f_tr 1 + 3p against the weighted 1 - p, a gap of 4p.
            R = exact(states, kraus)
            R[12] = np.diag([0, 0, 0, 5])
            R[13] = np.diag([1.5, -0.5, 0, 0])
            return R

        monkeypatch.setattr(verify, "two_event_pdm_stack", distorted)
        res = verify.suite_convexity(seed=0, trials=10)
        rng = np.random.default_rng(6)
        for _ in range(2):
            random_bloch(rng)
            random_cptp(1, int(rng.integers(1, 5)), rng)
        p = float(rng.uniform(0, 1))
        assert not res.passed and res.detail == "trial 6"
        assert res.max_deviation == pytest.approx(4 * p, abs=1e-12)

    def test_local_monotonicity_names_the_trial_and_event(self, monkeypatch):
        import pdmsim.verify as verify

        distort_trial(monkeypatch, 17, lambda Q: 2 * Q)
        res = verify.suite_local_monotonicity(build_pdm(golden_schedule()), seed=5, trials=40)
        rng = np.random.default_rng(5 + 17)
        random_cptp(1, int(rng.integers(1, 5)), rng)
        event = int(rng.integers(0, 2)) + 1
        assert not res.passed and res.detail == f"trial 17 on event {event}"


def trial_of(rng: np.random.Generator, seed: int) -> int:
    """The trial k whose generator ``worst_trial`` seeded with seed + k."""
    return int(rng.bit_generator.seed_seq.entropy) - seed


class TestWorstTrial:
    # Budgets of one trial a chunk (every comparison crosses chunks) and of 3 trials of 8 bytes.
    @pytest.fixture(autouse=True, params=[1, 24], ids=["one-trial-chunks", "three-trial-chunks"])
    def stack_bytes(self, request, monkeypatch):
        monkeypatch.setattr(verify, "CHECK_STACK_BYTES", request.param)

    def test_trial_k_draws_from_seed_plus_k(self):
        seen = []

        def first_draws(rngs):
            seen.extend(rng.random() for rng in rngs)
            return np.zeros(len(rngs)), None

        worst_trial(9, 7, 8, first_draws)
        assert seen == [np.random.default_rng(9 + k).random() for k in range(7)]

    def test_tie_across_chunks_keeps_the_earlier_trial(self):
        def devs(rngs):
            out = np.zeros((len(rngs), 3))
            for j, rng in enumerate(rngs):
                k = trial_of(rng, 4)
                if k in (2, 5):
                    out[j, 1 if k == 2 else 0] = 1.0
            return out, None

        assert worst_trial(4, 8, 8, devs) == (1.0, (2, 1), None)

    def test_nan_reads_as_inf_and_wins(self):
        def devs(rngs):
            trials = np.array([trial_of(rng, 0) for rng in rngs])
            return np.select([trials == 1, trials == 4], [1e300, np.nan], 0.0), None

        assert worst_trial(0, 6, 8, devs) == (np.inf, (4,), None)

    def test_context_belongs_to_the_worst_trial(self):
        def devs(rngs):
            trials = [trial_of(rng, 3) for rng in rngs]
            return np.array([-abs(k - 5) for k in trials], dtype=float), [f"context of {k}" for k in trials]

        assert worst_trial(3, 10, 8, devs) == (0.0, (5,), "context of 5")

    def test_no_trials_is_a_usage_error(self):
        with pytest.raises(UsageError, match="trials must be >= 1"):
            worst_trial(0, 0, 8, lambda rngs: (np.zeros(len(rngs)), None))

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: suite_unitary_invariance(build_pdm(golden_schedule()), -1, 3), "seed must be >= 0, got -1"),
            (lambda: verify.suite_convexity(-2, 3), "seed must be >= 0, got -2"),
            (lambda: verify.suite_ancilla(0, 2.5), "trials must be an integer, got 2.5"),
            (lambda: verify.run_all(0, True), "trials must be an integer, got True"),
            (lambda: verify.run_all(True, 3), "seed must be an integer, got True"),
            (lambda: worst_trial(0.0, 3, 8, lambda rngs: (np.zeros(len(rngs)), None)), "seed must be an integer"),
        ],
        ids=["negative-seed", "negative-seed-convexity", "fractional-trials", "bool-trials", "bool-seed", "float-seed"],
    )
    def test_bad_seed_or_trial_count_is_a_usage_error(self, call, message):
        # The trial loop checks both before any generator is seeded; numpy
        # would raise a bare ValueError or TypeError, or read True as 1.
        with pytest.raises(UsageError) as err:
            call()
        assert str(err.value).startswith(message)

    def test_numpy_integers_are_counts(self):
        assert worst_trial(np.int64(2), np.int32(3), 8, lambda rngs: (np.zeros(len(rngs)), None))[1] == (0,)

    def test_memory_does_not_grow_with_trials(self):
        # Only the worst case is kept from chunk to chunk.
        import tracemalloc

        def devs(rngs):
            return np.zeros(len(rngs)), None

        worst_trial(0, 10, 8, devs)  # warm up
        peaks = []
        for trials in (10, 10_000):
            tracemalloc.start()
            try:
                worst_trial(0, trials, 8, devs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 4096, peaks


class TestStackedQR:
    # Every shape the suites draw: Stinespring Gaussians (K d, d) of Kraus
    # rank 1-4 on 1-3 qubits, and square Haar draws of the golden PDM (4x4)
    # and of the closed-form suite's unitary (2x2).
    TALL = [(d * k, d) for d in (2, 4, 8) for k in range(1, 5)]

    def test_matches_per_matrix_qr_in_order(self):
        rng = np.random.default_rng(9)
        # Two of each shape, interleaved, so equal shapes are not neighbours.
        shapes = [self.TALL[i] for i in rng.permutation(2 * len(self.TALL)) % len(self.TALL)]
        gaussians = [ginibre(rows, cols, rng) for rows, cols in shapes]
        got = qr_isometries(gaussians)
        assert len(got) == len(gaussians)
        for G, V in zip(gaussians, got):
            assert np.array_equal(V, np.linalg.qr(G)[0])

    def test_stinespring_residuals_are_stored_per_shape(self, monkeypatch):
        rng = np.random.default_rng(11)
        shapes = [self.TALL[i] for i in rng.permutation(2 * len(self.TALL)) % len(self.TALL)]
        gaussians = [ginibre(rows, cols, rng) for rows, cols in shapes]
        contractions = []
        real = verify.tp_residuals
        monkeypatch.setattr(verify, "tp_residuals", lambda ks: contractions.append(len(ks)) or real(ks))
        channels = stinespring_channels(gaussians)
        assert sorted(contractions) == [2] * len(self.TALL)
        for ch in channels:
            stored = ch.__dict__["tp_residual"]
            assert type(stored) is float
            assert abs(stored - KrausChannel(ch.kraus_ops).tp_residual) <= 1e-15

    def test_haar_matches_per_matrix_phase_fix(self):
        rng = np.random.default_rng(10)
        gaussians = [ginibre(d, d, rng) for d in (4, 2, 4, 8, 2, 4)]
        for G, U in zip(gaussians, qr_isometries(gaussians, haar=True)):
            Q, Rm = np.linalg.qr(G)
            d = np.diagonal(Rm)
            assert np.array_equal(U, Q * (d / np.abs(d)))
            assert np.max(np.abs(U @ U.conj().T - np.eye(len(U)))) <= 1e-14

    def test_one_matrix_case_keeps_the_random_stream(self):
        # haar_unitary and random_cptp give what a QR of the same draws, one
        # matrix at a time, gives, and leave the generator where it was left.
        for dim in (2, 4, 8):
            a, b = np.random.default_rng(dim), np.random.default_rng(dim)
            Q, Rm = np.linalg.qr(b.normal(size=(dim, dim)) + 1j * b.normal(size=(dim, dim)))
            d = np.diagonal(Rm)
            assert np.array_equal(haar_unitary(dim, a), Q * (d / np.abs(d)))
            assert a.normal() == b.normal()
        for qubits, rank in ((1, 3), (2, 1), (3, 4)):
            a, b = np.random.default_rng(rank), np.random.default_rng(rank)
            D = 2**qubits
            Q, _ = np.linalg.qr(b.normal(size=(D * rank, D)) + 1j * b.normal(size=(D * rank, D)))
            ch = random_cptp(qubits, rank, a)
            assert ch.qubits == qubits and len(ch.kraus_ops) == rank
            assert all(np.array_equal(K, Q[k * D : (k + 1) * D]) for k, K in enumerate(ch.kraus_ops))
            assert a.normal() == b.normal()


class TestMultiEventMonotonicity:
    def test_random_multi_qubit_schedules(self):
        # Random schedules of 1-5 events on 1-3 qubits with random CPTP gaps:
        # f_tr must not rise under a channel on one event, nor under
        # tracing out events.
        rng = np.random.default_rng(2024)
        causal = 0
        for k in range(60):
            R = build_pdm(random_schedule(rng, max_events=5))
            value = f_tr(R)
            causal += value > 0
            rep = suite_local_monotonicity(R, seed=100 * k, trials=20)
            assert rep.passed, (k, rep)
            n = R.event_count
            for _ in range(3):
                keep = {i + 1 for i in np.flatnonzero(rng.random(n) < 0.5)}
                keep = keep or {int(rng.integers(1, n + 1))}
                assert f_tr(reduce_pdm(R, keep)) <= value + CHECK_ATOL, (k, keep)
        # Most draws have a gap between two events, so the test sees causal PDMs.
        assert causal >= 20


class TestTwoEventUniversality:
    def test_ftr_one_for_pure_states_and_unitaries(self, rng):
        # Two consecutive measurements on a closed single-qubit system give
        # f_tr = 1 regardless of the pure initial state and the intervening
        # unitary.
        for _ in range(20):
            rho = random_pure(1, rng)
            U = haar_unitary(2, rng)
            s = two_event_schedule(rho, unitary_channel(U))
            assert f_tr(build_pdm(s)) == pytest.approx(1.0, abs=1e-9)

    def test_ftr_between_zero_and_one(self, rng):
        # Two single-qubit events: 0 <= f_tr <= 1 for every input state and
        # CPTP gap; pure states and unitary gaps reach 1.
        for k in range(40):
            rho = random_pure(1, rng) if k % 2 else random_density(1, rng)
            channels = [random_cptp(1, int(rng.integers(1, 5)), rng) for _ in range(100)]
            values = spectrum_verdict(hermitian_eig(two_event_pdm_stack(rho, kraus_array(channels))))[0]
            assert np.all(values >= 0.0)
            assert np.max(values) <= 1.0 + 1e-12


class TestPauliChannelSpectrum:
    def test_maximally_mixed_input(self):
        # The Pauli channel with PTM diag(1, lx, ly, lz), drawn uniformly from
        # the CPTP tetrahedron (all four Pauli weights p >= 0), after the
        # maximally mixed input.
        rng = np.random.default_rng(7)
        p = rng.dirichlet(np.ones(4), size=200)  # weights of I, X, Y, Z
        # lambda_i = p_0 + p_i - (the other two weights) = 2 (p_0 + p_i) - 1.
        lx, ly, lz = (2 * (p[:, 0] + p[:, i]) - 1 for i in (1, 2, 3))
        expected = np.sort(
            np.stack(
                [
                    (1 + lx - ly + lz) / 4,
                    (1 - lx + ly + lz) / 4,
                    (1 + lx + ly - lz) / 4,
                    (1 - lx - ly - lz) / 4,
                ],
                axis=1,
            ),
            axis=1,
        )
        rho = state_from_bloch([0, 0, 0])
        channels = [KrausChannel(np.sqrt(w)[:, None, None] * np.stack(PAULIS)) for w in p]
        stack = two_event_pdm_stack(rho, kraus_array(channels))
        built = np.stack([build_pdm(two_event_schedule(rho, ch)).matrix for ch in channels])
        for R in (stack, built):
            assert np.max(np.abs(hermitian_eig(R) - expected)) <= 1e-12


class TestTimeMonotonicity:
    @pytest.mark.parametrize(
        "kind,bloch",
        [
            ("dephasing", (0, 0, 1)),
            ("depolarizing", (0.2, 0.1, 0.3)),
            ("amplitude_damping", (0.6, 0.0, 0.5)),
        ],
    )
    def test_ftr_non_increasing_in_time(self, kind, bloch):
        model = NoiseModel(kind, tau=1.0)
        vals = [
            f_tr(
                build_pdm(
                    two_event_schedule(state_from_bloch(bloch), channel_at_time(model, float(t)))
                )
            )
            for t in np.linspace(0, 5, 100)
        ]
        assert np.all(np.diff(vals) <= 1e-10)
