"""The batched two-event sweep against per-point build_pdm + classify, and sweep-config parsing."""

import json
import math

import numpy as np
import pytest

from pdmsim import (
    NoiseModel,
    Sweep,
    SweepConfig,
    UsageError,
    build_pdm,
    channel_at_time,
    classify,
    find_transition,
    run_sweep,
    state_from_bloch,
    sweep_config_from_dict,
    two_event_schedule,
)
from pdmsim import sweep
from pdmsim.linalg import PSD_ATOL
from pdmsim.sweep import MAX_SWEEP_POINTS, time_grid

from conftest import haar_unitary

NOISES = {
    "dephasing": NoiseModel("dephasing", tau=1.1),
    "depolarizing": NoiseModel("depolarizing", tau=0.9),
    "amplitude_damping": NoiseModel("amplitude_damping", tau=1.4),
    "unitary": NoiseModel("unitary", unitary=haar_unitary(2, np.random.default_rng(8))),
    "composite": NoiseModel(
        "composite",
        members=(NoiseModel("dephasing", tau=1.0), NoiseModel("amplitude_damping", tau=2.5)),
    ),
}
#: A composite of all three decay families; unlike NOISES["composite"] it has a transition.
DECAY_COMPOSITE = NoiseModel(
    "composite",
    members=(
        NoiseModel("depolarizing", tau=1.0),
        NoiseModel("dephasing", tau=2.0),
        NoiseModel("amplitude_damping", tau=3.0),
    ),
)
INPUTS = {"mixed": (0.0, 0.0, 0.0), "polarised": (0.3, -0.2, 0.6)}
GRIDS = {"linear": (0.0, 5.0), "log": (0.01, 5.0)}


def reference_report(cfg, t):
    """The per-point path: one schedule, one build_pdm and one classify per time."""
    s = two_event_schedule(state_from_bloch(cfg.bloch), channel_at_time(cfg.noise, t))
    return classify(build_pdm(s))


def reference_transition(cfg, scan_points=256):
    """Per-point scan and bisection of lambda_min + PSD_ATOL, one PDM per evaluation."""

    def h(t):
        return reference_report(cfg, t).min_eigenvalue + PSD_ATOL

    ts = np.linspace(cfg.t_min, cfg.t_max, scan_points)
    vals = [h(float(t)) for t in ts]
    for i in range(len(ts) - 1):
        if vals[i] == 0.0 or np.sign(vals[i]) != np.sign(vals[i + 1]):
            lo, hi, flo = float(ts[i]), float(ts[i + 1]), vals[i]
            break
    else:
        return None
    while hi - lo > 1e-9 * (cfg.t_max - cfg.t_min):
        mid = (lo + hi) / 2
        fm = h(mid)
        if fm == 0.0:
            return mid
        if np.sign(fm) == np.sign(flo):
            lo, flo = mid, fm
        else:
            hi = mid
    return (lo + hi) / 2


class TestBatchedSweep:
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize("state", sorted(INPUTS))
    @pytest.mark.parametrize("kind", sorted(NOISES))
    def test_rows_match_per_point_reference(self, kind, state, grid):
        t_min, t_max = GRIDS[grid]
        cfg = SweepConfig(INPUTS[state], NOISES[kind], t_min, t_max, 41, grid=grid)
        sweep = run_sweep(cfg)
        ts = time_grid(cfg)
        assert sweep.t.tolist() == ts.tolist()
        for t, w, f, causal in zip(sweep.t.tolist(), sweep.eigenvalues, sweep.f_tr.tolist(), sweep.causal.tolist()):
            ref = reference_report(cfg, t)
            assert np.max(np.abs(w - ref.eigenvalues)) <= 1e-12
            assert abs(f - ref.f_tr) <= 1e-12
            assert ("causal" if causal else "spacelike_compatible") == ref.classification

    def test_multi_qubit_unitary_noise_rejected(self):
        cfg = SweepConfig(
            (0, 0, 0), NoiseModel("unitary", unitary=np.eye(4, dtype=complex)), 0.0, 1.0, 5
        )
        with pytest.raises(UsageError, match="acts on 2 qubits"):
            run_sweep(cfg)


class TestFindTransition:
    @pytest.mark.parametrize(
        "kind,bloch",
        [
            ("depolarizing", (0.0, 0.0, 0.0)),
            ("depolarizing", (0.05, 0.0, 0.1)),
            ("depolarizing", (0.0, 0.0, 1.0)),
            ("dephasing", (0.0, 0.0, 0.0)),
            ("amplitude_damping", (0.3, -0.2, 0.6)),
            ("composite", (0.0, 0.0, 0.0)),
        ],
    )
    def test_matches_reference_bisection(self, kind, bloch):
        cfg = SweepConfig(bloch, NOISES[kind], 0.0, 4.0, 2)
        got, ref = find_transition(cfg), reference_transition(cfg)
        assert (got is None) == (ref is None)
        if ref is not None:
            assert abs(got - ref) <= 1e-9 * (cfg.t_max - cfg.t_min)

    @pytest.mark.parametrize(
        "kind,bloch,t_min,t_max,grid",
        [
            ("depolarizing", (0.0, 0.0, 0.0), 0.5, 3.0, "log"),
            ("depolarizing", (0.05, 0.0, 0.1), 0.2, 6.0, "linear"),
            ("depolarizing", (0.0, 0.0, 0.5), 0.1, 4.0, "log"),
            ("depolarizing", (0.0, 0.0, 0.0), 2.0, 5.0, "linear"),
            ("dephasing", (0.0, 0.0, 0.0), 0.01, 7.0, "log"),
            ("decay_composite", (0.0, 0.0, 0.0), 0.01, 5.0, "log"),
            ("decay_composite", (0.2, 0.1, -0.3), 0.4, 3.0, "linear"),
        ],
    )
    def test_offset_and_log_configs_match_reference(self, kind, bloch, t_min, t_max, grid):
        noise = DECAY_COMPOSITE if kind == "decay_composite" else NOISES[kind]
        cfg = SweepConfig(bloch, noise, t_min, t_max, 2, grid=grid)
        got, ref = find_transition(cfg), reference_transition(cfg)
        assert (got is None) == (ref is None)
        if ref is not None:
            assert cfg.t_min <= got <= cfg.t_max
            assert abs(got - ref) <= 1e-9 * (cfg.t_max - cfg.t_min)

    @staticmethod
    def fake_spectra(monkeypatch, h):
        """Replace the PDM spectra with ones whose h(t) = lambda_min + PSD_ATOL is ``h``; count calls."""
        calls = []

        def spectra(state, noise, ts):
            ts = np.asarray(ts, dtype=float)
            calls.append(len(ts))
            return np.repeat((h(ts) - PSD_ATOL)[:, None], 4, axis=1)

        monkeypatch.setattr(sweep, "_spectra", spectra)
        return calls

    def test_exact_zero_at_scan_points(self, monkeypatch):
        cfg = SweepConfig((0, 0, 0), NOISES["depolarizing"], 1.0, 3.0, 2)
        scan = np.linspace(cfg.t_min, cfg.t_max, 256)
        tol = 1e-9 * (cfg.t_max - cfg.t_min)
        for t0 in (scan[100], scan[1], scan[-1]):
            # A sign change into an exact zero, and a zero that h only touches.
            for h in (lambda ts: np.sign(ts - t0), lambda ts: -np.abs(ts - t0)):
                self.fake_spectra(monkeypatch, h)
                assert (h(np.array([t0])) - PSD_ATOL + PSD_ATOL)[0] == 0.0
                assert abs(find_transition(cfg) - t0) <= tol
        # A zero at the first scan point is the transition itself.
        self.fake_spectra(monkeypatch, lambda ts: ts - cfg.t_min)
        assert find_transition(cfg) == cfg.t_min

    def test_first_of_several_crossings_in_one_bracket(self, monkeypatch):
        # Three roots between two adjacent scan points: the scan sees one sign
        # change, and the refinement must follow the first root.
        cfg = SweepConfig((0, 0, 0), NOISES["depolarizing"], 0.0, 1.0, 2)
        scan = np.linspace(cfg.t_min, cfg.t_max, 256)
        step = scan[1] - scan[0]
        roots = scan[40] + step * np.array([0.31, 0.52, 0.77])
        self.fake_spectra(monkeypatch, lambda ts: -np.prod(ts[:, None] - roots, axis=1))
        assert abs(find_transition(cfg) - roots[0]) <= 1e-9 * (cfg.t_max - cfg.t_min)

    @pytest.mark.parametrize("noise", [NOISES["depolarizing"], DECAY_COMPOSITE])
    def test_batched_evaluation_count(self, monkeypatch, noise):
        cfg = SweepConfig((0.2, 0.1, -0.3), noise, 0.0, 4.0, 2)
        calls = []
        real = sweep._spectra

        def counted(state, noise, ts):
            calls.append(len(ts))
            return real(state, noise, ts)

        monkeypatch.setattr(sweep, "_spectra", counted)
        assert find_transition(cfg) is not None
        assert len(calls) <= 6
        assert calls[0] == 256 and all(n == 63 for n in calls[1:])

    def test_state_is_checked_once_per_call(self, monkeypatch):
        cfg = SweepConfig((0.2, 0.1, -0.3), DECAY_COMPOSITE, 0.0, 4.0, 2)
        want = find_transition(cfg)
        made = []
        real = sweep.state_from_bloch
        monkeypatch.setattr(sweep, "state_from_bloch", lambda r: made.append(r) or real(r))
        assert find_transition(cfg) == want is not None
        assert len(made) == 1

    def test_stops_at_float_resolution(self, monkeypatch):
        # tol = 1e-9 is below the float spacing at 1e8 (~1.5e-8): the bracket
        # cannot shrink to tol, and the refinement must still stop.
        cfg = SweepConfig((0, 0, 0), NOISES["depolarizing"], 1e8, 1e8 + 1.0, 2)
        t0 = 1e8 + 0.3
        calls = self.fake_spectra(monkeypatch, lambda ts: t0 - ts)
        got = find_transition(cfg)
        assert abs(got - t0) <= 2 * np.spacing(t0)
        assert len(calls) <= 6


def config_doc(**overrides):
    doc = {
        "initial_state": {"bloch": [0, 0, 0]},
        "noise": {"kind": "depolarizing", "tau": 1.0},
        "t_min": 0.0,
        "t_max": 5.0,
        "points": 6,
    }
    doc.update(overrides)
    return doc


class TestSweepConfigHardening:
    @pytest.mark.parametrize("field", ["t_min", "t_max"])
    def test_non_finite_times_rejected(self, field):
        doc = config_doc(**json.loads(f'{{"{field}": 1e400}}'))
        assert doc[field] == math.inf  # JSON 1e400 parses to inf
        with pytest.raises(UsageError, match=f"'{field}' must be a finite number"):
            sweep_config_from_dict(doc)
        with pytest.raises(UsageError, match=f"'{field}' must be a finite number"):
            sweep_config_from_dict(config_doc(**{field: float("nan")}))

    def test_non_finite_tau_rejected(self):
        for tau in (math.inf, math.nan):
            with pytest.raises(UsageError, match="'tau' must be a finite number"):
                sweep_config_from_dict(config_doc(noise={"kind": "dephasing", "tau": tau}))
        members = [{"kind": "dephasing", "tau": 1.0}, {"kind": "depolarizing", "tau": math.inf}]
        with pytest.raises(UsageError, match="'tau' must be a finite number"):
            sweep_config_from_dict(config_doc(noise={"kind": "composite", "members": members}))

    def test_non_numeric_time_rejected(self):
        with pytest.raises(UsageError, match="'t_max' must be a finite number"):
            sweep_config_from_dict(config_doc(t_max=None))

    def test_non_numeric_bloch_rejected(self):
        for bad in (["a", 0, 0], None, [0, None, 0]):
            with pytest.raises(UsageError, match="'bloch' must be a list of 3 numbers"):
                sweep_config_from_dict(config_doc(initial_state={"bloch": bad}))

    def test_points_must_be_integral(self):
        for bad in (2.7, True, "6", None, math.inf):
            with pytest.raises(UsageError, match="'points' must be an integer"):
                sweep_config_from_dict(config_doc(points=bad))
        assert sweep_config_from_dict(config_doc(points=6.0)).points == 6

    def test_points_capped(self):
        # Only the config is made: no grid is allocated.
        assert sweep_config_from_dict(config_doc(points=MAX_SWEEP_POINTS)).points == MAX_SWEEP_POINTS
        for too_many in (MAX_SWEEP_POINTS + 1, 2**62):
            with pytest.raises(UsageError, match=f"points must be at most {MAX_SWEEP_POINTS}, got {too_many}"):
                sweep_config_from_dict(config_doc(points=too_many))

    def test_unknown_keys_rejected(self):
        with pytest.raises(UsageError, match="'tmax'"):
            sweep_config_from_dict(config_doc(tmax=9.0))
        with pytest.raises(UsageError, match="'rate'"):
            sweep_config_from_dict(config_doc(noise={"kind": "dephasing", "tau": 1.0, "rate": 2}))
        with pytest.raises(UsageError, match="'t'"):
            members = [{"kind": "dephasing", "tau": 1.0, "t": 0.5}]
            sweep_config_from_dict(config_doc(noise={"kind": "composite", "members": members}))
        with pytest.raises(UsageError, match="'matrix'"):
            sweep_config_from_dict(config_doc(initial_state={"bloch": [0, 0, 0], "matrix": []}))

    def test_output_keys_accepted(self):
        cfg = sweep_config_from_dict(config_doc(csv="out.csv", svg="out.svg", grid="linear"))
        assert (cfg.csv_path, cfg.svg_path) == ("out.csv", "out.svg")

    def test_multi_qubit_unitary_rejected_at_parse_time(self):
        U = [[[1.0 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
        with pytest.raises(UsageError, match="must be 2x2"):
            sweep_config_from_dict(config_doc(noise={"kind": "unitary", "matrix": U}))
        I = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        assert sweep_config_from_dict(config_doc(noise={"kind": "unitary", "matrix": I})).noise.kind == "unitary"


class TestSweepRecord:
    def test_arrays_are_read_only_copies(self):
        record = run_sweep(SweepConfig((0, 0, 0), NOISES["depolarizing"], 0.0, 5.0, 7))
        arrays = (record.t, record.eigenvalues, record.f_tr, record.causal)
        assert [a.shape for a in arrays] == [(7,), (7, 4), (7,), (7,)]
        assert [a.dtype for a in arrays] == [float, float, float, bool]
        assert not any(a.flags.writeable for a in arrays)
        t, W = np.linspace(0.0, 1.0, 3), np.zeros((3, 4))
        built = Sweep(t, W, [0.1, 0.2, 0.3], [True, False, True])
        t[0], W[0, 0] = 9.0, 9.0
        assert built.t[0] == 0.0 and built.eigenvalues[0, 0] == 0.0

    @pytest.mark.parametrize(
        "t,W,f,c",
        [
            ([0.0, 1.0], np.zeros((3, 4)), [0, 0], [True, True]),
            ([0.0, 1.0], np.zeros(2), [0, 0], [True, True]),
            ([0.0, 1.0], np.zeros((2, 4)), [0], [True, True]),
            ([[0.0, 1.0]], np.zeros((1, 4)), [0], [True]),
        ],
    )
    def test_mismatched_shapes_rejected(self, t, W, f, c):
        with pytest.raises(UsageError, match=r"arrays of shapes \(T,\), \(T, k\), \(T,\) and \(T,\)"):
            Sweep(t, W, f, c)

    def test_equality_is_identity(self):
        cfg = SweepConfig((0, 0, 0), NOISES["dephasing"], 0.0, 1.0, 3)
        a, b = run_sweep(cfg), run_sweep(cfg)
        assert a == a and a != b
        assert len({a, b, a}) == 2


class TestModelsCompareAndKeep:
    """NoiseModel and SweepConfig compare by identity, hash, and keep copies of their arrays."""

    def test_unitary_model_compares_and_hashes(self):
        U = haar_unitary(2, np.random.default_rng(4))
        a, b = NoiseModel("unitary", unitary=U), NoiseModel("unitary", unitary=U)
        assert a == a and a != b and not a == b
        assert len({a, b, a}) == 2

    def test_config_holding_a_unitary_model_compares_and_hashes(self):
        noise = NOISES["unitary"]
        a, b = (SweepConfig((0, 0, 0), noise, 0.0, 1.0, 3) for _ in range(2))
        assert a == a and a != b and not a == b
        assert len({a, b, a}) == 2

    def test_unitary_is_a_read_only_copy(self):
        U = haar_unitary(2, np.random.default_rng(5))
        model = NoiseModel("unitary", unitary=U)
        cfg = SweepConfig((0.1, 0.2, 0.3), model, 0.0, 1.0, 5)
        before = run_sweep(cfg).eigenvalues
        # Writing to the caller's matrix once made a later sweep fail with "matrix is not unitary".
        U[0, 0] = 7.0
        assert model.unitary[0, 0] != 7.0
        assert np.array_equal(run_sweep(cfg).eigenvalues, before)
        with pytest.raises(ValueError, match="read-only"):
            model.unitary[0, 0] = 7.0

    def test_composite_members_are_a_tuple(self):
        members = [NoiseModel("dephasing", tau=1.0), NoiseModel("depolarizing", tau=2.0)]
        model = NoiseModel("composite", members=members)
        members.append(NoiseModel("amplitude_damping", tau=1.0))
        assert isinstance(model.members, tuple) and len(model.members) == 2

    def test_bloch_is_a_tuple_of_floats(self):
        b = np.zeros(3)
        cfg = SweepConfig(b, NOISES["depolarizing"], 0.0, 1.0, 3)
        before = run_sweep(cfg).eigenvalues
        # Writing to the caller's array once made a later sweep fail with "Bloch vector norm".
        b[0] = 5.0
        assert cfg.bloch == (0.0, 0.0, 0.0) and all(type(x) is float for x in cfg.bloch)
        assert np.array_equal(run_sweep(cfg).eigenvalues, before)

    @pytest.mark.parametrize("bad", [5, None, "abc", (0, 0, "1"), (True, 0, 0), (1j, 0, 0), np.zeros((1, 3))])
    def test_non_numeric_bloch_rejected(self, bad):
        with pytest.raises(UsageError, match="bloch must be a sequence of real numbers"):
            SweepConfig(bad, NOISES["depolarizing"], 0.0, 1.0, 3)

    def test_huge_bloch_component_rejected(self):
        with pytest.raises(UsageError, match="must be finite"):
            SweepConfig((10**400, 0, 0), NOISES["depolarizing"], 0.0, 1.0, 3)

    def test_non_numeric_unitary_or_members_rejected(self):
        with pytest.raises(UsageError, match="unitary model requires a matrix of numbers"):
            NoiseModel("unitary", unitary=[["a", 0], [0, 1]])
        with pytest.raises(UsageError, match="composite members must be a sequence of models, got 5"):
            NoiseModel("composite", members=5)
