"""The batched two-event sweep against per-point build_pdm + classify, and sweep-config parsing."""

import json
import math

import numpy as np
import pytest

from pdmsim import (
    NoiseModel,
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
from pdmsim.causality import haar_unitary
from pdmsim.linalg import PSD_ATOL
from pdmsim.sweep import time_grid

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
        rows = run_sweep(cfg)
        ts = time_grid(cfg)
        assert [r.t for r in rows] == [float(t) for t in ts]
        for r in rows:
            ref = reference_report(cfg, r.t)
            assert np.max(np.abs(np.array(r.eigenvalues) - ref.eigenvalues)) <= 1e-12
            assert abs(r.f_tr - ref.f_tr) <= 1e-12
            assert r.classification == ref.classification

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

    def test_scan_points_validated(self):
        cfg = SweepConfig((0, 0, 0), NOISES["depolarizing"], 0.0, 4.0, 2)
        with pytest.raises(UsageError):
            find_transition(cfg, scan_points=1)


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
        with pytest.raises(UsageError, match=f"{field} must be finite"):
            sweep_config_from_dict(doc)
        with pytest.raises(UsageError, match=f"{field} must be finite"):
            sweep_config_from_dict(config_doc(**{field: float("nan")}))

    def test_non_finite_tau_rejected(self):
        for tau in (math.inf, math.nan):
            with pytest.raises(UsageError, match="finite time constant tau"):
                sweep_config_from_dict(config_doc(noise={"kind": "dephasing", "tau": tau}))
        members = [{"kind": "dephasing", "tau": 1.0}, {"kind": "depolarizing", "tau": math.inf}]
        with pytest.raises(UsageError, match="finite time constant tau"):
            sweep_config_from_dict(config_doc(noise={"kind": "composite", "members": members}))

    def test_non_numeric_time_rejected(self):
        with pytest.raises(UsageError, match="'t_max' must be a number"):
            sweep_config_from_dict(config_doc(t_max=None))

    def test_non_numeric_bloch_rejected(self):
        for bad in (["a", 0, 0], None, [0, None, 0]):
            with pytest.raises(UsageError, match="'bloch' must be a list of 3 numbers"):
                sweep_config_from_dict(config_doc(initial_state={"bloch": bad}))

    def test_points_must_be_integral(self):
        for bad in (2.7, True, "6", None, math.inf):
            with pytest.raises(UsageError, match="points must be an integer"):
                sweep_config_from_dict(config_doc(points=bad))
        assert sweep_config_from_dict(config_doc(points=6.0)).points == 6

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
