"""Property tests of the tolerance policy: "causal" holds exactly when f_tr > 0."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmsim import NoiseModel, SweepConfig, build_pdm, classify, make_channel, run_sweep
from pdmsim import state_from_bloch, two_event_schedule

from conftest import random_schedule

KINDS = ("dephasing", "depolarizing", "amplitude_damping")


def consistent(classification, value):
    return (classification == "causal") == (value > 0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_schedules(seed):
    rep = classify(build_pdm(random_schedule(np.random.default_rng(seed))))
    assert consistent(rep.classification, rep.f_tr)


@settings(max_examples=100, deadline=None)
@given(lam=st.floats(1 / 3 - 1e-8, 1 / 3 + 1e-8))
def test_depolarizing_near_threshold(lam):
    s = two_event_schedule(state_from_bloch([0, 0, 0]), make_channel("depolarizing", lam))
    rep = classify(build_pdm(s))
    assert consistent(rep.classification, rep.f_tr)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    tau=st.floats(0.1, 10.0),
    r=st.floats(0.0, 1.0),
    theta=st.floats(0.0, math.pi),
    phi=st.floats(0.0, 2 * math.pi),
    points=st.integers(2, 30),
)
def test_sweep_rows(kind, tau, r, theta, phi, points):
    bloch = (r * math.sin(theta) * math.cos(phi), r * math.sin(theta) * math.sin(phi), r * math.cos(theta))
    cfg = SweepConfig(bloch, NoiseModel(kind, tau=tau), 0.0, 5.0 * tau, points)
    sweep = run_sweep(cfg)
    for causal, value in zip(sweep.causal.tolist(), sweep.f_tr.tolist()):
        assert consistent("causal" if causal else "spacelike_compatible", value)


@settings(max_examples=40, deadline=None)
@given(offset=st.floats(-1e-8, 1e-8), width=st.floats(1e-9, 1e-7), points=st.integers(2, 30))
def test_sweep_rows_around_the_depolarizing_transition(offset, width, points):
    # A mixed input under depolarizing noise (tau = 1) turns spacelike at t = ln 3.
    t_min = math.log(3) + offset
    cfg = SweepConfig((0, 0, 0), NoiseModel("depolarizing", tau=1.0), t_min, t_min + width, points)
    sweep = run_sweep(cfg)
    for causal, value in zip(sweep.causal.tolist(), sweep.f_tr.tolist()):
        assert consistent("causal" if causal else "spacelike_compatible", value)
