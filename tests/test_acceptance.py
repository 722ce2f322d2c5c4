"""Acceptance suite: one test per exit criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
status lines.
"""

import itertools
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import pdmsim
from pdmsim import (
    Event,
    NoiseModel,
    Schedule,
    SweepConfig,
    ancilla_expectation,
    build_pdm,
    classify,
    expectation,
    expectation_oracle,
    f_tr,
    find_transition,
    make_channel,
    reduce_pdm,
    state_from_bloch,
    two_event_schedule,
    unitary_channel,
)
from pdmsim.verify import (
    GOLDEN_TWO_EVENT,
    GOLDEN_EIGENVALUES,
    golden_schedule,
    suite_convexity,
    suite_local_monotonicity,
    suite_unitary_invariance,
)

from conftest import haar_unitary, pdm_expectation, random_bloch, random_cptp, random_density, random_pure, random_schedule


def report(n, text):
    print(f"[PASS] criterion {n}: {text}")


def test_criterion_1_golden_two_event_pdm():
    build_pdm(golden_schedule())  # warm-up outside the timed run
    t0 = time.perf_counter()
    R = build_pdm(golden_schedule())
    elapsed = time.perf_counter() - t0
    assert np.max(np.abs(R.matrix - GOLDEN_TWO_EVENT)) <= 1e-12
    w = np.linalg.eigvalsh(R.matrix)
    assert np.max(np.abs(w - np.array(GOLDEN_EIGENVALUES))) <= 1e-10
    assert elapsed < 0.010
    report(1, f"golden two-event PDM exact, built in {elapsed * 1000:.2f} ms")


def test_criterion_2_ftr_one_closed_system():
    assert abs(f_tr(build_pdm(golden_schedule())) - 1.0) <= 1e-10
    rng = np.random.default_rng(42)
    states = [random_pure(1, rng) for _ in range(20)]
    unitaries = [haar_unitary(2, rng) for _ in range(20)]
    worst = 0.0
    for rho in states:
        for U in unitaries:
            s = two_event_schedule(rho, unitary_channel(U))
            worst = max(worst, abs(f_tr(build_pdm(s)) - 1.0))
    assert worst <= 1e-9
    report(2, f"f_tr = 1 for 400 pure-state/unitary combinations (max dev {worst:.2e})")


def test_criterion_3_spacelike_reduction():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        qubits = int(rng.integers(2, 4))
        rho = random_density(qubits, rng)
        events = tuple(Event(q + 1, q, 0) for q in range(qubits))
        R = build_pdm(Schedule(rho, events))
        worst = max(worst, float(np.max(np.abs(R.matrix - rho.matrix))))
        rep = classify(R)
        assert rep.classification == "spacelike_compatible"
        assert rep.f_tr == 0.0
    assert worst <= 1e-12
    report(3, f"50 single-slice schedules reduce to their density matrix (max dev {worst:.2e})")


def test_criterion_4_engine_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(200):
        rng = np.random.default_rng(1000 + k)
        s = random_schedule(rng)
        n = s.event_count
        assignments = {tuple(rng.integers(0, 4, size=n)) for _ in range(8)}
        assignments.add((0,) * n)
        for a in assignments:
            worst = max(worst, abs(expectation(s, a) - expectation_oracle(s, a)))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 30.0
    report(4, f"engine vs oracle on 200 schedules: max dev {worst:.2e} in {elapsed:.1f} s")


def test_criterion_5_ancilla_protocol():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(50):
        s = two_event_schedule(
            state_from_bloch(random_bloch(rng)), random_cptp(1, int(rng.integers(1, 5)), rng)
        )
        for a in itertools.product(range(4), repeat=2):
            worst = max(worst, abs(ancilla_expectation(s, a) - expectation(s, a)))
    assert worst <= 1e-10
    report(5, f"ancilla parity protocol matches the engine (max dev {worst:.2e})")


def test_criterion_6_dephasing_family():
    for gamma in np.linspace(0.02, 1.0, 50):
        R = build_pdm(
            two_event_schedule(state_from_bloch([0, 0, 1]), make_channel("dephasing", float(gamma)))
        )
        rep = classify(R)
        expected = sorted([-gamma / 2, 0.0, gamma / 2, 1.0])
        assert np.max(np.abs(np.array(rep.eigenvalues) - expected)) <= 1e-10
        assert abs(rep.f_tr - gamma) <= 1e-10
        assert rep.min_eigenvalue < 0.0
    report(6, "dephasing family spectrum {1, 0, +-gamma/2} and f_tr = gamma on 50-point grid")


def test_criterion_7_depolarizing_transition():
    cfg = SweepConfig(
        bloch=(0, 0, 0),
        noise=NoiseModel("depolarizing", tau=1.0),
        t_min=0.0,
        t_max=5.0,
        points=10,
    )
    t_star = find_transition(cfg)
    assert t_star is not None
    assert abs(t_star - math.log(3)) <= 1e-6
    report(7, f"transition at t* = {t_star:.8f} (ln 3 = {math.log(3):.8f}), lam* = 1/3")


def test_criterion_8_monotone_axioms():
    results = [
        suite_unitary_invariance(build_pdm(golden_schedule()), seed=0, trials=200),
        suite_local_monotonicity(build_pdm(golden_schedule()), seed=0, trials=200),
        suite_convexity(seed=0, trials=200),
    ]
    for r in results:
        assert r.passed, f"{r.name} deviation {r.max_deviation}"
        assert r.max_deviation <= 1e-9
    worst = max(r.max_deviation for r in results)
    report(8, f"200-trial unitary/local-ops/convexity suites clean (max dev {worst:.2e})")


def test_criterion_9_marginal_consistency():
    worst = 0.0
    for k in range(100):
        rng = np.random.default_rng(5000 + k)
        s = random_schedule(rng, max_events=3)
        while s.event_count != 3:
            s = random_schedule(rng, max_events=3)
        R = build_pdm(s)
        keep = sorted(rng.choice([1, 2, 3], size=int(rng.integers(1, 3)), replace=False))
        red = reduce_pdm(R, keep)
        for a in itertools.product(range(4), repeat=len(keep)):
            padded = [0] * 3
            for pos, label in zip(keep, a):
                padded[pos - 1] = label
            worst = max(worst, abs(pdm_expectation(red, a) - R.stored_expectations([padded])[0]))
    assert worst <= 1e-12
    report(9, f"100 reduced 3-event PDMs match identity-padded parents (max dev {worst:.2e})")


def test_criterion_10_verify_command_runtime():
    # The child process imports the same pdmsim as this test process.
    src = os.path.dirname(os.path.dirname(pdmsim.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pdmsim.cli", "verify", "--seed", "0", "--trials", "200"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all suites passed" in proc.stdout
    assert elapsed < 60.0
    report(10, f"`pdm verify` passed in {elapsed:.1f} s")
