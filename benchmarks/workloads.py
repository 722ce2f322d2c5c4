"""Seeded workloads for the pdmsim benchmark.

Every operation is one in-process call of ``pdmsim.cli.main`` (a ``pdm``
command) on input files that set-up generates from the seed; the program
sees only those files. Each workload also knows how to check an operation's
output. References for the checks are computed after the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from pdmsim import cli
from pdmsim.schedule import expectation_oracle
from pdmsim.serialize import schedule_from_dict

# Independent of the package's own tolerance constants, so that a change to
# the package's tolerance policy cannot loosen these checks.
SUM_TOL = 1e-9
# The build report prints matrix entries to 6 decimals; a trace against a
# 32x32 Pauli string sums 32 of them.
PRINTED_MATRIX_TOL = 1e-4
NEGATIVE_TOL = 1e-9
TRANSITION_TOL = 1e-6


@dataclass
class Output:
    """What one operation produced: exit codes, captured stdout and files it wrote."""

    codes: list
    stdout: list
    files: dict = field(default_factory=dict)


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() + err.getvalue()


def _pairs(M: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in M]


def _unit_vector(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _haar_unitary(dim: int, rng) -> np.ndarray:
    G = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    Q, R = np.linalg.qr(G)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def _random_mixed_state(dim: int, rng) -> np.ndarray:
    G = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = G @ G.conj().T
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


def _f_tr_of(eigs) -> float:
    value = float(np.sum(np.abs(eigs))) - 1.0
    return value if value > 1e-12 else 0.0


_PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _parse_build_report(text: str) -> dict:
    lines = text.splitlines()
    fields = {}
    rows = []
    for ln in lines:
        s = ln.strip()
        if s.startswith("[") and s.endswith("]"):
            rows.append([complex(v) for v in s[1:-1].split()])
        elif ":" in s:
            key, _, value = s.partition(":")
            fields[key] = value.strip()
    return {
        "events": int(fields["events"]),
        "matrix": np.array(rows, dtype=complex),
        "eigenvalues": [float(x) for x in fields["eigenvalues"].split(",")],
        "f_tr": float(fields["f_tr"]),
        "classification": fields["classification"],
    }


def _check_spectrum(eigs, f_tr: float, classification: str, where: str) -> list[str]:
    """Eigenvalues sum to 1, f_tr is sum |lambda| - 1, the class matches the sign of lambda_min."""
    errs = []
    if abs(sum(eigs) - 1.0) > SUM_TOL:
        errs.append(f"{where}: eigenvalues sum to {sum(eigs)!r}")
    if abs(f_tr - _f_tr_of(eigs)) > SUM_TOL:
        errs.append(f"{where}: f_tr {f_tr!r} != sum|lambda|-1 = {_f_tr_of(eigs)!r}")
    lam_min = min(eigs)
    if classification == "causal" and not lam_min < 0:
        errs.append(f"{where}: causal with lambda_min {lam_min!r}")
    if classification == "spacelike_compatible" and lam_min < -NEGATIVE_TOL:
        errs.append(f"{where}: spacelike_compatible with lambda_min {lam_min!r}")
    if classification not in ("causal", "spacelike_compatible"):
        errs.append(f"{where}: unknown classification {classification!r}")
    return errs


class Workload:
    """A pool of seeded jobs; operation ``i`` runs job ``i % cycle``."""

    name = ""
    why = ""
    cycle = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def write_json(self, name: str, doc: dict) -> str:
        p = self.path(name)
        with open(p, "w") as fh:
            json.dump(doc, fh)
        return p

    def generate(self) -> None:
        raise NotImplementedError

    def run(self, i: int) -> Output:
        raise NotImplementedError

    def collect(self, i: int, out: Output) -> None:
        """Read back files the operation wrote; called outside the timed region."""

    def check(self, i: int, out: Output) -> list[str]:
        raise NotImplementedError


class MultiEventBuild(Workload):
    name = "multi-event-build"
    why = (
        "pdm build on 5-event schedules (the event cap): the 4^n expectation loop and "
        "kron assembly do ~97% of the work, so the batched engine must show here"
    )
    cycle = 4
    EVENTS = 5
    ORACLE_ASSIGNMENTS = 3
    # The seed draws states, strengths, unitaries, gap order and qubits; the
    # shapes that set an operation's cost are fixed, so that the pool costs
    # the same on every seed. Job j's chain has these gap kinds, shuffled
    # (depolarizing has Kraus rank 4, the others rank 2) ...
    CHAIN_KINDS = (
        ("dephasing", "depolarizing", "amplitude_damping", "dephasing"),
        ("dephasing", "depolarizing", "amplitude_damping", "depolarizing"),
        ("dephasing", "depolarizing", "amplitude_damping", "amplitude_damping"),
        ("depolarizing", "depolarizing", "amplitude_damping", "amplitude_damping"),
    )
    # ... and its 3-qubit schedule has slices of these sizes, shuffled.
    SLICE_SIZES = ((3, 2), (2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1))

    def generate(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        self.jobs = []
        for j in range(self.cycle):
            chain = self.write_json(f"chain{j}.json", self._chain(rng, self.CHAIN_KINDS[j]))
            wide = self.write_json(f"wide{j}.json", self._three_qubit(rng, self.SLICE_SIZES[j]))
            picks = [tuple(int(x) for x in rng.integers(0, 4, size=self.EVENTS))
                     for _ in range(self.ORACLE_ASSIGNMENTS)]
            self.jobs.append(((chain, wide), picks))
        self._oracle: dict = {}

    def _chain(self, rng, kinds) -> dict:
        """One qubit measured 5 times; gaps are Kraus-rank 2-4 noise channels."""
        channels = []
        for k in rng.permutation(len(kinds)):
            kind = kinds[k]
            if rng.random() < 0.5:
                channels.append({"kind": kind, "param": float(rng.uniform(0.1, 0.9))})
            else:
                channels.append({"kind": kind, "tau": float(rng.uniform(0.5, 2.0)),
                                 "t": float(rng.uniform(0.1, 1.5))})
        bloch = _unit_vector(rng) * rng.uniform(0.2, 0.9)
        return {
            "qubits": 1,
            "initial_state": {"bloch": [float(x) for x in bloch]},
            "slices": [[{"id": k + 1, "qubit": 0}] for k in range(self.EVENTS)],
            "channels": channels,
        }

    def _three_qubit(self, rng, sizes) -> dict:
        """Three qubits, 5 events in 2-5 slices; gaps are Haar-random unitaries."""
        slices, eid = [], 1
        for size in (int(x) for x in rng.permutation(sizes)):
            qubits = rng.choice(3, size=size, replace=False)
            slices.append([{"id": eid + k, "qubit": int(q)} for k, q in enumerate(qubits)])
            eid += size
        return {
            "qubits": 3,
            "initial_state": {"matrix": _pairs(_random_mixed_state(8, rng))},
            "slices": slices,
            "channels": [{"kind": "unitary", "matrix": _pairs(_haar_unitary(8, rng))}
                         for _ in range(len(slices) - 1)],
        }

    def run(self, i: int) -> Output:
        out = Output([], [])
        for path in self.jobs[i % self.cycle][0]:
            code, text = run_cli(["build", path])
            out.codes.append(code)
            out.stdout.append(text)
        return out

    def _oracle_values(self, job: int) -> list[list[float]]:
        if job not in self._oracle:
            paths, picks = self.jobs[job]
            values = []
            for path in paths:
                with open(path) as fh:
                    s = schedule_from_dict(json.load(fh))
                values.append([expectation_oracle(s, a) for a in picks])
            self._oracle[job] = values
        return self._oracle[job]

    def check(self, i: int, out: Output) -> list[str]:
        job = i % self.cycle
        paths, picks = self.jobs[job]
        errs = []
        for path, code, text, refs in zip(paths, out.codes, out.stdout, self._oracle_values(job)):
            where = os.path.basename(path)
            if code != 0:
                errs.append(f"{where}: exit {code}: {text.strip()[-200:]}")
                continue
            try:
                report = _parse_build_report(text)
            except (ValueError, KeyError, IndexError) as exc:
                errs.append(f"{where}: unparsable report ({exc})")
                continue
            eigs, R = report["eigenvalues"], report["matrix"]
            if report["events"] != self.EVENTS or R.shape != (2**self.EVENTS,) * 2:
                errs.append(f"{where}: wrong size {report['events']} events, {R.shape}")
                continue
            errs += _check_spectrum(eigs, report["f_tr"], report["classification"], where)
            dev = float(np.max(np.abs(np.linalg.eigvalsh(R) - np.sort(eigs))))
            if dev > PRINTED_MATRIX_TOL:
                errs.append(f"{where}: eigenvalues differ from the printed matrix by {dev:.2e}")
            for a, ref in zip(picks, refs):
                P = np.array([[1.0]], dtype=complex)
                for label in a:
                    P = np.kron(P, _PAULIS[label])
                got = float(np.trace(P @ R).real)
                if abs(got - ref) > PRINTED_MATRIX_TOL:
                    errs.append(f"{where}: <{a}> = {got!r}, oracle {ref!r}")
        return errs


class TwoEventSweep(Workload):
    name = "two-event-sweep"
    why = (
        "pdm sweep (101 points, CSV+SVG) then pdm transition: ~380 tiny 4x4 PDMs per job, "
        "so per-PDM fixed costs dominate; an engine tuned for large n could get slower here"
    )
    cycle = 8
    POINTS = 101
    KINDS = ("depolarizing", "dephasing", "amplitude_damping", "composite")

    def generate(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        self.jobs = []
        for j in range(self.cycle):
            # The first four jobs (the traced ones) already mix both inputs;
            # the pool holds every kind with each input once.
            kind = self.KINDS[j % 4]
            mixed = (j // 4 + j) % 2 == 0
            tau = float(rng.uniform(0.5, 2.0))
            if kind == "composite":
                noise = {"kind": "composite", "members": [
                    {"kind": "dephasing", "tau": tau},
                    {"kind": "amplitude_damping", "tau": float(rng.uniform(0.5, 4.0))},
                ]}
            else:
                noise = {"kind": kind, "tau": tau}
            bloch = [0.0, 0.0, 0.0] if mixed else [
                float(x) for x in _unit_vector(rng) * rng.uniform(0.3, 0.9)]
            doc = {"initial_state": {"bloch": bloch}, "noise": noise,
                   "t_min": 0.0, "t_max": 5.0 * tau, "points": self.POINTS, "grid": "linear"}
            self.jobs.append((self.write_json(f"sweep{j}.json", doc), doc))

    def run(self, i: int) -> Output:
        j = i % self.cycle
        cfg, _ = self.jobs[j]
        out = Output([], [])
        for argv in (["sweep", cfg, "--csv", self.path(f"out{j}.csv"),
                      "--svg", self.path(f"out{j}.svg")],
                     ["transition", cfg]):
            code, text = run_cli(argv)
            out.codes.append(code)
            out.stdout.append(text)
        return out

    def collect(self, i: int, out: Output) -> None:
        j = i % self.cycle
        for ext in ("csv", "svg"):
            try:
                with open(self.path(f"out{j}.{ext}")) as fh:
                    out.files[ext] = fh.read()
                os.remove(self.path(f"out{j}.{ext}"))
            except FileNotFoundError:
                out.files[ext] = ""

    def check(self, i: int, out: Output) -> list[str]:
        _, doc = self.jobs[i % self.cycle]
        where = f"sweep{i % self.cycle}"
        errs = [f"{where}: {cmd} exit {c}: {t.strip()[-200:]}"
                for cmd, c, t in zip(("sweep", "transition"), out.codes, out.stdout) if c != 0]
        if errs:
            return errs
        errs += self._check_csv(out.files["csv"], doc, where)
        svg = out.files["svg"]
        if not (svg.startswith("<?xml") and svg.rstrip().endswith("</svg>")):
            errs.append(f"{where}: SVG is not a complete document")
        answer = out.stdout[1].strip()
        if answer != "none":
            try:
                t = float(answer)
            except ValueError:
                return errs + [f"{where}: transition printed {answer!r}"]
            if not doc["t_min"] <= t <= doc["t_max"]:
                errs.append(f"{where}: transition {t!r} outside the sweep range")
        if doc["noise"]["kind"] == "depolarizing" and doc["initial_state"]["bloch"] == [0.0] * 3:
            expected = doc["noise"]["tau"] * math.log(3)
            if answer == "none" or abs(float(answer) - expected) > TRANSITION_TOL:
                errs.append(f"{where}: transition {answer} != tau*ln3 = {expected!r}")
        return errs

    def _check_csv(self, text: str, doc: dict, where: str) -> list[str]:
        lines = text.strip().splitlines()
        if not lines:
            return [f"{where}: empty CSV"]
        header = lines[0].split(",")
        rows = [ln.split(",") for ln in lines[1:]]
        if len(rows) != self.POINTS:
            return [f"{where}: {len(rows)} CSV rows, expected {self.POINTS}"]
        lam = [k for k, h in enumerate(header) if h.startswith("lambda")]
        try:
            i_t, i_f, i_c = header.index("t"), header.index("f_tr"), header.index("classification")
            ts = [float(r[i_t]) for r in rows]
        except (ValueError, IndexError) as exc:
            return [f"{where}: malformed CSV ({exc})"]
        errs = []
        if abs(ts[0] - doc["t_min"]) > 1e-12 or abs(ts[-1] - doc["t_max"]) > 1e-12 * doc["t_max"]:
            errs.append(f"{where}: grid spans {ts[0]!r}..{ts[-1]!r}")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            errs.append(f"{where}: grid is not increasing")
        for r in rows:
            eigs = [float(r[k]) for k in lam]
            if eigs != sorted(eigs):
                errs.append(f"{where}: eigenvalues not ascending at t={r[i_t]}")
            errs += _check_spectrum(eigs, float(r[i_f]), r[i_c], f"{where} t={r[i_t]}")
            if errs:
                break
        return errs


class SelfVerify(Workload):
    name = "self-verify"
    why = (
        "pdm verify with a fresh seed per operation: single-assignment expectation against "
        "the branch oracle and ancilla protocol; build_pdm is only ~21% of the time"
    )
    TRIALS = 50

    def generate(self) -> None:
        # Suite seeds run from k to k + TRIALS - 1, so operations step by
        # TRIALS to give each one fresh schedules.
        self.base = self.seed * 1_000_000

    def run(self, i: int) -> Output:
        k = self.base + i * self.TRIALS
        code, text = run_cli(["verify", "--seed", str(k), "--trials", str(self.TRIALS)])
        return Output([code], [text])

    def check(self, i: int, out: Output) -> list[str]:
        if out.codes[0] != 0 or "all suites passed" not in out.stdout[0]:
            return [f"verify op {i}: exit {out.codes[0]}: {out.stdout[0].strip()[-300:]}"]
        return []


WORKLOADS = {w.name: w for w in (MultiEventBuild, TwoEventSweep, SelfVerify)}
