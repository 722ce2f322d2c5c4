import dataclasses
import hashlib
import json
import math
import pathlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pdmsim import NoiseModel, Sweep, SweepConfig, UsageError, emit_svg, find_transition, rows_to_csv, run_sweep
from pdmsim import build_pdm, classify, make_channel, reduce_pdm, state_from_bloch, two_event_schedule
from pdmsim import channels
from pdmsim.schedule import Event, Schedule
from pdmsim.serialize import load_json, schedule_from_dict
from pdmsim.cli import format_matrix_rows, main
from pdmsim.sweep import CSV_HEADER, MAX_SWEEP_POINTS, _fmt, _points

from conftest import random_schedule


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def csv_rows(text):
    """The sweep a CSV holds under its header line; every row's label is one of the two."""
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    cells = [line.split(",") for line in lines[1:]]
    labels = [row[-1] for row in cells]
    assert set(labels) <= {"causal", "spacelike_compatible"}
    values = np.array([[float(v) for v in row[:-1]] for row in cells]).reshape(-1, 6)
    return Sweep(values[:, 0], values[:, 1:5], values[:, 5], [label == "causal" for label in labels])


GOLDEN_DOC = {
    "qubits": 1,
    "initial_state": {"bloch": [0, 0, 1]},
    "slices": [[{"id": 1, "qubit": 0}], [{"id": 2, "qubit": 0}]],
    "channels": [None],
}


#: ``pdm verify`` output, pinned.
VERIFY_SEED_0 = (
    "[PASS] golden_two_event: max deviation 0.000e+00\n"
    "[PASS] engine_vs_oracle: max deviation 1.110e-16\n"
    "[PASS] ancilla_protocol: max deviation 7.772e-16\n"
    "[PASS] closed_form_two_event: max deviation 5.551e-17\n"
    "[PASS] unitary_invariance: max deviation 8.882e-16\n"
    "[PASS] local_monotonicity: max deviation 0.000e+00\n"
    "[PASS] convexity: max deviation 0.000e+00\n"
    "all suites passed\n"
)
VERIFY_SEED_1E6 = (
    "[PASS] golden_two_event: max deviation 0.000e+00\n"
    "[PASS] engine_vs_oracle: max deviation 3.331e-16\n"
    "[PASS] ancilla_protocol: max deviation 7.772e-16\n"
    "[PASS] closed_form_two_event: max deviation 1.110e-16\n"
    "[PASS] unitary_invariance: max deviation 1.110e-15\n"
    "[PASS] local_monotonicity: max deviation 8.882e-16\n"
    "[PASS] convexity: max deviation 0.000e+00\n"
    "all suites passed\n"
)


def nested_composite_config(depth):
    """A sweep config's bytes whose noise nests ``depth`` composites; ``json.dumps`` cannot write that deep."""
    noise = '{"kind": "dephasing", "tau": 1.0}'
    for _ in range(depth):
        noise = '{"kind": "composite", "members": [' + noise + "]}"
    return ('{"initial_state": {"bloch": [0, 0, 1]}, "noise": ' + noise + ', "t_min": 0, "t_max": 1, "points": 5}').encode()


def sweep_doc(bloch, kind, tau, t_min, t_max, points):
    return {
        "initial_state": {"bloch": list(bloch)},
        "noise": {"kind": kind, "tau": tau},
        "t_min": t_min,
        "t_max": t_max,
        "points": points,
    }


class TestBuild:
    def test_golden_report(self, tmp_path, capsys):
        path = write(tmp_path / "golden.json", GOLDEN_DOC)
        assert main(["build", path]) == 0
        out = capsys.readouterr().out
        lines = {ln.split(":")[0]: ln.split(":", 1)[1] for ln in out.splitlines() if ":" in ln}
        eig = [float(v) for v in lines["eigenvalues"].split(",")]
        assert np.allclose(eig, [-0.5, 0, 0.5, 1], atol=1e-10)
        assert float(lines["f_tr"]) == pytest.approx(1.0, abs=1e-10)
        assert lines["classification"].strip() == "causal"

    def test_spacelike_product_schedule(self, tmp_path, capsys):
        rho = np.kron(np.diag([1, 0]), np.diag([0.5, 0.5])).astype(complex)
        doc = {
            "qubits": 2,
            "initial_state": {"matrix": [[[v.real, v.imag] for v in row] for row in rho]},
            "slices": [[{"id": 1, "qubit": 0}, {"id": 2, "qubit": 1}]],
        }
        assert main(["build", write(tmp_path / "s.json", doc)]) == 0
        out = capsys.readouterr().out
        assert "classification: spacelike_compatible" in out
        assert "f_tr: 0.0" in out

    def test_subthreshold_depolarizing(self, tmp_path, capsys):
        doc = dict(
            GOLDEN_DOC,
            initial_state={"bloch": [0, 0, 0]},
            channels=[{"kind": "depolarizing", "param": 0.2}],
        )
        assert main(["build", write(tmp_path / "s.json", doc)]) == 0
        out = capsys.readouterr().out
        assert "f_tr: 0.0" in out
        assert "classification: spacelike_compatible" in out

    def test_out_file(self, tmp_path, capsys):
        path = write(tmp_path / "golden.json", GOLDEN_DOC)
        out_path = tmp_path / "report.txt"
        assert main(["build", path, "--out", str(out_path)]) == 0
        assert out_path.read_text() == capsys.readouterr().out

    def test_parse_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json {")
        assert main(["build", str(bad)]) == 2
        assert main(["build", str(tmp_path / "missing.json")]) == 2

    @pytest.mark.parametrize(
        "command, text",
        [
            ("build", b'{"qubits": "\xff"}'),
            ("build", b"[" * 100_000),
            ("transition", nested_composite_config(700)),
        ],
        ids=["not-utf8", "nested-arrays", "nested-composites"],
    )
    def test_undecodable_or_over_nested_input_exit_2(self, tmp_path, capsys, command, text):
        # Exit 1 is the verification-failure code; a file the parser cannot
        # decode or nest is a usage error that names the file.
        path = tmp_path / "doc.json"
        path.write_bytes(text)
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path} is not valid JSON: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, text, key",
        [
            (
                "build",
                json.dumps(GOLDEN_DOC)[:-1] + ', "channels": [{"kind": "depolarizing", "param": 0.0}]}',
                "channels",
            ),
            ("build", json.dumps(GOLDEN_DOC).replace('"bloch": [0, 0, 1]', '"bloch": [0, 0, 1], "bloch": [1, 0, 0]'), "bloch"),
            ("transition", '{"noise": {"kind": "dephasing", "tau": 1.0, "tau": 2.0}}', "tau"),
        ],
        ids=["top-level", "initial-state", "sweep-noise"],
    )
    def test_repeated_key_exit_2(self, tmp_path, capsys, command, text, key):
        # Letting the last copy win would read a file other than as written;
        # a schedule that lists its channels twice once dropped a gap unseen.
        path = tmp_path / "doc.json"
        path.write_text(text)
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path} repeats the key {key!r} in one object\n"

    def test_invariant_violation_exit_3(self, tmp_path):
        doc = dict(GOLDEN_DOC, initial_state={"matrix": [[[0.9, 0], [0, 0]], [[0, 0], [0.5, 0]]]})
        assert main(["build", write(tmp_path / "s.json", doc)]) == 3

    @pytest.mark.parametrize(
        "change, named",
        [
            ({"chanels": [{"kind": "dephasing", "param": 0.1}]}, "'chanels'"),
            ({"initial_state": {"bloch": [0, 0, 1], "pure": True}}, "'pure'"),
            ({"slices": [[{"id": 1, "qubit": 0, "label": 3}], [{"id": 2, "qubit": 0}]]}, "'label'"),
            ({"channels": [{"kind": "dephasing", "param": 0.1, "tau": 1.0}]}, "'tau'"),
            ({"channels": [{"kind": "dephasing", "tau": 1.0, "t": 0.5, "rate": 2}]}, "'rate'"),
            ({"channels": [{"kind": "identity", "param": 0.1}]}, "'param'"),
            ({"initial_state": {"bloch": ["a", 0, 0]}}, "'bloch'"),
            ({"slices": [[{"id": "one", "qubit": 0}], [{"id": 2, "qubit": 0}]]}, "'id'"),
            ({"slices": [[{"id": 1.5, "qubit": 0}], [{"id": 2, "qubit": 0}]]}, "'id'"),
            ({"slices": [[{"id": 1, "qubit": "q0"}], [{"id": 2, "qubit": 0}]]}, "'qubit'"),
            ({"qubits": "one"}, "'qubits'"),
            ({"channels": [{"kind": "dephasing", "param": "strong"}]}, "'param'"),
            ({"channels": [{"kind": "dephasing", "tau": "slow", "t": 1.0}]}, "'tau'"),
            ({"channels": [{"kind": "dephasing", "tau": 1.0, "t": None}]}, "'t'"),
            ({"channels": None}, "channels must be a list"),
        ],
        ids=[
            "top-level-key",
            "initial-state-key",
            "event-key",
            "channel-key",
            "timed-channel-key",
            "identity-channel-key",
            "bloch",
            "id",
            "fractional-id",
            "qubit",
            "qubits",
            "param",
            "tau",
            "t",
            "channels-not-a-list",
        ],
    )
    def test_malformed_schedule_exit_2(self, tmp_path, capsys, change, named):
        assert main(["build", write(tmp_path / "s.json", dict(GOLDEN_DOC, **change))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["initial_state", "unitary descriptor"])
    def test_non_finite_matrix_exit_2(self, tmp_path, capsys, field, value):
        # A NaN entry fails every comparison, so it must be rejected by name
        # before it reaches the unitarity or PDM checks.
        if field == "initial_state":
            change = {"initial_state": {"matrix": [[[1, 0], [0, 0]], [[0, 0], [value, 0]]]}}
        else:
            change = {"channels": [{"kind": "unitary", "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, value]]]}]}
        assert main(["build", write(tmp_path / "s.json", dict(GOLDEN_DOC, **change))]) == 2
        assert f"error: {field} field 'matrix' entry [1][1] is not finite" in capsys.readouterr().err


    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        # Exit 1 is the verification-failure code; a bad output path is a usage error.
        out_path = tmp_path / "missing" / "r.txt"
        assert main(["build", write(tmp_path / "golden.json", GOLDEN_DOC), "--out", str(out_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out_path}: ")

    @pytest.mark.parametrize(
        "qubits, field, dim, message",
        [
            (1, "initial_state", 4, "initial state dim 4 does not match 1 qubits"),
            (1, "initial_state", 3, "initial state dim 3 does not match 1 qubits"),
            (2, "initial_state", 3, "initial state dim 3 does not match 2 qubits"),
            (2, "channels", 2, "unitary dimension does not match the system"),
            (1, "channels", 3, "unitary dimension does not match the system"),
            (10**10, "initial_state", 2, "initial state dim 2 does not match 10000000000 qubits"),
        ],
    )
    def test_matrix_dimension_mismatch_exit_2(self, tmp_path, capsys, qubits, field, dim, message):
        # The file's qubit count is compared with the matrix's, never raised to
        # a power, so 10^10 qubits is an ordinary usage error.
        def pairs(M):
            return [[[v, 0.0] for v in row] for row in M.tolist()]

        state_dim = dim if field == "initial_state" else 2**qubits
        doc = dict(GOLDEN_DOC, qubits=qubits, initial_state={"matrix": pairs(np.eye(state_dim) / state_dim)})
        if field == "channels":
            doc["channels"] = [{"kind": "unitary", "matrix": pairs(np.eye(dim))}]
        assert main(["build", write(tmp_path / "s.json", doc)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestSweep:
    def test_dephasing_csv_values(self, tmp_path, capsys):
        cfg = write(tmp_path / "cfg.json", sweep_doc((0, 0, 1), "dephasing", 1.0, 0.0, 5.0, 6))
        csv = tmp_path / "out.csv"
        assert main(["sweep", cfg, "--csv", str(csv)]) == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 7
        for i, line in enumerate(lines[1:]):
            parts = line.split(",")
            assert float(parts[0]) == pytest.approx(float(i))
            assert float(parts[5]) == pytest.approx(math.exp(-i), abs=1e-10)
            assert parts[6] == "causal"

    def test_depolarizing_classification_split(self, tmp_path):
        cfg = write(tmp_path / "cfg.json", sweep_doc((0, 0, 0), "depolarizing", 1.0, 0.0, 5.0, 101))
        csv = tmp_path / "out.csv"
        assert main(["sweep", cfg, "--csv", str(csv)]) == 0
        sweep = csv_rows(csv.read_text())
        for t, causal in zip(sweep.t, sweep.causal):
            if t < math.log(3) - 1e-9:
                assert causal
            elif t > math.log(3) + 1e-9:
                assert not causal

    def test_first_row_reproduces_closed_system(self, tmp_path):
        cfg = write(tmp_path / "cfg.json", sweep_doc((0, 0, 1), "depolarizing", 1.0, 0.0, 1.0, 2))
        csv = tmp_path / "out.csv"
        assert main(["sweep", cfg, "--csv", str(csv)]) == 0
        sweep = csv_rows(csv.read_text())
        assert sweep.f_tr[0] == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(sweep.eigenvalues[0], [-0.5, 0, 0.5, 1], atol=1e-10)

    def test_csv_round_trip_reclassification(self, tmp_path):
        cfg = write(tmp_path / "cfg.json", sweep_doc((0, 0, 0), "depolarizing", 1.0, 0.0, 3.0, 40))
        csv = tmp_path / "out.csv"
        assert main(["sweep", cfg, "--csv", str(csv)]) == 0
        sweep = csv_rows(csv.read_text())
        for w, causal in zip(sweep.eigenvalues, sweep.causal):
            assert causal == (w[0] < -1e-10)

    def test_determinism(self, tmp_path):
        cfg = write(tmp_path / "cfg.json", sweep_doc((0, 0, 0), "depolarizing", 1.0, 0.0, 4.0, 25))
        out = []
        for tag in ("a", "b"):
            csv, svg = tmp_path / f"{tag}.csv", tmp_path / f"{tag}.svg"
            assert main(["sweep", cfg, "--csv", str(csv), "--svg", str(svg)]) == 0
            out.append((csv.read_bytes(), svg.read_bytes()))
        assert out[0] == out[1]

    def test_missing_csv_path_exit_2(self, tmp_path):
        cfg = write(tmp_path / "cfg.json", sweep_doc((0, 0, 0), "depolarizing", 1.0, 0.0, 4.0, 5))
        assert main(["sweep", cfg]) == 2

    def test_bad_config_exit_2(self, tmp_path):
        cfg = write(tmp_path / "cfg.json", sweep_doc((0, 0, 0), "depolarizing", 1.0, 4.0, 0.0, 5))
        assert main(["sweep", cfg, "--csv", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("command", ["sweep", "transition"])
    def test_non_finite_unitary_noise_exit_2(self, tmp_path, capsys, command):
        doc = sweep_doc((0, 0, 0), "depolarizing", 1.0, 0.0, 1.0, 5)
        unitary = {"kind": "unitary", "matrix": [[[math.nan, 0], [0, 0]], [[0, 0], [1, 0]]]}
        doc["noise"] = {"kind": "composite", "members": [doc["noise"], unitary]}
        argv = [command, write(tmp_path / "cfg.json", doc)]
        assert main(argv + (["--csv", str(tmp_path / "x.csv")] if command == "sweep" else [])) == 2
        assert "unitary noise descriptor field 'matrix' entry [0][0] is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["csv", "svg"])
    @pytest.mark.parametrize("value", [1, True, ["a"], {"path": "x.csv"}])
    def test_non_string_output_path_exit_2(self, tmp_path, capsys, key, value):
        # 1 and true once named file descriptor 1, which the sweep then closed.
        doc = dict(sweep_doc((0, 0, 0), "depolarizing", 1.0, 0.0, 1.0, 5), **{key: value})
        assert main(["sweep", write(tmp_path / "cfg.json", doc), "--csv", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert f"sweep config field {key!r} must be a path string or null" in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("where", ["flag", "config"])
    @pytest.mark.parametrize("key", ["csv", "svg"])
    def test_unwritable_output_path_exit_2(self, tmp_path, capsys, key, where):
        # Exit 1 is the verification-failure code; a bad output path is a usage error.
        bad = tmp_path / "missing" / f"x.{key}"
        paths = {"csv": str(tmp_path / "x.csv"), key: str(bad)}
        doc = sweep_doc((0, 0, 0), "depolarizing", 1.0, 0.0, 1.0, 5)
        argv = ["sweep"]
        if where == "flag":
            argv += ["--csv", paths["csv"]] + (["--svg", paths["svg"]] if key == "svg" else [])
        else:
            doc.update(paths)
        assert main(argv[:1] + [write(tmp_path / "cfg.json", doc)] + argv[1:]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {bad}: ")
        assert captured.out == ""
        # Every file is opened before any is written: no CSV is left behind.
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("existing", [False, True])
    @pytest.mark.parametrize("svg", ["./out.txt", "out.txt"])
    def test_two_names_for_one_file_exit_2(self, tmp_path, monkeypatch, capsys, svg, existing):
        # Written one after the other, the SVG would replace the CSV that the
        # sweep reports having written.
        monkeypatch.chdir(tmp_path)
        cfg = write(tmp_path / "cfg.json", sweep_doc((0, 0, 0), "depolarizing", 1.0, 0.0, 1.0, 5))
        if existing:
            (tmp_path / "out.txt").write_text("old\n")
        assert main(["sweep", cfg, "--csv", "out.txt", "--svg", svg]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: out.txt and {svg} name the same file\n"
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"] + ["out.txt"] * existing
        if existing:
            assert (tmp_path / "out.txt").read_text() == "old\n"

    def test_unwritable_svg_path_keeps_an_existing_csv(self, tmp_path, capsys):
        csv = tmp_path / "x.csv"
        csv.write_text("old\n")
        cfg = write(tmp_path / "cfg.json", sweep_doc((0, 0, 0), "depolarizing", 1.0, 0.0, 1.0, 5))
        assert main(["sweep", cfg, "--csv", str(csv), "--svg", str(tmp_path / "missing" / "x.svg")]) == 2
        assert csv.read_text() == "old\n"
        # Written again with a good SVG path, it holds only the new rows.
        assert main(["sweep", cfg, "--csv", str(csv), "--svg", str(tmp_path / "x.svg")]) == 0
        assert len(csv_rows(csv.read_text()).t) == 5

    def test_null_output_paths_are_absent(self, tmp_path, capsys):
        doc = dict(sweep_doc((0, 0, 0), "depolarizing", 1.0, 0.0, 1.0, 5), csv=None, svg=None)
        csv = tmp_path / "x.csv"
        assert main(["sweep", write(tmp_path / "cfg.json", doc), "--csv", str(csv)]) == 0
        assert len(csv_rows(csv.read_text()).t) == 5

    def test_overflowing_t_max_exit_2(self, tmp_path, capsys):
        # JSON 1e400 parses to inf; it must be rejected by name, not run.
        text = json.dumps(sweep_doc((0, 0, 0), "depolarizing", 1.0, 0.0, 1.0, 5))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text.replace('"t_max": 1.0', '"t_max": 1e400'))
        assert main(["sweep", str(cfg), "--csv", str(tmp_path / "x.csv")]) == 2
        assert "field 't_max' must be a finite number, got inf" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["sweep", "transition"])
    def test_too_many_points_exit_2(self, tmp_path, capsys, command):
        cfg = write(tmp_path / "cfg.json", sweep_doc((0, 0, 0), "depolarizing", 1.0, 0.0, 1.0, 2**62))
        assert main([command, cfg]) == 2
        assert f"points must be at most {MAX_SWEEP_POINTS}" in capsys.readouterr().err

    def test_composite_over_kraus_budget_exit_2(self, tmp_path, capsys, monkeypatch):
        # 4^9 operators at each of the scan's 256 times would be ~4.3 GB; nothing may be built.
        monkeypatch.setattr(channels, "_kraus_at", lambda model, ts: pytest.fail("built past the budget"))
        doc = sweep_doc((0, 0, 0), "depolarizing", 1.0, 0.0, 1.0, 5)
        doc["noise"] = {"kind": "composite", "members": [{"kind": "depolarizing", "tau": 1.0}] * 9}
        assert main(["transition", write(tmp_path / "cfg.json", doc)]) == 2
        assert "a composite of 9 members" in capsys.readouterr().err


class TestTransition:
    def test_depolarizing_mixed_ln3(self, tmp_path, capsys):
        cfg = write(tmp_path / "cfg.json", sweep_doc((0, 0, 0), "depolarizing", 1.0, 0.0, 5.0, 10))
        assert main(["transition", cfg]) == 0
        t = float(capsys.readouterr().out.strip())
        assert t == pytest.approx(math.log(3), abs=1e-6)

    def test_dephasing_has_no_transition(self, tmp_path, capsys):
        cfg = write(tmp_path / "cfg.json", sweep_doc((0, 0, 1), "dephasing", 1.0, 0.0, 5.0, 10))
        assert main(["transition", cfg]) == 0
        assert capsys.readouterr().out.strip() == "none"

    def test_depolarizing_pure_input_no_transition_on_interval(self, tmp_path, capsys):
        # With a pure initial state the minimum eigenvalue behaves like
        # -lam^2/2 for small lam: strictly negative for every finite time, so
        # no threshold crossing exists on [0, 5]. A sharp transition needs a
        # mixed initial state.
        cfg = write(tmp_path / "cfg.json", sweep_doc((0, 0, 1), "depolarizing", 1.0, 0.0, 5.0, 10))
        assert main(["transition", cfg]) == 0
        assert capsys.readouterr().out.strip() == "none"

    def test_sweep_transition_consistency(self):
        cfg = SweepConfig(
            bloch=(0, 0, 0),
            noise=NoiseModel("depolarizing", tau=1.0),
            t_min=0.0,
            t_max=5.0,
            points=1000,
        )
        t_star = find_transition(cfg)
        sweep = run_sweep(cfg)
        last_causal = max(sweep.t[sweep.causal])
        first_space = min(sweep.t[~sweep.causal])
        assert last_causal <= t_star <= first_space


_MIXED_2Q = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
_SWEEP = sweep_doc((0, 0, 1), "dephasing", 1.0, 0.0, 2.0, 5)


def _golden_state():
    return state_from_bloch([0, 0, 1])


#: One input error a line: what runs it (a CLI command on a document, or a
#: library call) and the message that names the problem.
INPUT_ERRORS = {
    "matrix-not-pairs": (
        "build",
        dict(GOLDEN_DOC, initial_state={"matrix": [[1, 0], [0, 1]]}),
        "initial_state field 'matrix' must be a square array of [re, im] pairs",
    ),
    "empty-slices": ("build", dict(GOLDEN_DOC, slices=[]), "slices must be a nonempty list of event lists"),
    "slice-not-a-list": (
        "build",
        dict(GOLDEN_DOC, slices=[{"id": 1, "qubit": 0}], channels=[]),
        "slice 0 must be a nonempty event list",
    ),
    "no-qubits": ("build", dict(GOLDEN_DOC, qubits=0), "qubits must be >= 1"),
    "bloch-on-2-qubits": ("build", dict(GOLDEN_DOC, qubits=2), "a bloch-vector initial state requires a 1-qubit system"),
    "state-without-bloch-or-matrix": (
        "build",
        dict(GOLDEN_DOC, initial_state={}),
        "initial_state must carry either 'bloch' or 'matrix'",
    ),
    "noise-gap-on-2-qubits": (
        "build",
        dict(
            GOLDEN_DOC,
            qubits=2,
            initial_state={"matrix": _MIXED_2Q},
            channels=[{"kind": "dephasing", "param": 0.1}],
        ),
        "dephasing gap channel requires a 1-qubit schedule",
    ),
    "top-level-array": ("build", [GOLDEN_DOC], "must contain a JSON object"),
    "negative-t-min": ("transition", dict(_SWEEP, t_min=-1.0), "t_min must be >= 0"),
    "unknown-grid": ("transition", dict(_SWEEP, grid="cubic"), "grid must be 'linear' or 'log', got 'cubic'"),
    "log-grid-from-0": ("transition", dict(_SWEEP, grid="log"), "log grid requires t_min > 0"),
    "one-point": ("transition", dict(_SWEEP, points=1), "points must be >= 2"),
    "unknown-noise-kind": (
        "transition",
        dict(_SWEEP, noise={"kind": "bitflip", "tau": 1.0}),
        "unknown noise kind 'bitflip'",
    ),
    "non-bloch-sweep-state": (
        "transition",
        dict(_SWEEP, initial_state={"matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}),
        "sweep config initial_state must carry a bloch vector",
    ),
    "slice-indices-0-and-2": (
        lambda: Schedule(_golden_state(), (Event(1, 0, 0), Event(2, 0, 2))),
        None,
        "slice indices must be contiguous 0..S-1, got [0, 2]",
    ),
    "two-channels-for-one-gap": (
        lambda: Schedule(_golden_state(), (Event(1, 0, 0), Event(2, 0, 1)), (None, make_channel("dephasing", 0.5))),
        None,
        "expected 1 inter-slice channels, got 2",
    ),
    "reduce-to-a-missing-event": (
        lambda: reduce_pdm(build_pdm(two_event_schedule(_golden_state(), None)), {5}),
        None,
        "keep ids [5] out of range 1..2",
    ),
    # A JSON list or object is no family name, and looking it up raises no TypeError.
    "list-channel-kind": (
        "build",
        dict(GOLDEN_DOC, channels=[{"kind": ["dephasing"], "param": 0.5}]),
        "unknown channel kind ['dephasing']",
    ),
    "object-noise-kind": (
        "transition",
        dict(_SWEEP, noise={"kind": {"name": "dephasing"}, "tau": 1.0}),
        "unknown noise kind {'name': 'dephasing'}",
    ),
    "list-model-kind": (lambda: NoiseModel(["dephasing"], tau=1.0), None, "unknown noise model kind ['dephasing']"),
    # A member of the wrong type is refused when the object is made, not met later as an AttributeError.
    "event-not-an-Event": (
        lambda: Schedule(_golden_state(), (Event(1, 0, 0), (2, 0, 1))),
        None,
        "events must be Event records, got (2, 0, 1)",
    ),
    "gap-not-a-channel": (
        lambda: Schedule(_golden_state(), (Event(1, 0, 0), Event(2, 0, 1)), ("dephasing",)),
        None,
        "inter_slice_channels[0] must be a KrausChannel or None, got 'dephasing'",
    ),
    "composite-member-not-a-model": (
        lambda: NoiseModel("composite", members=[NoiseModel("dephasing", tau=1.0), "dephasing"]),
        None,
        "composite members must be noise models, got 'dephasing'",
    ),
    "sweep-noise-not-a-model": (
        lambda: SweepConfig((0, 0, 0), {"kind": "dephasing", "tau": 1.0}, 0.0, 1.0, 3),
        None,
        "noise must be a NoiseModel, got {'kind': 'dephasing', 'tau': 1.0}",
    ),
    # Each eigenvalue column is drawn in its own colour, and there are 6.
    "svg-of-8-eigenvalue-columns": (
        lambda: emit_svg(Sweep(np.linspace(0.0, 1.0, 3), np.zeros((3, 8)), np.zeros(3), [False] * 3)),
        None,
        "SVG output draws at most 6 eigenvalue columns, got 8",
    ),
}


@pytest.mark.parametrize("run, doc, message", INPUT_ERRORS.values(), ids=INPUT_ERRORS.keys())
def test_input_error_names_the_problem(tmp_path, capsys, run, doc, message):
    # A document error exits 2 at the CLI; a library call raises UsageError. Both name the problem.
    if callable(run):
        with pytest.raises(UsageError, match=re.escape(message)):
            run()
    else:
        assert main([run, write(tmp_path / "doc.json", doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, err


def entrywise_rows(M):
    """The per-entry report formula that ``format_matrix_rows`` replaces."""
    return ["  [" + "  ".join(f"{v.real:+.6f}{v.imag:+.6f}j" for v in row) + "]" for row in M]


def complex_matrix(re, im):
    """A complex matrix with these parts, set apart so that inf and NaN parts stay as given."""
    M = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), dtype=complex)
    M.real, M.imag = re, im
    return M


class TestMatrixFormat:
    EDGES = [0.0, -0.0, 2.5e-7, -2.5e-7, 4.9999995e-7, -4.9999995e-7, 5e-7, -5e-7]
    EDGES += [0.1234565, -0.1234565, 1e300, -1e300]
    #: Parts the fast path leaves to the ``%`` fallback, or that sit at its bounds.
    SPECIAL = [0.0, -0.0, 9.4999999, -9.4999999, 9.5, 9.9999995, -9.9999995, 1e300, -1e300]
    SPECIAL += [np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1.7976931348623157e308]

    @pytest.mark.parametrize("dim", [1, 2, 4, 32])
    def test_random_matrices_match_entrywise_formula(self, dim):
        rng = np.random.default_rng(dim)
        for scale in (1e-6, 1.0, 1e3):
            M = scale * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
            assert format_matrix_rows(M) == entrywise_rows(M)

    def test_edge_values_match_entrywise_formula(self):
        vals = np.array(self.EDGES)
        M = (vals[:, None] + 1j * vals[None, :]).astype(complex)
        M.imag[:, 1] = -0.0  # complex(re, -0.0) keeps the sign of the zero
        assert format_matrix_rows(M) == entrywise_rows(M)
        assert "-0.000000" in format_matrix_rows(M)[1]

    def test_ties_and_their_neighbours(self):
        # (k + 0.5) * 1e-6 lies just above or below the decimal tie, yet times
        # 1e6 it often rounds to the half itself; k / 128 for odd k is an
        # exact binary tie at the seventh decimal, which % rounds to even.
        k = np.arange(0, 9_500_000, 7919)
        near = (k + 0.5) * 1e-6
        exact = np.arange(1, 1216, 2) / 128
        for ties in (near, exact):
            vals = np.concatenate([ties, np.nextafter(ties, 0), np.nextafter(ties, 10)])
            vals = np.concatenate([vals, -vals])
            rng = np.random.default_rng(len(vals))
            for re, im in ((vals, rng.normal(size=len(vals))), (rng.normal(size=len(vals)), vals)):
                M = complex_matrix(re.reshape(-1, 6), im.reshape(-1, 6))
                assert format_matrix_rows(M) == entrywise_rows(M)

    def test_special_values_mix_fallback_and_fast_rows(self):
        rng = np.random.default_rng(5)
        re, im = rng.normal(size=(2, 40, 7))
        for n, v in enumerate(self.SPECIAL):
            # Row 2n holds v in one part; row 2n + 1 stays ordinary.
            (re if n % 2 else im)[2 * n % 40, n % 7] = v
        M = complex_matrix(re, im)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = format_matrix_rows(M)
        assert rows == entrywise_rows(M)
        assert all(any(word in r for r in rows) for word in ("nan", "-inf", "-0.000000", "+9.500000"))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (3, 17), (17, 3), (512, 512)])
    def test_shapes(self, shape):
        rng = np.random.default_rng(shape)
        M = complex_matrix(*rng.normal(size=(2,) + shape) / np.sqrt(shape[1]))
        assert format_matrix_rows(M) == entrywise_rows(M)

    def test_empty_shapes(self):
        assert format_matrix_rows(np.zeros((0, 3))) == []
        assert format_matrix_rows(np.zeros((2, 0))) == ["  []", "  []"]

    @settings(max_examples=200, deadline=None)
    @given(
        parts=hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(1, 6), st.just(2)),
            elements=st.one_of(st.floats(-10, 10), st.floats(allow_nan=False, allow_infinity=False)),
        )
    )
    def test_finite_floats_match_entrywise_formula(self, parts):
        M = complex_matrix(parts[..., 0], parts[..., 1])
        assert format_matrix_rows(M) == entrywise_rows(M)

    def test_report_matrix_lines(self, tmp_path, capsys):
        path = write(tmp_path / "golden.json", GOLDEN_DOC)
        assert main(["build", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2:6] == entrywise_rows(build_pdm(schedule_from_dict(GOLDEN_DOC)).matrix)


def reference_report(R) -> str:
    """``pdm build``'s report of the PDM R, its matrix rows written by ``entrywise_rows``."""
    rep = classify(R)
    lines = [f"events: {R.event_count}", "matrix:", *entrywise_rows(R.matrix)]
    lines.append("eigenvalues: " + ", ".join(repr(float(x)) for x in rep.eigenvalues))
    lines += [f"f_tr: {float(rep.f_tr)!r}", f"classification: {rep.classification}"]
    return "\n".join(lines) + "\n"


class TestBuildOutputPinned:
    """``pdm build`` stdout equals the report with entry-by-entry matrix rows."""

    @staticmethod
    def build_stdout(path, capsys) -> str:
        assert main(["build", path]) == 0
        return capsys.readouterr().out

    def test_random_schedules(self, tmp_path, capsys, monkeypatch):
        import pdmsim.cli as cli

        # Random CPTP gaps have no file form: the parse returns each drawn schedule.
        path = write(tmp_path / "any.json", GOLDEN_DOC)
        rng = np.random.default_rng(12)
        for _ in range(40):
            s = random_schedule(rng, max_events=6)
            monkeypatch.setattr(cli, "schedule_from_dict", lambda doc: s)
            assert self.build_stdout(path, capsys) == reference_report(build_pdm(s))

    @pytest.mark.parametrize("seed", [1, 2, 11])
    def test_benchmark_build_jobs(self, seed, tmp_path, capsys, monkeypatch):
        monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "benchmarks"))
        from workloads import MultiEventBuild

        bench = MultiEventBuild(seed, str(tmp_path))
        bench.generate()
        for paths, _ in bench.jobs:
            for path in paths:
                want = reference_report(build_pdm(schedule_from_dict(load_json(path))))
                assert self.build_stdout(path, capsys) == want

    def test_nine_event_dephasing_chain(self, tmp_path, capsys):
        doc = {
            "qubits": 1,
            "initial_state": {"bloch": [0.3, -0.2, 0.8]},
            "slices": [[{"id": k + 1, "qubit": 0}] for k in range(9)],
            "channels": [{"kind": "dephasing", "param": 0.1 * k} for k in range(1, 9)],
        }
        path = write(tmp_path / "chain.json", doc)
        R = build_pdm(schedule_from_dict(doc))
        assert R.matrix.shape == (512, 512)
        assert self.build_stdout(path, capsys) == reference_report(R)


class TestVerify:
    def test_product_states_match_per_qubit_states(self):
        # A drawn schedule's initial state, validated once as a whole, is the
        # product of the states of its Bloch vectors, each validated alone.
        from pdmsim.linalg import kron
        from pdmsim.verify import build_schedules, draw_schedule

        for seed in range(18):
            draw = draw_schedule(np.random.default_rng(seed), 4)
            want = kron([state_from_bloch(r).matrix for r in draw.blochs])
            assert np.array_equal(build_schedules([draw])[0].initial_state.matrix, want)

    def test_closed_form_suite_flags_a_wrong_sweep_path(self, monkeypatch):
        import pdmsim.verify as verify

        exact = verify.noise_kraus
        # A turn of 1e-9 about X after the channel at t = 1: still trace
        # preserving, so only the comparison can see it.
        turn = math.cos(1e-9) * np.eye(2) - 1j * math.sin(1e-9) * np.array([[0, 1], [1, 0]])
        seen = {}

        def skewed(noise, ts):
            seen["exact"] = exact(noise, ts)
            seen["skewed"] = seen["exact"].copy()
            seen["skewed"][1] = turn @ seen["exact"][1]
            return seen["skewed"]

        monkeypatch.setattr(verify, "noise_kraus", skewed)
        res = verify.suite_closed_form(seed=0, trials=5)
        # The sweep path is one more trial, drawn from seed + trials; its state is that generator's first draw.
        state = state_from_bloch(verify.random_bloch(np.random.default_rng(0 + 5)))
        closed_form = verify.two_event_pdm_stack
        want = np.max(np.abs(closed_form(state, seen["skewed"]) - closed_form(state, seen["exact"])))
        assert not res.passed
        assert res.detail == "sweep path at t=1.0"
        assert res.max_deviation == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize(
        "seed, trials, want",
        [(0, 5, VERIFY_SEED_0), (1_000_000, 50, VERIFY_SEED_1E6)],
        ids=["seed0-trials5", "seed1e6-trials50"],
    )
    def test_output_is_pinned(self, capsys, seed, trials, want):
        # Every suite's worst deviation and verdict, to the printed digit: the
        # suites' random streams and arithmetic are fixed.
        assert main(["verify", "--seed", str(seed), "--trials", str(trials)]) == 0
        assert capsys.readouterr().out == want

    def test_draw_chunks_do_not_change_results(self, monkeypatch):
        # suite_closed_form runs its trials through verify.worst_trial, in
        # chunks of verify.CHECK_STACK_BYTES, read when it runs; one trial
        # per chunk gives one stack per trial and the same results, to the bit.
        import pdmsim.verify as verify

        calls = []

        def counted(state, kraus):
            calls.append(len(kraus))
            return closed_form(state, kraus)

        closed_form = verify.two_event_pdm_stack
        monkeypatch.setattr(verify, "two_event_pdm_stack", counted)
        # Three trials make one stack by default, then the sweep path's one.
        want = verify.suite_closed_form(0, 3)
        assert calls == [3, 3]
        monkeypatch.setattr(verify, "CHECK_STACK_BYTES", 1)
        calls.clear()
        assert verify.suite_closed_form(0, 3) == want
        assert calls == [1, 1, 1, 3]

    def test_trial_loop_chunks_do_not_change_results(self, monkeypatch):
        # Every suite runs its trials in chunks of verify.CHECK_STACK_BYTES;
        # one trial per chunk gives the same results, to the bit.
        import pdmsim.verify as verify

        want = verify.run_all(4, 12)
        monkeypatch.setattr(verify, "CHECK_STACK_BYTES", 1)
        assert verify.run_all(4, 12) == want

    @pytest.mark.parametrize("suite, trials", [("suite_convexity", 1000), ("suite_closed_form", 250)])
    def test_two_event_suite_memory_does_not_grow_with_trials(self, suite, trials):
        # Each chunk of trials is checked and dropped; only the worst case is
        # kept, so four times the trials may not need much more memory.
        import tracemalloc

        import pdmsim.verify as verify

        run = getattr(verify, suite)
        run(0, 10)  # fill the caches first
        peaks = []
        for n in (trials, 4 * trials):
            tracemalloc.start()
            try:
                run(0, n)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks

    def test_small_run_passes(self, capsys):
        assert main(["verify", "--seed", "1", "--trials", "5"]) == 0
        out = capsys.readouterr().out
        assert "all suites passed" in out
        assert out.count("[PASS]") == 7
        assert "[PASS] closed_form_two_event" in out

    def test_closed_form_suite_flags_a_wrong_stack(self, monkeypatch):
        import pdmsim.verify as verify

        exact = verify.two_event_pdm_stack

        def skewed(state, kraus):
            R = exact(state, kraus)
            if len(kraus) == 5:  # the trials' stack, not the three per-time rows
                R[3, 0, 0] += 1e-9
            return R

        monkeypatch.setattr(verify, "two_event_pdm_stack", skewed)
        res = verify.suite_closed_form(seed=0, trials=5)
        assert not res.passed
        assert res.detail == "trial 3"
        assert res.max_deviation == pytest.approx(1e-9, rel=1e-6)

    def test_closed_form_suite_checks_the_one_state_form_against_build_pdm(self, monkeypatch):
        # The sweep path's stack on one shared state is compared with
        # build_pdm, so a fault of that form alone cannot cancel out.
        import pdmsim.verify as verify

        exact = verify.two_event_pdm_stack

        def skewed(state, kraus):
            R = exact(state, kraus)
            if isinstance(state, channels.DensityState):
                R[2, 0, 0] += 1e-9
            return R

        monkeypatch.setattr(verify, "two_event_pdm_stack", skewed)
        res = verify.suite_closed_form(seed=0, trials=5)
        assert not res.passed
        assert res.detail == "sweep path at t=2.0"
        assert res.max_deviation == pytest.approx(1e-9, rel=1e-6)

    def test_engine_oracle_suite_checks_build_pdm(self, monkeypatch):
        import pdmsim.verify as verify

        exact = verify.build_pdm

        def skewed(s):
            R = exact(s)
            c = R.coefficients.copy()
            c[1:] *= 1 - 1e-6
            return dataclasses.replace(R, coefficients=c)

        monkeypatch.setattr(verify, "build_pdm", skewed)
        res = verify.suite_engine_oracle(seed=0, trials=5)
        assert not res.passed
        assert res.detail.startswith("build_pdm: trial ")

    def test_engine_oracle_suite_names_the_expectation_side(self, monkeypatch):
        import pdmsim.verify as verify

        exact = verify.expectations
        monkeypatch.setattr(verify, "expectations", lambda s, a: exact(s, a) + 1e-9)
        res = verify.suite_engine_oracle(seed=0, trials=5)
        assert not res.passed
        assert res.detail.startswith("expectation: trial ")
        assert res.max_deviation == pytest.approx(1e-9, rel=1e-3)

    @pytest.mark.parametrize(
        "suite, batched",
        [("suite_engine_oracle", "oracle_expectations"), ("suite_ancilla", "ancilla_expectations")],
    )
    def test_failing_detail_prints_plain_ints(self, monkeypatch, suite, batched):
        import pdmsim.verify as verify

        exact = getattr(verify, batched)

        def skewed(s, a):
            out = exact(s, a)
            out[-1] += 1e-6
            return out

        monkeypatch.setattr(verify, batched, skewed)
        res = getattr(verify, suite)(seed=0, trials=3)
        assert not res.passed
        assert re.search(r"assignment \(\d+(, \d+)*\)$", res.detail), res.detail

    @pytest.mark.parametrize(
        "suite, batched",
        [("suite_engine_oracle", "oracle_expectations"), ("suite_ancilla", "ancilla_expectations")],
    )
    def test_nan_on_one_pick_fails_the_suite(self, monkeypatch, suite, batched):
        import pdmsim.verify as verify

        exact = getattr(verify, batched)
        calls = []

        def nan_then_skew(s, a):
            # Only the first trial: a NaN at its first pick and a real deviation at its last.
            out = exact(s, a)
            if not calls:
                out[0] = np.nan
                out[-1] += 1e-3
            calls.append(1)
            return out

        monkeypatch.setattr(verify, batched, nan_then_skew)
        res = getattr(verify, suite)(seed=0, trials=3)
        assert not res.passed
        assert res.max_deviation == np.inf
        assert "trial 0 assignment " in res.detail

    def test_nan_unitary_fails_the_suite_not_the_run(self, monkeypatch, capsys):
        import pdmsim.verify as verify

        real = verify.qr_isometries
        calls = []

        def nan_at_trial_2(gaussians, haar=False):
            # The unitary_invariance suite's Haar unitaries are 4x4, the
            # golden PDM's size; the closed-form suite's one unitary is 2x2.
            out = real(gaussians, haar)
            for i, U in enumerate(out):
                if haar and U.shape == (4, 4):
                    calls.append(1)
                    if len(calls) == 3:
                        out[i] = np.full_like(U, np.nan)
            return out

        monkeypatch.setattr(verify, "qr_isometries", nan_at_trial_2)
        assert main(["verify", "--seed", "0", "--trials", "5"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] unitary_invariance: max deviation inf (trial 2)" in out
        assert out.count("[PASS]") == 6 and "verification FAILED" in out

    def test_seed_variation(self, capsys):
        for seed in range(3):
            assert main(["verify", "--seed", str(seed), "--trials", "3"]) == 0

    def test_zero_trials_exit_2(self):
        assert main(["verify", "--trials", "0"]) == 2

    def test_negative_seed_exit_2(self, capsys):
        # Exit 1 would read as a failed verification.
        assert main(["verify", "--seed", "-1", "--trials", "3"]) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"

    def test_unknown_command_exit_2(self):
        assert main(["frobnicate"]) == 2


class TestParserReuse:
    def test_back_to_back_commands_do_not_share_values(self, tmp_path, capsys, monkeypatch):
        import pdmsim.cli as cli

        path = write(tmp_path / "golden.json", GOLDEN_DOC)
        report = tmp_path / "report.txt"
        assert main(["build", path, "--out", str(report)]) == 0
        report.unlink()
        assert main(["build", path]) == 0
        assert not report.exists()

        cfg = write(tmp_path / "cfg.json", sweep_doc((0, 0, 0), "depolarizing", 1.0, 0.0, 4.0, 5))
        svg = tmp_path / "out.svg"
        assert main(["sweep", cfg, "--csv", str(tmp_path / "a.csv"), "--svg", str(svg)]) == 0
        svg.unlink()
        assert main(["sweep", cfg, "--csv", str(tmp_path / "b.csv")]) == 0
        assert not svg.exists()

        seen = []
        monkeypatch.setattr(cli, "run_all", lambda seed, trials: seen.append((seed, trials)) or [])
        assert main(["verify", "--seed", "7", "--trials", "3"]) == 0
        assert main(["verify"]) == 0
        assert seen == [(7, 3), (0, 200)]
        assert cli._parser() is cli._parser()


def sweep_of(flags, t_max=4.0):
    """A hand-built sweep on an evenly spaced grid over [0, t_max] with these causal flags."""
    T = len(flags)
    W = np.tile([-0.1, 0.0, 0.2, 0.9], (T, 1))
    return Sweep(np.linspace(0.0, t_max, T), W, np.linspace(0.2, 0.0, T), flags)


def bands(svg):
    """(x, width) of each causal band, per panel: the bands are drawn in both."""
    found = re.findall(r'<rect x="([^"]+)" y="([^"]+)" width="([^"]+)" height="210" fill="#fdd"', svg)
    top = [(x, w) for x, y, w in found if y == "46"]
    assert [(x, w) for x, y, w in found if y != "46"] == top
    return top


class TestSvg:
    def sweep(self, bloch, kind, points=12):
        cfg = SweepConfig(
            bloch=bloch, noise=NoiseModel(kind, tau=1.0), t_min=0.0, t_max=5.0, points=points
        )
        return run_sweep(cfg)

    def test_five_polylines(self):
        svg = emit_svg(self.sweep((0, 0, 0), "depolarizing"))
        assert svg.count("<polyline") == 5
        assert svg.startswith('<?xml version="1.0"')
        assert "</svg>" in svg

    def test_dephasing_band_spans_axis(self):
        svg = emit_svg(self.sweep((0, 0, 1), "dephasing"))
        # All rows causal: exactly one shaded band per panel.
        assert svg.count('fill="#fdd"') == 2

    def test_depolarizing_band_ends_near_ln3(self):
        sweep = self.sweep((0, 0, 0), "depolarizing", points=51)
        grid_step = sweep.t[1] - sweep.t[0]
        assert abs(max(sweep.t[sweep.causal]) - math.log(3)) <= grid_step + 1e-12
        svg = emit_svg(sweep)
        assert svg.count('fill="#fdd"') == 2

    def test_too_few_rows(self):
        s = self.sweep((0, 0, 0), "depolarizing")
        with pytest.raises(UsageError, match="at least 2 rows"):
            emit_svg(Sweep(s.t[:1], s.eigenvalues[:1], s.f_tr[:1], s.causal[:1]))

    def test_last_time_not_after_the_first(self):
        with pytest.raises(UsageError, match=r"last time after the first, got 1\.0 and 1\.0"):
            emit_svg(Sweep([1.0, 1.0], [[1, 2, 3, 4]] * 2, [0, 0], [False, True]))
        with pytest.raises(UsageError, match=r"last time after the first, got 2\.0 and 1\.0"):
            emit_svg(Sweep([2.0, 1.0], [[1, 2, 3, 4]] * 2, [0, 0], [False, True]))

    @pytest.mark.parametrize("bad", ["t", "eigenvalues", "f_tr"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_times_or_values(self, bad, value):
        fields = {"t": np.array([0.0, 1.0]), "eigenvalues": np.ones((2, 4)), "f_tr": np.array([0.0, 0.5])}
        fields[bad].flat[0] = value
        with pytest.raises(UsageError, match="finite times, eigenvalues and f_tr values"):
            emit_svg(Sweep(fields["t"], fields["eigenvalues"], fields["f_tr"], [False, True]))

    # On a 0..4 grid of 9 rows each row is 548 / 8 = 68.5 px right of the last.
    @pytest.mark.parametrize(
        "flags,want",
        [
            ([0, 0, 0, 0, 0, 0, 0, 0, 0], []),
            ([0, 0, 1, 1, 1, 0, 0, 0, 0], [("183", "205.5")]),
            ([0, 0, 0, 0, 0, 0, 1, 1, 1], [("457", "137")]),
            ([1, 1, 0, 0, 1, 1, 1, 0, 0], [("46", "137"), ("320", "205.5")]),
            ([0, 0, 0, 0, 1, 0, 0, 0, 0], [("320", "68.5")]),
            ([1, 1, 1, 1, 1, 1, 1, 1, 1], [("46", "548")]),
        ],
        ids=["none", "middle", "to-last-row", "two", "one-row", "all"],
    )
    def test_bands_of_hand_built_sweeps(self, flags, want):
        # A band runs from its first causal row to the next row, or to the last row.
        assert bands(emit_svg(sweep_of([bool(f) for f in flags]))) == want

    def test_points_write_coordinates_as_fmt(self):
        edge = [0.0, -0.0, -0.0004, 0.0004, 10.0, 100.5, 546.0005, 0.05, -7.25, 1e-9, 999.9999]
        rng = np.random.default_rng(3)
        n = 10_000
        coords = np.concatenate([
            rng.uniform(-600, 600, n // 4),
            rng.integers(-600_000, 600_000, n // 4) / 1000.0,
            rng.integers(-6_000, 6_000, n // 4) / 10.0,
            rng.uniform(-0.002, 0.002, n // 4),
        ])
        for values in (np.array(edge), coords):
            xs, ys = values, values[::-1]
            want = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(xs.tolist(), ys.tolist()))
            assert _points(xs, ys) == want


#: Configs whose ``pdm sweep`` CSV and SVG and ``pdm transition`` output are
#: pinned: every noise kind on a mixed and a polarised input, a log grid, a
#: 2-point grid and a causal band that ends mid-grid.
PINNED_NOISE = {
    "dephasing": {"kind": "dephasing", "tau": 1.1},
    "depolarizing": {"kind": "depolarizing", "tau": 0.9},
    "amplitude_damping": {"kind": "amplitude_damping", "tau": 1.4},
    "unitary": {"kind": "unitary", "matrix": [[[0.8, 0.0], [0.0, 0.6]], [[0.0, 0.6], [0.8, 0.0]]]},
    "composite": {
        "kind": "composite",
        "members": [{"kind": "depolarizing", "tau": 1.0}, {"kind": "amplitude_damping", "tau": 2.5}],
    },
}
MIXED, POLARISED = [0.0, 0.0, 0.0], [0.3, -0.2, 0.6]
PINNED_SWEEPS = {
    **{
        f"{kind}-{name}": {"initial_state": {"bloch": bloch}, "noise": noise, "t_min": 0.0, "t_max": 5.0, "points": 41}
        for kind, noise in PINNED_NOISE.items()
        for name, bloch in (("mixed", MIXED), ("polarised", POLARISED))
    },
    "log-grid": {
        "initial_state": {"bloch": MIXED}, "noise": PINNED_NOISE["depolarizing"],
        "t_min": 0.01, "t_max": 5.0, "points": 57, "grid": "log",
    },
    "two-points": {
        "initial_state": {"bloch": POLARISED}, "noise": PINNED_NOISE["amplitude_damping"],
        "t_min": 0.0, "t_max": 3.0, "points": 2,
    },
    "band-ends-mid-grid": {
        "initial_state": {"bloch": MIXED}, "noise": {"kind": "depolarizing", "tau": 1.0},
        "t_min": 0.0, "t_max": 5.0, "points": 101,
    },
}
#: sha256 of CSV, SVG and transition stdout joined by NUL bytes, recorded
#: with numpy 2.4, OpenBLAS 0.3.31 and Python 3.11 on x86-64.
PINNED_DIGESTS = {
    "dephasing-mixed": "52b4ad509eb3f85e3d136b87e59041af081e8372cea8ae301d942a00b6bf8b82",
    "dephasing-polarised": "a5d9b41ae5d88335cc1c368eae7a1f91a13658a62db62612f9ee36ea56cf1149",
    "depolarizing-mixed": "e061d9c65ed63de8cd4c62781d59b1a2889d693ec514a288ca6e6df2111c6a13",
    "depolarizing-polarised": "551fed3136109556f19c49be4c45d6f41e8030eb9299897eed8394cffb7099e1",
    "amplitude_damping-mixed": "a988b58d4941e99435e34cef4d0eb12eca58708557fcb36e4f6eaa5e172d1c4d",
    "amplitude_damping-polarised": "cda082049d46aa37c5129fbc0aaafc93f16464ae59c7e8fdd6bbf5f141953b7b",
    "unitary-mixed": "0254e15b92fa63ae05b91798691d20338792aa50c35058a75ecee37dda04d124",
    "unitary-polarised": "9c2312fb98f8635cc51585f7567df4656923e78b7b044af52ac013161789a938",
    "composite-mixed": "cc8546895f1d809f46e24b87cd750391b6afca74b654936832805b7def7a750c",
    "composite-polarised": "45aba235daf69217b83542818adf04f39999621d0a0ab330d8b16af60d628b0f",
    "log-grid": "c5bfb3323ab60718241ff03325f1517a705dc2a35c5cc79c26b04a2a9755379b",
    "two-points": "8758924786e0df92daf5db5bed38f53c0e4ffc6e877ba0e345af14a10d6cb69c",
    "band-ends-mid-grid": "32280e21ba4b279fb25b4e19d62d85e7b9eefa579b2cfc85cc1c5ee0eead2d98",
}


@pytest.mark.parametrize("name", sorted(PINNED_SWEEPS))
def test_sweep_output_pinned(name, tmp_path, capsys):
    cfg = write(tmp_path / "cfg.json", PINNED_SWEEPS[name])
    csv, svg = tmp_path / "out.csv", tmp_path / "out.svg"
    assert main(["sweep", cfg, "--csv", str(csv), "--svg", str(svg)]) == 0
    capsys.readouterr()
    assert main(["transition", cfg]) == 0
    texts = [csv.read_text(), svg.read_text(), capsys.readouterr().out]
    # %r of a numpy scalar writes np.float64(...) under numpy 2.
    assert "np.float64(" not in texts[0]
    assert hashlib.sha256("\0".join(texts).encode()).hexdigest() == PINNED_DIGESTS[name]


def _pairs(M):
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


def _pinned_state(dim, rng):
    G = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


def _pinned_unitary(dim, rng):
    """The Q factor of a complex Gaussian, its column phases fixed by R's diagonal."""
    Q, R = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def _pinned_register(qubits, slices, seed):
    """A matrix-state schedule document with a unitary in every gap.

    ``slices`` lists (id, qubit) pairs per slice.
    """
    rng = np.random.default_rng(seed)
    dim = 2**qubits
    return {
        "qubits": qubits,
        "initial_state": {"matrix": _pairs(_pinned_state(dim, rng))},
        "slices": [[{"id": i, "qubit": q} for i, q in sl] for sl in slices],
        "channels": [{"kind": "unitary", "matrix": _pairs(_pinned_unitary(dim, rng))} for _ in slices[1:]],
    }


def _pinned_chain(bloch, channels):
    return {
        "qubits": 1,
        "initial_state": {"bloch": bloch},
        "slices": [[{"id": k + 1, "qubit": 0}] for k in range(len(channels) + 1)],
        "channels": channels,
    }


#: Schedule documents whose ``pdm build`` stdout is pinned: 1-qubit 5-event
#: noisy chains, 3-qubit unitary-gap schedules with multi-event slices (one
#: with ids out of time order), a 2-qubit matrix-state schedule and a
#: one-slice schedule.
PINNED_BUILDS = {
    "chain-params": _pinned_chain(
        [0.3, -0.2, 0.8],
        [
            {"kind": "dephasing", "param": 0.3},
            {"kind": "depolarizing", "param": 0.6},
            {"kind": "amplitude_damping", "param": 0.25},
            {"kind": "dephasing", "param": 0.8},
        ],
    ),
    "chain-times": _pinned_chain(
        [-0.5, 0.1, 0.4],
        [
            {"kind": "depolarizing", "tau": 1.3, "t": 0.4},
            {"kind": "amplitude_damping", "tau": 0.7, "t": 0.9},
            {"kind": "dephasing", "tau": 2.0, "t": 1.1},
            {"kind": "amplitude_damping", "tau": 1.5, "t": 0.2},
        ],
    ),
    "chain-identity-gap": _pinned_chain(
        [0.0, 0.6, -0.3],
        [
            {"kind": "amplitude_damping", "param": 0.5},
            {"kind": "identity"},
            {"kind": "depolarizing", "param": 0.2},
            {"kind": "dephasing", "tau": 0.9, "t": 0.6},
        ],
    ),
    "3q-slices-3-2": _pinned_register(3, [[(1, 0), (2, 2), (3, 1)], [(4, 1), (5, 0)]], 31),
    "3q-slices-1-2-2": _pinned_register(3, [[(1, 2)], [(2, 0), (3, 1)], [(4, 1), (5, 2)]], 32),
    "3q-ids-out-of-time-order": _pinned_register(3, [[(4, 1), (2, 0)], [(5, 2)], [(1, 0), (3, 1)]], 33),
    "2q-matrix-state": _pinned_register(2, [[(1, 0), (2, 1)], [(3, 1)], [(4, 0)]], 21),
    "3q-one-slice": _pinned_register(3, [[(2, 0), (3, 1), (1, 2)]], 30),
}
#: sha256 of ``pdm build`` stdout, recorded with numpy 2.4, OpenBLAS 0.3.31
#: and Python 3.11 on x86-64.
PINNED_BUILD_DIGESTS = {
    "2q-matrix-state": "70668f0e1b9ee8787a4696b7e07aa21a3ac2c82a8a4d7fd250430a23488a5fce",
    "3q-ids-out-of-time-order": "0c4d625d1f85fbbd9e32fbc019ec641dd249fe5d5bd22c0f7c0bbd79414e67bc",
    "3q-one-slice": "11d9600a709c04e03219d273fdd2ec164a3a238d9f9f8c32161afb934ca47c60",
    "3q-slices-1-2-2": "e5bfc068bea676623685947345f2802b4b6c216cd6f767ef1fce2f83d8167c15",
    "3q-slices-3-2": "a2c7955d8dad5cd2a7b78cdde459b7c3d4023f26927a20cc647e1463283c475f",
    "chain-identity-gap": "b70450f319311eed1fecbb55a2e415c45bbb22e8741bae353b6f938bc4761e13",
    "chain-params": "9ac165e23aa4a2c1607ac0b606f28e4e939491058475f693ac7449237fb15e62",
    "chain-times": "223d49afe73e56d0419464c37c0032f6ebb4de3eb9512b67d46a8d4f84c0cc73",
}


@pytest.mark.parametrize("name", sorted(PINNED_BUILDS))
def test_build_output_pinned(name, tmp_path, capsys):
    path = write(tmp_path / "schedule.json", PINNED_BUILDS[name])
    assert main(["build", path]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == PINNED_BUILD_DIGESTS[name]
