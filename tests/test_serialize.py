import functools
import json
import math

import numpy as np
import pytest

from pdmsim import KrausChannel, NoiseModel, Schedule, UsageError, build_pdm, expectation, noise_kraus
from pdmsim import channels
from pdmsim.serialize import (
    noise_model_from_dict,
    parse_channel_descriptor,
    parse_initial_state,
    schedule_from_dict,
    sweep_config_from_dict,
)
from pdmsim.verify import GOLDEN_TWO_EVENT

GOLDEN_DOC = {
    "qubits": 1,
    "initial_state": {"bloch": [0, 0, 1]},
    "slices": [[{"id": 1, "qubit": 0}], [{"id": 2, "qubit": 0}]],
    "channels": [None],
}


def test_golden_schedule_from_doc():
    s = schedule_from_dict(GOLDEN_DOC)
    R = build_pdm(s)
    assert np.max(np.abs(R.matrix - GOLDEN_TWO_EVENT)) <= 1e-12


def test_channel_descriptors():
    doc = dict(GOLDEN_DOC, channels=[{"kind": "dephasing", "param": 0.5}])
    assert expectation(schedule_from_dict(doc), (1, 1)) == pytest.approx(0.5, abs=1e-13)
    doc = dict(GOLDEN_DOC, channels=[{"kind": "dephasing", "tau": 1.0, "t": math.log(2)}])
    assert expectation(schedule_from_dict(doc), (1, 1)) == pytest.approx(0.5, abs=1e-13)
    doc = dict(GOLDEN_DOC, channels=[{"kind": "identity"}])
    assert expectation(schedule_from_dict(doc), (1, 1)) == pytest.approx(1.0, abs=1e-13)


def test_matrix_initial_state():
    doc = {
        "qubits": 1,
        "initial_state": {"matrix": [[[0.5, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]]},
        "slices": [[{"id": 1, "qubit": 0}]],
    }
    s = schedule_from_dict(doc)
    assert expectation(s, (1,)) == pytest.approx(1.0, abs=1e-13)


def test_three_qubit_matrix_document_is_read_bit_exactly():
    # A matrix state and two unitary gaps: every matrix entry is read back as
    # the [re, im] pair the document holds.
    r = 1 / math.sqrt(2)
    state = np.diag([0.5, 0.25, 0.125, 0.0625, 0.0625, 0, 0, 0]).astype(complex)
    state[0, 1], state[1, 0] = 0.1j, -0.1j
    hadamard = np.kron(np.array([[r, r], [r, -r]]), np.eye(4))
    phase = np.diag([1, 1j, -1, -1j, 1, 1j, -1, -1j])

    def pairs(M):
        return [[[float(v.real), float(v.imag)] for v in row] for row in M]

    slices = [[{"id": 1, "qubit": 2}, {"id": 2, "qubit": 0}], [{"id": 3, "qubit": 1}], [{"id": 4, "qubit": 0}]]
    doc = {
        "qubits": 3,
        "initial_state": {"matrix": pairs(state)},
        "slices": slices,
        "channels": [{"kind": "unitary", "matrix": pairs(hadamard)}, {"kind": "unitary", "matrix": pairs(phase)}],
    }
    s = schedule_from_dict(json.loads(json.dumps(doc)))
    assert np.array_equal(s.initial_state.matrix, state)
    assert [ch.kraus_ops.shape for ch in s.inter_slice_channels] == [(1, 8, 8)] * 2
    assert np.array_equal(s.inter_slice_channels[0].kraus_ops[0], hadamard)
    assert np.array_equal(s.inter_slice_channels[1].kraus_ops[0], phase)


def test_unitary_gap_is_checked_for_trace_preservation_once(monkeypatch):
    # unitary_channel and the Schedule both check each unitary gap; the
    # residual is computed once per gap.
    real = KrausChannel.tp_residual.func
    calls = []

    def counted(ch):
        calls.append(1)
        return real(ch)

    prop = functools.cached_property(counted)
    prop.__set_name__(KrausChannel, "tp_residual")
    monkeypatch.setattr(KrausChannel, "tp_residual", prop)
    r = 1 / math.sqrt(2)
    H = [[[r, 0.0], [r, 0.0]], [[r, 0.0], [-r, 0.0]]]
    slices = [[{"id": 1, "qubit": 0}], [{"id": 2, "qubit": 0}], [{"id": 3, "qubit": 0}]]
    doc = dict(GOLDEN_DOC, slices=slices, channels=[{"kind": "unitary", "matrix": H}] * 2)
    s = schedule_from_dict(doc)
    assert len(calls) == 2
    # Both checks still reject: the unitary's on parsing, the schedule's on a leaky gap.
    with pytest.raises(UsageError, match="matrix is not unitary"):
        schedule_from_dict(dict(doc, channels=[{"kind": "unitary", "matrix": [[[2, 0], [0, 0]], [[0, 0], [2, 0]]]}] * 2))
    leaky = KrausChannel(2 * np.eye(2)[None])
    with pytest.raises(UsageError, match="gap channel 1 is not trace preserving"):
        Schedule(s.initial_state, s.events, (s.inter_slice_channels[0], leaky))


def test_parse_errors():
    with pytest.raises(UsageError):
        schedule_from_dict({"qubits": 1, "slices": []})
    with pytest.raises(UsageError):
        schedule_from_dict(dict(GOLDEN_DOC, channels=[{"kind": "mystery"}]))
    with pytest.raises(UsageError):
        schedule_from_dict(dict(GOLDEN_DOC, channels=[]))
    bad = dict(GOLDEN_DOC, initial_state={"bloch": [1, 1]})
    with pytest.raises(UsageError):
        schedule_from_dict(bad)


def test_huge_qubit_count_is_a_usage_error():
    # The file's qubit count is compared with the matrix's dimension; 2**qubits
    # is never computed, so 10^10 qubits cannot build a 1.25 GB integer.
    r = 1 / math.sqrt(2)
    H = [[[r, 0.0], [r, 0.0]], [[r, 0.0], [-r, 0.0]]]
    with pytest.raises(UsageError, match="unitary dimension does not match the system"):
        parse_channel_descriptor({"kind": "unitary", "matrix": H}, 10**10)
    with pytest.raises(UsageError, match="initial state dim 2 does not match 10000000000 qubits"):
        parse_initial_state({"matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}, 10**10)


def test_noise_model_descriptors():
    model = noise_model_from_dict({"kind": "dephasing", "tau": 1.5})
    assert model.kind == "dephasing" and model.tau == 1.5
    model = noise_model_from_dict(
        {"kind": "composite", "members": [{"kind": "dephasing", "tau": 1.0}, {"kind": "depolarizing", "tau": 2.0}]}
    )
    assert model.kind == "composite" and len(model.members) == 2
    with pytest.raises(UsageError):
        noise_model_from_dict({"kind": "composite", "members": []})


def test_noise_families_are_read_from_one_list(monkeypatch):
    # Each family is a gap descriptor, a noise descriptor and a model with its
    # listed Kraus count; a family taken off the list is unknown to all three.
    for kind, count in channels.FAMILY_KRAUS_COUNTS.items():
        s = schedule_from_dict(dict(GOLDEN_DOC, channels=[{"kind": kind, "tau": 1.0, "t": 0.5}]))
        assert s.inter_slice_channels[0].kraus_ops.shape == (count, 2, 2)
        assert noise_kraus(noise_model_from_dict({"kind": kind, "tau": 1.0}), [0.5]).shape == (1, count, 2, 2)
    monkeypatch.delitem(channels.FAMILY_KRAUS_COUNTS, "amplitude_damping")
    with pytest.raises(UsageError, match="unknown channel kind 'amplitude_damping'"):
        schedule_from_dict(dict(GOLDEN_DOC, channels=[{"kind": "amplitude_damping", "param": 0.5}]))
    with pytest.raises(UsageError, match="unknown noise kind 'amplitude_damping'"):
        noise_model_from_dict({"kind": "amplitude_damping", "tau": 1.0})
    with pytest.raises(UsageError, match="unknown noise model kind 'amplitude_damping'"):
        NoiseModel("amplitude_damping", tau=1.0)


def test_sweep_config_parsing():
    cfg = sweep_config_from_dict(
        {
            "initial_state": {"bloch": [0, 0, 0]},
            "noise": {"kind": "depolarizing", "tau": 1.0},
            "t_min": 0.0,
            "t_max": 5.0,
            "points": 6,
        }
    )
    assert cfg.grid == "linear" and cfg.points == 6
    with pytest.raises(UsageError):
        sweep_config_from_dict(
            {
                "initial_state": {"bloch": [0, 0, 0]},
                "noise": {"kind": "depolarizing", "tau": 1.0},
                "t_min": 2.0,
                "t_max": 1.0,
                "points": 6,
            }
        )


SWEEP_DOC = {
    "initial_state": {"bloch": [0, 0, 0]},
    "noise": {"kind": "depolarizing", "tau": 1.0},
    "t_min": 0.0,
    "t_max": 5.0,
    "points": 6,
}


def _gap(**fields):
    return dict(GOLDEN_DOC, channels=[dict({"kind": "dephasing"}, **fields)])


def _state_matrix(entry):
    # |0><0| with its [0][0] entry replaced.
    return dict(GOLDEN_DOC, initial_state={"matrix": [[entry, [0, 0]], [[0, 0], [0, 0]]]})


@pytest.mark.parametrize(
    "parse, make, good, bad, named",
    [
        (schedule_from_dict, lambda v: _gap(param=v), 0.5, [True, "0.5", math.inf], "'param'"),
        (schedule_from_dict, lambda v: _gap(tau=1.0, t=v), 0.5, ["0.5", json.loads("Infinity"), False], "'t'"),
        (schedule_from_dict, lambda v: _gap(tau=v, t=0.5), 1, ["1", True, math.nan], "'tau'"),
        (schedule_from_dict, lambda v: dict(GOLDEN_DOC, qubits=v), 1.0, ["1", True], "'qubits'"),
        (
            schedule_from_dict,
            lambda v: dict(GOLDEN_DOC, slices=[[{"id": v, "qubit": 0}], [{"id": 2, "qubit": 0}]]),
            1,
            ["1", True],
            "'id'",
        ),
        (
            schedule_from_dict,
            lambda v: dict(GOLDEN_DOC, slices=[[{"id": 1, "qubit": v}], [{"id": 2, "qubit": 0}]]),
            0,
            ["0", False],
            "'qubit'",
        ),
        (
            schedule_from_dict,
            lambda v: dict(GOLDEN_DOC, initial_state={"bloch": v}),
            [0, 0.5, 0],
            [["0", "0", "1"], [False, False, True]],
            "'bloch'",
        ),
        (schedule_from_dict, _state_matrix, [1, 0], [[True, 0], [1, False], ["1", 0], [10**400, 0]], "'matrix' holds"),
        (
            sweep_config_from_dict,
            lambda v: dict(SWEEP_DOC, initial_state={"bloch": v}),
            [0, 0, 1.0],
            [["0", "0", "0"], [0, False, 0]],
            "'bloch'",
        ),
        (sweep_config_from_dict, lambda v: dict(SWEEP_DOC, noise={"kind": "dephasing", "tau": v}), 2, ["1", True], "'tau'"),
        (sweep_config_from_dict, lambda v: dict(SWEEP_DOC, t_min=v), 1, ["0", False, -math.inf], "'t_min'"),
        (sweep_config_from_dict, lambda v: dict(SWEEP_DOC, t_max=v), 1, [True, "5", math.inf], "'t_max'"),
        (sweep_config_from_dict, lambda v: dict(SWEEP_DOC, points=v), 2.0, ["5", True, 5.5], "'points'"),
    ],
    ids=[
        "param", "t", "tau", "qubits", "id", "qubit", "bloch", "matrix",
        "sweep-bloch", "sweep-tau", "t_min", "t_max", "points",
    ],
)
def test_numeric_fields_take_only_finite_numbers(parse, make, good, bad, named):
    # A number is a finite JSON number: an int or a float, never a bool or a string.
    for value in bad:
        with pytest.raises(UsageError, match=named):
            parse(make(value))
    parse(make(good))
