"""JSON schedule files (``pdm build``) and sweep configs (``pdm sweep`` / ``pdm transition``).

Each parser returns only the object it builds. ``load_json`` refuses a key
repeated in one object and every parser refuses unknown fields, so the
loaded document is the one record of what a run read.
"""

from __future__ import annotations

import itertools
import json
import sys

import numpy as np

from .channels import (
    DensityState,
    KrausChannel,
    NoiseModel,
    channel_at_time,
    is_noise_family,
    make_channel,
    state_from_bloch,
    unitary_channel,
)
from .errors import UsageError
from .linalg import qubits_of_dim
from .schedule import Event, Schedule
from .sweep import SweepConfig

_SCHEDULE_KEYS = ("qubits", "initial_state", "slices", "channels")
_SWEEP_KEYS = ("initial_state", "noise", "t_min", "t_max", "points", "grid", "csv", "svg")


def _matrix_field(doc: dict, where: str) -> np.ndarray:
    """The required ``matrix`` field, a square array of ``[re, im]`` pairs, as a complex matrix.

    Every part of every pair must be a finite number (``_is_number``). The
    pairs and their parts are flattened, their shapes and types checked in
    C-level passes, and numpy reads the parts as one float array.
    """
    rows = _require(doc, "matrix", where)
    try:
        pairs = list(itertools.chain.from_iterable(rows))
        parts = list(itertools.chain.from_iterable(pairs))
        square = set(map(len, rows)) == {len(rows)} and set(map(len, pairs)) == {2}
    except TypeError:
        square = False
    if not square:
        raise UsageError(f"{where} field 'matrix' must be a square array of [re, im] pairs")
    kinds = set(map(type, parts)) - _NUMBER_TYPES
    if kinds:
        raise UsageError(f"{where} field 'matrix' holds a {min(t.__name__ for t in kinds)}, not a number")
    try:
        M = np.array(parts, dtype=float).view(complex).reshape(len(rows), len(rows))
    except OverflowError:
        raise UsageError(f"{where} field 'matrix' holds an integer too large for a float") from None
    bad = ~np.isfinite(M)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise UsageError(f"{where} field 'matrix' entry [{i}][{j}] is not finite: {M[i, j]}")
    return M


def _require(doc: dict, key: str, where: str):
    if not isinstance(doc, dict) or key not in doc:
        raise UsageError(f"{where} is missing required field {key!r}")
    return doc[key]


def _reject_unknown(doc: dict, known, where: str) -> None:
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise UsageError(f"{where} has unknown field(s) {', '.join(map(repr, unknown))}")


#: The Python types of a JSON number. ``json`` reads a JSON number as an int
#: or a float; a bool is an int subclass, and a type check keeps it out.
_NUMBER_TYPES = {int, float}
_FLOAT_MAX = sys.float_info.max


def _is_number(x) -> bool:
    """The rule for every numeric field: a finite JSON number, an int or a float but not a bool.

    ``json`` reads ``Infinity``, ``NaN`` and ``1e400`` as non-finite floats;
    an int too large for a float is not finite either.
    """
    return type(x) in _NUMBER_TYPES and -_FLOAT_MAX <= x <= _FLOAT_MAX


def _number(doc: dict, key: str, where: str) -> float:
    """A required numeric field as a float; the consuming type checks its range."""
    raw = _require(doc, key, where)
    if not _is_number(raw):
        raise UsageError(f"{where} field {key!r} must be a finite number, got {raw!r}")
    return float(raw)


def _integer(doc: dict, key: str, where: str) -> int:
    """A required integral numeric field; 2.0 is accepted as 2, booleans and 1.5 are not."""
    raw = _require(doc, key, where)
    if not (_is_number(raw) and raw % 1 == 0):
        raise UsageError(f"{where} field {key!r} must be an integer, got {raw!r}")
    return int(raw)


def _bloch(doc: dict, where: str) -> list:
    """A required ``bloch`` field as a list of 3 floats."""
    raw = _require(doc, "bloch", where)
    if not (isinstance(raw, (list, tuple)) and all(map(_is_number, raw))):
        raise UsageError(f"{where} field 'bloch' must be a list of 3 numbers, got {raw!r}")
    if len(raw) != 3:
        raise UsageError("bloch vector must have 3 components")
    return [float(x) for x in raw]


def parse_initial_state(doc, qubits: int) -> DensityState:
    """Parse an initial-state descriptor: a 1-qubit ``bloch`` vector or a ``matrix``."""
    if isinstance(doc, dict) and "bloch" in doc:
        _reject_unknown(doc, ("bloch",), "initial_state")
        r = _bloch(doc, "initial_state")
        if qubits != 1:
            raise UsageError("a bloch-vector initial state requires a 1-qubit system")
        return state_from_bloch(r)
    if isinstance(doc, dict) and "matrix" in doc:
        _reject_unknown(doc, ("matrix",), "initial_state")
        M = _matrix_field(doc, "initial_state")
        if qubits_of_dim(len(M)) != qubits:
            raise UsageError(f"initial state dim {len(M)} does not match {qubits} qubits")
        return DensityState(M)
    raise UsageError("initial_state must carry either 'bloch' or 'matrix'")


def parse_channel_descriptor(doc, qubits: int) -> KrausChannel | None:
    """Parse one gap-channel descriptor into a channel on the full system, None for no or an identity gap."""
    if doc is None:
        return None
    kind = _require(doc, "kind", "channel descriptor")
    if kind == "identity":
        _reject_unknown(doc, ("kind",), "identity descriptor")
        return None
    if is_noise_family(kind):
        if qubits != 1:
            raise UsageError(f"{kind} gap channel requires a 1-qubit schedule")
        where = f"{kind} descriptor"
        if "param" in doc:
            _reject_unknown(doc, ("kind", "param"), where)
            return make_channel(kind, _number(doc, "param", where))
        _reject_unknown(doc, ("kind", "tau", "t"), where)
        tau, t = _number(doc, "tau", where), _number(doc, "t", where)
        return channel_at_time(NoiseModel(kind, tau=tau), t)
    if kind == "unitary":
        _reject_unknown(doc, ("kind", "matrix"), "unitary descriptor")
        U = _matrix_field(doc, "unitary descriptor")
        if qubits_of_dim(len(U)) != qubits:
            raise UsageError("unitary dimension does not match the system")
        return unitary_channel(U)
    raise UsageError(f"unknown channel kind {kind!r}")


def schedule_from_dict(doc: dict) -> Schedule:
    qubits = _integer(doc, "qubits", "schedule")
    _reject_unknown(doc, _SCHEDULE_KEYS, "schedule")
    if qubits < 1:
        raise UsageError("qubits must be >= 1")
    state = parse_initial_state(_require(doc, "initial_state", "schedule"), qubits)
    slices = _require(doc, "slices", "schedule")
    if not isinstance(slices, list) or not slices:
        raise UsageError("slices must be a nonempty list of event lists")
    events = []
    for si, sl in enumerate(slices):
        if not isinstance(sl, list) or not sl:
            raise UsageError(f"slice {si} must be a nonempty event list")
        for ev in sl:
            where = f"slice {si} event"
            eid = _integer(ev, "id", where)
            q = _integer(ev, "qubit", where)
            _reject_unknown(ev, ("id", "qubit"), where)
            events.append(Event(eid, q, si))
    raw_channels = doc.get("channels", [None] * (len(slices) - 1))
    if not isinstance(raw_channels, list):
        raise UsageError(f"channels must be a list of gap-channel descriptors, got {raw_channels!r}")
    if len(raw_channels) != len(slices) - 1:
        raise UsageError(f"expected {len(slices) - 1} gap channels, got {len(raw_channels)}")
    channels = tuple(parse_channel_descriptor(ch_doc, qubits) for ch_doc in raw_channels)
    return Schedule(state, tuple(events), channels)


def noise_model_from_dict(doc: dict) -> NoiseModel:
    kind = _require(doc, "kind", "noise descriptor")
    if is_noise_family(kind):
        _reject_unknown(doc, ("kind", "tau"), f"{kind} noise descriptor")
        return NoiseModel(kind, tau=_number(doc, "tau", f"{kind} noise descriptor"))
    if kind == "unitary":
        _reject_unknown(doc, ("kind", "matrix"), "unitary noise descriptor")
        U = _matrix_field(doc, "unitary noise descriptor")
        if U.shape != (2, 2):
            raise UsageError(f"unitary noise matrix must be 2x2 (one qubit), got shape {U.shape}")
        return NoiseModel("unitary", unitary=U)
    if kind == "composite":
        _reject_unknown(doc, ("kind", "members"), "composite noise descriptor")
        members = _require(doc, "members", "composite noise descriptor")
        if not isinstance(members, list) or not members:
            raise UsageError("composite noise requires a nonempty member list")
        return NoiseModel("composite", members=tuple(map(noise_model_from_dict, members)))
    raise UsageError(f"unknown noise kind {kind!r}")


def sweep_config_from_dict(doc: dict) -> SweepConfig:
    _reject_unknown(doc, _SWEEP_KEYS, "sweep config")
    state_doc = _require(doc, "initial_state", "sweep config")
    if not isinstance(state_doc, dict) or "bloch" not in state_doc:
        raise UsageError("sweep config initial_state must carry a bloch vector")
    _reject_unknown(state_doc, ("bloch",), "sweep config initial_state")
    bloch = tuple(_bloch(state_doc, "sweep config initial_state"))
    noise = noise_model_from_dict(_require(doc, "noise", "sweep config"))
    return SweepConfig(
        bloch=bloch,
        noise=noise,
        t_min=_number(doc, "t_min", "sweep config"),
        t_max=_number(doc, "t_max", "sweep config"),
        points=_integer(doc, "points", "sweep config"),
        grid=doc.get("grid", "linear"),
        csv_path=_optional_path(doc, "csv"),
        svg_path=_optional_path(doc, "svg"),
    )


def _optional_path(doc: dict, key: str) -> str | None:
    """An optional output-path field of a sweep config: a string, or null when absent."""
    raw = doc.get(key)
    if raw is not None and not isinstance(raw, str):
        raise UsageError(f"sweep config field {key!r} must be a path string or null, got {raw!r}")
    return raw


def load_json(path: str) -> dict:
    """The JSON object a UTF-8 file holds; every failure to read one is a ``UsageError`` naming ``path``.

    A file that is not UTF-8, or nests deeper than the parser's recursion
    allows, is not valid JSON. A key repeated in one object is refused,
    rather than letting its last copy silently win.
    """

    def unique_keys(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            keys = [k for k, _ in pairs]
            repeated = next(k for i, k in enumerate(keys) if k in keys[:i])
            raise UsageError(f"{path} repeats the key {repeated!r} in one object")
        return obj

    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=unique_keys)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise UsageError(f"{path} must contain a JSON object")
    return doc

