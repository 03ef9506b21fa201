"""Properties of the codec over every class it compiles.

(i) Round-trip: for every codec class, instances drawn from strategies
derived from its field annotations survive ``from_dict(to_dict(x))`` and
the trip through JSON text unchanged.  The class list comes from
:func:`repro.codec.classes`, so a class registered later is covered
without touching this file; only fields whose ``__post_init__`` accepts
a narrow set (enums, slugs, ranges) need an entry in :data:`OVERRIDES`.

(ii) Totality: arbitrary JSON values, and valid payloads with one field
dropped, retyped, wrapped in a list or joined by an unknown field, make
each decoder return a value or raise its own typed error — never any
other exception.
"""

import dataclasses
import io
import json
import string
import typing

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.core.profiling  # noqa: F401 - registers codec classes
import repro.experiments.report  # noqa: F401
import repro.lint.findings  # noqa: F401
from repro.codec import classes
from repro.experiments.sweep import REPORT_KEYS, SweepSpec
from repro.faults import FAULT_KINDS, FAULT_SCOPES, FAULT_SITES, FaultPlan, FaultPlanError
from repro.server.protocol import (
    ERROR_CODES,
    FRAMES,
    ProtocolError,
    parse_frame,
    read_frame,
)
from repro.service import EXECUTOR_NAMES, ScenarioSpec, ServiceSpec, SpecError, SystemSpec

#: Every codec class of the package (test-local classes excluded).
CODEC_CLASSES = [c for c in classes() if c.__module__.startswith("repro.")]

FLOATS = st.floats(-1e12, 1e12, allow_nan=False)
INTS = st.integers(0, 2**53)
TEXT = st.text(max_size=8)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | FLOATS | TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)

#: Fields whose validation accepts only a narrow set of values.
OVERRIDES = {
    ("SystemSpec", "system"): st.sampled_from(["hirise", "conventional"]),
    ("SystemSpec", "compute_dtype"): st.sampled_from(["float32", "float64"]),
    ("ServiceSpec", "executor"): st.sampled_from(EXECUTOR_NAMES),
    ("SweepSpec", "executor"): st.sampled_from(EXECUTOR_NAMES),
    ("SweepSpec", "report"): st.sampled_from(("",) + REPORT_KEYS),
    ("SweepSpec", "name"): st.text(string.ascii_letters + "_-", min_size=1, max_size=8),
    ("SweepAxis", "path"): st.tuples(
        st.sampled_from(["system", "scenario"]),
        st.text(string.ascii_lowercase, min_size=1, max_size=8),
    ).map(".".join),
    ("SweepAxis", "values"): st.lists(JSON, min_size=1, max_size=3).map(tuple),
    ("FaultSpec", "site"): st.sampled_from(FAULT_SITES),
    ("FaultSpec", "kind"): st.sampled_from(FAULT_KINDS),
    ("FaultSpec", "scope"): st.sampled_from(FAULT_SCOPES),
    ("FaultSpec", "rate"): st.floats(0.0, 1.0),
    ("HiRISEConfig", "adc_bits"): st.integers(1, 16),
    ("ErrorResponse", "code"): st.sampled_from(ERROR_CODES),
    ("RunRequest", "timeout_s"): st.none() | st.floats(1e-3, 1e6),
}


def strategy_for(annotation, owner: str, name: str):
    """A strategy for one field, derived from its annotation."""
    if (owner, name) in OVERRIDES:
        return OVERRIDES[owner, name]
    scalars = {int: INTS, float: FLOATS, bool: st.booleans(), str: TEXT, typing.Any: JSON}
    if annotation in scalars:
        return scalars[annotation]
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if type(None) in args:
        inner = next(a for a in args if a is not type(None))
        return st.none() | strategy_for(inner, owner, name)
    if origin is tuple:
        return st.lists(strategy_for(args[0], owner, name), max_size=3).map(tuple)
    if origin is list:
        return st.lists(strategy_for(args[0], owner, name), max_size=3)
    if origin is dict:
        return st.dictionaries(TEXT, strategy_for(args[1], owner, name), max_size=3)
    return instances(annotation)


_INSTANCES = {}


def instances(cls):
    """Valid instances of a codec class: drawn field by field, retried
    while ``__post_init__`` rejects the combination."""
    if cls not in _INSTANCES:
        hints = typing.get_type_hints(cls)
        fields = {
            f.name: strategy_for(hints[f.name], cls.__name__, f.name)
            for f in dataclasses.fields(cls)
            if "repro.codec" not in f.metadata or not f.metadata["repro.codec"]["local"]
        }

        @st.composite
        def build(draw):
            for _ in range(20):
                kwargs = {name: draw(strategy) for name, strategy in fields.items()}
                try:
                    return cls(**kwargs)
                except ValueError:
                    continue
            return draw(st.nothing())

        _INSTANCES[cls] = build()
    return _INSTANCES[cls]


PROPERTY = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def test_every_round_trip_class_is_compiled():
    names = {c.__name__ for c in CODEC_CLASSES}
    assert set(FRAMES.names()) <= {c.type for c in CODEC_CLASSES if hasattr(c, "type")}
    assert {
        "ComponentRef", "SystemSpec", "ScenarioSpec", "ServiceSpec", "FrameStats",
        "StreamOutcome", "FaultSpec", "FaultPlan", "SweepAxis", "SweepSpec",
        "HiRISEConfig", "NoiseModel", "PhaseStats", "PhaseProfile", "TrendCheck",
        "Finding",
    } <= names


@pytest.mark.parametrize("cls", CODEC_CLASSES, ids=lambda c: c.__name__)
@PROPERTY
@given(data=st.data())
def test_round_trip_is_exact(cls, data):
    obj = data.draw(instances(cls))
    payload = obj.to_dict()
    assert cls.from_dict(payload) == obj
    assert cls.from_json(obj.to_json()) == obj
    assert cls.from_dict(json.loads(json.dumps(payload))).to_dict() == payload


# -- totality ------------------------------------------------------------------


@st.composite
def mutated(draw, valid):
    """``valid`` with one node dropped, retyped, wrapped or extended."""
    payload = json.loads(json.dumps(draw(valid).to_dict()))
    node = payload
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            break
        key = draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
            continue
        action = draw(st.sampled_from(["drop", "retype", "wrap", "unknown"]))
        if action == "drop" and isinstance(node, dict):
            del node[key]
        elif action == "retype":
            node[key] = draw(JSON)
        elif action == "wrap":
            node[key] = [child]
        elif isinstance(node, dict):
            node[draw(TEXT.filter(lambda k: k not in node))] = draw(JSON)
        break
    return payload


def wire_inputs():
    frames = st.one_of([instances(cls) for cls in CODEC_CLASSES if hasattr(cls, "type")])
    return JSON | mutated(frames)


@settings(PROPERTY, max_examples=300)
@given(wire_inputs())
def test_parse_frame_is_total(data):
    try:
        frame = parse_frame(data)
    except ProtocolError as exc:
        assert exc.code in ("bad-frame", "bad-request")
    else:
        assert type(frame).from_dict(frame.to_dict()) == frame


@settings(PROPERTY, max_examples=200)
@given(st.binary(max_size=64) | JSON.map(lambda value: json.dumps(value).encode()))
def test_read_frame_is_total(line):
    try:
        data = read_frame(io.BytesIO(line.replace(b"\n", b" ") + b"\n"))
    except ProtocolError as exc:
        assert exc.code == "bad-frame"
    else:
        assert isinstance(data, dict)


DECODERS = [
    (ScenarioSpec, SpecError),
    (SystemSpec, SpecError),
    (ServiceSpec, SpecError),
    (SweepSpec, SpecError),
    (FaultPlan, FaultPlanError),
]


@pytest.mark.parametrize("cls, error", DECODERS, ids=lambda c: getattr(c, "__name__", ""))
@PROPERTY
@given(data=st.data())
def test_spec_decoders_are_total(cls, error, data):
    payload = data.draw(JSON | mutated(instances(cls)))
    try:
        value = cls.from_dict(payload)
    except error:
        return
    assert isinstance(value, cls)
