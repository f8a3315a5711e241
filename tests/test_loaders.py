"""Every loader either succeeds or raises ValidationError, whatever the file.

Each example takes a valid file of one kind (ground truth, detections,
temporal database, stream, baseline-sv output, runtime profile, report,
synth spec or `--config` file), rewrites it with random JSON values and line
mutations, and reads it back.
"""

import json
import math

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from streameval.baseline import KalmanConfig
from streameval.cli import _config, _load_config, run
from streameval.data import (
    ValidationError,
    _read_json,
    iter_detections,
    iter_scene_annotations,
    iter_stream,
    iter_temporal_db,
    load_runtime_profile,
)
from streameval.interp import InterpolationConfig
from streameval.stream_sim import SimConfig
from streameval.synth import scene_spec_from_dict

SPEC = {
    "scene_id": "fuzz",
    "duration_s": 1.0,
    "rate_hz": 12,
    "keyframe_every": 6,
    "objects": [
        {"category": "car", "center": [0.0, 0.0, 0.0], "velocity": [4.0, 0.0]},
        {"category": "bus", "center": [0.0, 20.0, 0.0], "size": [2.5, 8.0, 3.0]},
    ],
}
PROFILE = {"name": "c250", "distribution": "constant", "params": {"ms": 250.0}}
# one key of each config class, so that every stage reads this file
CONFIG = {"target_rate_hz": 6.0, "seed": 3, "contention_factor": 1.5, "max_coast_us": 500_000,
          "meas_noise_pos": 0.25}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """kind -> the text of one valid file of that kind."""
    d = tmp_path_factory.mktemp("valid")
    spec, profile = d / "spec.json", d / "profile.json"
    spec.write_text(json.dumps(SPEC))
    profile.write_text(json.dumps(PROFILE))
    gt, det, stream, sv, report = (d / n for n in ("gt", "det", "stream", "sv", "report"))
    for argv in (
        ["synth", "--spec", spec, "--out-gt", gt, "--out-det", det],
        ["simulate", "--det", det, "--gt", gt, "--profile", profile, "--out", stream],
        ["baseline-sv", "--stream", stream, "--gt", gt, "--out", sv],
        ["evaluate", "--gt", gt, "--stream", stream, "--offline", det, "--out", report],
    ):
        assert run(["--quiet", *map(str, argv)]) == 0
    texts = {"gt": gt, "det": det, "tdb": det, "stream": stream, "sv": sv,
             "profile": profile, "report": report, "spec": spec}
    return {"config": json.dumps(CONFIG), **{kind: path.read_text() for kind, path in texts.items()}}


def _read_report(path):
    code = run(["--quiet", "report", str(path), "--out", str(path.with_suffix(".csv"))])
    if code != 0:
        assert code == 1
        raise ValidationError("report exits 1")


def _read_config(path):
    config = _load_config(str(path))
    for cls in (InterpolationConfig, SimConfig, KalmanConfig):
        _config(cls, config)


LOADERS = {
    "gt": lambda path: list(iter_scene_annotations(path)),
    "det": lambda path: list(iter_detections(path)),
    "tdb": lambda path: list(iter_temporal_db(path)),
    "stream": lambda path: list(iter_stream(path)),
    "sv": lambda path: list(iter_stream(path, boxes="refined")),
    "profile": load_runtime_profile,
    # no library reader: the subcommand must exit 1 instead of raising
    "report": _read_report,
    # parsed only: a valid spec may describe a scene too long to generate
    "spec": lambda path: _read_json(path, scene_spec_from_dict),
    "config": _read_config,
}
# files of one JSON object, mutated as a value rather than line by line
SINGLE_OBJECT = {"profile", "report", "spec", "config"}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from([0, -1, 1e308, 2**63, math.inf, math.nan, "car", "1.5"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4) | st.sampled_from(["boxes", "scene_id"]), inner,
                      max_size=3),
    max_leaves=8,
)


@st.composite
def mutated(draw, value):
    """`value` with one node somewhere inside it replaced, dropped or kept."""
    if isinstance(value, (dict, list)) and value and draw(st.integers(0, 3)):
        keys = sorted(value) if isinstance(value, dict) else range(len(value))
        key = draw(st.sampled_from(keys))
        copy = dict(value) if isinstance(value, dict) else list(value)
        if draw(st.integers(0, 4)):
            copy[key] = draw(mutated(value[key]))
        else:
            del copy[key]
        return copy
    return draw(JSON_VALUES)


@st.composite
def mutated_text(draw, text):
    """The file's lines, with a few of them rewritten, cut, repeated or swapped."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["value", "value", "cut", "repeat", "swap", "drop"]))
        if op == "value":
            try:
                line = json.loads(lines[k])
            except ValueError:  # cut or blank already
                line = None
            lines[k] = json.dumps(draw(mutated(line)))
        elif op == "cut":
            lines[k] = lines[k][: draw(st.integers(0, len(lines[k])))]
        elif op == "repeat":
            lines.insert(k, lines[k])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[j], lines[k] = lines[k], lines[j]
        elif len(lines) > 1:
            del lines[k]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("kind", sorted(LOADERS))
@given(data=st.data())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_loader_succeeds_or_raises_validation_error(kind, valid_files, tmp_path, data):
    source = valid_files[kind]
    if kind in SINGLE_OBJECT:
        text = json.dumps(data.draw(mutated(json.loads(source))))
    else:
        text = data.draw(mutated_text(source))
    path = tmp_path / f"fuzz.{kind}"
    path.write_text(text)
    try:
        LOADERS[kind](path)
        event("accepted")
    except ValidationError:
        event("rejected")


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_valid_files_load(kind, valid_files, tmp_path):
    path = tmp_path / f"valid.{kind}"
    path.write_text(valid_files[kind])
    LOADERS[kind](path)
