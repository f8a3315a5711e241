import dataclasses
import io
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import box_numbers, make_box
from oracles import (
    box_fields,
    dict_detections_line,
    dict_frame_line,
    dict_record_line,
    seed_box_fields,
    seed_box_from_json,
)
from streameval.baseline import cv_pipeline, refine_stream, sv_pipeline
from streameval.data import (
    Box3D,
    FrameAnnotations,
    FrameDetections,
    PredictionStream,
    RuntimeProfile,
    SceneCursor,
    StreamRecord,
    TemporalDatabase,
    ValidationError,
    _box_from_json,
    _decode_line,
    _typed,
    iter_detections,
    iter_scene_annotations,
    iter_stream,
    iter_temporal_db,
    load_runtime_profile,
    regular_timestamps,
    scene_sizes,
    write_detections,
    write_scene_annotations,
    write_stream,
)
from streameval.geom import Quaternion, Vec3
from streameval.interp import InterpolationConfig, extend_annotations
from streameval.stream_sim import SimConfig, simulate_stream
from streameval.synth import (
    DetectorNoise,
    ObjectSpec,
    SceneSpec,
    gen_scene,
    oracle_detector,
)


def write_lines(path, objs):
    with open(path, "w") as fh:
        for obj in objs:
            fh.write(json.dumps(obj) + "\n")


def gt_line(t, scene="s0", keyframe=True, boxes=None):
    if boxes is None:
        boxes = [
            {
                "instance_id": "a",
                "category": "car",
                "center": [1.0, 2.0, 0.5],
                "size": [2.0, 4.0, 1.5],
                "rotation": [1.0, 0.0, 0.0, 0.0],
                "velocity": [3.0, 0.0],
                "attribute": "vehicle.moving",
            }
        ]
    return {"scene_id": scene, "timestamp_us": t, "is_keyframe": keyframe, "boxes": boxes}


# numbers at and around the edges of what a box accepts
EDGE_NUMBERS = st.sampled_from(
    [0.5, 2.0, 1, True, 0.0, -0.0, -1.0, 1.5, 1e308, math.inf, -math.inf, math.nan]
) | st.floats()


def json_scalars():
    return (
        st.floats()
        | st.integers()
        | st.booleans()
        | st.none()
        | st.sampled_from(["1.5", "nan", "-inf", "x", "", "car", "123"])
    )


def json_values():
    return st.recursive(
        json_scalars(),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.sampled_from(["a", "b", "c"]), inner, max_size=3),
        max_leaves=8,
    )


def near_vectors(valid, n):
    """Variants of the valid `n`-vectors: one entry too many or too few, edge
    numbers, or one entry replaced by an edge number or any JSON value."""

    def replaced(args):
        vec, k, value = args
        return [*vec[:k], value, *vec[k + 1:]]

    return (
        valid.map(lambda v: [*v, v[0]])
        | valid.map(lambda v: v[:-1])
        | st.lists(EDGE_NUMBERS, min_size=n, max_size=n)
        | st.tuples(valid, st.integers(0, n - 1), EDGE_NUMBERS | json_values()).map(replaced)
    )


VALID_SIZES = st.lists(st.floats(0.01, 20.0), min_size=3, max_size=3)
VALID_VELOCITIES = st.lists(st.floats(-40.0, 40.0), min_size=2, max_size=2)


class TestBox3D:
    def test_rejects_negative_size(self):
        with pytest.raises(ValidationError, match="size"):
            make_box(w=-1.0)

    def test_rejects_bad_score(self):
        with pytest.raises(ValidationError, match="score"):
            make_box(score=1.5)

    def test_rejects_nonfinite_velocity(self):
        with pytest.raises(ValidationError, match="velocity"):
            make_box(vx=float("nan"))

    def test_bev_rect_footprint(self):
        rect = make_box(x=1.0, y=2.0, w=2.0, l=4.0, yaw=0.3).bev_rect()
        assert (rect.center_x, rect.center_y) == (1.0, 2.0)
        assert (rect.width, rect.length) == (2.0, 4.0)
        assert rect.yaw == pytest.approx(0.3)

    @pytest.mark.parametrize("x, y", [(math.inf, 0.0), (0.0, -math.inf), (math.nan, 0.0)])
    def test_moved_to_rejects_nonfinite_center(self, x, y):
        with pytest.raises(ValueError, match="non-finite Vec3"):
            make_box(vx=1.0).moved_to(x, y)

    @pytest.mark.parametrize(
        "changes, match",
        [
            ({"velocity": (math.inf, 0.0)}, "velocity"),
            ({"velocity": (0.0, math.nan)}, "velocity"),
            ({"velocity": (1.0, 2.0, 3.0)}, "velocity"),
            ({"center": Vec3(1.0, 2.0, 3.0), "velocity": (-math.inf, 0.0)}, "velocity"),
            ({"score": 1.5}, "score"),
            ({"score": math.nan}, "score"),
        ],
    )
    def test_replace_validates_the_fields_it_sets(self, changes, match):
        box = make_box(x=1.0, vx=2.0, score=0.5)
        with pytest.raises(ValidationError, match=match):
            box.replace(**changes)
        with pytest.raises(ValidationError, match=match):
            dataclasses.replace(box, **changes)

    @given(
        st.fixed_dictionaries({}, optional={
            "center": st.builds(Vec3, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.just(0.5)),
            "rotation": st.builds(Quaternion.rot_z, st.floats(-4.0, 4.0)),
            "velocity": st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0))
            | st.lists(st.integers(-5, 5), min_size=2, max_size=2),
            "score": st.floats(0.0, 1.0) | st.integers(0, 1),
            "instance_id": st.sampled_from([None, "", "j"]),
        })
    )
    @settings(max_examples=100)
    def test_replace_equals_dataclasses_replace(self, changes):
        box = make_box(x=1.0, vx=2.0, score=0.5, instance_id="i", attribute="a.b")
        got = box.replace(**changes)
        want = dataclasses.replace(box, **changes)
        assert got == want
        assert repr(box_fields(got)) == repr(box_fields(want))

    SIZES = (
        VALID_SIZES.map(tuple)
        | near_vectors(VALID_SIZES, 3)
        | near_vectors(VALID_SIZES, 3).map(tuple)
        | st.builds(np.array, st.lists(st.floats(0.01, 10.0), min_size=3, max_size=3))
        | st.builds(tuple, st.lists(st.floats(0.01, 10.0).map(np.float64), min_size=3,
                                    max_size=3))
        | st.sampled_from(["abc", "1", 5, None, [[1.0], 2.0, 3.0], (1.0, math.inf, "x")])
    )
    VELOCITIES = (
        VALID_VELOCITIES.map(tuple)
        | near_vectors(VALID_VELOCITIES, 2)
        | near_vectors(VALID_VELOCITIES, 2).map(tuple)
        | st.sampled_from(["ab", 0, None, (math.nan, "x"), (1.0, "x")])
    )
    SCORES = EDGE_NUMBERS | st.sampled_from(["0.5", None])

    @staticmethod
    def assert_same_outcome(size, velocity, score):
        args = ("car", Vec3(1.0, 2.0, 0.0), size, Quaternion(1.0, 0.0, 0.0, 0.0), velocity, score)

        def outcome(make):
            try:
                return "ok", repr(make())
            except Exception as exc:  # noqa: BLE001 - the exception is the outcome
                return type(exc).__name__, str(exc)

        assert outcome(lambda: box_fields(Box3D(*args))) == outcome(lambda: seed_box_fields(*args))

    @given(SIZES, VELOCITIES, SCORES)
    @settings(max_examples=400)
    def test_validation_matches_seed_checks(self, size, velocity, score):
        self.assert_same_outcome(size, velocity, score)

    def test_validation_matches_seed_checks_on_every_edge_combination(self):
        values = [2.0, 1, True, np.float64(1.5), 0.0, -1.0, math.inf, -math.inf, math.nan, "x",
                  None]
        size, velocity, score = (2.0, 4.0, 1.6), (1.0, -1.0), 0.5
        for n in range(5):
            for combo in itertools.product(values, repeat=n):
                self.assert_same_outcome(combo, velocity, score)
        for n in range(4):
            for combo in itertools.product(values, repeat=n):
                self.assert_same_outcome(size, combo, score)
        for value in values:
            self.assert_same_outcome(size, velocity, value)


VALID_BOX_FIELDS = {
    "category": st.sampled_from(["car", "pedestrian"]),
    "center": st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
    "size": VALID_SIZES,
    "rotation": st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4).filter(
        lambda q: sum(v * v for v in q) > 1e-6
    ),
    "velocity": VALID_VELOCITIES,
    "score": st.floats(0.0, 1.0),
    "instance_id": st.sampled_from(["", "a", "obj-7", None]),
    "attribute": st.sampled_from(["vehicle.moving", "pedestrian.standing", None]),
}
NEAR_BOX_FIELDS = {
    "category": json_values(),
    "center": near_vectors(VALID_BOX_FIELDS["center"], 3),
    "size": near_vectors(VALID_BOX_FIELDS["size"], 3),
    "rotation": near_vectors(VALID_BOX_FIELDS["rotation"], 4) | st.just([0.0, 0.0, 0.0, 0.0]),
    "velocity": near_vectors(VALID_BOX_FIELDS["velocity"], 2),
    "score": EDGE_NUMBERS | json_scalars(),
    "instance_id": json_values(),
    "attribute": json_values(),
}


# box fields as a library caller may build them: from a detector's arrays,
# or from literals; each kind's values are exact in that kind
FLOAT_FIELDS = {"center": (0.1, -2.5, 7.25), "size": (2.0, 4.5, 1.6),
                "rotation": (0.5, -0.5, 0.5, 0.5), "velocity": (0.3, -1.5), "score": 0.7}
FIELDS = {
    np.float64: FLOAT_FIELDS,
    np.float32: FLOAT_FIELDS,
    int: {"center": (1, -2, 0), "size": (2, 4, 1), "rotation": (0, 0, 0, 1),
          "velocity": (3, -1), "score": 1},
}


class TestFloatFields:
    """Every number a box holds is a float, whatever real numbers built it."""

    @staticmethod
    def fields(kind, convert):
        """The kind's field values, each converted by `convert`."""
        fields = {k: tuple(convert(kind(v)) for v in vs) if type(vs) is tuple else convert(kind(vs))
                  for k, vs in FIELDS[kind].items()}
        fields["center"] = Vec3(*fields["center"])
        fields["rotation"] = Quaternion(*fields["rotation"])
        return fields

    @pytest.mark.parametrize("kind", list(FIELDS), ids=lambda k: k.__name__)
    def test_box3d_converts_each_number(self, kind):
        got = Box3D("car", **self.fields(kind, lambda v: v))
        want = Box3D("car", **self.fields(kind, float))
        assert [type(v) for v in box_numbers(got)] == [float] * 13
        assert box_numbers(got) == box_numbers(want)
        assert repr(box_fields(got)) == repr(box_fields(want))

    @pytest.mark.parametrize("kind", list(FIELDS), ids=lambda k: k.__name__)
    def test_replace_converts_each_number(self, kind):
        box = make_box(x=1.0, vx=2.0, score=0.5, instance_id="i")
        changes = self.fields(kind, lambda v: v)
        del changes["size"]  # not a field that `replace` sets
        got = box.replace(**changes)
        want = dataclasses.replace(box, **{k: v for k, v in self.fields(kind, float).items()
                                          if k != "size"})
        assert [type(v) for v in box_numbers(got)] == [float] * 13
        assert repr(box_fields(got)) == repr(box_fields(want))

    def test_every_stage_holds_floats(self):
        # int literals, as the README's example spec has them; the third
        # object is seen by the temporal database only, so densifying
        # appends its noisy boxes
        objects = (ObjectSpec("car", (0, 0, 0), velocity=(4, 0)),
                   ObjectSpec("truck", (0, 30, 0), size=(3, 8, 3), velocity=(-2, 1)),
                   ObjectSpec("car", (0, -30, 0), size=(2, 4, 2), velocity=(1, 1)))
        scene = gen_scene(SceneSpec(duration_s=3.0, objects=objects), keyframe_every=6)
        noise = DetectorNoise(pos_sigma=0.2, vel_sigma=0.5, drop_rate=0.1, score_model="uniform")
        outputs = oracle_detector(scene, noise, seed=3)
        frames = [FrameAnnotations(f.scene_id, f.timestamp_us, f.is_keyframe, f.boxes[:2])
                  for f in scene]
        timestamps = [f.timestamp_us for f in frames]
        profile = RuntimeProfile("c150", distribution="constant", params={"ms": 150})
        stream = simulate_stream(timestamps, outputs, profile, SimConfig(seed=3))
        refined = refine_stream(stream)
        sv, cv = sv_pipeline(stream, timestamps), cv_pipeline(refined)
        db = TemporalDatabase(outputs)
        dense = extend_annotations([f for f in frames if f.is_keyframe], db, InterpolationConfig())
        assert sum(len(f.boxes) for f in dense) > sum(len(f.boxes) for f in frames)
        boxes = [
            *(b for f in scene for b in f.boxes),
            *(b for d in outputs for b in d.boxes),
            *(b for s in (stream, refined) for r in s.records for b in r.detections.boxes),
            *(b for fn in (sv, cv) for t in timestamps for b in fn(t).boxes),
            *(b for f in dense for b in f.boxes),
        ]
        assert boxes
        assert {type(v) for b in boxes for v in box_numbers(b)} == {float}


def caller_numbers(valid):
    """Numbers from `valid` as a caller may pass them, a Python float or int
    or a numpy scalar, or an edge float."""
    kinds = st.sampled_from([float, round, np.float64, np.float32, lambda v: np.int64(round(v))])
    return st.builds(lambda kind, v: kind(v), kinds, valid) | EDGE_NUMBERS.filter(
        lambda v: type(v) is float)


# any JSON value, or any string, as a category or an identity
JSON_STRINGS_OR_ANY = st.sampled_from(["car", "", "a.b"]) | st.text(max_size=4) | json_values()


NON_STRINGS = [5, 1.5, True, ["x"], {"a": "b"}]


class TestBoxRoundTrip:
    """A box is rejected when it is built, or it reads back equal."""

    def test_every_box_built_reads_back_equal(self, tmp_path):
        path = tmp_path / "box.det.jsonl"

        def vector(valid, n):
            return st.lists(caller_numbers(valid), min_size=n, max_size=n)

        def value_or_raw(valid, n):
            """(kind, numbers, other): a center or rotation is built from the
            numbers, or passed as their tuple or as any JSON value instead."""
            kinds = st.sampled_from(["built", "built", "built", "tuple", "any"])
            return st.tuples(kinds, vector(valid, n), JSON_STRINGS_OR_ANY)

        def value(drawn, cls):
            kind, numbers, other = drawn
            return cls(*numbers) if kind == "built" else tuple(numbers) if kind == "tuple" else other

        @given(
            category=JSON_STRINGS_OR_ANY,
            center=value_or_raw(st.floats(-1e3, 1e3), 3),
            size=vector(st.floats(0.01, 20.0), 3),
            rotation=value_or_raw(st.floats(-2.0, 2.0), 4),
            velocity=vector(st.floats(-40.0, 40.0), 2),
            score=caller_numbers(st.floats(0.0, 1.0)),
            instance_id=st.none() | JSON_STRINGS_OR_ANY,
            attribute=st.none() | JSON_STRINGS_OR_ANY,
        )
        @settings(max_examples=400, deadline=None)
        def round_trip(category, center, size, rotation, velocity, score, instance_id, attribute):
            try:
                box = Box3D(category, value(center, Vec3), tuple(size), value(rotation, Quaternion),
                            tuple(velocity), score, instance_id, attribute)
            except ValidationError:
                event("rejected")
                return
            event("built")
            write_detections(path, [FrameDetections("s0", 0, [box])])
            ((_, (got,)),) = iter_detections(path)
            assert got.boxes == [box]
            assert repr(got.boxes) == repr([box])

        round_trip()

    @pytest.mark.parametrize("field, value", [
        ("center", (1.0, 2.0, 3.0)), ("center", [1.0, 2.0, 3.0]), ("center", None),
        ("center", Quaternion(1.0, 0.0, 0.0, 0.0)), ("rotation", (1.0, 0.0, 0.0, 0.0)),
        ("rotation", Vec3(1.0, 0.0, 0.0)), ("rotation", None),
    ])
    def test_center_and_rotation_must_be_value_types(self, field, value, tmp_path):
        # a tuple center once built, and writing the box then raised AttributeError
        kind = {"center": "Vec3", "rotation": "Quaternion"}[field]
        fields = {"center": Vec3(1.0, 2.0, 3.0), "rotation": Quaternion(1.0, 0.0, 0.0, 0.0),
                  field: value}
        builds = [lambda: Box3D("car", fields["center"], (1, 1, 1), fields["rotation"]),
                  lambda: make_box().replace(**{field: value})]
        for build in builds:
            with pytest.raises(ValidationError) as info:
                build()
            assert str(info.value) == f"box {field} must be a {kind}, got {value!r}"

    @pytest.mark.parametrize("field, value", [
        *(("category", v) for v in [*NON_STRINGS, None]),
        *((field, v) for field in ("instance_id", "attribute") for v in NON_STRINGS),
    ])
    def test_constructor_replace_and_decoder_reject_alike(self, field, value):
        obj = {"category": "car", "center": [1, 2, 3], "size": [1, 2, 3],
               "rotation": [1, 0, 0, 0], "velocity": [0, 0], field: value}
        builds = [lambda: make_box(**{field: value}), lambda: _box_from_json(obj, False)]
        if field == "instance_id":
            builds.append(lambda: make_box(instance_id="a").replace(instance_id=value))
        for build in builds:
            with pytest.raises(ValidationError) as info:
                build()
            assert str(info.value) == f"box {field} must be a string, got {value!r}"


@st.composite
def box_objects(draw):
    """JSON box objects: valid ones with up to three fields missing,
    malformed, or any JSON value."""
    mutated = draw(st.sets(st.sampled_from(sorted(VALID_BOX_FIELDS)), max_size=3))
    obj = {}
    for key in VALID_BOX_FIELDS:
        kind = draw(st.sampled_from(["missing", "near", "any"])) if key in mutated else "valid"
        if kind == "valid":
            obj[key] = draw(VALID_BOX_FIELDS[key])
        elif kind == "near":
            obj[key] = draw(NEAR_BOX_FIELDS[key])
        elif kind == "any":
            obj[key] = draw(json_values())
    return obj


EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, -1.0, 5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan]
) | st.floats()


@st.composite
def numeric_box_objects(draw):
    """Valid box objects with up to two numeric fields set to edge floats:
    every field keeps its JSON type, but its numbers may be out of range or
    non-finite, or the rotation zero."""
    obj = {key: draw(valid) for key, valid in VALID_BOX_FIELDS.items()}
    edged = draw(st.sets(st.sampled_from(["center", "size", "rotation", "velocity", "score"]),
                         max_size=2))
    for key in sorted(edged):
        if key == "score":
            obj[key] = draw(EDGE_FLOATS)
        elif draw(st.booleans()):
            obj[key][draw(st.integers(0, len(obj[key]) - 1))] = draw(EDGE_FLOATS)
        else:
            obj[key] = [draw(EDGE_FLOATS) for _ in obj[key]]
    return obj


# floats whose shortest repr takes each of its forms: signed zero, the
# smallest subnormal, the exponent switch at both ends and the largest double
REPR_EDGES = [-0.0, 5e-324, 1e-05, 1e16, 1.7976931348623157e308]
# text that needs escaping: quotes, backslashes, control characters, non-ASCII
# and characters outside the basic plane
ESCAPES = st.sampled_from(
    ['"', "\\", "\x00", "\n\t\x1f\x7f", "\u00e9\u2028", "\U0001d11e", "a\"b\\c"]
)
TEXT = ESCAPES | st.text(max_size=6) | st.lists(ESCAPES | st.text(max_size=3)).map("".join)
TIMESTAMPS = st.sampled_from([0, -1, 2**53 + 1, 2**63, -(2**63), 10**30]) | st.integers()


def writer_floats(min_value=None, max_value=None, exclude_min=False):
    edges = [f for f in REPR_EDGES if (min_value is None or f >= min_value)
             and (max_value is None or f <= max_value) and not (exclude_min and f == min_value)]
    return st.sampled_from(edges) | st.floats(min_value, max_value, exclude_min=exclude_min,
                                               allow_nan=False, allow_infinity=False)


WRITER_BOXES = st.builds(
    Box3D,
    category=TEXT,
    center=st.builds(Vec3, writer_floats(), writer_floats(), writer_floats()),
    size=st.tuples(*[writer_floats(0.0, exclude_min=True)] * 3),
    rotation=st.builds(Quaternion.rot_z, st.floats(-10.0, 10.0))
    | st.builds(Quaternion, st.just(1.0), *[st.sampled_from([0.0, -0.0, 5e-324, 1e-05])] * 3),
    velocity=st.tuples(writer_floats(), writer_floats()),
    score=writer_floats(0.0, 1.0),
    instance_id=st.none() | TEXT,
    attribute=st.none() | TEXT,
)


class TestWritersAgainstDictOracle:
    """Every line the orjson-first writers write is the line the
    dict-plus-`json.dumps` writer writes, byte for byte."""

    @staticmethod
    def written(write, *args) -> str:
        out = io.StringIO()
        write(out, *args)
        return out.getvalue()

    @given(st.lists(st.builds(FrameAnnotations, TEXT, TIMESTAMPS, st.booleans(), st.lists(
        WRITER_BOXES, max_size=3,
        unique_by=lambda b: id(b) if b.instance_id is None else b.instance_id,
    )), max_size=3))
    @settings(max_examples=150)
    def test_scene_annotations(self, frames):
        want = "".join(dict_frame_line(f) + "\n" for f in frames)
        assert self.written(write_scene_annotations, frames) == want

    @given(st.lists(st.builds(FrameDetections, TEXT, TIMESTAMPS,
                              st.lists(WRITER_BOXES, max_size=3)), max_size=3))
    @settings(max_examples=150)
    def test_detections(self, dets):
        want = "".join(dict_detections_line(d) + "\n" for d in dets)
        assert self.written(write_detections, dets) == want

    @pytest.mark.parametrize("boxes", ["boxes", "refined"])
    @given(scene=TEXT, first=TIMESTAMPS, lag=st.integers(0, 2**64),
           gaps=st.lists(st.integers(1, 2**40), max_size=3),
           frames=st.lists(st.lists(WRITER_BOXES, max_size=3), min_size=4, max_size=4))
    @settings(max_examples=100)
    def test_stream_and_sv_records(self, boxes, scene, first, lag, gaps, frames):
        sources = list(itertools.accumulate(gaps, initial=first))
        stream = PredictionStream([
            StreamRecord(t + lag, FrameDetections(scene, t, dets))
            for t, dets in zip(sources, frames)
        ])
        want = "".join(dict_record_line(r, boxes) + "\n" for r in stream.records)
        assert self.written(write_stream, [stream], boxes) == want

    @pytest.mark.parametrize("t", [np.int64(5), 5.0, 1.5])
    def test_numpy_timestamps_raise_as_json_does(self, t):
        # a numpy integer's repr is not JSON, and a float is no timestamp:
        # writing either would leave a file that no reader accepts
        stream = PredictionStream([StreamRecord(t + 1, FrameDetections("s", t, []))])
        for write, items in ((write_scene_annotations, [FrameAnnotations("s", t, True, [])]),
                             (write_detections, [FrameDetections("s", t, [])]),
                             (write_stream, [stream])):
            with pytest.raises(TypeError):
                write(io.StringIO(), items)

    @pytest.mark.parametrize("scene_id", [5, None, b"s"])
    def test_scene_ids_that_are_no_strings_raise(self, scene_id):
        stream = PredictionStream([StreamRecord(1, FrameDetections(scene_id, 0, []))])
        for write, items in ((write_scene_annotations, [FrameAnnotations(scene_id, 0, True, [])]),
                             (write_detections, [FrameDetections(scene_id, 0, [])]),
                             (write_stream, [stream])):
            with pytest.raises(TypeError):
                write(io.StringIO(), items)

    def test_files_are_the_same_bytes(self, tmp_path):
        box = Box3D("c\u00e9r\"", Vec3(-0.0, 5e-324, 1e16), (1e-05, 1.7976931348623157e308, 2.0),
                    Quaternion(1.0, -0.0, 5e-324, 0.0), (1e-05, -0.0), 5e-324, "i\\d", "\x00")
        dets = [FrameDetections("s\n", 2**63, [box, make_box()]), FrameDetections("s\n", 2**64, [])]
        path = tmp_path / "x.det.jsonl"
        write_detections(path, dets)
        assert path.read_bytes() == "".join(dict_detections_line(d) + "\n" for d in dets).encode()


class TestBoxDecoder:
    def test_matches_seed_decoder(self):
        def decoded(line, decode, with_score):
            try:
                return _decode_line(line, lambda o: decode(o, with_score), "box.jsonl", 1)
            except ValidationError:
                return None

        @given(box_objects(), st.booleans())
        @settings(max_examples=600, deadline=None)
        def same_outcome(obj, with_score):
            line = (json.dumps(obj) + "\n").encode()
            got = decoded(line, _box_from_json, with_score)
            want = decoded(line, seed_box_from_json, with_score)
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert repr(box_fields(got)) == repr(want)
                assert box_fields(got) == want

        same_outcome()

    @staticmethod
    def assert_builds_what_the_public_constructors_build(obj, with_score):
        def public():
            return Box3D(obj["category"], Vec3(*obj["center"]), tuple(obj["size"]),
                         Quaternion(*obj["rotation"]), tuple(obj["velocity"]),
                         obj["score"] if with_score else 1.0, obj["instance_id"], obj["attribute"])

        outcomes = []
        for make in (lambda: _box_from_json(obj, with_score), public):
            try:
                outcomes.append(make())
            except ValidationError:
                outcomes.append(None)
        got, want = outcomes
        if want is None:
            assert got is None
        else:
            assert got == want
            assert repr(got) == repr(want)
            assert hash(got) == hash(want)
        return want is not None

    @given(numeric_box_objects(), st.booleans())
    @settings(max_examples=400)
    def test_builds_the_box_the_public_constructors_build(self, obj, with_score):
        accepted = self.assert_builds_what_the_public_constructors_build(obj, with_score)
        event("accepted" if accepted else "rejected")

    def test_builds_the_box_the_public_constructors_build_at_every_edge(self):
        valid = {"category": "car", "center": [1.0, -2.0, 0.5], "size": [2.0, 4.0, 1.5],
                 "rotation": [0.5, 0.5, 0.5, -0.5], "velocity": [3.0, -1.0], "score": 0.5,
                 "instance_id": "a", "attribute": None}
        edges = [0.0, -0.0, -1.0, 5e-324, 1.0, 1.5, 1e308, math.inf, -math.inf, math.nan]
        self.assert_builds_what_the_public_constructors_build(valid, True)
        for key in ("center", "size", "rotation", "velocity"):
            for k, edge in itertools.product(range(len(valid[key])), edges):
                vector = list(valid[key])
                vector[k] = edge
                self.assert_builds_what_the_public_constructors_build({**valid, key: vector}, True)
            for edge in edges:
                vector = [edge] * len(valid[key])
                self.assert_builds_what_the_public_constructors_build({**valid, key: vector}, True)
        for edge in edges:
            self.assert_builds_what_the_public_constructors_build({**valid, "score": edge}, True)

    @pytest.mark.parametrize("field", ["instance_id", "attribute"])
    @pytest.mark.parametrize("value", [5, 1.5, True, ["a"], {"a": "b"}])
    def test_identity_and_attribute_are_strings_or_null(self, field, value):
        obj = {"category": "car", "center": [1, 2, 3], "size": [1, 2, 3],
               "rotation": [1, 0, 0, 0], "velocity": [0, 0], field: None}
        assert getattr(_box_from_json(obj, with_score=False), field) is None
        del obj[field]
        assert getattr(_box_from_json(obj, with_score=False), field) is None
        obj[field] = value
        with pytest.raises(ValidationError, match=f"box {field} must be a string"):
            _box_from_json(obj, with_score=False)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("center", "123"),
            ("center", {"1": 0, "2": 0, "3": 0}),
            ("center", [1.0, "2", 3.0]),
            ("size", [True, True, True]),
            ("rotation", [True, 0, 0, 0]),
            ("rotation", [1.0, 0.0, 0.0, None]),
            ("velocity", {"1": 0, "2": 0}),
            ("velocity", "12"),
            ("velocity", [0.0, [0.0]]),
            ("score", "0.5"),
            ("score", True),
            ("score", None),
            ("category", 7),
            ("category", None),
            ("category", ["car"]),
        ],
    )
    def test_rejects_non_numbers_and_non_strings(self, field, value):
        obj = {"category": "car", "center": [1, 2, 3], "size": [1, 2, 3],
               "rotation": [2, 0, 0, 0], "velocity": [0, 0], "score": 0.5}
        assert box_fields(_box_from_json(obj, with_score=True)) == seed_box_from_json(
            obj, with_score=True
        )
        obj[field] = value
        with pytest.raises(ValidationError):
            _box_from_json(obj, with_score=True)
        with pytest.raises(ValidationError):
            seed_box_from_json(obj, with_score=True)

    def test_accepts_what_the_seed_decoder_accepts(self):
        # integers are JSON numbers; nothing else is coerced to one
        obj = {"category": "7", "center": [1, 2, 3], "size": [1, 2, 3], "rotation": [2, 0, 0, 0],
               "velocity": [1, 2], "score": 0}
        got = _box_from_json(obj, with_score=True)
        assert box_fields(got) == seed_box_from_json(obj, with_score=True)
        assert repr(box_fields(got)) == repr(seed_box_from_json(obj, with_score=True))
        assert got.center == Vec3(1.0, 2.0, 3.0) and got.velocity == (1.0, 2.0)
        assert got.category == "7" and got.score == 0.0 and type(got.score) is float

    def test_score_of_ground_truth_is_not_read(self):
        obj = {"category": "car", "center": [1, 2, 3], "size": [1, 2, 3],
               "rotation": [1, 0, 0, 0], "velocity": [0, 0], "score": "x"}
        assert _box_from_json(obj, with_score=False).score == 1.0


def test_duplicate_instance_ids_rejected():
    boxes = [make_box(instance_id="a"), make_box(x=5.0, instance_id="a")]
    with pytest.raises(ValidationError, match="duplicate instance_id"):
        FrameAnnotations("s0", 0, True, boxes)


def test_temporal_db_must_increase():
    with pytest.raises(ValidationError, match="strictly increase"):
        TemporalDatabase([FrameDetections("s0", 10, []), FrameDetections("s0", 10, [])])


def logged_blocks(scene_ids, log):
    """(scene_id, block) for each scene, noting in `log` each one read."""
    for scene_id in scene_ids:
        log.append(scene_id)
        yield scene_id, f"block {scene_id}"


class TestSceneCursor:
    def test_take_in_any_order_holds_only_the_blocks_passed(self):
        log = []
        cursor = SceneCursor(logged_blocks("abcd", log), "stream")
        assert cursor.take("c") == "block c"
        assert log == ["a", "b", "c"]
        assert cursor._held == {"a": "block a", "b": "block b"}
        assert cursor.take("a") == "block a"
        assert cursor.take("b") == "block b"
        assert log == ["a", "b", "c"] and cursor._held == {}
        assert cursor.take("d") == "block d"
        assert cursor.take("c") is None  # taken already
        assert cursor.take("x") is None and log == ["a", "b", "c", "d"]

    def test_any_iterable_is_read_on_from_where_it_stopped(self):
        cursor = SceneCursor([("a", 1), ("b", 2), ("c", 3)], "stream")
        assert cursor.take("b") == 2
        assert cursor.take("c") == 3
        assert cursor.rest() == {"a": 1}

    def test_known_fails_at_the_first_unknown_block(self):
        log = []
        cursor = SceneCursor(logged_blocks("axcy", log), "detections", known={"a", "c"})
        assert cursor.take("a") == "block a"
        with pytest.raises(ValidationError) as exc:
            cursor.take("c")
        # the whole input is read to name every unknown scene, in sorted order
        assert str(exc.value) == "scene mismatch: detections for unknown scenes ['x', 'y']"
        assert log == ["a", "x", "c", "y"]

    def test_rest_reads_to_the_end(self):
        log = []
        cursor = SceneCursor(logged_blocks("abc", log), "stream")
        assert cursor.take("b") == "block b"
        assert cursor.rest() == {"a": "block a", "c": "block c"}
        assert log == ["a", "b", "c"]

    def test_finish_rejects_a_block_not_taken_of_an_unknown_scene(self):
        cursor = SceneCursor(logged_blocks("abc", []), "temporal database")
        cursor.take("a")
        cursor.finish(["a", "b", "c"])  # scenes of the ground truth not taken are fine
        cursor = SceneCursor(logged_blocks("abc", []), "temporal database")
        cursor.take("a")
        with pytest.raises(ValidationError) as exc:
            cursor.finish(["a", "b"])
        assert str(exc.value) == "scene mismatch: temporal database for unknown scenes ['c']"


class TestSceneFile:
    def test_two_line_roundtrip(self, tmp_path):
        path = tmp_path / "s0.gt.jsonl"
        write_lines(path, [gt_line(0), gt_line(500_000, keyframe=False)])
        ((_, frames),) = iter_scene_annotations(path)
        assert [f.timestamp_us for f in frames] == [0, 500_000]
        assert frames[0].is_keyframe and not frames[1].is_keyframe
        assert frames[0].boxes[0].score == 1.0

    def test_write_read_identical(self, tmp_path):
        path = tmp_path / "s0.gt.jsonl"
        frames = [
            FrameAnnotations(
                "s0",
                t,
                True,
                [make_box(x=0.1 * t, yaw=0.37, vx=1.234567, instance_id="obj-0",
                          attribute="vehicle.moving")],
            )
            for t in (0, 83_333, 166_667)
        ]
        write_scene_annotations(path, frames)
        assert list(iter_scene_annotations(path)) == [("s0", frames)]

    def test_duplicate_timestamp_rejected(self, tmp_path):
        path = tmp_path / "s0.gt.jsonl"
        write_lines(path, [gt_line(0), gt_line(0)])
        with pytest.raises(ValidationError, match="unsorted scene"):
            list(iter_scene_annotations(path))

    def test_negative_width_names_field_and_line(self, tmp_path):
        path = tmp_path / "s0.gt.jsonl"
        bad = gt_line(83_333)
        bad["boxes"][0]["size"] = [-2.0, 4.0, 1.5]
        write_lines(path, [gt_line(0), bad])
        with pytest.raises(ValidationError, match=r":2: size"):
            list(iter_scene_annotations(path))

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "s0.gt.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps(gt_line(0)) + "\n")
            fh.write("{not json\n")
        with pytest.raises(ValidationError, match=r":2: malformed JSON"):
            list(iter_scene_annotations(path))

    def test_roundtrip_arbitrary_floats(self, tmp_path):
        from hypothesis import event, given, settings
        from hypothesis import strategies as st

        coords = st.floats(-1e6, 1e6, allow_nan=False)

        @given(coords, coords, st.floats(0.01, 100.0), st.floats(-3.14, 3.14),
               st.floats(0.0, 1.0))
        @settings(max_examples=50, deadline=None)
        def roundtrip(x, vy, w, yaw, score):
            path = tmp_path / "rt.det.jsonl"
            det = FrameDetections(
                "s0", 12345,
                [make_box(x=x, vy=vy, w=w, yaw=yaw, score=score, attribute="a.b")],
            )
            write_detections(path, [det])
            assert list(iter_detections(path)) == [("s0", [det])]

        roundtrip()

    def test_multi_scene_file(self, tmp_path):
        path = tmp_path / "multi.gt.jsonl"
        write_lines(
            path,
            [gt_line(0, "s0"), gt_line(1000, "s0"), gt_line(0, "s1"), gt_line(1000, "s1")],
        )
        assert [(sid, len(block)) for sid, block in iter_scene_annotations(path)] == [
            ("s0", 2), ("s1", 2)]

    @pytest.mark.parametrize("read", [iter_scene_annotations, iter_detections, iter_temporal_db])
    def test_interleaved_scenes_rejected_naming_the_line(self, tmp_path, read):
        # each scene's timestamps increase, but s0 comes back after s1
        lines = [gt_line(0, "s0"), gt_line(0, "s1"), gt_line(1000, "s0")]
        if read is not iter_scene_annotations:
            lines = [{k: v for k, v in o.items() if k != "is_keyframe"} | {
                "boxes": [b | {"score": 0.5} for b in o["boxes"]]} for o in lines]
        path = tmp_path / "interleaved.jsonl"
        write_lines(path, lines)
        with pytest.raises(ValidationError) as info:
            list(read(path))
        assert str(info.value) == (
            f"{path}:3: scene 's0' comes back after other scenes' lines; "
            "each scene's lines must be contiguous"
        )


class TestDetectionFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "s0.det.jsonl"
        dets = [
            FrameDetections("s0", 0, [make_box(score=0.875, vx=2.5)]),
            FrameDetections("s0", 83_333, [make_box(x=0.2, score=0.5)]),
        ]
        write_detections(path, dets)
        assert list(iter_detections(path)) == [("s0", dets)]

    def test_temporal_db_from_file(self, tmp_path):
        path = tmp_path / "s0.tdb.jsonl"
        write_lines(
            path,
            [
                {"scene_id": "s0", "timestamp_us": 0, "boxes": [gt_line(0)["boxes"][0] | {"score": 0.9}]},
                {"scene_id": "s0", "timestamp_us": 50_000, "boxes": []},
            ],
        )
        ((_, db),) = iter_temporal_db(path)
        assert len(db) == 2
        assert db.entries[0].boxes[0].score == 0.9


# per line kind: the JSON text of each field of one valid line, the reader
# of that line's record, and the record attribute each header field becomes
HEADER_LINES = {
    "gt": ({"scene_id": '"s"', "timestamp_us": "0", "is_keyframe": "true", "boxes": "[]"},
           lambda path: next(iter_scene_annotations(path))[1][0], {}),
    "det": ({"scene_id": '"s"', "timestamp_us": "0", "boxes": "[]"},
            lambda path: next(iter_detections(path))[1][0], {"timestamp_us": "source_timestamp_us"}),
    "stream": ({"scene_id": '"s"', "completion_us": "1000000", "source_us": "0", "boxes": "[]"},
               lambda path: next(iter_stream(path))[1].records[0], {}),
    "sv": ({"scene_id": '"s"', "completion_us": "1000000", "source_us": "0", "refined": "[]"},
           lambda path: next(iter_stream(path, "refined"))[1].records[0], {}),
}
HEADER_KINDS = {"scene_id": str, "timestamp_us": int, "is_keyframe": bool,
                "completion_us": int, "source_us": int}
# bool, string, integral float, non-integral float, overflowing float, null, array
HEADER_VALUES = ["true", '"7"', "7.0", "7.5", "1e400", "null", "[7]"]


class TestHeaderFields:
    @pytest.mark.parametrize("text", HEADER_VALUES)
    @pytest.mark.parametrize("line, field", [(line, field) for line, (fields, _, _) in
                                             HEADER_LINES.items() for field in fields
                                             if field in HEADER_KINDS])
    def test_read_as_typed_reads_them(self, tmp_path, line, field, text):
        """Every header field of every line decoder is accepted or refused
        exactly as `_typed` does, and a refusal names the line."""
        fields, read, attrs = HEADER_LINES[line]
        path = tmp_path / f"x.{line}.jsonl"
        path.write_text("{" + ",".join(f'"{k}":{text if k == field else v}'
                                       for k, v in fields.items()) + "}\n")
        try:
            want = _typed(json.loads(text), HEADER_KINDS[field], field)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as info:
                read(path)
            assert str(info.value) == f"{path}:1: {exc}"
        else:
            got = getattr(read(path), attrs.get(field, field))
            assert got == want and type(got) is type(want)


class TestRuntimeProfile:
    def test_empirical(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"name": "rtx3090", "samples_ms": [116, 117, 118]}))
        profile = load_runtime_profile(path)
        assert profile.name == "rtx3090"
        assert profile.samples_ms == [116.0, 117.0, 118.0]

    def test_constant(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"name": "c", "distribution": "constant", "params": {"ms": 500}}))
        profile = load_runtime_profile(path)
        assert profile.distribution == "constant"
        assert profile.params["ms"] == 500.0

    def test_empty_samples_rejected(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"samples_ms": []}))
        with pytest.raises(ValidationError, match="empty profile"):
            load_runtime_profile(path)

    def test_nonpositive_sample_rejected(self):
        with pytest.raises(ValidationError, match="positive"):
            RuntimeProfile("x", samples_ms=[100.0, 0.0])

    def test_unknown_distribution(self):
        with pytest.raises(ValidationError, match="unknown profile distribution"):
            RuntimeProfile("x", distribution="gamma", params={"k": 1.0})

    def test_overhead_and_contention_read(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(
            '{"name": "swept", "samples_ms": [101.5, 230.25], "overhead_ms": 10,\n'
            ' "contention_factor": 2.0}\n'
        )
        assert load_runtime_profile(path) == RuntimeProfile(
            "swept", samples_ms=[101.5, 230.25], overhead_ms=10.0, contention_factor=2.0
        )


class TestRegularTimestamps:
    def test_12hz_grid_values(self):
        grid = regular_timestamps(0, 500_000, 12.0)
        assert grid == [0, 83_333, 166_667, 250_000, 333_333, 416_667, 500_000]

    def test_anchored_grids_agree(self):
        long = regular_timestamps(0, 2_000_000, 12.0)
        short = regular_timestamps(0, 1_000_000, 12.0)
        assert long[: len(short)] == short

    def test_bad_rate(self):
        with pytest.raises(ValidationError):
            regular_timestamps(0, 10, 0.0)


def det_lines(scene_ids, frames=3) -> list[str]:
    """Detection lines of each scene in turn, `frames` each, as the writer lays them out."""
    lines = []
    for scene_id in scene_ids:
        out = io.StringIO()
        write_detections(out, [FrameDetections(scene_id, t, [make_box(x=float(t), score=0.5)])
                               for t in range(frames)])
        lines += out.getvalue().splitlines(keepends=True)
    return lines


class TestSkippingReaders:
    """A reader given `skip` passes over those scenes' lines without decoding
    them, and reads every other scene as it would without."""

    @given(st.lists(st.sampled_from(["a", "b", 'q"', "z\u00e9", "c\\"]), min_size=1, max_size=5,
                    unique=True),
           st.sets(st.integers(0, 4)), st.sets(st.integers(0, 30)))
    @settings(max_examples=100, deadline=None)
    def test_every_other_scene_reads_as_without(self, tmp_path_factory, scene_ids, skipped, blanks):
        path = tmp_path_factory.mktemp("skip") / "x.det.jsonl"
        lines = det_lines(scene_ids)
        path.write_text("".join(("\n" if i in blanks else "") + line
                                for i, line in enumerate(lines)))
        skip = frozenset(scene_ids[i] for i in skipped if i < len(scene_ids))
        want = [(sid, block) for sid, block in iter_detections(path) if sid not in skip]
        assert list(iter_detections(path, skip)) == want
        sizes = [sum(len(line.encode()) for line in lines[3 * k:3 * k + 3])
                 for k in range(len(scene_ids))]
        assert scene_sizes(path) == list(zip(scene_ids, sizes))

    @pytest.mark.parametrize("line", [
        '{"timestamp_us":9,"scene_id":"a","boxes":[]}\n',
        '{"scene_id": "a","timestamp_us":9,"boxes":[]}\n',
        ' {"scene_id":"a","timestamp_us":9,"boxes":[]}\n',
        '{"scene_id":"a"}\n',
        '{"scene_id":"a\\x","timestamp_us":9,"boxes":[]}\n',
        b'{"scene_id":"a\xff","timestamp_us":9,"boxes":[]}\n'.decode("latin-1"),
    ], ids=["keys-reordered", "space", "indented", "no-comma", "bad-escape", "bad-utf8"])
    @pytest.mark.parametrize("at", [0, 3])
    def test_a_line_of_another_form_reads_as_without_skip(self, tmp_path, line, at):
        lines = det_lines(["a", "b"])
        path = tmp_path / "x.det.jsonl"
        path.write_bytes("".join(lines[:at] + [line] + lines[at:]).encode("latin-1"))
        assert scene_sizes(path) is None

        def outcome(skip):
            try:
                return list(iter_detections(path, frozenset(skip)))
            except ValidationError as exc:
                return str(exc)

        # the two readers of a split run, each skipping the other's scene
        serial, split = outcome(()), [outcome({"b"}), outcome({"a"})]
        if isinstance(serial, str):
            assert serial in split
        else:
            assert split == [[block] for block in serial]

    def test_a_record_of_another_scene_than_its_line_starts_with_is_rejected(self, tmp_path):
        path = tmp_path / "x.det.jsonl"
        # json keeps the last of two equal keys
        path.write_text("".join(det_lines(["a"])) + '{"scene_id":"a","timestamp_us":9,"boxes":[],'
                        '"scene_id":"b"}\n')
        assert [s for s, _ in iter_detections(path)] == ["a", "b"]
        with pytest.raises(ValidationError, match=r":4: line starts with another scene id"):
            list(iter_detections(path, frozenset({"c"})))

    def test_skipped_lines_count_for_contiguity(self, tmp_path):
        path = tmp_path / "x.det.jsonl"
        lines = det_lines(["a", "b"])
        path.write_text("".join(lines[1:] + lines[:1]))
        assert scene_sizes(path) is None
        for skip in ({"a"}, {"b"}):
            with pytest.raises(ValidationError, match="scene 'a' comes back"):
                list(iter_detections(path, frozenset(skip)))
