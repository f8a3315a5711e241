"""The JSON-Lines writers print each line with orjson and leave to stdlib
`json` every line on which orjson could print something else. These tests
hold `data._json_line`'s orjson path to the dict-plus-`json.dumps`
reference writers in `tests/oracles.py` number by number: on doubles of
every exponent, on the neighbours of each bound where `repr` changes form,
on every ASCII character and on text and integers orjson cannot write. They
also check that a line with no doubtful text never reaches `json.dumps`."""

import io
import json
import math
import struct
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dict_detections_line, dict_frame_line, dict_record_line
from streameval import data
from streameval.data import (
    Box3D,
    FrameAnnotations,
    FrameDetections,
    PredictionStream,
    StreamRecord,
    write_detections,
    write_scene_annotations,
    write_stream,
)
from streameval.geom import Quaternion, Vec3


def steps(x: float, n: int = 3) -> list[float]:
    """`x` and its `n` nearest doubles on either side."""
    out, lo, hi = [x], x, x
    for _ in range(n):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


# the bounds where `repr` or orjson changes how it writes a number, the
# widths of exponent orjson writes (1e16, 1e40, 5e99, 1e100, 1e308), signed
# zeros, the smallest subnormal and the largest double
EDGES = [y for x in (1e-5, 1e-4, 1e16, 1e40, 5e99, 1e100) for y in steps(x) + [-y for y in steps(x)]]
EDGES += [0.0, -0.0, 5e-324, -5e-324, 1e308, 1.7976931348623157e308, -1.7976931348623157e308]


def bits_to_float(bits: int) -> float:
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


# any finite double: random 64-bit patterns give every exponent alike
NUMBERS = st.sampled_from(EDGES) | st.integers(0, 2**64 - 1).map(bits_to_float).filter(math.isfinite)


def raw(cls, **fields):
    """A `cls` holding `fields` as given: no check, no normalizing. The
    writers print what a record holds, so any double can be put anywhere."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        setattr(obj, name, value)
    return obj


def raw_box(numbers, category="car", instance_id=None, attribute=None) -> Box3D:
    x, y, z, w, l, h, qw, qx, qy, qz, vx, vy, score = numbers
    return raw(Box3D, category=category, center=raw(Vec3, x=x, y=y, z=z), size=(w, l, h),
               rotation=raw(Quaternion, w=qw, x=qx, y=qy, z=qz), velocity=(vx, vy),
               score=score, instance_id=instance_id, attribute=attribute)


def written(write, *args) -> str:
    out = io.StringIO()
    write(out, *args)
    return out.getvalue()


def assert_every_writer_matches_the_oracle(scene_id, t, boxes):
    """Each writer's line for `boxes` is the reference writer's line."""
    frame = raw(FrameAnnotations, scene_id=scene_id, timestamp_us=t, is_keyframe=True, boxes=boxes)
    det = FrameDetections(scene_id, t, boxes)
    record = StreamRecord(t, det)
    assert written(write_scene_annotations, [frame]) == dict_frame_line(frame) + "\n"
    assert written(write_detections, [det]) == dict_detections_line(det) + "\n"
    for field in ("boxes", "refined"):
        assert written(write_stream, [PredictionStream([record])], field) == (
            dict_record_line(record, field) + "\n")


@given(NUMBERS | st.floats(-1e6, 1e6))
@settings(max_examples=2000)
def test_each_number_is_printed_by_orjson_unless_json_writes_an_exponent_or_0_0000(x):
    """orjson prints a number's line exactly when `repr` writes the number
    with no exponent and no `0.0000`; either way the line is `json`'s."""
    want = json.dumps({"x": x}, separators=(",", ":")) + "\n"
    with mock.patch.object(json, "dumps", wraps=json.dumps) as dumps:
        assert data._json_line({"x": x}) == want
    assert dumps.called == ("e" in repr(x) or "0.0000" in repr(x))


@given(st.lists(st.lists(NUMBERS, min_size=13, max_size=13), min_size=1, max_size=4))
@settings(max_examples=500)
def test_every_number_is_written_as_json_writes_it(box_numbers):
    boxes = [raw_box(n, instance_id=str(k)) for k, n in enumerate(box_numbers)]
    assert_every_writer_matches_the_oracle("s", 0, boxes)


def test_each_edge_in_each_field_is_written_as_json_writes_it():
    for i, x in enumerate(EDGES):
        shifted = [EDGES[(i + k) % len(EDGES)] for k in range(13)]
        assert_every_writer_matches_the_oracle("s", 0, [raw_box([x] * 13), raw_box(shifted)])


# doubles whose shortest form has no exponent in `repr` or orjson, and no
# `0.0000`, which the check takes for orjson's form of a number like 2e-05
PLAIN = (st.floats(1e-4, 1e16, exclude_max=True).flatmap(lambda x: st.sampled_from([x, -x]))
         | st.sampled_from([0.0, -0.0, 0.5, 83.333, 9999999999999998.0])
         ).filter(lambda x: "0.0000" not in repr(x))
# text without `e`, `.` or the two control characters escaped with an `e`
# (`\u000e`, `\u001e`): nothing in it can read as an exponent or as `0.0000`
PLAIN_TEXT = st.text(st.characters(min_codepoint=0, max_codepoint=0x7E,
                                   blacklist_characters="e.\x0e\x1e"), max_size=8)


def json_dumps_calls(box_numbers, texts) -> int:
    """How often the writers call `json.dumps` for one line each; each line
    must be the reference writer's."""
    boxes = [raw_box(n, *t) for n, t in zip(box_numbers, texts)]
    frame = raw(FrameAnnotations, scene_id="scene-0001", timestamp_us=2**63, is_keyframe=False,
                boxes=boxes)
    record = StreamRecord(2**64 - 1, FrameDetections("e3b0c442-1", -(2**63), boxes))
    stream = PredictionStream([record])
    want = [dict_frame_line(frame), dict_detections_line(record.detections),
            dict_record_line(record)]
    with mock.patch.object(json, "dumps", wraps=json.dumps) as dumps:
        got = [written(write_scene_annotations, [frame]),
               written(write_detections, [record.detections]), written(write_stream, [stream])]
    assert got == [line + "\n" for line in want]
    return dumps.call_count


@given(st.lists(st.lists(PLAIN, min_size=13, max_size=13), min_size=1, max_size=4),
       st.lists(st.tuples(PLAIN_TEXT, PLAIN_TEXT | st.none(), PLAIN_TEXT | st.none()),
                min_size=4, max_size=4))
@settings(max_examples=300)
def test_a_line_with_nothing_doubtful_never_reaches_json(box_numbers, texts):
    assert json_dumps_calls(box_numbers, texts) == 0


@pytest.mark.parametrize("control", ["\x0e", "\x1e"])
def test_a_control_character_escaped_with_an_e_can_send_a_line_to_json(control):
    """`\\u000e0]` reads as an exponent, so the line is doubtful: `json` writes it."""
    numbers = [1.0] * 13
    assert json_dumps_calls([numbers], [("car", None, control + "0]")]) > 0


def test_ids_that_look_like_exponents_do_not_send_a_line_to_json():
    """`scene-1` and hex ids hold `e-1`, `e3`: text the quick search finds
    and the full one passes over."""
    numbers = [1.0] * 13
    texts = [("car", "e1e2e3e-4", "e-1"), ("e9", None, "scene-0001")]
    assert json_dumps_calls([numbers, numbers], texts) == 0


@pytest.mark.parametrize("code", range(128))
def test_every_ascii_character_is_escaped_as_json_escapes_it(code):
    c = chr(code)
    box = raw_box([1.0] * 13, category=c, instance_id=c * 2, attribute=f"a{c}b")
    assert_every_writer_matches_the_oracle(f"s{c}", 0, [box])


@pytest.mark.parametrize("text", ["\u00e9", "z\u00e9", "\u00a0", "\u0080", "\u2028", "\ufeff",
                                  "\U0001d11e", "\U0001f600", "\ud800", "\udc00", "a\ud800b"])
def test_non_ascii_text_and_lone_surrogates_are_written_as_json_writes_them(text):
    box = raw_box([1.0] * 13, category=text, instance_id=text, attribute=text)
    assert_every_writer_matches_the_oracle(text, 0, [box])


@pytest.mark.parametrize("t", [0, -1, 2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64 - 1, 2**64,
                               -(2**64), 10**30])
def test_integers_beyond_64_bits_are_written_as_json_writes_them(t):
    assert_every_writer_matches_the_oracle("s", t, [raw_box([0.5] * 13)])
