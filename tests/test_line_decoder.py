"""The JSON-Lines readers parse each line with orjson and leave to stdlib
`json` every line on which orjson could differ. These tests hold the fast
decoder, `data._decode_line`, to the stdlib-only reference in
`oracles.stdlib_decode_line` on real writer lines and mutations of them,
and check that a line nested far too deeply for orjson fails as `json`
fails it instead of crashing the interpreter."""

import io
import os
import re
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_box
from oracles import stdlib_decode_line
from streameval import data
from streameval.data import (
    FrameAnnotations,
    FrameDetections,
    PredictionStream,
    StreamRecord,
    write_detections,
    write_scene_annotations,
    write_stream,
)

ROOT = Path(__file__).resolve().parent.parent


def writer_line(kind: str, boxes) -> bytes:
    """The line a writer writes for one record of `kind` holding `boxes`."""
    out = io.StringIO()
    if kind == "gt":
        write_scene_annotations(out, [FrameAnnotations("scene-a", 83_333, True, boxes)])
    elif kind == "det":
        write_detections(out, [FrameDetections("scene-a", 83_333, boxes)])
    else:
        record = StreamRecord(333_333, FrameDetections("scene-a", 83_333, boxes))
        write_stream(out, [PredictionStream([record])],
                     boxes="refined" if kind == "sv" else "boxes")
    return out.getvalue().encode("utf-8")


DECODERS = {
    "gt": data._frame_from_json,
    "det": data._detections_from_json,
    "stream": partial(data._record_from_json, boxes="boxes"),
    "sv": partial(data._record_from_json, boxes="refined"),
}
# the integer fields of each kind's header, and the box fields its lines hold
HEADER_FIELDS = {"gt": ["timestamp_us"], "det": ["timestamp_us"],
                 "stream": ["completion_us", "source_us"], "sv": ["completion_us", "source_us"]}
BOX_FIELDS = {"gt": ["center", "size", "rotation", "velocity"],
              **dict.fromkeys(["det", "stream", "sv"],
                              ["center", "size", "rotation", "velocity", "score"])}
BOXES = [make_box(1.5, -2.25, 0.8, yaw=0.3, vx=1.0, score=0.75, instance_id="car-1",
                  attribute="moving"),
         make_box(-30.0, 12.0, category="pedestrian", w=0.7, l=0.7, score=0.5)]


def outcome(decoder, line: bytes, decode) -> tuple[str, str]:
    """What a line decoder makes of `line`: the record's repr, which tells
    an int from a float and -0.0 from 0.0, or the exception it raises."""
    try:
        return "record", repr(decoder(line, decode, "in.jsonl", 7))
    except Exception as exc:  # compared by type and message
        return type(exc).__name__, str(exc)


def assert_decoded_as_stdlib_does(kind: str, line: bytes):
    decode = DECODERS[kind]
    want = outcome(stdlib_decode_line, line, decode)
    assert outcome(data._decode_line, line, decode) == want, line[:300]
    return want


NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")


def set_number(line: bytes, key: str, text: bytes) -> bytes:
    """`line` with the first number after its first `"key":`, the first
    element when the value is an array, replaced by `text`."""
    start = line.index(f'"{key}":'.encode()) + len(key) + 3
    m = NUMBER.search(line, start)
    return line[:m.start()] + text + line[m.end():]


def nested(line: bytes, openers: int, in_box: bool = False) -> bytes:
    """`line` with a key whose value nests arrays so deep that the line
    opens `openers` arrays and objects in all, added to the record or to
    its first box; neither reads the key."""
    k = openers - line.count(b"[") - line.count(b"{")
    extra = b'"extra":' + b"[" * k + b"]" * k + b","
    at = line.index(b'"category"') if in_box else 1
    return line[:at] + extra + line[at:]


# numbers on which the parsers differ or come close to it: NaN and the
# infinities, an overflow, integers at and beyond the 64-bit limits, the
# smallest subnormal and an underflow, and signed zeros
SPECIAL_NUMBERS = [b"NaN", b"Infinity", b"-Infinity", b"1e400", b"-1e400",
                   str(2**63 - 1).encode(), str(2**63).encode(), str(-(2**63)).encode(),
                   str(-(2**63) - 1).encode(), str(2**64 - 1).encode(), str(2**64).encode(),
                   str(2**64 + 1).encode(), str(10**30).encode(), str(-(10**30)).encode(),
                   b"1e30", b"4.9e-324", b"1e-400", b"-0", b"-0.0", b"0.0", b"1", b"1.0"]


@pytest.mark.parametrize("kind", sorted(DECODERS))
class TestEdgeLines:
    """Each case the two parsers are known to treat differently, at each
    place of each kind of line."""

    def test_writer_line_is_a_record(self, kind):
        line = writer_line(kind, BOXES)
        assert assert_decoded_as_stdlib_does(kind, line)[0] == "record"
        assert assert_decoded_as_stdlib_does(kind, writer_line(kind, []))[0] == "record"

    @pytest.mark.parametrize("text", SPECIAL_NUMBERS, ids=lambda t: t.decode())
    def test_special_numbers_in_header_and_box_fields(self, kind, text):
        line = writer_line(kind, BOXES)
        for key in HEADER_FIELDS[kind] + BOX_FIELDS[kind]:
            assert_decoded_as_stdlib_does(kind, set_number(line, key, text))

    def test_integers_beyond_64_bits_keep_their_value(self, kind):
        # orjson reads 10**30 as the float 1e30, whose integer is another
        # timestamp: such a line is decided by `json`, which reads it exactly
        line = set_number(writer_line(kind, BOXES), HEADER_FIELDS[kind][0],
                          str(10**30).encode())
        kind_, record = assert_decoded_as_stdlib_does(kind, line)
        assert kind_ == "record" and str(10**30) in record

    @pytest.mark.parametrize("text", [b"\\ud800", b"\\udc00", b"\\ud83d\\ude00", b"\\u0000",
                                      b"\xff", b"\xed\xa0\x80", b"\xc0\x80", b"\xc3\xa9",
                                      b"\x01", b"\x7f"])
    def test_strange_strings(self, kind, text):
        line = writer_line(kind, BOXES)
        for key in (b'"scene-a', b'"car-1', b'"moving'):
            at = line.index(key) + 1
            assert_decoded_as_stdlib_does(kind, line[:at] + text + line[at:])

    def test_byte_order_mark_and_other_framing(self, kind):
        line = writer_line(kind, BOXES)
        for framed in (b"\xef\xbb\xbf" + line, b" \t" + line, line.rstrip() + b"\r\n",
                       line.rstrip() + b"\x00", line.rstrip() + b" {}", b"\x0c" + line,
                       line.rstrip() + b"\xc2\xa0", b"[" + line.rstrip() + b"]", b"null",
                       b"[]", b"1", b'"x"'):
            assert_decoded_as_stdlib_does(kind, framed)

    def test_duplicate_keys(self, kind):
        line = writer_line(kind, BOXES).rstrip()
        for key in HEADER_FIELDS[kind] + ["scene_id"]:
            for value in (b"5", str(10**30).encode(), b"1.5", b'"x"', b"null"):
                assert_decoded_as_stdlib_does(kind, line[:-1] + f',"{key}":'.encode()
                                              + value + b"}")
                assert_decoded_as_stdlib_does(kind, b"{" + f'"{key}":'.encode() + value
                                              + b"," + line[1:])
        for key in BOX_FIELDS[kind]:
            at = line.index(b'"category"')
            assert_decoded_as_stdlib_does(
                kind, line[:at] + f'"{key}":[1e30,"x"],'.encode() + line[at:])

    @pytest.mark.parametrize("openers", [data._FAST_OPENERS - 1, data._FAST_OPENERS,
                                         data._FAST_OPENERS + 1, 2 * data._FAST_OPENERS])
    def test_nesting_at_the_guard_and_above_it(self, kind, openers):
        line = writer_line(kind, BOXES)
        for in_box in (False, True):
            deep = nested(line, openers, in_box)
            assert deep.count(b"[") + deep.count(b"{") == openers
            got = assert_decoded_as_stdlib_does(kind, deep)[0]
            # `json` reads a line just over the guard; far deeper it may not
            assert got == "record" or openers > data._FAST_OPENERS + 1


# any JSON number, many with more digits or a larger exponent than a double holds
JSON_NUMBERS = st.from_regex(
    r"\A-?(0|[1-9][0-9]{0,40})(\.[0-9]{1,40})?([eE][+-]?[0-9]{1,3})?\Z"
).map(str.encode)
STRANGE = st.sampled_from([b"NaN", b"Infinity", b"\\ud800", b"\xff", b"\xef\xbb\xbf", b"{", b"[",
                           b"]", b"}", b",", b'"', b"\\", b"null", b" ", b"\n"])


@st.composite
def mutated_lines(draw):
    """(kind, line): a writer line of random boxes with up to three
    mutations: a number replaced, a key repeated, text or bytes inserted,
    a byte removed, or a deep array added."""
    kind = draw(st.sampled_from(sorted(DECODERS)))
    floats = st.floats(allow_nan=False, allow_infinity=False)
    boxes = draw(st.lists(st.builds(make_box, x=floats, y=floats, z=floats,
                                    w=st.floats(1e-300, 1e300), vx=floats,
                                    yaw=st.floats(-10.0, 10.0), score=st.floats(0.0, 1.0)),
                          max_size=3))
    line = writer_line(kind, boxes)
    numbers = st.sampled_from(SPECIAL_NUMBERS) | JSON_NUMBERS
    for _ in range(draw(st.integers(0, 3))):
        how = draw(st.sampled_from(["number", "repeat", "insert", "delete", "nest"]))
        if how == "number":
            spans = list(NUMBER.finditer(line))
            if spans:
                m = draw(st.sampled_from(spans))
                line = line[:m.start()] + draw(numbers) + line[m.end():]
        elif how == "repeat":
            key = draw(st.sampled_from(HEADER_FIELDS[kind] + BOX_FIELDS[kind]))
            line = b"{" + f'"{key}":'.encode() + draw(numbers) + b"," + line[1:]
        elif how == "insert":
            at = draw(st.integers(0, len(line)))
            line = line[:at] + draw(STRANGE | st.binary(min_size=1, max_size=3)) + line[at:]
        elif how == "delete" and line:
            at = draw(st.integers(0, len(line) - 1))
            line = line[:at] + line[at + 1:]
        elif how == "nest" and line.startswith(b"{"):
            openers = line.count(b"[") + line.count(b"{")
            line = nested(line, max(openers + 1, data._FAST_OPENERS + draw(st.integers(-2, 2))))
    return kind, line


@settings(max_examples=400, deadline=None)
@given(case=mutated_lines())
def test_fast_decoder_matches_stdlib_on_mutated_writer_lines(case):
    kind, line = case
    assert_decoded_as_stdlib_does(kind, line)


# each JSON-Lines reader, with no scene skipped and with one skipped, which
# reads the line's scene id before decoding it
DEEP_SCRIPT = """
import sys
from streameval.data import ValidationError, iter_detections, iter_scene_annotations, iter_stream
readers = {
    "iter_scene_annotations": iter_scene_annotations,
    "iter_detections": iter_detections,
    "iter_stream boxes": lambda path, skip: iter_stream(path, "boxes", skip),
    "iter_stream refined": lambda path, skip: iter_stream(path, "refined", skip),
}
for name, read in readers.items():
    for skip in (frozenset(), frozenset({"other"})):
        try:
            list(read(sys.argv[1], skip))
            print(name, sorted(skip), "accepted")
        except ValidationError as exc:
            print(name, sorted(skip), exc)
"""


def test_a_line_nested_far_too_deeply_fails_as_json_fails_it(tmp_path):
    """orjson has no depth limit: on a line 200,000 arrays deep it overflows
    the C stack. Every reader must reject the line as `json` does. It runs in
    a child interpreter, so that a crash fails this test, not the test run."""
    path = tmp_path / "deep.jsonl"
    depth = 200_000
    path.write_bytes(b'{"scene_id":"s","timestamp_us":0,"completion_us":0,"source_us":0,'
                     b'"boxes":' + b"[" * depth + b"]" * depth + b"}\n")
    done = subprocess.run([sys.executable, "-c", DEEP_SCRIPT, str(path)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=120)
    assert done.returncode == 0, f"exit {done.returncode}: {done.stderr[-2000:]}"
    lines = done.stdout.splitlines()
    assert len(lines) == 8, done.stdout
    for line in lines:
        assert line.endswith(f"{path}:1: malformed JSON: nested too deeply"), line
