"""Core domain records, their file formats, and validated ingestion.

The records are boxes, annotated and detected frames, the temporal
database, runtime profiles and prediction streams. This module is the one
reader and writer of every file format: the `.gt.jsonl`, `.det.jsonl`,
`.stream.jsonl` and `.sv.jsonl` JSON-Lines files and the runtime profile.
Timestamps are integer microseconds throughout so that recency comparisons
are exact. One JSON object per line keeps large scene logs streamable.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from math import isfinite
from pathlib import Path
from operator import attrgetter
from typing import Callable, Iterable, Iterator, TextIO

from .geom import BevRect, Quaternion, ValidationError, Vec3

US_PER_S = 1_000_000


# marks a field that `Box3D.replace` leaves as it is
_KEEP = object()
_NANS = (math.nan, math.nan, math.nan)


# Box3D writes its `__init__` out, as Vec3 and Quaternion do: it is the one
# place a box's values are checked, on the decoder's path and `replace`'s too
@dataclass(slots=True, unsafe_hash=True, init=False)
class Box3D:
    """One oriented 3D bounding box.

    size is (width, length, height) in meters; velocity is planar (vx, vy)
    in m/s. Every number is held as a float: ints and numpy scalars are
    converted on construction. Ground-truth boxes carry score 1.0 so one
    schema covers both annotations and detections. Boxes hash by value: do
    not mutate one.
    """

    category: str
    center: Vec3
    size: tuple[float, float, float]
    rotation: Quaternion
    velocity: tuple[float, float]
    score: float
    instance_id: str | None
    attribute: str | None

    def __init__(self, category: str, center: Vec3, size: tuple[float, float, float],
                 rotation: Quaternion, velocity: tuple[float, float] = (0.0, 0.0),
                 score: float = 1.0, instance_id: str | None = None, attribute: str | None = None):
        if not isinstance(category, str):
            raise ValidationError(f"box category must be a string, got {category!r}")
        if not (instance_id is None or isinstance(instance_id, str)):
            raise ValidationError(f"box instance_id must be a string, got {instance_id!r}")
        if not (attribute is None or isinstance(attribute, str)):
            raise ValidationError(f"box attribute must be a string, got {attribute!r}")
        if not (type(center) is Vec3 or isinstance(center, Vec3)):
            raise ValidationError(f"box center must be a Vec3, got {center!r}")
        if not (type(rotation) is Quaternion or isinstance(rotation, Quaternion)):
            raise ValidationError(f"box rotation must be a Quaternion, got {rotation!r}")
        # unpacked and checked element by element, in the order a loop over
        # each tuple would take, so the same inputs fail with the same error;
        # a tuple of the wrong length unpacks as NaNs, which fail the check
        w, l, h = size if len(size) == 3 else _NANS
        if not (w > 0.0 and isfinite(w) and l > 0.0 and isfinite(l) and h > 0.0 and isfinite(h)):
            raise ValidationError(f"size must be three positive finite values, got {size}")
        if not (0.0 <= score <= 1.0):
            raise ValidationError(f"score outside [0, 1]: {score}")
        vx, vy = velocity if len(velocity) == 2 else _NANS[:2]
        if not (isfinite(vx) and isfinite(vy)):
            raise ValidationError(f"velocity must be finite (vx, vy), got {velocity}")
        self.category = category
        self.center = center
        self.size = (size if type(size) is tuple and type(w) is float and type(l) is float
                     and type(h) is float else (float(w), float(l), float(h)))
        self.rotation = rotation
        self.velocity = (velocity if type(velocity) is tuple and type(vx) is float
                         and type(vy) is float else (float(vx), float(vy)))
        self.score = score if type(score) is float else float(score)
        self.instance_id = instance_id
        self.attribute = attribute

    @property
    def yaw(self) -> float:
        return self.rotation.yaw()

    def bev_rect(self) -> BevRect:
        """Ground-plane footprint of the box."""
        return BevRect(self.center.x, self.center.y, self.size[0], self.size[1], self.yaw)

    def replace(
        self, *, center=_KEEP, rotation=_KEEP, velocity=_KEEP, score=_KEEP, instance_id=_KEEP
    ) -> "Box3D":
        """This box with the given fields replaced.

        `dataclasses.replace` for the fields that change along the record
        path (pose, motion, score and identity). A new center or rotation is
        a `Vec3` or `Quaternion`, checked when it was built.
        """
        return Box3D(
            self.category,
            self.center if center is _KEEP else center,
            self.size,
            self.rotation if rotation is _KEEP else rotation,
            self.velocity if velocity is _KEEP else velocity,
            self.score if score is _KEEP else score,
            self.instance_id if instance_id is _KEEP else instance_id,
            self.attribute,
        )

    def moved_to(self, x: float, y: float) -> "Box3D":
        """This box with its center at (x, y); an overflow is invalid input."""
        return self.replace(center=Vec3(x, y, self.center.z))


@dataclass(slots=True)
class FrameAnnotations:
    """Ground-truth boxes of one scene frame."""

    scene_id: str
    timestamp_us: int
    is_keyframe: bool
    boxes: list[Box3D] = field(default_factory=list)

    def __post_init__(self):
        seen: set[str] = set()
        for box in self.boxes:
            if box.instance_id is None:
                continue
            if box.instance_id in seen:
                raise ValidationError(
                    f"duplicate instance_id {box.instance_id!r} at t={self.timestamp_us}"
                )
            seen.add(box.instance_id)


@dataclass(slots=True)
class FrameDetections:
    """Model output for one consumed frame."""

    scene_id: str
    source_timestamp_us: int
    boxes: list[Box3D] = field(default_factory=list)


@dataclass(frozen=True, slots=True)
class StreamRecord:
    """One model output: its source frame's detections and when their inference completed."""

    completion_us: int
    detections: FrameDetections

    @property
    def source_us(self) -> int:
        return self.detections.source_timestamp_us

    @property
    def scene_id(self) -> str:
        return self.detections.scene_id


@dataclass(slots=True)
class PredictionStream:
    """Time-ordered model outputs: (completion time, source frame, boxes).

    Records are validated and indexed at construction; do not modify them
    afterwards.
    """

    records: list[StreamRecord] = field(default_factory=list)
    # completion times, built once so that matching many timestamps against
    # one stream bisects instead of rebuilding the list per timestamp
    _completions: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for rec in self.records:
            if rec.source_us > rec.completion_us:
                raise ValidationError("stream record completes before its source frame")
        for prev, curr in zip(self.records, self.records[1:]):
            if curr.completion_us <= prev.completion_us:
                raise ValidationError("stream completion timestamps must strictly increase")
            if curr.source_us <= prev.source_us:
                raise ValidationError("stream source timestamps must strictly increase")
        self._completions = [r.completion_us for r in self.records]

    def __len__(self) -> int:
        return len(self.records)

    def index_before(self, t_us: int) -> int | None:
        """Index of the newest record completing strictly before `t_us`, if any."""
        idx = bisect_left(self._completions, t_us) - 1
        return idx if idx >= 0 else None


@dataclass(slots=True)
class TemporalDatabase:
    """High-rate auxiliary detections, one frame each, queryable by nearest timestamp.

    Entries are validated and indexed at construction; do not modify them
    afterwards.
    """

    entries: list[FrameDetections] = field(default_factory=list)
    # entry timestamps, built once so that each query bisects
    _timestamps: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for prev, curr in zip(self.entries, self.entries[1:]):
            if curr.source_timestamp_us <= prev.source_timestamp_us:
                raise ValidationError("temporal database timestamps must strictly increase")
        self._timestamps = [e.source_timestamp_us for e in self.entries]

    def __len__(self) -> int:
        return len(self.entries)

    def nearest(self, t_us: int) -> FrameDetections:
        """The entry closest to `t_us`; a tie goes to the earlier entry."""
        if not self.entries:
            raise ValidationError("empty temporal database")
        ts = self._timestamps
        i = bisect_left(ts, t_us)
        if i == len(ts) or (i > 0 and t_us - ts[i - 1] <= ts[i] - t_us):
            i -= 1
        return self.entries[i]


@dataclass(slots=True)
class RuntimeProfile:
    """Empirical or parametric distribution of per-frame inference time (ms).

    `contention_factor` models a multiplicative slowdown from shared compute
    and is applied at sampling time; `overhead_ms` is post-processing cost
    added after scaling.
    """

    name: str
    samples_ms: list[float] | None = None
    distribution: str | None = None
    params: dict[str, float] | None = None
    overhead_ms: float = 0.0
    contention_factor: float = 1.0

    def __post_init__(self):
        if self.samples_ms is not None:
            if len(self.samples_ms) == 0:
                raise ValidationError("empty profile: samples_ms has no entries")
            if any(not (s > 0.0 and math.isfinite(s)) for s in self.samples_ms):
                raise ValidationError("runtime samples must be positive and finite")
            if self.distribution is not None:
                raise ValidationError("profile cannot be both empirical and parametric")
        elif self.distribution == "constant":
            if not self.params or not self.params.get("ms", 0.0) > 0.0:
                raise ValidationError("constant profile needs params.ms > 0")
        elif self.distribution == "lognormal":
            if not self.params or "mu" not in self.params or not self.params.get("sigma", -1.0) >= 0.0:
                raise ValidationError("lognormal profile needs params.mu and params.sigma >= 0")
        else:
            raise ValidationError(f"unknown profile distribution: {self.distribution!r}")
        if not self.overhead_ms >= 0.0:
            raise ValidationError(f"overhead_ms must be >= 0, got {self.overhead_ms}")
        if not self.contention_factor >= 1.0:
            raise ValidationError(f"contention_factor must be >= 1, got {self.contention_factor}")


def regular_timestamps(start_us: int, end_us: int, rate_hz: float) -> list[int]:
    """Microsecond grid [start, end] at `rate_hz`, anchored at start.

    Each tick is rounded independently from the exact fraction k/rate, so
    grids generated from the same anchor agree tick-for-tick regardless of
    length (no cumulative drift).
    """
    # a period under 1 us repeats ticks, and one of 0 (an infinite rate) never ends
    if not (rate_hz > 0.0 and 1.0 <= US_PER_S / rate_hz < math.inf):
        raise ValidationError(f"rate must give a finite period of at least 1 us, got {rate_hz} Hz")
    out = []
    k = 0
    while True:
        t = start_us + round(k * US_PER_S / rate_hz)
        if t > end_us:
            break
        out.append(t)
        k += 1
    return out


def group_by_scene(frames: Iterable) -> dict[str, list]:
    """Group frames (or detections) by scene_id, preserving file order."""
    grouped: dict[str, list] = {}
    for f in frames:
        grouped.setdefault(f.scene_id, []).append(f)
    return grouped


def check_scenes(what: str, scene_ids: Iterable[str], gt_scene_ids: Iterable[str]) -> None:
    """Every scene of an input (`what`) must be a scene of the ground truth."""
    unknown = set(scene_ids).difference(gt_scene_ids)
    if unknown:
        raise ValidationError(f"scene mismatch: {what} for unknown scenes {sorted(unknown)}")


# --------------------------------------------------------------------------
# JSON-Lines serialization
# --------------------------------------------------------------------------


def _box_to_json(box: Box3D, with_score: bool) -> dict:
    """The box's JSON object, keys in schema order; a box holds only finite floats."""
    c, q = box.center, box.rotation
    obj = {} if box.instance_id is None else {"instance_id": box.instance_id}
    obj.update(category=box.category, center=[c.x, c.y, c.z], size=box.size,
               rotation=[q.w, q.x, q.y, q.z], velocity=box.velocity)
    if box.attribute is not None:
        obj["attribute"] = box.attribute
    if with_score:
        obj["score"] = box.score
    return obj


# the quick search finds every exponent; the full one passes over "scene-1"
_QUICK_EXPONENT, _EXPONENT = re.compile(rb"e[-1-9]").search, re.compile(rb"e-?\d+[],}]").search


def _json_line(obj: dict) -> str:
    """`json.dumps(obj, separators=(",", ":"))` and a newline, written by
    orjson unless it raises (integers beyond 64 bits, lone surrogates, numpy
    scalars) or its text holds what `json` may write otherwise: non-ASCII or
    DEL, which `json` escapes; `0.0000`, as in orjson's `0.00002` for `2e-05`;
    or an exponent, as in orjson's `1e16` for `1e+16`.
    """
    import orjson  # loaded by the first line written, not by `import streameval`

    try:
        line = orjson.dumps(obj, option=orjson.OPT_APPEND_NEWLINE)
        if (line.isascii() and b"\x7f" not in line and b"0.0000" not in line
                and not (_QUICK_EXPONENT(line) and _EXPONENT(line))):
            return line.decode()
    except orjson.JSONEncodeError:
        pass  # `json` writes the line, or raises as it does
    return json.dumps(obj, separators=(",", ":")) + "\n"


# a header's int or str; a float, a numpy integer or the like raises TypeError
_int, _str = int.__index__, str.__str__


# what `json.loads` decodes a JSON number to; bool is excluded by exact type
_JSON_NUMBER_TYPES = {int, float}


def _box_from_json(obj, with_score: bool) -> Box3D:
    """The box a JSON object describes: its shape is checked here, its values by `Box3D`."""
    if type(obj) is not dict:
        raise ValidationError(f"box must be a JSON object, got {obj!r}")
    try:
        center = obj["center"]
        size = obj["size"]
        rotation = obj["rotation"]
        velocity = obj["velocity"]
        category = obj["category"]
        score = obj["score"] if with_score else 1.0
    except KeyError as exc:
        raise ValidationError(f"box missing field {exc.args[0]!r}") from None
    # a string or an object unpacks into strings, which fail the type check
    x, y, z = center
    w, l, h = size
    qw, qx, qy, qz = rotation
    vx, vy = velocity
    # most boxes hold only floats; the set of kinds is built for the others
    if not (type(x) is float and type(y) is float and type(z) is float and type(w) is float
            and type(l) is float and type(h) is float and type(qw) is float
            and type(qx) is float and type(qy) is float and type(qz) is float
            and type(vx) is float and type(vy) is float and type(score) is float):
        kinds = {type(x), type(y), type(z), type(w), type(l), type(h), type(qw), type(qx),
                 type(qy), type(qz), type(vx), type(vy), type(score)}
        if not kinds <= _JSON_NUMBER_TYPES:
            raise ValidationError(
                "box coordinates, size, rotation, velocity and score must be numbers"
            )
    return Box3D(category, Vec3(x, y, z), (w, l, h), Quaternion(qw, qx, qy, qz), (vx, vy), score,
                 obj.get("instance_id"), obj.get("attribute"))


def _boxes_from_json(objs, with_score: bool) -> list[Box3D]:
    if not isinstance(objs, list):
        raise ValidationError(f"boxes must be a JSON array, got {objs!r}")
    return [_box_from_json(b, with_score) for b in objs]


def _decode(text: bytes, decode: Callable[[dict], object], path, lineno: int | None = None):
    """decode(the JSON object in `text`); any failure is a ValidationError naming
    `path`, and `lineno` when given.

    The one place input is decoded from UTF-8 and parsed, so bad bytes fail like
    bad JSON. The location is formatted only on failure.
    """
    try:
        obj = json.loads(text.decode("utf-8"))
        if not isinstance(obj, dict):
            raise ValidationError(f"expected a JSON object, got {type(obj).__name__}")
        return decode(obj)
    except json.JSONDecodeError as exc:
        msg = f"malformed JSON: {exc.msg}"
    except RecursionError:
        msg = "malformed JSON: nested too deeply"
    except KeyError as exc:
        msg = f"missing field {exc.args[0]!r}"
    except (TypeError, ValueError, OverflowError) as exc:
        msg = str(exc)
    raise ValidationError(f"{_where(path, lineno)}: {msg}")


# a line that opens more arrays and objects than this is parsed by `json`
# alone: orjson has no depth limit and crashes on a deep enough line, while
# `json` parses at least this deep under the default recursion limit
_FAST_OPENERS = 512


def _decode_line(line: bytes, decode: Callable[[dict], object], path, lineno: int):
    """`_decode(line, decode, path, lineno)`, with the line parsed by orjson
    wherever that gives what `json` gives.

    `_decode` still decides a line nested deeper than `_FAST_OPENERS`, one
    that orjson rejects (NaN, Infinity, numbers that overflow, lone
    surrogates, bad UTF-8, a BOM), one that is not an object, one with a
    float among its top-level values (orjson reads an integer outside 64
    bits as a float, which `_typed` could take for a different timestamp),
    and one that `decode` fails on. So every record is the one `json` gives,
    and every error is the one `json` gives.
    """
    if line.count(b"[") + line.count(b"{") <= _FAST_OPENERS:
        import orjson  # loaded by the first line read, not by `import streameval`

        try:
            obj = orjson.loads(line)
            if type(obj) is dict and float not in map(type, obj.values()):
                return decode(obj)
        except Exception:  # whatever failed, `_decode` fails the line as `json` does
            pass
    return _decode(line, decode, path, lineno)


def _where(path, lineno: int | None) -> str:
    return str(path) if lineno is None else f"{path}:{lineno}"


def _iter_lines(
    path: str | Path, decode: Callable[[dict], object], skip: frozenset[str] = frozenset()
) -> Iterator[tuple[int, str, object]]:
    """Yield (line number, scene id, decode(object)) for every non-blank
    line of `path`, with no record (None) for a line of a scene in `skip`.

    Any line that is not a JSON object, or that `decode` cannot turn into a
    record, raises ValidationError naming `path:line`. With `skip`, a line
    that starts with a skipped scene's id as the writers lay it out
    (`_scene_of`) is passed over undecoded; a line of any other form is
    decoded. A record of another scene than its line starts with raises
    ValidationError: a line whose keys repeat may not be skipped by its start.
    """
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            head = _scene_of(line) if skip else None
            if head in skip:
                yield lineno, head, None
                continue
            item = _decode_line(line, decode, path, lineno)
            if head is not None and item.scene_id != head:
                raise ValidationError(f"{_where(path, lineno)}: line starts with another scene id")
            yield lineno, item.scene_id, None if item.scene_id in skip else item


# how every writer starts a line: the scene id, then the record's other keys
_HEAD = b'{"scene_id":"'


def _scene_of(line: bytes) -> str | None:
    """The scene id a JSON-Lines line starts with, `{"scene_id":"…",` as the
    writers lay it out; None for a line of any other form. Nothing after
    the scene id is read."""
    if not line.startswith(_HEAD):
        return None
    try:
        text = line.decode("utf-8")
        scene_id, end = json.decoder.scanstring(text, len(_HEAD))
    except ValueError:  # bad UTF-8 or an unterminated or malformed string
        return None
    return scene_id if text.startswith(",", end) else None


def scene_sizes(path: str | Path) -> list[tuple[str, int]] | None:
    """(scene_id, bytes of its lines) for each scene of a JSON-Lines file, in
    file order; None when a line does not start with its scene id as the
    writers lay it out (`_scene_of`) or a scene's lines are not contiguous.

    Only the start of each line is read: no record is decoded or checked.
    """
    sizes: dict[str, int] = {}
    last = None
    with open(path, "rb") as fh:
        for line in fh:
            if not line.strip():
                continue
            scene_id = _scene_of(line)
            if scene_id is None or scene_id != last and scene_id in sizes:
                return None
            sizes[scene_id] = sizes.get(scene_id, 0) + len(line)
            last = scene_id
    return list(sizes.items())


def _read_json(path: str | Path, decode: Callable[[dict], object]):
    """decode(the one JSON object in `path`), failing as `_iter_lines` does."""
    with open(path, "rb") as fh:
        return _decode(fh.read(), decode, path)


_KINDS = {float: "a number", int: "an integer", str: "a string", bool: "true or false",
          list: "a JSON array", dict: "a JSON object"}


def _typed(value, kind: type, what: str):
    """`value` if it is a JSON value of `kind`, else a ValidationError.

    A float is any JSON number and an int an integral one, returned as that
    type; any other kind must match exactly, so nothing is coerced.
    """
    t = type(value)
    if t is kind:
        return value
    if kind is float and t is int or kind is int and t is float and value.is_integer():
        try:
            return kind(value)
        except OverflowError:
            raise ValidationError(f"{what} is out of range: {value!r}") from None
    raise ValidationError(f"malformed {what}: expected {_KINDS[kind]}, got {value!r}")


def _numbers(value, n: int, what: str) -> tuple[float, ...]:
    """`value` as `n` floats: a JSON array of `n` JSON numbers."""
    if type(value) is not list or len(value) != n:
        raise ValidationError(f"malformed {what}: expected an array of {n} numbers, got {value!r}")
    return tuple(_typed(v, float, what) for v in value)


def _scene_blocks(
    path: str | Path,
    decode: Callable[[dict], object],
    timestamp_of: Callable[[object], int],
    skip: frozenset[str] = frozenset(),
) -> Iterator[tuple[str, list]]:
    """Yield (scene_id, records) for each block of consecutive lines of one scene.

    The one reader of multi-scene files. A scene's lines must be contiguous:
    a scene that comes back after another scene's lines raises
    ValidationError naming the line, and so does a timestamp
    (`timestamp_of(record)`) that does not strictly increase within its scene.
    The scenes in `skip` are passed over, their lines undecoded where their
    start names the scene (`_iter_lines`); their lines still count for
    contiguity.
    """
    seen: set[str] = set()
    scene_id, items, last = None, [], None
    for lineno, line_scene, item in _iter_lines(path, decode, skip):
        if line_scene != scene_id:
            if line_scene in seen:
                raise ValidationError(
                    f"{_where(path, lineno)}: scene {line_scene!r} comes back after other "
                    "scenes' lines; each scene's lines must be contiguous"
                )
            if items:
                yield scene_id, items
            scene_id, items, last = line_scene, [], None
            seen.add(scene_id)
        if item is None:
            continue
        t = timestamp_of(item)
        if last is not None and t <= last:
            raise ValidationError(f"{_where(path, lineno)}: unsorted scene {scene_id!r}")
        last = t
        items.append(item)
    if items:
        yield scene_id, items


class SceneCursor:
    """The scene blocks of one input, (scene_id, block) pairs such as the
    `iter_*` readers yield, handed out by scene id in any order.

    `take` reads forward only as far as the scene asked for and keeps each
    block it passes until its scene is asked for. An input in the order its
    scenes are asked for thus holds one block at a time; one in another order
    is held as far as it runs ahead. With `known`, a block of any other scene
    is a scene mismatch as soon as it is read.
    """

    def __init__(self, blocks: Iterable[tuple[str, object]], what: str, known=None):
        self._blocks = iter(blocks)
        self._held: dict = {}
        self._what = what
        self._known = known

    def _read(self):
        for scene_id, block in self._blocks:
            if self._known is not None and scene_id not in self._known:
                rest = [s for s, _ in self._blocks]
                check_scenes(self._what, [scene_id, *rest], self._known)
            yield scene_id, block

    def take(self, scene_id: str):
        """The block of `scene_id`, or None when the input has none."""
        if scene_id in self._held:
            return self._held.pop(scene_id)
        for sid, block in self._read():
            if sid == scene_id:
                return block
            self._held[sid] = block
        return None

    def rest(self) -> dict:
        """Every block not taken, once the input has been read to its end."""
        self._held.update(self._read())
        return self._held

    def finish(self, scene_ids) -> None:
        """Read the input to its end: a block not taken is an unknown scene."""
        check_scenes(self._what, self.rest(), scene_ids)


def _write_jsonl(out: str | Path | TextIO, lines: Iterable[str]) -> None:
    """`_json_line`s to `out`: a text file open for writing, or a path."""
    if not hasattr(out, "write"):
        with open(out, "w", encoding="utf-8") as fh:
            return fh.writelines(lines)
    out.writelines(lines)


def _frame_from_json(obj: dict) -> FrameAnnotations:
    return FrameAnnotations(
        _typed(obj["scene_id"], str, "scene_id"),
        _typed(obj["timestamp_us"], int, "timestamp_us"),
        _typed(obj["is_keyframe"], bool, "is_keyframe"),
        _boxes_from_json(obj["boxes"], False),
    )


def _detections_from_json(obj: dict) -> FrameDetections:
    return FrameDetections(
        _typed(obj["scene_id"], str, "scene_id"),
        _typed(obj["timestamp_us"], int, "timestamp_us"),
        _boxes_from_json(obj["boxes"], True),
    )


def iter_scene_annotations(
    path: str | Path, skip: frozenset[str] = frozenset()
) -> Iterator[tuple[str, list[FrameAnnotations]]]:
    """Read a `.gt.jsonl` file one scene at a time: (scene_id, frames) per
    block, passing over the scenes in `skip` unread."""
    yield from _scene_blocks(path, _frame_from_json, attrgetter("timestamp_us"), skip)


def write_scene_annotations(out: str | Path | TextIO, frames: Iterable[FrameAnnotations]) -> None:
    """Write frames to `out`, a path or an open text file."""
    _write_jsonl(out, (_json_line({
        "scene_id": _str(f.scene_id), "timestamp_us": _int(f.timestamp_us),
        "is_keyframe": bool(f.is_keyframe), "boxes": [_box_to_json(b, False) for b in f.boxes],
    }) for f in frames))


def iter_detections(
    path: str | Path, skip: frozenset[str] = frozenset()
) -> Iterator[tuple[str, list[FrameDetections]]]:
    """Read a `.det.jsonl` file one scene at a time: (scene_id, detections)
    per block, passing over the scenes in `skip` unread."""
    yield from _scene_blocks(path, _detections_from_json, attrgetter("source_timestamp_us"), skip)


def write_detections(out: str | Path | TextIO, dets: Iterable[FrameDetections]) -> None:
    """Write detections to `out`, a path or an open text file."""
    _write_jsonl(out, (_json_line({
        "scene_id": _str(d.scene_id), "timestamp_us": _int(d.source_timestamp_us),
        "boxes": [_box_to_json(b, True) for b in d.boxes],
    }) for d in dets))


def iter_temporal_db(
    path: str | Path, skip: frozenset[str] = frozenset()
) -> Iterator[tuple[str, TemporalDatabase]]:
    """Read a temporal database file (detection schema) one scene at a time,
    passing over the scenes in `skip` unread."""
    for scene_id, dets in iter_detections(path, skip):
        yield scene_id, TemporalDatabase(dets)


def _record_to_json(rec: StreamRecord, boxes: str) -> str:
    """The record's JSON-Lines line, its boxes under the field named by `boxes`."""
    return _json_line({
        "scene_id": _str(rec.detections.scene_id), "completion_us": _int(rec.completion_us),
        "source_us": _int(rec.source_us),
        _str(boxes): [_box_to_json(b, True) for b in rec.detections.boxes],
    })


def _record_from_json(obj: dict, boxes: str) -> StreamRecord:
    source_us = _typed(obj["source_us"], int, "source_us")
    det = FrameDetections(_typed(obj["scene_id"], str, "scene_id"), source_us,
                          _boxes_from_json(obj[boxes], True))
    return StreamRecord(_typed(obj["completion_us"], int, "completion_us"), det)


def iter_stream(
    path: str | Path, boxes: str = "boxes", skip: frozenset[str] = frozenset()
) -> Iterator[tuple[str, PredictionStream]]:
    """Read a stream file one scene at a time: (scene_id, stream) per block,
    passing over the scenes in `skip` unread.

    Each record takes its boxes from the field named by `boxes`: a
    `baseline-sv` file is read with `boxes="refined"`.
    """
    for scene_id, records in _scene_blocks(
        path, lambda obj: _record_from_json(obj, boxes), attrgetter("completion_us"), skip
    ):
        try:
            stream = PredictionStream(records)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None
        yield scene_id, stream


def write_stream(
    out: str | Path | TextIO, streams: Iterable[PredictionStream], boxes: str = "boxes"
) -> None:
    """Write streams to `out` (a path or an open text file) in the order given.

    Each record's boxes go under the field named by `boxes`: `baseline-sv`
    writes the streams `baseline.refine_stream` returns with
    `boxes="refined"`.
    """
    _write_jsonl(out, (_record_to_json(rec, boxes) for s in streams for rec in s.records))


def _profile_from_json(obj: dict) -> RuntimeProfile:
    samples, params = obj.get("samples_ms"), obj.get("params")
    if samples is None and "distribution" not in obj:
        raise ValidationError("profile needs samples_ms or a distribution")
    if samples is not None:
        samples = [_typed(s, float, "samples_ms") for s in _typed(samples, list, "samples_ms")]
    if params is not None:
        params = _typed(params, dict, "params")
        params = {k: _typed(v, float, f"params {k!r}") for k, v in params.items()}
    return RuntimeProfile(
        name=_typed(obj.get("name", "unnamed"), str, "name"),
        samples_ms=samples,
        distribution=obj.get("distribution"),
        params=params,
        overhead_ms=_typed(obj.get("overhead_ms", 0.0), float, "overhead_ms"),
        contention_factor=_typed(obj.get("contention_factor", 1.0), float, "contention_factor"),
    )


def load_runtime_profile(path: str | Path) -> RuntimeProfile:
    """Read a runtime profile from a single JSON object."""
    return _read_json(path, _profile_from_json)
