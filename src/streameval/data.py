"""Core domain records, JSON-Lines file schemas, and validated ingestion.

Timestamps are integer microseconds throughout so that recency comparisons
are exact. One JSON object per line keeps large scene logs streamable.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from math import isfinite
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .geom import BevRect, Quaternion, ValidationError, Vec3

US_PER_S = 1_000_000


# marks a field that `Box3D.replace` leaves as it is
_KEEP = object()
_INF = math.inf


def _velocity(velocity) -> tuple[float, float]:
    """`velocity` as a pair of floats, if it is two finite numbers."""
    if len(velocity) != 2:
        raise ValidationError(f"velocity must be finite (vx, vy), got {velocity}")
    vx, vy = velocity
    if not (isfinite(vx) and isfinite(vy)):
        raise ValidationError(f"velocity must be finite (vx, vy), got {velocity}")
    if type(velocity) is tuple and type(vx) is float and type(vy) is float:
        return velocity
    return (float(vx), float(vy))


@dataclass(slots=True, unsafe_hash=True)
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
    velocity: tuple[float, float] = (0.0, 0.0)
    score: float = 1.0
    instance_id: str | None = None
    attribute: str | None = None

    def __post_init__(self):
        # unpacked and checked element by element, in the order a loop over
        # each tuple would take, so the same inputs fail with the same error
        size = self.size
        if len(size) != 3:
            raise ValidationError(f"size must be three positive finite values, got {size}")
        w, l, h = size
        if not (w > 0.0 and isfinite(w) and l > 0.0 and isfinite(l) and h > 0.0 and isfinite(h)):
            raise ValidationError(f"size must be three positive finite values, got {size}")
        score = self.score
        if not (0.0 <= score <= 1.0):
            raise ValidationError(f"score outside [0, 1]: {score}")
        if type(score) is not float:
            self.score = float(score)
        self.velocity = _velocity(self.velocity)
        if not (type(size) is tuple and type(w) is float and type(l) is float and type(h) is float):
            self.size = (float(w), float(l), float(h))

    @property
    def yaw(self) -> float:
        return self.rotation.yaw()

    def bev_rect(self) -> BevRect:
        """Ground-plane footprint of the box."""
        return BevRect(self.center.x, self.center.y, self.size[0], self.size[1], self.yaw)

    def replace(
        self, *, center=_KEEP, rotation=_KEEP, velocity=_KEEP, score=_KEEP, instance_id=_KEEP
    ) -> "Box3D":
        """This box with the given fields replaced; only those are checked.

        `dataclasses.replace` for the fields that change along the record
        path (pose, motion, score and identity). A new center or rotation is
        a `Vec3` or `Quaternion`, checked when it was built.
        """
        if score is _KEEP:
            score = self.score
        elif not (0.0 <= score <= 1.0):
            raise ValidationError(f"score outside [0, 1]: {score}")
        elif type(score) is not float:
            score = float(score)
        return _box(
            self.category,
            self.center if center is _KEEP else center,
            self.size,
            self.rotation if rotation is _KEEP else rotation,
            self.velocity if velocity is _KEEP else _velocity(velocity),
            score,
            self.instance_id if instance_id is _KEEP else instance_id,
            self.attribute,
        )

    def moved_to(self, x: float, y: float) -> "Box3D":
        """This box with its center at (x, y); an overflow is invalid input."""
        return self.replace(center=Vec3(x, y, self.center.z))


def _box(category, center, size, rotation, velocity, score, instance_id, attribute) -> Box3D:
    """A `Box3D` of fields that are already checked and converted, built
    without `__post_init__`."""
    box = object.__new__(Box3D)
    box.category = category
    box.center = center
    box.size = size
    box.rotation = rotation
    box.velocity = velocity
    box.score = score
    box.instance_id = instance_id
    box.attribute = attribute
    return box


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


@dataclass(slots=True)
class TdbEntry:
    timestamp_us: int
    boxes: list[Box3D]


@dataclass(slots=True)
class TemporalDatabase:
    """High-rate auxiliary detections, queryable by nearest timestamp.

    Entries are validated and indexed at construction; do not modify them
    afterwards.
    """

    entries: list[TdbEntry] = field(default_factory=list)
    # entry timestamps, built once so that each query bisects
    _timestamps: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for prev, curr in zip(self.entries, self.entries[1:]):
            if curr.timestamp_us <= prev.timestamp_us:
                raise ValidationError("temporal database timestamps must strictly increase")
        self._timestamps = [e.timestamp_us for e in self.entries]

    def __len__(self) -> int:
        return len(self.entries)

    def nearest(self, t_us: int) -> TdbEntry:
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


# --------------------------------------------------------------------------
# JSON-Lines serialization
# --------------------------------------------------------------------------


def _box_to_json(box: Box3D, with_score: bool) -> dict:
    obj: dict = {}
    if box.instance_id is not None:
        obj["instance_id"] = box.instance_id
    obj["category"] = box.category
    obj["center"] = [box.center.x, box.center.y, box.center.z]
    obj["size"] = list(box.size)
    obj["rotation"] = [box.rotation.w, box.rotation.x, box.rotation.y, box.rotation.z]
    obj["velocity"] = list(box.velocity)
    if box.attribute is not None:
        obj["attribute"] = box.attribute
    if with_score:
        obj["score"] = box.score
    return obj


# what `json.loads` decodes a JSON number to; bool is excluded by exact type
_JSON_NUMBER_TYPES = {int, float}


def _box_from_json(obj, with_score: bool) -> Box3D:
    """The box a JSON object describes, each field checked once."""
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
    if type(category) is not str:
        raise ValidationError(f"box category must be a string, got {category!r}")
    instance_id, attribute = obj.get("instance_id"), obj.get("attribute")
    if not (instance_id is None or type(instance_id) is str):
        raise ValidationError(f"box instance_id must be a string, got {instance_id!r}")
    if not (attribute is None or type(attribute) is str):
        raise ValidationError(f"box attribute must be a string, got {attribute!r}")
    # a string or an object unpacks into strings, which fail the type check
    x, y, z = center
    w, l, h = size
    qw, qx, qy, qz = rotation
    vx, vy = velocity
    kinds = {type(x), type(y), type(z), type(w), type(l), type(h), type(qw), type(qx), type(qy),
             type(qz), type(vx), type(vy), type(score)}
    if not kinds <= _JSON_NUMBER_TYPES:
        raise ValidationError("box coordinates, size, rotation, velocity and score must be numbers")
    if int in kinds:
        x, y, z, w, l, h, qw, qx, qy, qz, vx, vy, score = map(
            float, (x, y, z, w, l, h, qw, qx, qy, qz, vx, vy, score))
    # the checks of `Box3D`, with chained comparisons that NaN fails
    if not (0.0 < w < _INF and 0.0 < l < _INF and 0.0 < h < _INF):
        raise ValidationError(f"size must be three positive finite values, got {(w, l, h)}")
    if not 0.0 <= score <= 1.0:
        raise ValidationError(f"score outside [0, 1]: {score}")
    if not (-_INF < vx < _INF and -_INF < vy < _INF):
        raise ValidationError(f"velocity must be finite (vx, vy), got {(vx, vy)}")
    return _box(category, Vec3(x, y, z), (w, l, h), Quaternion(qw, qx, qy, qz), (vx, vy), score,
                instance_id, attribute)


def _boxes_from_json(objs, with_score: bool) -> list[Box3D]:
    if not isinstance(objs, list):
        raise ValidationError(f"boxes must be a JSON array, got {objs!r}")
    return [_box_from_json(b, with_score) for b in objs]


def _decode(where: str, text: bytes, decode: Callable[[dict], object]):
    """decode(the JSON object in `text`); any failure is a ValidationError naming `where`.

    The one place input is decoded from UTF-8 and parsed, so bad bytes fail like bad JSON.
    """
    try:
        obj = json.loads(text.decode("utf-8"))
        if not isinstance(obj, dict):
            raise ValidationError(f"expected a JSON object, got {type(obj).__name__}")
        return decode(obj)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{where}: malformed JSON: {exc.msg}") from None
    except RecursionError:
        raise ValidationError(f"{where}: malformed JSON: nested too deeply") from None
    except KeyError as exc:
        raise ValidationError(f"{where}: missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _iter_jsonl(path: str | Path, decode: Callable[[dict], object]) -> Iterator[tuple[str, object]]:
    """Yield (`path:line`, decode(object)) for every non-blank line of `path`.

    Any line that is not a JSON object, or that `decode` cannot turn into a
    record, raises ValidationError naming the line.
    """
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.strip():
                where = f"{path}:{lineno}"
                yield where, _decode(where, line, decode)


def _read_json(path: str | Path, decode: Callable[[dict], object]):
    """decode(the one JSON object in `path`), failing as `_iter_jsonl` does."""
    with open(path, "rb") as fh:
        return _decode(str(path), fh.read(), decode)


_KINDS = {float: "a number", int: "an integer", str: "a string", bool: "true or false",
          list: "a JSON array", dict: "a JSON object"}


def _typed(value, kind: type, what: str):
    """`value` if it is a JSON value of `kind`, else a ValidationError.

    A float is any JSON number and an int an integral one, returned as that
    type; any other kind must match exactly, so nothing is coerced.
    """
    t = type(value)
    if kind is float and (t is float or t is int) or kind is int and (
        t is int or t is float and value.is_integer()
    ):
        try:
            return kind(value)
        except OverflowError:
            raise ValidationError(f"{what} is out of range: {value!r}") from None
    if t is not kind:
        raise ValidationError(f"malformed {what}: expected {_KINDS[kind]}, got {value!r}")
    return value


def _numbers(value, n: int, what: str) -> tuple[float, ...]:
    """`value` as `n` floats: a JSON array of `n` JSON numbers."""
    if type(value) is not list or len(value) != n:
        raise ValidationError(f"malformed {what}: expected an array of {n} numbers, got {value!r}")
    return tuple(_typed(v, float, what) for v in value)


def _load_sorted(path: str | Path, decode: Callable[[dict], object], timestamp_of) -> list:
    """Decode every line of `path`; timestamps must strictly increase per scene."""
    items = []
    last_ts: dict[str, int] = {}
    for where, item in _iter_jsonl(path, decode):
        t = timestamp_of(item)
        prev = last_ts.get(item.scene_id)
        if prev is not None and t <= prev:
            raise ValidationError(f"{where}: unsorted scene {item.scene_id!r}")
        last_ts[item.scene_id] = t
        items.append(item)
    return items


# `json.dumps(obj, separators=(",", ":"))`, without an encoder built per line
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def _write_jsonl(path: str | Path, objs: Iterable[dict]) -> None:
    encode = _ENCODER.encode
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(encode(obj))
            fh.write("\n")


def _frame_from_json(obj: dict) -> FrameAnnotations:
    return FrameAnnotations(
        scene_id=_typed(obj["scene_id"], str, "scene_id"),
        timestamp_us=_typed(obj["timestamp_us"], int, "timestamp_us"),
        is_keyframe=_typed(obj["is_keyframe"], bool, "is_keyframe"),
        boxes=_boxes_from_json(obj["boxes"], with_score=False),
    )


def _detections_from_json(obj: dict) -> FrameDetections:
    return FrameDetections(
        scene_id=_typed(obj["scene_id"], str, "scene_id"),
        source_timestamp_us=_typed(obj["timestamp_us"], int, "timestamp_us"),
        boxes=_boxes_from_json(obj["boxes"], with_score=True),
    )


def load_scene_annotations(path: str | Path) -> list[FrameAnnotations]:
    """Read a `<scene_id>.gt.jsonl` file; one frame per line, sorted per scene."""
    return _load_sorted(path, _frame_from_json, lambda f: f.timestamp_us)


def write_scene_annotations(path: str | Path, frames: Iterable[FrameAnnotations]) -> None:
    _write_jsonl(
        path,
        (
            {
                "scene_id": f.scene_id,
                "timestamp_us": f.timestamp_us,
                "is_keyframe": f.is_keyframe,
                "boxes": [_box_to_json(b, with_score=False) for b in f.boxes],
            }
            for f in frames
        ),
    )


def load_detections(path: str | Path) -> list[FrameDetections]:
    """Read a `<scene_id>.det.jsonl` file (annotation schema plus scores)."""
    return _load_sorted(path, _detections_from_json, lambda d: d.source_timestamp_us)


def write_detections(path: str | Path, dets: Iterable[FrameDetections]) -> None:
    _write_jsonl(
        path,
        (
            {
                "scene_id": d.scene_id,
                "timestamp_us": d.source_timestamp_us,
                "boxes": [_box_to_json(b, with_score=True) for b in d.boxes],
            }
            for d in dets
        ),
    )


def load_temporal_db(path: str | Path) -> dict[str, TemporalDatabase]:
    """Read a temporal database file (detection schema), one database per scene."""
    return {
        scene_id: TemporalDatabase([TdbEntry(d.source_timestamp_us, d.boxes) for d in dets])
        for scene_id, dets in group_by_scene(load_detections(path)).items()
    }


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
