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

from .geom import BevRect, Quaternion, Vec3

US_PER_S = 1_000_000


class ValidationError(ValueError):
    """Input data violates a schema or invariant."""


# marks a field that `Box3D.replace` leaves as it is
_KEEP = object()


@dataclass(frozen=True, slots=True)
class Box3D:
    """One oriented 3D bounding box.

    size is (width, length, height) in meters; velocity is planar (vx, vy)
    in m/s. Ground-truth boxes carry score 1.0 so one schema covers both
    annotations and detections.
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
        size, velocity = self.size, self.velocity
        if len(size) != 3:
            raise ValidationError(f"size must be three positive finite values, got {size}")
        w, l, h = size
        if not (w > 0.0 and isfinite(w) and l > 0.0 and isfinite(l) and h > 0.0 and isfinite(h)):
            raise ValidationError(f"size must be three positive finite values, got {size}")
        if not (0.0 <= self.score <= 1.0):
            raise ValidationError(f"score outside [0, 1]: {self.score}")
        if len(velocity) != 2:
            raise ValidationError(f"velocity must be finite (vx, vy), got {velocity}")
        vx, vy = velocity
        if not (isfinite(vx) and isfinite(vy)):
            raise ValidationError(f"velocity must be finite (vx, vy), got {velocity}")
        if not (type(size) is tuple and type(w) is float and type(l) is float and type(h) is float):
            object.__setattr__(self, "size", (float(w), float(l), float(h)))
        if not (type(velocity) is tuple and type(vx) is float and type(vy) is float):
            object.__setattr__(self, "velocity", (float(vx), float(vy)))

    @property
    def yaw(self) -> float:
        return self.rotation.yaw()

    def bev_rect(self) -> BevRect:
        """Ground-plane footprint of the box."""
        return BevRect(self.center.x, self.center.y, self.size[0], self.size[1], self.yaw)

    def replace(
        self, *, center=_KEEP, rotation=_KEEP, velocity=_KEEP, score=_KEEP, instance_id=_KEEP
    ) -> "Box3D":
        """This box with the given fields replaced, validated as a new box.

        `dataclasses.replace` for the fields that change along the record
        path (pose, motion, score and identity), without its per-call field
        scan.
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
        if not (isfinite(x) and isfinite(y)):
            raise ValidationError(f"non-finite Vec3 component: moved to ({x}, {y})")
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
    if rate_hz <= 0.0:
        raise ValidationError(f"rate must be positive, got {rate_hz}")
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
    if not isinstance(obj, dict):
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
    # a string or an object unpacks into strings, which fail the type check
    x, y, z = center
    w, l, h = size
    qw, qx, qy, qz = rotation
    vx, vy = velocity
    kinds = {type(x), type(y), type(z), type(w), type(l), type(h), type(qw), type(qx), type(qy),
             type(qz), type(vx), type(vy), type(score)}
    if not kinds <= _JSON_NUMBER_TYPES:
        raise ValidationError("box coordinates, size, rotation, velocity and score must be numbers")
    return Box3D(
        category,
        Vec3(float(x), float(y), float(z)),
        (float(w), float(l), float(h)),
        Quaternion(float(qw), float(qx), float(qy), float(qz)),
        (float(vx), float(vy)),
        float(score),
        obj.get("instance_id"),
        obj.get("attribute"),
    )


def _boxes_from_json(objs, with_score: bool) -> list[Box3D]:
    if not isinstance(objs, list):
        raise ValidationError(f"boxes must be a JSON array, got {objs!r}")
    return [_box_from_json(b, with_score) for b in objs]


def _iter_jsonl(path: str | Path, decode: Callable[[dict], object]) -> Iterator[tuple[str, object]]:
    """Yield (`path:line`, decode(object)) for every non-blank line of `path`.

    Any line that is not a JSON object, or that `decode` cannot turn into a
    record, raises ValidationError naming the line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise ValidationError(f"expected a JSON object, got {type(obj).__name__}")
                item = decode(obj)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{where}: malformed JSON: {exc.msg}") from None
            except KeyError as exc:
                raise ValidationError(f"{where}: missing field {exc.args[0]!r}") from None
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValidationError(f"{where}: {exc}") from None
            yield where, item


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


def _write_jsonl(path: str | Path, objs: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(json.dumps(obj, separators=(",", ":")))
            fh.write("\n")


def _frame_from_json(obj: dict) -> FrameAnnotations:
    return FrameAnnotations(
        scene_id=str(obj["scene_id"]),
        timestamp_us=int(obj["timestamp_us"]),
        is_keyframe=bool(obj["is_keyframe"]),
        boxes=_boxes_from_json(obj["boxes"], with_score=False),
    )


def _detections_from_json(obj: dict) -> FrameDetections:
    return FrameDetections(
        scene_id=str(obj["scene_id"]),
        source_timestamp_us=int(obj["timestamp_us"]),
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


def load_temporal_db(path: str | Path) -> TemporalDatabase:
    """Read a `<scene_id>.tdb.jsonl` file (detection schema)."""
    dets = load_detections(path)
    return TemporalDatabase([TdbEntry(d.source_timestamp_us, d.boxes) for d in dets])


def load_runtime_profile(path: str | Path) -> RuntimeProfile:
    """Read a runtime profile from a single JSON object."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: malformed JSON: {exc.msg}") from None
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: profile must be a JSON object")
    samples = obj.get("samples_ms")
    params = obj.get("params")
    if samples is None and "distribution" not in obj:
        raise ValidationError(f"{path}: profile needs samples_ms or a distribution")
    if samples is not None and not isinstance(samples, list):
        raise ValidationError(f"{path}: samples_ms must be a JSON array")
    if samples is not None and len(samples) == 0:
        raise ValidationError(f"{path}: empty profile")
    if params is not None and not isinstance(params, dict):
        raise ValidationError(f"{path}: params must be a JSON object")
    try:
        samples_ms = [float(s) for s in samples] if samples is not None else None
        params = {k: float(v) for k, v in params.items()} if params else None
        overhead_ms = float(obj.get("overhead_ms", 0.0))
        contention_factor = float(obj.get("contention_factor", 1.0))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{path}: profile values must be numbers: {exc}") from None
    return RuntimeProfile(
        name=str(obj.get("name", "unnamed")),
        samples_ms=samples_ms,
        distribution=obj.get("distribution"),
        params=params,
        overhead_ms=overhead_ms,
        contention_factor=contention_factor,
    )


def write_runtime_profile(path: str | Path, profile: RuntimeProfile) -> None:
    obj: dict = {"name": profile.name}
    if profile.samples_ms is not None:
        obj["samples_ms"] = profile.samples_ms
    else:
        obj["distribution"] = profile.distribution
        obj["params"] = profile.params
    if profile.overhead_ms:
        obj["overhead_ms"] = profile.overhead_ms
    if profile.contention_factor != 1.0:
        obj["contention_factor"] = profile.contention_factor
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")
