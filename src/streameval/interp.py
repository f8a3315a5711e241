"""Annotation extension: densify keyframe labels to the full input rate.

Objects co-visible in two bracketing keyframes are interpolated (linear
translation, slerp rotation); objects missed by interpolation are recovered
from a temporal database of auxiliary detections, de-duplicated by BEV IoU
before being appended.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .data import (
    US_PER_S,
    Box3D,
    FrameAnnotations,
    TemporalDatabase,
    ValidationError,
    regular_timestamps,
)
# auto-clean calls only `bev_iou_reaches`; `bev_iou` stays bound here because
# perfbench's tracer test checks that tracing restores `interp.bev_iou`
from .geom import bev_iou, bev_iou_reaches, lerp_translation, slerp  # noqa: F401


@dataclass(frozen=True, slots=True)
class InterpolationConfig:
    clean_iou_threshold: float = 0.1
    min_db_score: float = 0.3
    target_rate_hz: float = 12.0

    def __post_init__(self):
        if not 0.0 <= self.clean_iou_threshold <= 1.0:
            raise ValidationError(f"clean_iou_threshold outside [0, 1]: {self.clean_iou_threshold}")
        if not 0.0 <= self.min_db_score <= 1.0:
            raise ValidationError(f"min_db_score outside [0, 1]: {self.min_db_score}")
        if not self.target_rate_hz > 0.0:
            raise ValidationError(f"target_rate_hz must be positive: {self.target_rate_hz}")


def interpolate_instance(box_s: Box3D, box_e: Box3D, t_s: int, t_e: int, t: int) -> Box3D:
    """Pose of one object between two keyframe observations.

    Size, category, and attribute are carried from the earlier keyframe
    (objects are rigid); velocity is the finite difference of the keyframe
    centers, constant across the interval.
    """
    if box_s.instance_id is None or box_s.instance_id != box_e.instance_id:
        raise ValidationError(
            f"instance mismatch: {box_s.instance_id!r} vs {box_e.instance_id!r}"
        )
    center = lerp_translation(box_s.center, box_e.center, t_s, t_e, t)
    u = (t - t_s) / (t_e - t_s)
    rotation = slerp(box_s.rotation, box_e.rotation, u)
    dt_s = (t_e - t_s) / US_PER_S
    velocity = (
        (box_e.center.x - box_s.center.x) / dt_s,
        (box_e.center.y - box_s.center.y) / dt_s,
    )
    return box_s.replace(center=center, rotation=rotation, velocity=velocity)


def query_temporal_db(db: TemporalDatabase, t: int, min_score: float = 0.0) -> list[Box3D]:
    """Boxes of the database entry closest to `t`; ties go to the earlier entry.

    Boxes scoring below `min_score` are discarded.
    """
    return [b for b in db.nearest(t).boxes if b.score >= min_score]


def auto_clean(
    interpolated: list[Box3D], queried: list[Box3D], cfg: InterpolationConfig
) -> list[Box3D]:
    """Append queried boxes that do not duplicate any interpolated box.

    A queried box overlapping an interpolated one (BEV IoU at or above the
    threshold) is redundant and dropped; the rest are appended.
    """
    duplicate = bev_iou_reaches(
        [q.bev_rect() for q in queried], [b.bev_rect() for b in interpolated],
        cfg.clean_iou_threshold,
    )
    return [*interpolated, *(q for q, dup in zip(queried, duplicate) if not dup)]


def extend_annotations(
    keyframes: list[FrameAnnotations],
    db: TemporalDatabase | None,
    cfg: InterpolationConfig,
    ticks: list[int] | None = None,
) -> list[FrameAnnotations]:
    """Densify keyframe annotations to cfg.target_rate_hz.

    Emits a frame at every grid tick between the first and last keyframe
    (keyframes pass through unchanged); each intermediate frame contains the
    interpolation of every instance co-visible in its bracketing keyframes,
    plus auto-cleaned temporal-database boxes. Instances visible in only one
    bracket are skipped: the database is the mechanism that recovers them.

    With `ticks`, a contiguous run of `_ticks(keyframes, cfg)` that may start
    between two keyframes, only the frames at those ticks are emitted, so
    consecutive runs join into the whole scene's frames.
    """
    if ticks is None:
        ticks = _ticks(keyframes, cfg)
    scene_id = keyframes[0].scene_id
    out: list[FrameAnnotations] = []
    ki, last = 0, len(keyframes) - 1  # ki: index of the keyframe bracketing from the left
    for t in ticks:
        while ki < last and keyframes[ki + 1].timestamp_us <= t:
            ki += 1
        left = keyframes[ki]
        if left.timestamp_us == t:
            out.append(left if left.is_keyframe else replace(left, is_keyframe=True))
            continue
        right = keyframes[ki + 1]
        by_id = {b.instance_id: b for b in right.boxes if b.instance_id is not None}
        interpolated = [
            interpolate_instance(b, by_id[b.instance_id], left.timestamp_us, right.timestamp_us, t)
            for b in left.boxes
            if b.instance_id is not None and b.instance_id in by_id
        ]
        queried = query_temporal_db(db, t, cfg.min_db_score) if db and len(db) else []
        boxes = auto_clean(interpolated, queried, cfg)
        out.append(FrameAnnotations(scene_id, t, is_keyframe=False, boxes=boxes))
    return out


def _ticks(keyframes: list[FrameAnnotations], cfg: InterpolationConfig) -> list[int]:
    """The times `extend_annotations` emits a frame at, in order: the
    keyframes' times and the grid at cfg.target_rate_hz anchored at the
    first keyframe, up to the last."""
    if len(keyframes) < 2:
        raise ValidationError("need at least 2 keyframes to interpolate")
    for prev, curr in zip(keyframes, keyframes[1:]):
        if curr.timestamp_us <= prev.timestamp_us:
            raise ValidationError("unsorted scene: keyframes must strictly increase")
    times = [f.timestamp_us for f in keyframes]
    return sorted(set(times).union(regular_timestamps(times[0], times[-1], cfg.target_rate_hz)))
