"""Synthetic scenes with analytically known streaming behavior.

Objects follow exact constant-velocity / constant-yaw-rate kinematics, the
model classes the interpolation and updating math is exact for, so test
errors isolate harness bugs. The oracle detector copies ground truth and
perturbs it with configurable Gaussian noise and drops.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

from .data import (
    US_PER_S,
    Box3D,
    FrameAnnotations,
    FrameDetections,
    ValidationError,
    _numbers,
    _typed,
    regular_timestamps,
)
from .geom import Quaternion, Vec3


@dataclass(frozen=True, slots=True)
class ObjectSpec:
    category: str
    center: tuple[float, float, float]
    size: tuple[float, float, float] = (2.0, 4.0, 1.6)
    yaw: float = 0.0
    velocity: tuple[float, float] = (0.0, 0.0)
    yaw_rate: float = 0.0
    attribute: str | None = None


@dataclass(frozen=True, slots=True)
class SceneSpec:
    duration_s: float
    rate_hz: float = 12.0
    objects: tuple[ObjectSpec, ...] = ()
    seed: int = 0
    scene_id: str = "synthetic-0"

    def __post_init__(self):
        if not (self.duration_s > 0.0 and isfinite(self.duration_s * US_PER_S)):
            raise ValidationError(f"duration must be positive and finite in us: {self.duration_s}")
        if not self.rate_hz > 0.0:
            raise ValidationError(f"rate must be positive: {self.rate_hz}")
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")
        object.__setattr__(self, "objects", tuple(self.objects))


@dataclass(frozen=True, slots=True)
class DetectorNoise:
    pos_sigma: float = 0.0  # per planar axis, meters
    vel_sigma: float = 0.0  # per planar axis, m/s
    drop_rate: float = 0.0
    score_model: str = "constant"  # constant -> 1.0, uniform -> U[0.5, 1)

    def __post_init__(self):
        for name, sigma in (("pos_sigma", self.pos_sigma), ("vel_sigma", self.vel_sigma)):
            if not (sigma >= 0.0 and isfinite(sigma)):
                raise ValidationError(f"{name} must be non-negative and finite, got {sigma}")
        if not 0.0 <= self.drop_rate < 1.0:
            raise ValidationError(f"drop_rate outside [0, 1): {self.drop_rate}")
        if self.score_model not in ("constant", "uniform"):
            raise ValidationError(f"unknown score_model: {self.score_model!r}")


def _object_at(spec: ObjectSpec, instance_id: str, t_s: float) -> Box3D:
    x = spec.center[0] + spec.velocity[0] * t_s
    y = spec.center[1] + spec.velocity[1] * t_s
    yaw = spec.yaw + spec.yaw_rate * t_s
    return Box3D(
        category=spec.category,
        center=Vec3(x, y, spec.center[2]),
        size=spec.size,
        rotation=Quaternion.rot_z(yaw),
        velocity=spec.velocity,
        score=1.0,
        instance_id=instance_id,
        attribute=spec.attribute,
    )


def gen_scene(spec: SceneSpec, keyframe_every: int = 1) -> list[FrameAnnotations]:
    """Frames over [0, duration] at the scene's frame rate.

    Frame indices divisible by `keyframe_every` are marked keyframes;
    instance ids are stable across frames.
    """
    if keyframe_every < 1:
        raise ValidationError("keyframe_every must be a positive integer")
    end_us = round(spec.duration_s * US_PER_S)
    times = regular_timestamps(0, end_us, spec.rate_hz)
    frames = []
    for i, t in enumerate(times):
        boxes = [
            _object_at(obj, f"obj-{k}", t / US_PER_S) for k, obj in enumerate(spec.objects)
        ]
        frames.append(
            FrameAnnotations(spec.scene_id, t, is_keyframe=(i % keyframe_every == 0), boxes=boxes)
        )
    return frames


def oracle_detector(
    scene: list[FrameAnnotations],
    noise: DetectorNoise = DetectorNoise(),
    seed: int = 0,
) -> list[FrameDetections]:
    """Per-frame detections derived from ground truth, in frame order.

    Centers and velocities get Gaussian perturbations in the ground plane,
    boxes are dropped independently at `drop_rate`, and scores follow the
    noise's score model. Deterministic under a fixed seed.
    """
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    outputs: list[FrameDetections] = []
    for frame in scene:
        boxes = []
        for box in frame.boxes:
            if noise.drop_rate > 0.0 and rng.random() < noise.drop_rate:
                continue
            center = box.center
            velocity = box.velocity
            if noise.pos_sigma > 0.0:
                dx, dy = rng.normal(0.0, noise.pos_sigma, size=2).tolist()
                center = Vec3(center.x + dx, center.y + dy, center.z)
            if noise.vel_sigma > 0.0:
                dvx, dvy = rng.normal(0.0, noise.vel_sigma, size=2).tolist()
                velocity = (velocity[0] + dvx, velocity[1] + dvy)
            score = 1.0 if noise.score_model == "constant" else float(rng.uniform(0.5, 1.0))
            boxes.append(
                box.replace(center=center, velocity=velocity, score=score, instance_id=None)
            )
        outputs.append(FrameDetections(frame.scene_id, frame.timestamp_us, boxes))
    return outputs


def _object_spec_from_dict(o) -> ObjectSpec:
    o = _typed(o, dict, "object")
    return ObjectSpec(
        category=_typed(o["category"], str, "object category"),
        center=_numbers(o["center"], 3, "object center"),
        size=_numbers(o.get("size", [2.0, 4.0, 1.6]), 3, "object size"),
        yaw=_typed(o.get("yaw", 0.0), float, "object yaw"),
        velocity=_numbers(o.get("velocity", [0.0, 0.0]), 2, "object velocity"),
        yaw_rate=_typed(o.get("yaw_rate", 0.0), float, "object yaw_rate"),
        attribute=None if o.get("attribute") is None else _typed(o["attribute"], str, "attribute"),
    )


def scene_spec_from_dict(obj: dict) -> tuple[SceneSpec, DetectorNoise, int]:
    """Parse the JSON layout consumed by the `synth` CLI subcommand.

    A missing field raises KeyError, which `data._read_json` reports.
    """
    spec = SceneSpec(
        duration_s=_typed(obj["duration_s"], float, "duration_s"),
        rate_hz=_typed(obj.get("rate_hz", 12.0), float, "rate_hz"),
        objects=tuple(map(_object_spec_from_dict, _typed(obj["objects"], list, "objects"))),
        seed=_typed(obj.get("seed", 0), int, "seed"),
        scene_id=_typed(obj.get("scene_id", "synthetic-0"), str, "scene_id"),
    )
    n = _typed(obj.get("noise", {}), dict, "noise")
    noise = DetectorNoise(
        pos_sigma=_typed(n.get("pos_sigma", 0.0), float, "noise pos_sigma"),
        vel_sigma=_typed(n.get("vel_sigma", 0.0), float, "noise vel_sigma"),
        drop_rate=_typed(n.get("drop_rate", 0.0), float, "noise drop_rate"),
        score_model=_typed(n.get("score_model", "constant"), str, "noise score_model"),
    )
    return spec, noise, _typed(obj.get("keyframe_every", 1), int, "keyframe_every")
