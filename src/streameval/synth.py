"""Synthetic scenes with analytically known streaming behavior.

Objects follow exact constant-velocity / constant-yaw-rate kinematics, the
model classes the interpolation and updating math is exact for, so test
errors isolate harness bugs. The oracle detector copies ground truth and
perturbs it with configurable Gaussian noise and drops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import (
    US_PER_S,
    Box3D,
    FrameAnnotations,
    FrameDetections,
    ValidationError,
    regular_timestamps,
)
from .geom import Quaternion, Vec3

NUSCENES_CLASSES = (
    "car", "truck", "bus", "trailer", "construction_vehicle",
    "pedestrian", "motorcycle", "bicycle", "traffic_cone", "barrier",
)


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
        if not self.duration_s > 0.0:
            raise ValidationError(f"duration must be positive: {self.duration_s}")
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


def keyframes_of(frames: list[FrameAnnotations]) -> list[FrameAnnotations]:
    return [f for f in frames if f.is_keyframe]


def oracle_detector(
    scene: list[FrameAnnotations],
    noise: DetectorNoise = DetectorNoise(),
    seed: int = 0,
) -> dict[int, FrameDetections]:
    """Per-frame detections derived from ground truth.

    Centers and velocities get Gaussian perturbations in the ground plane,
    boxes are dropped independently at `drop_rate`, and scores follow the
    noise's score model. Deterministic under a fixed seed.
    """
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    outputs: dict[int, FrameDetections] = {}
    for frame in scene:
        boxes = []
        for box in frame.boxes:
            if noise.drop_rate > 0.0 and rng.random() < noise.drop_rate:
                continue
            center = box.center
            velocity = box.velocity
            if noise.pos_sigma > 0.0:
                dx, dy = rng.normal(0.0, noise.pos_sigma, size=2)
                center = Vec3(center.x + dx, center.y + dy, center.z)
            if noise.vel_sigma > 0.0:
                dvx, dvy = rng.normal(0.0, noise.vel_sigma, size=2)
                velocity = (velocity[0] + dvx, velocity[1] + dvy)
            score = 1.0 if noise.score_model == "constant" else float(rng.uniform(0.5, 1.0))
            boxes.append(
                box.replace(center=center, velocity=velocity, score=score, instance_id=None)
            )
        outputs[frame.timestamp_us] = FrameDetections(frame.scene_id, frame.timestamp_us, boxes)
    return outputs


def scene_spec_from_dict(obj: dict) -> tuple[SceneSpec, DetectorNoise, int]:
    """Parse the JSON layout consumed by the `synth` CLI subcommand."""
    try:
        objects = tuple(
            ObjectSpec(
                category=str(o["category"]),
                center=tuple(float(v) for v in o["center"]),
                size=tuple(float(v) for v in o.get("size", (2.0, 4.0, 1.6))),
                yaw=float(o.get("yaw", 0.0)),
                velocity=tuple(float(v) for v in o.get("velocity", (0.0, 0.0))),
                yaw_rate=float(o.get("yaw_rate", 0.0)),
                attribute=o.get("attribute"),
            )
            for o in obj["objects"]
        )
        spec = SceneSpec(
            duration_s=float(obj["duration_s"]),
            rate_hz=float(obj.get("rate_hz", 12.0)),
            objects=objects,
            seed=int(obj.get("seed", 0)),
            scene_id=str(obj.get("scene_id", "synthetic-0")),
        )
    except KeyError as exc:
        raise ValidationError(f"scene spec missing field {exc.args[0]!r}") from None
    n = obj.get("noise", {})
    noise = DetectorNoise(
        pos_sigma=float(n.get("pos_sigma", 0.0)),
        vel_sigma=float(n.get("vel_sigma", 0.0)),
        drop_rate=float(n.get("drop_rate", 0.0)),
        score_model=str(n.get("score_model", "constant")),
    )
    return spec, noise, int(obj.get("keyframe_every", 1))
