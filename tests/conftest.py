import math

import pytest
from hypothesis import strategies as st

from streameval.data import Box3D, FrameAnnotations, FrameDetections
from streameval.geom import Quaternion, Vec3
from streameval.synth import ObjectSpec, SceneSpec


def make_box(
    x=0.0,
    y=0.0,
    z=0.0,
    w=2.0,
    l=4.0,
    h=1.6,
    yaw=0.0,
    vx=0.0,
    vy=0.0,
    category="car",
    score=1.0,
    instance_id=None,
    attribute=None,
):
    return Box3D(
        category=category,
        center=Vec3(x, y, z),
        size=(w, l, h),
        rotation=Quaternion.rot_z(yaw),
        velocity=(vx, vy),
        score=score,
        instance_id=instance_id,
        attribute=attribute,
    )


def box_numbers(box) -> tuple:
    """Every number a box holds: center, size, rotation, velocity and score."""
    c, q = box.center, box.rotation
    return (c.x, c.y, c.z, *box.size, q.w, q.x, q.y, q.z, *box.velocity, box.score)


def boxes(categories=("car", "pedestrian"), score=st.just(1.0)):
    """Hypothesis strategy: boxes of the given categories near the origin,
    close enough that many pairs overlap."""
    return st.builds(
        make_box,
        x=st.floats(-8.0, 8.0),
        y=st.floats(-8.0, 8.0),
        w=st.floats(0.5, 3.0),
        l=st.floats(0.5, 6.0),
        yaw=st.floats(-math.pi, math.pi),
        category=st.sampled_from(categories),
        score=score,
    )


@pytest.fixture
def moving_scene_spec():
    """Well-separated constant-velocity objects, 4 s at 12 Hz."""
    return SceneSpec(
        duration_s=4.0,
        rate_hz=12.0,
        objects=(
            ObjectSpec("car", (0.0, 0.0, 0.0), velocity=(4.0, 0.0)),
            ObjectSpec("truck", (0.0, 40.0, 0.0), size=(2.5, 8.0, 3.0), velocity=(2.0, 0.0)),
            ObjectSpec("pedestrian", (0.0, -40.0, 0.0), size=(0.7, 0.7, 1.8), velocity=(0.5, 0.0)),
        ),
        scene_id="scene-moving",
    )


@pytest.fixture
def static_scene_spec():
    return SceneSpec(
        duration_s=4.0,
        rate_hz=12.0,
        objects=(
            ObjectSpec("car", (5.0, 0.0, 0.0)),
            ObjectSpec("pedestrian", (-5.0, 10.0, 0.0), size=(0.7, 0.7, 1.8)),
        ),
        scene_id="scene-static",
    )


def gt_frame(scene_id, t_us, boxes, keyframe=True):
    return FrameAnnotations(scene_id, t_us, keyframe, boxes)


def det_frame(scene_id, t_us, boxes):
    return FrameDetections(scene_id, t_us, boxes)
