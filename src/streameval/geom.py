"""Quaternion and planar-geometry primitives for oriented 3D boxes.

Rotation interpolation (slerp), translation interpolation, rotated
bird's-eye-view IoU via convex polygon clipping (one pair, or all pairs of
two sets behind a circumcircle gate, or whether any pair reaches a
threshold behind a certified lower bound), and planar center distance.
All angles are radians, all lengths meters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import isfinite
from numbers import Real
from typing import Sequence

import numpy as np

# Skip renormalization when |q|^2 is already this close to 1 so that
# constructing from an already-unit quaternion preserves its bits exactly.
_UNIT_NORM_SQ_TOL = 1e-12
# Inputs further from unit than this are rejected by slerp.
_SLERP_INPUT_TOL = 1e-6
# Arc angle below which slerp falls back to normalized linear interpolation.
_SLERP_NLERP_ANGLE = 1e-6
# A pair is skipped without clipping only when its circumcircles are apart by
# more than this fraction of their summed radii, plus twice this fraction of
# the largest center coordinate of either set. The gap keeps rounding in the
# clipper, which grows with coordinate magnitude, from ever producing a
# nonzero area.
_GATE_REL_MARGIN = 1e-6
_GATE_COORD_MARGIN = 1e-12
# The lower bound of `bev_iou_reaches` answers yes only when the disk's area,
# less this fraction of the square of the pair's largest center coordinate
# plus largest side, passes the threshold by this relative margin. The
# clipper multiplies corner coordinates, so its rounding grows with that
# square: about 1.4e6 m out, a 2 m x 4 m pair is left to the clipper.
_BOUND_COORD_MARGIN = 1e-12
_BOUND_REL_MARGIN = 1e-6


class ValidationError(ValueError):
    """Input data violates a schema or invariant."""


def wrap_angle(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    r = math.remainder(angle, math.tau)
    if r <= -math.pi:
        r += math.tau
    return r


def _real(value) -> float:
    """`value` as a float: ints and numpy scalars convert exactly, and a value
    that is not a real number (a string, say) raises TypeError."""
    if not isinstance(value, Real):
        raise TypeError(f"expected a real number, got {value!r}")
    return float(value)


# Vec3 and Quaternion write their `__init__` out, so that converting and
# checking run on locals and cost no `__post_init__` call per construction.
@dataclass(slots=True, unsafe_hash=True, init=False)
class Vec3:
    """Point or displacement in meters; components are held as floats."""

    x: float
    y: float
    z: float

    def __init__(self, x: float, y: float, z: float):
        if not (type(x) is float and type(y) is float and type(z) is float):
            x, y, z = _real(x), _real(y), _real(z)
        self.x = x
        self.y = y
        self.z = z
        if not (isfinite(x) and isfinite(y) and isfinite(z)):
            raise ValidationError(f"non-finite Vec3 component: {self}")


@dataclass(slots=True, unsafe_hash=True, init=False)
class Quaternion:
    """Unit quaternion, scalar-first (w, x, y, z), held as floats.

    Normalized on construction and canonicalized to w >= 0; q and -q denote
    the same rotation.
    """

    w: float
    x: float
    y: float
    z: float

    def __init__(self, w: float, x: float, y: float, z: float):
        # converted before normalizing, so that float32 input is normalized
        # in double precision like any other
        if not (type(w) is float and type(x) is float and type(y) is float and type(z) is float):
            w, x, y, z = _real(w), _real(x), _real(y), _real(z)
        n2 = w * w + x * x + y * y + z * z
        if not math.isfinite(n2) or n2 == 0.0:
            raise ValidationError("zero or non-finite quaternion")
        if abs(n2 - 1.0) > _UNIT_NORM_SQ_TOL:
            inv = 1.0 / math.sqrt(n2)
            w, x, y, z = w * inv, x * inv, y * inv, z * inv
        if w < 0.0:
            w, x, y, z = -w, -x, -y, -z
        self.w = w
        self.x = x
        self.y = y
        self.z = z

    @staticmethod
    def identity() -> "Quaternion":
        return Quaternion(1.0, 0.0, 0.0, 0.0)

    @staticmethod
    def rot_z(angle: float) -> "Quaternion":
        """Rotation by `angle` about the +z (up) axis."""
        if not isfinite(angle):
            raise ValidationError(f"non-finite rotation angle: {angle}")
        half = 0.5 * angle
        return Quaternion(math.cos(half), 0.0, 0.0, math.sin(half))

    def norm(self) -> float:
        return math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)

    def dot(self, other: "Quaternion") -> float:
        return self.w * other.w + self.x * other.x + self.y * other.y + self.z * other.z

    def yaw(self) -> float:
        """Heading about +z, in (-pi, pi]."""
        siny = 2.0 * (self.w * self.z + self.x * self.y)
        cosy = 1.0 - 2.0 * (self.y * self.y + self.z * self.z)
        return math.atan2(siny, cosy)


@dataclass(slots=True, unsafe_hash=True)
class BevRect:
    """Rotated rectangle in the ground plane.

    `length` extends along the heading given by `yaw`, `width` across it.
    """

    center_x: float
    center_y: float
    width: float
    length: float
    yaw: float

    def __post_init__(self):
        if not (self.width > 0.0 and self.length > 0.0):
            raise ValidationError(f"non-positive rectangle size: {self.width} x {self.length}")
        self.yaw = wrap_angle(self.yaw)

    @property
    def area(self) -> float:
        return self.width * self.length

    def corners(self) -> list[tuple[float, float]]:
        """Corner coordinates in counter-clockwise order."""
        c, s = math.cos(self.yaw), math.sin(self.yaw)
        hl, hw = 0.5 * self.length, 0.5 * self.width
        out = []
        for lx, ly in ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw)):
            out.append((self.center_x + c * lx - s * ly, self.center_y + s * lx + c * ly))
        return out


def lerp_translation(tr_s: Vec3, tr_e: Vec3, t_s: int, t_e: int, t: int) -> Vec3:
    """Linearly interpolate a translation between two timestamps (microseconds)."""
    if t_s == t_e:
        raise ValidationError("zero-length interval")
    if t_s > t_e:
        raise ValidationError(f"interval reversed: {t_s} > {t_e}")
    if not (t_s <= t <= t_e):
        raise ValidationError(f"extrapolation refused: t={t} outside [{t_s}, {t_e}]")
    span = t_e - t_s
    w_s = (t_e - t) / span
    w_e = (t - t_s) / span
    return Vec3(
        w_s * tr_s.x + w_e * tr_e.x,
        w_s * tr_s.y + w_e * tr_e.y,
        w_s * tr_s.z + w_e * tr_e.z,
    )


def slerp(q_s: Quaternion, q_e: Quaternion, u: float) -> Quaternion:
    """Spherical linear interpolation along the shortest arc.

    `u` is the fraction elapsed from the start: slerp(a, b, 0) == a and
    slerp(a, b, 1) == b. Degrades to normalized lerp for near-identical
    rotations.
    """
    if not 0.0 <= u <= 1.0:
        raise ValidationError(f"interpolation fraction outside [0, 1]: {u}")
    for q in (q_s, q_e):
        if abs(q.w**2 + q.x**2 + q.y**2 + q.z**2 - 1.0) > _SLERP_INPUT_TOL:
            raise ValidationError("unnormalized quaternion")

    d = q_s.dot(q_e)
    sign = 1.0
    if d < 0.0:  # shortest arc: interpolate toward -q_e
        d = -d
        sign = -1.0
    d = min(d, 1.0)
    theta = math.atan2(math.sqrt(max(0.0, 1.0 - d * d)), d)
    if theta < _SLERP_NLERP_ANGLE:
        w_s, w_e = 1.0 - u, u * sign
    else:
        sin_theta = math.sin(theta)
        w_s = math.sin((1.0 - u) * theta) / sin_theta
        w_e = math.sin(u * theta) / sin_theta * sign
    return Quaternion(
        w_s * q_s.w + w_e * q_e.w,
        w_s * q_s.x + w_e * q_e.x,
        w_s * q_s.y + w_e * q_e.y,
        w_s * q_s.z + w_e * q_e.z,
    )


def _clip_polygon(subject: list[tuple[float, float]], clip: list[tuple[float, float]]):
    """Sutherland-Hodgman clip of `subject` by convex CCW polygon `clip`.

    Boundary-inclusive, so clipping a polygon by itself returns its own
    vertices unchanged.
    """
    output = subject
    cx1, cy1 = clip[-1]
    for cx2, cy2 in clip:
        if not output:
            return []
        ex, ey = cx2 - cx1, cy2 - cy1
        inside = [ex * (py - cy1) - ey * (px - cx1) >= 0.0 for px, py in output]
        result = []
        n = len(output)
        for i in range(n):
            j = (i + 1) % n
            if inside[i]:
                result.append(output[i])
            if inside[i] != inside[j]:
                sx, sy = output[i]
                px, py = output[j]
                dx, dy = px - sx, py - sy
                denom = ex * dy - ey * dx
                side_s = ex * (sy - cy1) - ey * (sx - cx1)
                if denom == 0.0:
                    # rounding made a segment that straddles the edge parallel
                    # to it; its end points' side values differ in sign
                    tpar = side_s / (side_s - (ex * (py - cy1) - ey * (px - cx1)))
                else:
                    tpar = side_s / -denom
                result.append((sx + tpar * dx, sy + tpar * dy))
        output = result
        cx1, cy1 = cx2, cy2
    return output


def _polygon_area(points) -> float:
    if len(points) < 3:
        return 0.0
    acc = 0.0
    n = len(points)
    for i in range(n):
        x1, y1 = points[i]
        x2, y2 = points[(i + 1) % n]
        acc += x1 * y2 - x2 * y1
    return 0.5 * abs(acc)


def bev_iou(a: BevRect, b: BevRect) -> float:
    """Intersection over union of two rotated rectangles in the ground plane.

    The clipped area is clamped to the smaller rectangle's area: far from
    the origin, corner rounding can make it exceed that area, and the union
    would then cancel to a value near or below zero.
    """
    inter = min(_polygon_area(_clip_polygon(a.corners(), b.corners())), a.area, b.area)
    if inter <= 0.0:
        return 0.0
    union = a.area + b.area - inter
    return min(1.0, inter / union)


def _gate(a: Sequence[BevRect], b: Sequence[BevRect]):
    """The circumcircle gate over every pair of `a` and `b`.

    Returns the (len(a) + len(b), 4) array of centers, widths and lengths,
    the (len(a), len(b)) center distances, and a mask of the pairs the gate
    lets through. A pair it stops has disjoint circumcircles, so `bev_iou`
    reads 0.0 on it.
    """
    rects = np.array([(r.center_x, r.center_y, r.width, r.length) for r in (*a, *b)])
    centers = rects[:, :2]
    # each rectangle's share of the gate: its circumradius plus margins
    reach = (0.5 + 0.5 * _GATE_REL_MARGIN) * np.hypot(rects[:, 2], rects[:, 3])
    reach += _GATE_COORD_MARGIN * np.abs(centers).max()
    n = len(a)
    offset = centers[:n, None, :] - centers[None, n:, :]
    dist = np.hypot(offset[..., 0], offset[..., 1])
    # written as "not apart" so that NaN distances go to the clipper
    return rects, dist, ~(dist > reach[:n, None] + reach[n:])


def bev_iou_matrix(a: Sequence[BevRect], b: Sequence[BevRect]) -> np.ndarray:
    """`bev_iou(a[i], b[j])` for every pair, as a (len(a), len(b)) array.

    Pairs whose circumcircles are disjoint cannot overlap and read 0.0
    without clipping; every other entry is computed by `bev_iou` itself, so
    the matrix is bit-identical to the scalar calls.
    """
    out = np.zeros((len(a), len(b)), dtype=np.float64)
    if out.size == 0:
        return out
    rows, cols = np.nonzero(_gate(a, b)[2])
    for i, j in zip(rows.tolist(), cols.tolist()):
        out[i, j] = bev_iou(a[i], b[j])
    return out


def bev_iou_reaches(a: Sequence[BevRect], b: Sequence[BevRect], threshold: float) -> list[bool]:
    """For each `a[i]`, whether some `bev_iou(a[i], b[j])` is not below `threshold`.

    Equal to `not bev_iou_matrix(a, b).max(axis=1, initial=0.0) < threshold`
    row by row, so threshold 0 is reached even with no `b`. A pair the gate
    stops answers no. A pair answers yes unclipped when a certified bound
    reaches the threshold: the disk of radius `s = min(r_a, r_b, (r_a + r_b
    - d) / 2)`, with `r` half a rectangle's shorter side and `d` the center
    distance, lies in both, so the IoU is at least `pi s^2 / (A_a + A_b -
    pi s^2)` when `s > 0`; the disk's area is first cut by the margin that
    covers `bev_iou`'s rounding. Every other pair is clipped by `bev_iou`
    until its row has a yes.
    """
    if not threshold > 0.0:
        return [True] * len(a)
    if not (len(a) and len(b)):
        return [False] * len(a)
    rects, dist, through = _gate(a, b)
    n = len(a)
    half_side = 0.5 * np.minimum(rects[:, 2], rects[:, 3])
    area = rects[:, 2] * rects[:, 3]
    extent = np.abs(rects[:, :2]).max(axis=1) + rects[:, 2:].max(axis=1)
    r_a, r_b = half_side[:n, None], half_side[None, n:]
    s = np.minimum(np.minimum(r_a, r_b), 0.5 * (r_a + r_b - dist))
    inter = math.pi * s * s
    inter -= _BOUND_COORD_MARGIN * np.maximum(extent[:n, None], extent[None, n:]) ** 2
    union = area[:n, None] + area[None, n:] - inter
    certain = (s > 0.0) & (inter * (1.0 - _BOUND_REL_MARGIN) >= threshold * union)
    out = certain.any(axis=1)
    through[out] = False
    out = out.tolist()
    rows, cols = np.nonzero(through)
    for i, j in zip(rows.tolist(), cols.tolist()):
        if not out[i] and not bev_iou(a[i], b[j]) < threshold:
            out[i] = True
    return out


def center_distance(a: Vec3, b: Vec3) -> float:
    """Euclidean distance in the ground plane; z is ignored."""
    return math.hypot(a.x - b.x, a.y - b.y)
