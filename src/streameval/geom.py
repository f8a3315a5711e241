"""Quaternion and planar-geometry primitives for oriented 3D boxes.

Rotation interpolation (slerp), translation interpolation, rotated
bird's-eye-view IoU via convex polygon clipping (one pair, or whether any
pair of two sets reaches a threshold behind a certified lower bound), the
pairs of two rectangle sets whose circumcircles can meet (found by sorting
one set on x), and planar center distance. All angles are radians, all
lengths meters. Everything here runs on plain floats: the sets are small,
and per-call array setup would cost more than the work.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import hypot, isfinite
from numbers import Real
from typing import Sequence

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
# Relative slack on the x-window of `_gated_pairs`: far above the rounding of
# `math.hypot`, which is at least |dx|, and of the window's own arithmetic.
_WINDOW_MARGIN = 1e-9
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


# Vec3, Quaternion and BevRect write their `__init__` out, so that converting and
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


@dataclass(slots=True, unsafe_hash=True, init=False)
class BevRect:
    """Rotated rectangle in the ground plane, of finite values.

    `length` extends along the heading given by `yaw`, `width` across it.
    """

    center_x: float
    center_y: float
    width: float
    length: float
    yaw: float

    def __init__(self, center_x: float, center_y: float, width: float, length: float,
                 yaw: float):
        if not (width > 0.0 and length > 0.0):
            raise ValidationError(f"non-positive rectangle size: {width} x {length}")
        if not (isfinite(center_x) and isfinite(center_y) and isfinite(width)
                and isfinite(length) and isfinite(yaw)):
            raise ValidationError(
                f"non-finite rectangle value: center ({center_x}, {center_y}), "
                f"size {width} x {length}, yaw {yaw}"
            )
        self.center_x = center_x
        self.center_y = center_y
        self.width = width
        self.length = length
        self.yaw = wrap_angle(yaw)

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


def _gated_pairs(a: Sequence[BevRect], b: Sequence[BevRect]) -> list[tuple[int, int, float]]:
    """(i, j, center distance) of every pair of `a` and `b` that the
    circumcircle gate lets through, in row-major order.

    The gate stops a pair whose centers are farther apart than the sum of
    its circumradii, each widened by a relative margin and by a fraction of
    the largest center coordinate of either set; such a pair is disjoint, so
    `bev_iou` reads 0.0 on it. The pairs are found by sort and sweep: `b` is
    sorted on center x once, and each `a[i]` takes only the `b` whose x lies
    within its own reach plus the widest reach of `b`, widened by a relative
    margin. Since `math.hypot` is at least |dx| up to rounding, every pair
    the gate lets through lies in that window; rounding is monotone, so the
    rounded window edges still enclose it. The work grows with the window's
    pairs, not with len(a) * len(b).
    """
    if not (a and b):
        return []
    big = 0.0  # the largest center coordinate of either set
    for r in (*a, *b):
        big = max(big, abs(r.center_x), abs(r.center_y))
    coord = _GATE_COORD_MARGIN * big
    scale = 0.5 + 0.5 * _GATE_REL_MARGIN  # each rectangle's share: its circumradius
    reach_b = [scale * hypot(r.width, r.length) + coord for r in b]
    bx = [r.center_x for r in b]
    order = sorted(range(len(b)), key=bx.__getitem__)
    xs = [bx[j] for j in order]
    widest = max(reach_b)
    pairs = []
    for i, r in enumerate(a):
        x, y = r.center_x, r.center_y
        reach = scale * hypot(r.width, r.length) + coord
        lim = (reach + widest) * (1.0 + _WINDOW_MARGIN)
        for k in range(bisect_left(xs, x - lim), bisect_right(xs, x + lim)):
            j = order[k]
            s = b[j]
            d = hypot(x - s.center_x, y - s.center_y)
            if not d > reach + reach_b[j]:
                pairs.append((i, j, d))
    pairs.sort()
    return pairs


def bev_iou_reaches(a: Sequence[BevRect], b: Sequence[BevRect], threshold: float) -> list[bool]:
    """For each `a[i]`, whether some `bev_iou(a[i], b[j])` is not below `threshold`.

    Threshold 0 is reached even with no `b`. A pair that `_gated_pairs` does
    not yield reads IoU 0.0 and answers no. A pair answers yes unclipped
    when a certified bound reaches the threshold: the disk of radius `s =
    min(r_a, r_b, (r_a + r_b - d) / 2)`, with `r` half a rectangle's shorter
    side and `d` the center distance, lies in both, so the IoU is at least
    `pi s^2 / (A_a + A_b - pi s^2)` when `s > 0`; the disk's area is first
    cut by the margin that covers `bev_iou`'s rounding. Every other gated
    pair is clipped by `bev_iou` until its row has a yes.
    """
    if not threshold > 0.0:
        return [True] * len(a)
    out = [False] * len(a)
    pairs = _gated_pairs(a, b)
    for i, j, d in pairs:
        if out[i]:
            continue
        p, q = a[i], b[j]
        r_p, r_q = 0.5 * min(p.width, p.length), 0.5 * min(q.width, q.length)
        s = min(r_p, r_q, 0.5 * (r_p + r_q - d))
        if s > 0.0:
            extent = max(max(abs(p.center_x), abs(p.center_y)) + max(p.width, p.length),
                         max(abs(q.center_x), abs(q.center_y)) + max(q.width, q.length))
            inter = math.pi * s * s - _BOUND_COORD_MARGIN * (extent * extent)
            union = p.width * p.length + q.width * q.length - inter
            out[i] = inter * (1.0 - _BOUND_REL_MARGIN) >= threshold * union
    for i, j, _ in pairs:
        if not out[i] and not bev_iou(a[i], b[j]) < threshold:
            out[i] = True
    return out


def center_distance(a: Vec3, b: Vec3) -> float:
    """Euclidean distance in the ground plane; z is ignored."""
    return math.hypot(a.x - b.x, a.y - b.y)
