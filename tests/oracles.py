"""Independent reference implementations used to compute expected values.

Everything here is deliberately written differently from the library code
it checks: Monte-Carlo instead of polygon clipping, axis-angle arithmetic
instead of quaternion slerp, plain loops instead of vectorized pooling, and
a from-scratch constant-runtime event schedule. The per-pair IoU loops that
auto-clean and association ran before the circumcircle gate are kept here as
the references for the gated all-pairs matrix, and the list-building box
decoder, generator-based box validation and linear temporal-database scan
as the references for their unpacking and bisecting replacements.
"""

from __future__ import annotations

import math

import numpy as np

from streameval.data import ValidationError
from streameval.geom import BevRect, Quaternion, Vec3, bev_iou, wrap_angle


def mc_bev_iou(a: BevRect, b: BevRect, n: int = 1_000_000, seed: int = 0) -> float:
    """Monte-Carlo IoU: sample half the points in each rectangle.

    The intersection area is estimated from the fraction of points that land
    in the other rectangle; the union follows exactly from the known
    rectangle areas.
    """
    rng = np.random.default_rng(seed)

    def contains(rect: BevRect, xs, ys):
        dx = xs - rect.center_x
        dy = ys - rect.center_y
        c, s = math.cos(rect.yaw), math.sin(rect.yaw)
        u = c * dx + s * dy
        v = -s * dx + c * dy
        return (np.abs(u) <= rect.length / 2.0) & (np.abs(v) <= rect.width / 2.0)

    def sample_in(rect: BevRect, k: int):
        u = rng.uniform(-rect.length / 2.0, rect.length / 2.0, k)
        v = rng.uniform(-rect.width / 2.0, rect.width / 2.0, k)
        c, s = math.cos(rect.yaw), math.sin(rect.yaw)
        return rect.center_x + c * u - s * v, rect.center_y + s * u + c * v

    half = n // 2
    xa, ya = sample_in(a, half)
    xb, yb = sample_in(b, half)
    inter_from_a = a.area * np.mean(contains(b, xa, ya))
    inter_from_b = b.area * np.mean(contains(a, xb, yb))
    inter = 0.5 * (inter_from_a + inter_from_b)
    union = a.area + b.area - inter
    return max(0.0, inter / union)


def coaxial_slerp(yaw_s: float, yaw_e: float, u: float) -> Quaternion:
    """Shortest-arc interpolation of two rotations about +z via plain angles."""
    delta = wrap_angle(yaw_e - yaw_s)
    return Quaternion.rot_z(yaw_s + u * delta)


def quat_close(a: Quaternion, b: Quaternion, tol: float) -> bool:
    """Componentwise closeness up to the q/-q sign ambiguity."""
    direct = max(abs(a.w - b.w), abs(a.x - b.x), abs(a.y - b.y), abs(a.z - b.z))
    flipped = max(abs(a.w + b.w), abs(a.x + b.x), abs(a.y + b.y), abs(a.z + b.z))
    return min(direct, flipped) <= tol


def brute_ap(events: list[tuple[float, bool]], npos: int) -> float:
    """Loop-based AP: one PR point per score threshold, running-max precision
    on the 101-point recall grid, floors of 0.1 on recall and precision,
    renormalized."""
    assert npos > 0
    points = []  # (recall, precision) at each distinct score threshold
    for tau in sorted({s for s, _ in events}, reverse=True):
        tp = sum(1 for s, is_tp in events if s >= tau and is_tp)
        fp = sum(1 for s, is_tp in events if s >= tau and not is_tp)
        points.append((tp / npos, tp / (tp + fp)))
    total = 0.0
    for k in range(11, 101):
        r = k / 100.0
        best = 0.0
        for rec, prec in points:
            if rec >= r and prec > best:
                best = prec
        total += max(best - 0.1, 0.0)
    return min(1.0, total / 90.0 / 0.9)


def constant_runtime_schedule(frames: list[int], runtime_us: int) -> list[tuple[int, int]]:
    """(completion, source) pairs for a constant-runtime model.

    Reimplements the scheduling policy longhand: start on the first frame;
    after finishing, take the oldest frame that was not overtaken during the
    inference, waiting for it if it has not arrived yet.
    """
    out = []
    i = 0
    wall = frames[0]
    while i < len(frames):
        start = max(wall, frames[i])
        completion = start + runtime_us
        out.append((completion, frames[i]))
        wall = completion
        nxt = None
        for j in range(i + 1, len(frames)):
            if frames[j] >= completion:
                nxt = j
                break
        if nxt is None:
            break
        i = nxt
    return out


def theta_match(completions: list[int], t_eval: int) -> int | None:
    """Index of the last completion strictly before t_eval, by linear scan."""
    best = None
    for i, c in enumerate(completions):
        if c < t_eval:
            best = i
    return best


def scalar_auto_clean(interpolated, queried, clean_iou_threshold: float) -> list:
    """Auto-clean with one `bev_iou` call per (queried, interpolated) pair."""
    out = list(interpolated)
    rects = [b.bev_rect() for b in interpolated]
    for q in queried:
        q_rect = q.bev_rect()
        best = max((bev_iou(q_rect, r) for r in rects), default=0.0)
        if best < clean_iou_threshold:
            out.append(q)
    return out


def scalar_greedy_associate(prev_boxes, curr_boxes, assoc_iou_threshold: float):
    """Greedy association with one `bev_iou` call per same-category pair."""
    candidates = []
    for i, p in enumerate(prev_boxes):
        for j, c in enumerate(curr_boxes):
            if p.category != c.category:
                continue
            iou = bev_iou(p.bev_rect(), c.bev_rect())
            if iou >= assoc_iou_threshold:
                candidates.append((iou, i, j))
    candidates.sort(key=lambda t: (-t[0], t[1], t[2]))
    used_prev: set[int] = set()
    used_curr: set[int] = set()
    matches = []
    for _, i, j in candidates:
        if i in used_prev or j in used_curr:
            continue
        used_prev.add(i)
        used_curr.add(j)
        matches.append((i, j))
    unmatched_prev = [i for i in range(len(prev_boxes)) if i not in used_prev]
    unmatched_curr = [j for j in range(len(curr_boxes)) if j not in used_curr]
    return matches, unmatched_prev, unmatched_curr


def seed_box_fields(category, center, size, rotation, velocity=(0.0, 0.0), score=1.0,
                    instance_id=None, attribute=None) -> tuple:
    """The fields `Box3D(...)` holds for these arguments, checked and converted
    one element at a time by generator loops; raises what `Box3D` raises."""
    if len(size) != 3 or any(not (s > 0.0 and math.isfinite(s)) for s in size):
        raise ValidationError(f"size must be three positive finite values, got {size}")
    if not (0.0 <= score <= 1.0):
        raise ValidationError(f"score outside [0, 1]: {score}")
    if len(velocity) != 2 or any(not math.isfinite(v) for v in velocity):
        raise ValidationError(f"velocity must be finite (vx, vy), got {velocity}")
    return (category, center, tuple(float(s) for s in size), rotation,
            tuple(float(v) for v in velocity), score, instance_id, attribute)


def box_fields(box) -> tuple:
    """A `Box3D`'s fields in declaration order, comparable with `seed_box_fields`."""
    return (box.category, box.center, box.size, box.rotation, box.velocity, box.score,
            box.instance_id, box.attribute)


def seed_box_from_json(obj, with_score: bool) -> tuple:
    """Box fields decoded through intermediate lists of floats."""
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
    return seed_box_fields(
        category=str(category),
        center=Vec3(*[float(v) for v in center]),
        size=tuple(float(v) for v in size),
        rotation=Quaternion(*[float(v) for v in rotation]),
        velocity=tuple(float(v) for v in velocity),
        score=float(score),
        instance_id=obj.get("instance_id"),
        attribute=obj.get("attribute"),
    )


def linear_query_temporal_db(db, t: int, min_score: float = 0.0) -> list:
    """Boxes of the entry nearest `t` by a scan of every entry; ties go to
    the earlier entry."""
    best = min(db.entries, key=lambda e: (abs(e.timestamp_us - t), e.timestamp_us))
    return [b for b in best.boxes if b.score >= min_score]
