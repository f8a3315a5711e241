"""Independent reference implementations used to compute expected values.

Everything here is deliberately written differently from the library code
it checks: Monte-Carlo instead of polygon clipping, axis-angle arithmetic
instead of quaternion slerp, plain loops instead of vectorized pooling, and
a from-scratch constant-runtime event schedule. The per-pair IoU loops that
auto-clean and association ran before the circumcircle gate are kept here as
the references for the gated pairs and the certified-bound duplicate test,
and the all-pairs numpy gate with its IoU matrix as the reference for the
sort-and-sweep pair finder; the list-building box decoder, generator-based box
validation and linear temporal-database scan as the references for their
unpacking and bisecting replacements; and the dict-plus-`json.dumps` writer
as the reference for the formatting one. The
per-threshold matching loop and the evaluation and velocity-error bodies
built on it are the references for the one-pass matcher, and the 5x5
numpy Kalman step with its eigenvalue clamp is the reference for the
block-diagonal filter on plain floats.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

import numpy as np

from streameval import geom
from streameval.data import US_PER_S, ValidationError
from streameval.geom import BevRect, Quaternion, Vec3, bev_iou, center_distance, wrap_angle
from streameval.metrics import TP_ERROR_THRESHOLD_M, MetricReport, compute_ap, compute_nds_s


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


def numpy_gate(a, b) -> np.ndarray:
    """The circumcircle gate over every pair of `a` and `b`, as a
    (len(a), len(b)) array of center distances with NaN where it stops the
    pair: each rectangle's circumradius and `geom`'s margins, for all pairs
    at once."""
    out = np.full((len(a), len(b)), np.nan)
    if out.size == 0:
        return out
    rects = np.array([(r.center_x, r.center_y, r.width, r.length) for r in (*a, *b)])
    centers = rects[:, :2]
    reach = (0.5 + 0.5 * geom._GATE_REL_MARGIN) * np.hypot(rects[:, 2], rects[:, 3])
    reach += geom._GATE_COORD_MARGIN * np.abs(centers).max()
    n = len(a)
    offset = centers[:n, None, :] - centers[None, n:, :]
    dist = np.hypot(offset[..., 0], offset[..., 1])
    through = ~(dist > reach[:n, None] + reach[n:])
    out[through] = dist[through]
    return out


def bev_iou_matrix(a, b) -> np.ndarray:
    """`bev_iou(a[i], b[j])` for every pair, as a (len(a), len(b)) array:
    0.0 where `numpy_gate` stops the pair, clipped everywhere else."""
    out = np.zeros((len(a), len(b)), dtype=np.float64)
    rows, cols = np.nonzero(~np.isnan(numpy_gate(a, b)))
    for i, j in zip(rows.tolist(), cols.tolist()):
        out[i, j] = bev_iou(a[i], b[j])
    return out


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
            tuple(float(v) for v in velocity), float(score), instance_id, attribute)


def box_fields(box) -> tuple:
    """A `Box3D`'s fields in declaration order, comparable with `seed_box_fields`."""
    return (box.category, box.center, box.size, box.rotation, box.velocity, box.score,
            box.instance_id, box.attribute)


def _json_number(value) -> float:
    """`value` as a float if it is a JSON number (bool is not), else raise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"not a JSON number: {value!r}")
    return float(value)


def _json_numbers(value, n: int) -> list[float]:
    """`value` as a list of floats if it is a JSON array of `n` numbers."""
    if not isinstance(value, list) or len(value) != n:
        raise ValidationError(f"not a JSON array of {n} numbers: {value!r}")
    return [_json_number(v) for v in value]


def seed_box_from_json(obj, with_score: bool) -> tuple:
    """Box fields decoded through intermediate lists of floats.

    Vectors must be JSON arrays of JSON numbers, the score a JSON number,
    the category a string, and the instance id and attribute strings or
    null; nothing is coerced from another JSON type.
    """
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
    if not isinstance(category, str):
        raise ValidationError(f"category must be a string, got {category!r}")
    for key in ("instance_id", "attribute"):
        if not isinstance(obj.get(key), (str, type(None))):
            raise ValidationError(f"{key} must be a string or null, got {obj[key]!r}")
    return seed_box_fields(
        category=category,
        center=Vec3(*_json_numbers(center, 3)),
        size=tuple(_json_numbers(size, 3)),
        rotation=Quaternion(*_json_numbers(rotation, 4)),
        velocity=tuple(_json_numbers(velocity, 2)),
        score=_json_number(score),
        instance_id=obj.get("instance_id"),
        attribute=obj.get("attribute"),
    )


def dict_box_to_json(box, with_score: bool) -> dict:
    """The JSON object of a box, built as a dict in schema key order."""
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


def json_line(obj: dict) -> str:
    """One JSON-Lines line (newline excluded), in the compact `json.dumps` form."""
    return json.dumps(obj, separators=(",", ":"))


def dict_frame_line(frame) -> str:
    return json_line({
        "scene_id": frame.scene_id,
        "timestamp_us": frame.timestamp_us,
        "is_keyframe": frame.is_keyframe,
        "boxes": [dict_box_to_json(b, with_score=False) for b in frame.boxes],
    })


def dict_detections_line(det) -> str:
    return json_line({
        "scene_id": det.scene_id,
        "timestamp_us": det.source_timestamp_us,
        "boxes": [dict_box_to_json(b, with_score=True) for b in det.boxes],
    })


def dict_record_line(rec, boxes: str = "boxes") -> str:
    return json_line({
        "scene_id": rec.detections.scene_id,
        "completion_us": rec.completion_us,
        "source_us": rec.source_us,
        boxes: [dict_box_to_json(b, with_score=True) for b in rec.detections.boxes],
    })


def linear_query_temporal_db(db, t: int, min_score: float = 0.0) -> list:
    """Boxes of the entry nearest `t` by a scan of every entry; ties go to
    the earlier entry."""
    best = min(db.entries, key=lambda e: (abs(e.source_timestamp_us - t), e.source_timestamp_us))
    return [b for b in best.boxes if b.score >= min_score]


def seed_match_boxes(gt_boxes, pred_boxes, category: str, threshold_m: float):
    """Greedy matching at one threshold: each prediction, by descending
    score, scans every untaken ground-truth box for the first strictly
    nearest one and takes it when within the threshold."""
    if not threshold_m > 0.0:
        raise ValidationError(f"threshold must be positive, got {threshold_m}")
    gts = [b for b in gt_boxes if b.category == category]
    preds = [b for b in pred_boxes if b.category == category]
    preds.sort(key=lambda b: -b.score)
    taken = [False] * len(gts)
    pairs, fps = [], []
    for p in preds:
        best_i, best_d = -1, math.inf
        for i, g in enumerate(gts):
            if taken[i]:
                continue
            d = center_distance(g.center, p.center)
            if d < best_d:
                best_i, best_d = i, d
        if best_i >= 0 and best_d <= threshold_m:
            taken[best_i] = True
            pairs.append((gts[best_i], p))
        else:
            fps.append(p)
    fns = [g for i, g in enumerate(gts) if not taken[i]]
    return pairs, fps, fns


def seed_compute_tp_errors(pairs):
    """(ATE, ASE, AOE, AAE) as generator sums over the pairs."""
    if not pairs:
        return 1.0, 1.0, 1.0, 1.0

    def scale_iou(a, b):
        inter = math.prod(min(sa, sb) for sa, sb in zip(a.size, b.size))
        return inter / (math.prod(a.size) + math.prod(b.size) - inter)

    ate = sum(center_distance(g.center, p.center) for g, p in pairs) / len(pairs)
    ase = sum(1.0 - scale_iou(g, p) for g, p in pairs) / len(pairs)
    aoe = sum(abs(wrap_angle(p.yaw - g.yaw)) for g, p in pairs) / len(pairs)
    aae = sum(1.0 for g, p in pairs if g.attribute != p.attribute) / len(pairs)
    return ate, ase, aoe, aae


def seed_compute_ave_offline(offline_outputs, gt_frames, classes) -> float:
    """Velocity error over offline TPs, matched class by class at 2 m."""
    dets = list(offline_outputs.values() if isinstance(offline_outputs, dict) else offline_outputs)
    dets.sort(key=lambda d: (d.scene_id, d.source_timestamp_us))
    gt_by_key = {(f.scene_id, f.timestamp_us): f for f in gt_frames}
    errors = []
    for det in dets:
        gt = gt_by_key.get((det.scene_id, det.source_timestamp_us))
        if gt is None:
            continue
        for cls in classes:
            pairs, _, _ = seed_match_boxes(gt.boxes, det.boxes, cls, TP_ERROR_THRESHOLD_M)
            errors.extend(
                math.hypot(p.velocity[0] - g.velocity[0], p.velocity[1] - g.velocity[1])
                for g, p in pairs
            )
    return sum(errors) / len(errors) if errors else 1.0


def seed_evaluate_pairs(pairs, classes=None, thresholds=(0.5, 1.0, 2.0, 4.0),
                        offline_outputs=None, metadata=None):
    """(report, 2 m TP pairs in tally order): every (class, threshold) is
    matched frame by frame on its own, plus a 2 m pass for the TP errors
    when 2 m is not an AP threshold."""
    if classes is not None and len(set(classes)) != len(classes):
        raise ValidationError(f"classes must not repeat, got {list(classes)}")
    if not pairs:
        raise ValidationError("empty ground truth: nothing to evaluate")
    if sum(len(f.boxes) for f, _ in pairs) == 0:
        raise ValidationError("empty ground truth: no annotated boxes")
    if classes is None:
        classes = sorted({b.category for f, _ in pairs for b in f.boxes})
    npos = {cls: 0 for cls in classes}
    for frame, _ in pairs:
        for b in frame.boxes:
            if b.category in npos:
                npos[b.category] += 1
    tp_pairs = []
    counts = {"tp": 0, "fp": 0, "fn": 0}

    def tally(tps, fps, fns):
        tp_pairs.extend(tps)
        counts["tp"] += len(tps)
        counts["fp"] += len(fps)
        counts["fn"] += len(fns)

    thresholds = list(thresholds)
    tp_pass = thresholds.index(TP_ERROR_THRESHOLD_M) if TP_ERROR_THRESHOLD_M in thresholds else None
    per_class_ap = {}
    for cls in classes:
        if npos[cls] == 0:
            continue
        for k, thr in enumerate(thresholds):
            events = []
            for frame, preds in pairs:
                tps, fps, fns = seed_match_boxes(frame.boxes, preds, cls, thr)
                events.extend((p.score, True) for _, p in tps)
                events.extend((p.score, False) for p in fps)
                if k == tp_pass:
                    tally(tps, fps, fns)
            per_class_ap[(cls, thr)] = compute_ap(events, npos[cls])
        if tp_pass is None:
            for frame, preds in pairs:
                tally(*seed_match_boxes(frame.boxes, preds, cls, TP_ERROR_THRESHOLD_M))
    if not per_class_ap:
        raise ValidationError("empty ground truth: no class has annotations")
    map_s = sum(per_class_ap.values()) / len(per_class_ap)
    ate, ase, aoe, aae = seed_compute_tp_errors(tp_pairs)
    ave = 1.0
    if offline_outputs is not None:
        ave = seed_compute_ave_offline(offline_outputs, [f for f, _ in pairs], classes)
    report = MetricReport(
        per_class_ap=per_class_ap, map_s=map_s, ate_s=ate, ase_s=ase, aoe_s=aoe, aae_s=aae,
        ave_offline=ave, nds_s=compute_nds_s(map_s, ate, ase, aoe, ave, aae), counts=counts,
        metadata=metadata or {},
    )
    return report, tp_pairs


class SeedTrack(NamedTuple):
    state: tuple
    covariance: np.ndarray  # 5x5
    last_update_us: int
    track_id: int
    hits: int


def covariance(track) -> np.ndarray:
    """The 5x5 covariance over (x, y, z, vx, vy) of a `SeedTrack`, or of a
    `baseline.TrackState`, assembled from its seven block entries."""
    if isinstance(track, SeedTrack):
        return track.covariance
    pxx, pxvx, pvxvx, pyy, pyvy, pvyvy, pzz = track.blocks
    p = np.diag([pxx, pyy, pzz, pvxvx, pvyvy])
    p[0, 3] = p[3, 0] = pxvx
    p[1, 4] = p[4, 1] = pyvy
    return p


def seed_kalman_step(track, measurement, dt: float, cfg) -> SeedTrack:
    """One 5x5 predict/update cycle, symmetrized, with negative eigenvalues
    clamped at zero. `track` is a `SeedTrack` or a `baseline.TrackState`
    (`covariance`)."""
    if not dt > 0.0:
        raise ValidationError(f"dt must be positive, got {dt}")
    f = np.eye(5)
    f[0, 3] = dt
    f[1, 4] = dt
    q = np.diag([cfg.process_noise_pos * dt] * 3 + [cfg.process_noise_vel * dt] * 2)
    x = f @ np.asarray(track.state)
    p = f @ covariance(track) @ f.T + q
    c, v = measurement.center, measurement.velocity
    z = np.array([c.x, c.y, c.z, v[0], v[1]])
    r = np.diag([cfg.meas_noise_pos] * 3 + [cfg.meas_noise_vel] * 2)
    s = p + r
    k = np.linalg.solve(s.T, p.T).T
    x = x + k @ (z - x)
    p = (np.eye(5) - k) @ p
    p = 0.5 * (p + p.T)
    if np.linalg.eigvalsh(p)[0] < 0.0:
        w, vecs = np.linalg.eigh(p)
        p = (vecs * np.maximum(w, 0.0)) @ vecs.T
        p = 0.5 * (p + p.T)
    if np.any(np.isnan(x)) or np.any(np.isnan(p)):
        raise FloatingPointError("NaN in Kalman state")
    return SeedTrack(
        state=tuple(float(e) for e in x),
        covariance=p,
        last_update_us=track.last_update_us + round(dt * US_PER_S),
        # a `baseline.TrackState` keeps no identity or hit count
        track_id=getattr(track, "track_id", 0),
        hits=getattr(track, "hits", 1) + 1,
    )
