"""Velocity-based prediction updating.

Stale detections are extrapolated to the evaluation timestamp with a
constant-velocity motion model. Detections are additionally associated
across consecutive stream records by BEV IoU and refined with a first-order
Kalman filter over (x, y, z, vx, vy), which smooths the per-frame velocity
estimates the extrapolation relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Callable, Sequence

from .data import US_PER_S, Box3D, FrameDetections, PredictionStream, StreamRecord, ValidationError
from .geom import BevRect, Vec3, _gated_pairs, bev_iou

@dataclass(frozen=True, slots=True)
class KalmanConfig:
    process_noise_pos: float = 0.5  # m^2/s
    process_noise_vel: float = 0.5  # m^2/s^3
    meas_noise_pos: float = 0.5  # m^2
    meas_noise_vel: float = 1.0  # m^2/s^2
    assoc_iou_threshold: float = 0.1
    max_coast_us: int = US_PER_S

    def __post_init__(self):
        for name in ("process_noise_pos", "process_noise_vel", "meas_noise_pos", "meas_noise_vel"):
            value = getattr(self, name)
            if not (value > 0.0 and isfinite(value)):
                raise ValidationError(f"{name} must be positive and finite, got {value}")
        for name in ("meas_noise_pos", "meas_noise_vel"):
            # a track is born with 10x the measurement noise as its covariance
            if not isfinite(10.0 * getattr(self, name)):
                raise ValidationError(f"{name} overflows the birth covariance")
        if not 0.0 <= self.assoc_iou_threshold <= 1.0:
            raise ValidationError("assoc_iou_threshold outside [0, 1]")
        if self.max_coast_us < 0:
            raise ValidationError(f"max_coast_us must be non-negative, got {self.max_coast_us}")


@dataclass(frozen=True, slots=True)
class TrackState:
    """Filter state for one tracked object: (x, y, z, vx, vy)."""

    state: tuple[float, float, float, float, float]
    blocks: tuple[float, ...]  # covariance (pxx, pxvx, pvxvx, pyy, pyvy, pvyvy, pzz)
    last_update_us: int

    def position(self) -> Vec3:
        return Vec3(self.state[0], self.state[1], self.state[2])

    def velocity(self) -> tuple[float, float]:
        return self.state[3], self.state[4]


def cv_update(box: Box3D, dt: float) -> Box3D:
    """Advance a box by its own planar velocity for `dt` seconds."""
    if dt < 0.0:
        raise ValidationError(f"dt must be non-negative, got {dt}")
    vx, vy = box.velocity
    return box.moved_to(box.center.x + dt * vx, box.center.y + dt * vy)


def greedy_associate(
    prev_boxes: Sequence[Box3D], curr_boxes: Sequence[Box3D], cfg: KalmanConfig
) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Associate two box sets by descending BEV IoU, same category only.

    `prev_boxes` are expected to be propagated to the current frame time
    already. Both sides may hold anything with a `category` and a
    `bev_rect()`, such as boxes or the footprints `refine_stream` passes.
    Only the same-category pairs that `geom._gated_pairs` yields are
    clipped, every other pair reads IoU 0.0, so at threshold 0 every
    same-category pair is a candidate. Returns (matched index pairs,
    unmatched prev, unmatched curr).
    """
    threshold = cfg.assoc_iou_threshold
    prev_rects = [b.bev_rect() for b in prev_boxes]
    curr_rects = [b.bev_rect() for b in curr_boxes]
    candidates = []
    for i, j, _ in _gated_pairs(prev_rects, curr_rects):
        if prev_boxes[i].category == curr_boxes[j].category:
            iou = bev_iou(prev_rects[i], curr_rects[j])
            if iou >= threshold:
                candidates.append((iou, i, j))
    if not threshold > 0.0:
        clipped = {(i, j) for _, i, j in candidates}
        candidates += [
            (0.0, i, j)
            for i, p in enumerate(prev_boxes)
            for j, c in enumerate(curr_boxes)
            if p.category == c.category and (i, j) not in clipped
        ]
    candidates.sort(key=lambda t: (-t[0], t[1], t[2]))

    used_prev: set[int] = set()
    used_curr: set[int] = set()
    matches: list[tuple[int, int]] = []
    for _, i, j in candidates:
        if i in used_prev or j in used_curr:
            continue
        used_prev.add(i)
        used_curr.add(j)
        matches.append((i, j))
    unmatched_prev = [i for i in range(len(prev_boxes)) if i not in used_prev]
    unmatched_curr = [j for j in range(len(curr_boxes)) if j not in used_curr]
    return matches, unmatched_prev, unmatched_curr


def new_track(box: Box3D, t_us: int, cfg: KalmanConfig) -> TrackState:
    """Track birth: state from the detection, covariance 10x measurement noise."""
    c, (vx, vy) = box.center, box.velocity
    pos, vel = 10.0 * cfg.meas_noise_pos, 10.0 * cfg.meas_noise_vel
    state = (c.x, c.y, c.z, vx, vy)
    return TrackState(state, (pos, 0.0, vel, pos, 0.0, vel, pos), t_us)


def _block_step(x, v, pxx, pxv, pvv, zx, zv, dt, qp, qv, rp, rv):
    """Predict/update of one (position, velocity) block, measured directly.

    F = [[1, dt], [0, 1]], Q = diag(qp, qv), R = diag(rp, rv) and H = I.
    The posterior covariance takes the Joseph form (I - K) P (I - K)^T +
    K R K^T, a sum of symmetric PSD terms, so no eigenvalue clamp is needed.
    """
    x += dt * v
    pxx += dt * (pxv + pxv + dt * pvv) + qp
    pxv += dt * pvv
    pvv += qv
    sxx, svv = pxx + rp, pvv + rv
    inv = 1.0 / (sxx * svv - pxv * pxv)
    i00, i01, i11 = svv * inv, -pxv * inv, sxx * inv
    k00, k01 = pxx * i00 + pxv * i01, pxx * i01 + pxv * i11
    k10, k11 = pxv * i00 + pvv * i01, pxv * i01 + pvv * i11
    ex, ev = zx - x, zv - v
    x += k00 * ex + k01 * ev
    v += k10 * ex + k11 * ev
    m00, m11 = 1.0 - k00, 1.0 - k11
    a00, a01 = m00 * pxx - k01 * pxv, m00 * pxv - k01 * pvv  # rows of (I - K) P
    a10, a11 = m11 * pxv - k10 * pxx, m11 * pvv - k10 * pxv
    pxx = a00 * m00 - a01 * k01 + (k00 * k00 * rp + k01 * k01 * rv)
    pxv = a10 * m00 - a11 * k01 + (k10 * k00 * rp + k11 * k01 * rv)
    return x, v, pxx, pxv, a11 * m11 - a10 * k10 + (k10 * k10 * rp + k11 * k11 * rv)


def kalman_step(track: TrackState, measurement: Box3D, dt: float, cfg: KalmanConfig) -> TrackState:
    """One predict/update cycle with a constant-velocity transition.

    F, Q, R and the birth covariance are block-diagonal, so the filter runs
    as two (position, velocity) blocks for x and y and a scalar random walk
    for z (no vertical rate in the state). A NaN or inf anywhere is fatal.
    """
    if not dt > 0.0:
        raise ValidationError(f"dt must be positive, got {dt}")
    x, y, z, vx, vy = track.state
    pxx, pxvx, pvxvx, pyy, pyvy, pvyvy, pzz = track.blocks
    qp, qv = cfg.process_noise_pos * dt, cfg.process_noise_vel * dt
    rp, rv = cfg.meas_noise_pos, cfg.meas_noise_vel
    c, (mvx, mvy) = measurement.center, measurement.velocity
    x, vx, pxx, pxvx, pvxvx = _block_step(x, vx, pxx, pxvx, pvxvx, c.x, mvx, dt, qp, qv, rp, rv)
    y, vy, pyy, pyvy, pvyvy = _block_step(y, vy, pyy, pyvy, pvyvy, c.y, mvy, dt, qp, qv, rp, rv)
    pzz += qp
    k = pzz / (pzz + rp)
    z += k * (c.z - z)
    pzz = (1.0 - k) * (1.0 - k) * pzz + k * k * rp
    state, blocks = (x, y, z, vx, vy), (pxx, pxvx, pvxvx, pyy, pyvy, pvyvy, pzz)
    if not all(map(isfinite, state + blocks)):
        raise ValidationError(f"NaN or inf in Kalman state after a {dt} s step")
    t_us = track.last_update_us + round(dt * US_PER_S)
    return TrackState(state, blocks, t_us)


@dataclass(slots=True)
class _Footprint:
    """What association reads of a box: its category and ground-plane footprint."""

    category: str
    rect: BevRect

    def bev_rect(self) -> BevRect:
        return self.rect


@dataclass(slots=True)
class _Track:
    state: TrackState
    footprint: _Footprint  # of the last associated detection


def refine_stream(stream: PredictionStream, cfg: KalmanConfig | None = None) -> PredictionStream:
    """The stream with every record's boxes track-refined.

    Records keep their timing. Each output box keeps its detection's
    category, score, size, and rotation and takes center and velocity from
    its track posterior; a detection with no prior track starts a fresh
    track, which leaves it unchanged.
    """
    cfg = cfg or KalmanConfig()
    tracks: list[_Track] = []
    refined: list[StreamRecord] = []
    for rec in stream.records:
        t = rec.source_us
        tracks = [tr for tr in tracks if t - tr.state.last_update_us <= cfg.max_coast_us]
        # association reads only footprints and categories: each track's last
        # detection footprint, moved to where the posterior velocity carries
        # it; a center that overflows fails the footprint's own check
        propagated = []
        for tr in tracks:
            x, y, _, vx, vy = tr.state.state
            dt = (t - tr.state.last_update_us) / US_PER_S
            fp = tr.footprint
            r = fp.rect
            moved = BevRect(x + dt * vx, y + dt * vy, r.width, r.length, r.yaw)
            propagated.append(_Footprint(fp.category, moved))
        boxes = list(rec.detections.boxes)  # a detection that starts a track stays as it is
        current = [_Footprint(b.category, b.bev_rect()) for b in boxes]
        matches, coasting, unmatched_curr = greedy_associate(propagated, current, cfg)

        survivors: list[_Track] = []
        for pi, ci in matches:
            det = boxes[ci]
            dt = (t - tracks[pi].state.last_update_us) / US_PER_S
            updated = kalman_step(tracks[pi].state, det, dt, cfg)
            survivors.append(_Track(updated, current[ci]))
            boxes[ci] = det.replace(center=updated.position(), velocity=updated.velocity())
        for ci in unmatched_curr:
            survivors.append(_Track(new_track(boxes[ci], t, cfg), current[ci]))
        # coasting tracks survive until max_coast expires
        survivors.extend(tracks[pi] for pi in coasting)

        tracks = survivors
        frame = rec.detections
        refined.append(StreamRecord(rec.completion_us,
                                    FrameDetections(frame.scene_id, frame.source_timestamp_us, boxes)))
    return PredictionStream(refined)


def sv_pipeline(
    stream: PredictionStream,
    eval_timestamps: Sequence[int],
    cfg: KalmanConfig | None = None,
) -> Callable[[int], FrameDetections]:
    """Velocity-based updating over a prediction stream.

    Returns a function mapping each of `eval_timestamps` to the most recent
    record's boxes, track-refined and extrapolated from their source frame
    to the evaluation time with the constant-velocity model. It answers each
    timestamp when called; any other timestamp raises ValidationError.
    """
    predictions_at = cv_pipeline(refine_stream(stream, cfg))
    allowed = set(eval_timestamps)

    def lookup(t_eval: int) -> FrameDetections:
        if t_eval not in allowed:
            raise ValidationError(f"timestamp {t_eval} is not an evaluation timestamp")
        return predictions_at(t_eval)

    return lookup


def cv_pipeline(stream: PredictionStream) -> Callable[[int], FrameDetections]:
    """Constant-velocity updating only, with no association or filtering.

    Each evaluation timestamp gets the newest completed record's boxes,
    moved by their own velocities from their source frame to t_eval. Over
    the raw stream this is the unrefined ablation of `sv_pipeline`; over
    `refine_stream`'s output it is `sv_pipeline` itself. Answers carry the
    scene of the stream's records, "unknown" for a stream without any.
    """
    scene_id = stream.records[0].detections.scene_id if stream.records else "unknown"

    def predictions_at(t_eval: int) -> FrameDetections:
        idx = stream.index_before(t_eval)
        if idx is None:
            return FrameDetections(scene_id, t_eval, [])
        source = stream.records[idx].source_us
        dt = (t_eval - source) / US_PER_S
        boxes = stream.records[idx].detections.boxes
        return FrameDetections(scene_id, source, [cv_update(b, dt) for b in boxes])

    return predictions_at
