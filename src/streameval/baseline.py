"""Velocity-based prediction updating.

Stale detections are extrapolated to the evaluation timestamp with a
constant-velocity motion model. Detections are additionally associated
across consecutive stream records by BEV IoU and refined with a first-order
Kalman filter over (x, y, z, vx, vy), which smooths the per-frame velocity
estimates the extrapolation relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .data import US_PER_S, Box3D, FrameDetections, ValidationError
from .geom import Vec3, bev_iou_matrix
from .stream_sim import PredictionStream


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
            if not getattr(self, name) > 0.0:
                raise ValidationError(f"{name} must be positive")
        if not 0.0 <= self.assoc_iou_threshold <= 1.0:
            raise ValidationError("assoc_iou_threshold outside [0, 1]")


@dataclass(frozen=True, slots=True)
class TrackState:
    """Filter state for one tracked object: (x, y, z, vx, vy)."""

    state: tuple[float, float, float, float, float]
    covariance: np.ndarray  # 5x5 symmetric PSD
    last_update_us: int
    track_id: int
    hits: int

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
    already. Returns (matched index pairs, unmatched prev, unmatched curr).
    """
    iou = bev_iou_matrix([b.bev_rect() for b in prev_boxes], [b.bev_rect() for b in curr_boxes])
    rows, cols = np.nonzero(iou >= cfg.assoc_iou_threshold)
    candidates = [
        (v, i, j)
        for v, i, j in zip(iou[rows, cols].tolist(), rows.tolist(), cols.tolist())
        if prev_boxes[i].category == curr_boxes[j].category
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


def _measurement(box: Box3D) -> np.ndarray:
    return np.array(
        [box.center.x, box.center.y, box.center.z, box.velocity[0], box.velocity[1]]
    )


def _measurement_noise(cfg: KalmanConfig) -> np.ndarray:
    return np.diag(
        [cfg.meas_noise_pos, cfg.meas_noise_pos, cfg.meas_noise_pos,
         cfg.meas_noise_vel, cfg.meas_noise_vel]
    )


def new_track(box: Box3D, t_us: int, track_id: int, cfg: KalmanConfig) -> TrackState:
    """Track birth: state from the detection, covariance 10x measurement noise."""
    return TrackState(
        state=tuple(_measurement(box)),
        covariance=10.0 * _measurement_noise(cfg),
        last_update_us=t_us,
        track_id=track_id,
        hits=1,
    )


def kalman_step(track: TrackState, measurement: Box3D, dt: float, cfg: KalmanConfig) -> TrackState:
    """One predict/update cycle with a constant-velocity transition.

    z is filtered as a random walk (no vertical rate in the state). The
    posterior covariance is re-symmetrized and negative eigenvalue drift is
    clamped at zero; NaN anywhere is fatal.
    """
    if not dt > 0.0:
        raise ValidationError(f"dt must be positive, got {dt}")
    f = np.eye(5)
    f[0, 3] = dt
    f[1, 4] = dt
    q = np.diag(
        [cfg.process_noise_pos * dt] * 3 + [cfg.process_noise_vel * dt] * 2
    )
    x = f @ np.asarray(track.state)
    p = f @ track.covariance @ f.T + q

    z = _measurement(measurement)
    r = _measurement_noise(cfg)
    s = p + r  # H = I: every state component is measured
    k = np.linalg.solve(s.T, p.T).T
    x = x + k @ (z - x)
    p = (np.eye(5) - k) @ p

    p = 0.5 * (p + p.T)
    eigvals = np.linalg.eigvalsh(p)
    if eigvals[0] < 0.0:
        w, v = np.linalg.eigh(p)
        p = (v * np.maximum(w, 0.0)) @ v.T
        p = 0.5 * (p + p.T)
    if np.any(np.isnan(x)) or np.any(np.isnan(p)):
        raise FloatingPointError("NaN in Kalman state")
    return TrackState(
        state=tuple(float(v) for v in x),
        covariance=p,
        last_update_us=track.last_update_us + round(dt * US_PER_S),
        track_id=track.track_id,
        hits=track.hits + 1,
    )


@dataclass(slots=True)
class _Track:
    state: TrackState
    box: Box3D  # last associated detection, for geometry and category


def _refine_records(stream: PredictionStream, cfg: KalmanConfig) -> list[list[Box3D]]:
    """Track-refined boxes of every stream record.

    Each output box keeps its detection's category, score, size, and
    rotation and takes center and velocity from its track posterior; a
    detection with no prior track starts a fresh track, which leaves it
    unchanged.
    """
    tracks: list[_Track] = []
    next_id = 0
    refined: list[list[Box3D]] = []
    for rec in stream.records:
        t = rec.source_us
        tracks = [tr for tr in tracks if t - tr.state.last_update_us <= cfg.max_coast_us]
        propagated = [
            cv_update(
                tr.box.replace(center=tr.state.position(), velocity=tr.state.velocity()),
                (t - tr.state.last_update_us) / US_PER_S,
            )
            for tr in tracks
        ]
        matches, _, unmatched_curr = greedy_associate(propagated, rec.detections.boxes, cfg)

        survivors: list[_Track] = []
        refined_boxes: dict[int, Box3D] = {}
        matched_prev = set()
        for pi, ci in matches:
            matched_prev.add(pi)
            det = rec.detections.boxes[ci]
            dt = (t - tracks[pi].state.last_update_us) / US_PER_S
            updated = kalman_step(tracks[pi].state, det, dt, cfg)
            survivors.append(_Track(updated, det))
            refined_boxes[ci] = det.replace(center=updated.position(), velocity=updated.velocity())
        for ci in unmatched_curr:
            det = rec.detections.boxes[ci]
            track = new_track(det, t, next_id, cfg)
            next_id += 1
            survivors.append(_Track(track, det))
            refined_boxes[ci] = det
        # coasting tracks survive until max_coast expires
        survivors.extend(tr for pi, tr in enumerate(tracks) if pi not in matched_prev)

        tracks = survivors
        refined.append([refined_boxes[i] for i in range(len(rec.detections.boxes))])
    return refined


def _extrapolator(
    stream: PredictionStream, boxes_per_record: Sequence[Sequence[Box3D]], scene_id: str | None
) -> Callable[[int], FrameDetections]:
    """Newest completed record's boxes, moved from their source frame to t_eval."""
    if scene_id is None:
        scene_id = stream.records[0].detections.scene_id if stream.records else "unknown"

    def predictions_at(t_eval: int) -> FrameDetections:
        idx = stream.index_before(t_eval)
        if idx is None:
            return FrameDetections(scene_id, t_eval, [])
        source = stream.records[idx].source_us
        dt = (t_eval - source) / US_PER_S
        return FrameDetections(scene_id, source, [cv_update(b, dt) for b in boxes_per_record[idx]])

    return predictions_at


def sv_pipeline(
    stream: PredictionStream,
    eval_timestamps: Sequence[int],
    cfg: KalmanConfig | None = None,
    scene_id: str | None = None,
) -> Callable[[int], FrameDetections]:
    """Velocity-based updating over a prediction stream.

    Returns a function mapping each of `eval_timestamps` to the most recent
    record's boxes, track-refined and extrapolated from their source frame
    to the evaluation time with the constant-velocity model. The results are
    precomputed; any other timestamp raises ValidationError.
    """
    predictions_at = _extrapolator(stream, _refine_records(stream, cfg or KalmanConfig()), scene_id)
    table = {t: predictions_at(t) for t in eval_timestamps}

    def lookup(t_eval: int) -> FrameDetections:
        try:
            return table[t_eval]
        except KeyError:
            raise ValidationError(f"timestamp {t_eval} is not an evaluation timestamp") from None

    return lookup


def cv_pipeline(
    stream: PredictionStream, scene_id: str | None = None
) -> Callable[[int], FrameDetections]:
    """Constant-velocity updating only, with no association or filtering.

    The unrefined ablation of `sv_pipeline`: each evaluation timestamp gets
    the raw most-recent record extrapolated by the detections' own
    velocities.
    """
    return _extrapolator(stream, [rec.detections.boxes for rec in stream.records], scene_id)
