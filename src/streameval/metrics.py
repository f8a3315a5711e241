"""Streaming detection metrics.

Every input timestamp is scored against the most recent prediction that
completed strictly before it. Per-class AP over center-distance thresholds
follows the nuScenes convention (101-point recall grid, precision and
recall floors of 0.1); true-positive errors are plain means over matched
pairs at the 2 m threshold. Velocity error is the one exception computed
offline, against each prediction's own source frame, because delayed
matching would bias it toward slow objects.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Sequence

import numpy as np

from .data import Box3D, FrameAnnotations, FrameDetections, ValidationError, group_by_scene
from .geom import center_distance, wrap_angle
from .stream_sim import PredictionStream

# the nuScenes protocol: AP at each distance threshold, TP errors and
# counts at 2 m, which is one of them
DISTANCE_THRESHOLDS_M = (0.5, 1.0, 2.0, 4.0)
TP_ERROR_THRESHOLD_M = 2.0
_TP_INDEX = DISTANCE_THRESHOLDS_M.index(TP_ERROR_THRESHOLD_M)
_MIN_RECALL = 0.1
_MIN_PRECISION = 0.1
# Relative slack on the |dx|, |dy| <= reach gate before an exact distance:
# far above the rounding of `math.hypot`, which is at least max(|dx|, |dy|).
_GATE_MARGIN = 1e-9

_score = attrgetter("score")


@dataclass(frozen=True, slots=True)
class MatchResult:
    """Outcome of pairing one evaluation timestamp with the stream."""

    eval_timestamp_us: int
    matched_record_index: int | None
    staleness_us: int | None


@dataclass(slots=True)
class MetricReport:
    """Aggregate streaming scores for one evaluation run."""

    per_class_ap: dict[tuple[str, float], float]
    map_s: float
    ate_s: float
    ase_s: float
    aoe_s: float
    aae_s: float
    ave_offline: float
    nds_s: float
    counts: dict[str, int]
    metadata: dict = field(default_factory=dict)
    schema_version: int = 1

    def to_dict(self) -> dict:
        ap_nested: dict[str, dict[str, float]] = {}
        for (cls, thr), ap in self.per_class_ap.items():
            ap_nested.setdefault(cls, {})[f"{thr:g}"] = ap
        return {
            "schema_version": self.schema_version,
            "map_s": self.map_s,
            "nds_s": self.nds_s,
            "ate_s": self.ate_s,
            "ase_s": self.ase_s,
            "aoe_s": self.aoe_s,
            "aae_s": self.aae_s,
            "ave_offline": self.ave_offline,
            "per_class_ap": ap_nested,
            "counts": self.counts,
            "metadata": self.metadata,
        }

    @staticmethod
    def from_dict(obj: dict) -> "MetricReport":
        """A report from its `to_dict` form; anything else is a ValidationError."""
        if not isinstance(obj, dict):
            raise ValidationError(f"a report must be a JSON object, got {type(obj).__name__}")
        version = obj.get("schema_version")
        if version != 1:
            raise ValidationError(f"unsupported report schema_version: {version!r}")
        try:
            per_class = {
                (cls, float(thr)): float(ap)
                for cls, by_thr in obj["per_class_ap"].items()
                for thr, ap in by_thr.items()
            }
            report = MetricReport(
                per_class_ap=per_class,
                map_s=float(obj["map_s"]),
                ate_s=float(obj["ate_s"]),
                ase_s=float(obj["ase_s"]),
                aoe_s=float(obj["aoe_s"]),
                aae_s=float(obj["aae_s"]),
                ave_offline=float(obj["ave_offline"]),
                nds_s=float(obj["nds_s"]),
                counts={k: int(v) for k, v in obj["counts"].items()},
                metadata=obj.get("metadata", {}),
            )
        except KeyError as exc:
            raise ValidationError(f"report is missing field {exc.args[0]!r}") from None
        except (AttributeError, TypeError, ValueError, OverflowError) as exc:
            # a non-object where an object belongs, or a non-number
            raise ValidationError(f"malformed report: {exc}") from None
        if not isinstance(report.metadata, dict):
            raise ValidationError("report metadata must be a JSON object")
        return report


def match_recent(stream: PredictionStream, t_eval: int) -> MatchResult:
    """Most recent stream record completing strictly before `t_eval`.

    Returns an empty match when no record qualifies; evaluation then scores
    against the empty prediction set.
    """
    idx = stream.index_before(t_eval)
    if idx is None:
        return MatchResult(t_eval, None, None)
    return MatchResult(t_eval, idx, t_eval - stream.records[idx].completion_us)


def match_boxes(
    gt_boxes: Sequence[Box3D],
    pred_boxes: Sequence[Box3D],
    category: str,
    threshold_m: float,
) -> tuple[list[tuple[Box3D, Box3D]], list[Box3D], list[Box3D]]:
    """Greedy center-distance matching for one class at one threshold.

    Predictions are visited in descending score order; each takes the
    nearest unmatched ground-truth box within the threshold. Returns
    (tp_pairs, fp_predictions, fn_ground_truths).
    """
    if not threshold_m > 0.0:
        raise ValidationError(f"threshold must be positive, got {threshold_m}")
    gts = [b for b in gt_boxes if b.category == category]
    preds = sorted((b for b in pred_boxes if b.category == category), key=_score, reverse=True)
    (matched,) = _greedy_matches(_rank_candidates(gts, preds, threshold_m), [threshold_m])
    pairs = [(gts[i], p) for p, i in zip(preds, matched) if i >= 0]
    fps = [p for p, i in zip(preds, matched) if i < 0]
    taken = set(matched)
    fns = [g for i, g in enumerate(gts) if i not in taken]
    return pairs, fps, fns


def _rank_candidates(
    gts: Sequence[Box3D], preds: Sequence[Box3D], reach: float
) -> list[list[tuple[float, int]]]:
    """(distance, index) of the same-category ground-truth boxes within
    `reach` of each prediction, nearest first, ties to the lower index.

    That is the order in which the greedy walk prefers its candidates. Only
    boxes with |dx| and |dy| within `reach` plus a relative margin get an
    exact `center_distance`: since `math.hypot` is at least max(|dx|, |dy|)
    up to rounding, every other box is farther than `reach`. The boxes with
    x in [px - lim, px + lim] are found by bisection; rounding is monotone,
    so the rounded window edges still enclose every box within lim. An
    infinite distance is never a candidate.
    """
    reach = min(reach, sys.float_info.max)
    lim = reach * (1.0 + _GATE_MARGIN)
    xs = [g.center.x for g in gts]
    order = sorted(range(len(xs)), key=xs.__getitem__)
    sorted_xs = [xs[i] for i in order]
    ranked = []
    for p in preds:
        pc = p.center
        px, py = pc.x, pc.y
        near = []
        for k in range(bisect_left(sorted_xs, px - lim), bisect_right(sorted_xs, px + lim)):
            i = order[k]
            g = gts[i]
            gc = g.center
            if g.category == p.category and -lim <= gc.y - py <= lim:
                d = center_distance(gc, pc)
                if d <= reach:
                    near.append((d, i))
        if len(near) > 1:
            near.sort()
        ranked.append(near)
    return ranked


def _greedy_matches(
    ranked: Sequence[Sequence[tuple[float, int]]], thresholds: Sequence[float]
) -> list[list[int]]:
    """Per threshold, the ground-truth index each prediction takes, or -1.

    Predictions take turns in the order of `ranked`; each takes its nearest
    candidate not yet taken, if that one lies within the threshold.
    """
    out = []
    for thr in thresholds:
        taken: set[int] = set()
        matched = []
        for near in ranked:
            found = -1
            for d, i in near:
                if d > thr:
                    break
                if i not in taken:
                    taken.add(i)
                    found = i
                    break
            matched.append(found)
        out.append(matched)
    return out


def compute_ap(events: Sequence[tuple[float, bool]], npos: int) -> float:
    """Average precision from pooled (score, is_tp) events.

    Events sharing a score collapse into one operating point, so the curve
    is a function of the score ranking alone, not of pooling order.
    Precision is interpolated with a running max and evaluated on the
    101-point recall grid; recall below 0.1 and precision below 0.1 are
    discarded, and the result is renormalized so a perfect detector scores 1.
    """
    if npos <= 0:
        raise ValidationError("zero ground truth: AP undefined for this class")
    if not events:
        return 0.0
    scores = np.array([s for s, _ in events], dtype=np.float64)
    flags = np.array([tp for _, tp in events], dtype=bool)
    order = np.argsort(-scores, kind="stable")
    scores = scores[order]
    flags = flags[order]

    block_end = np.ones(len(scores), dtype=bool)
    block_end[:-1] = scores[:-1] != scores[1:]
    tp = np.cumsum(flags)[block_end]
    fp = np.cumsum(~flags)[block_end]
    recall = tp / npos
    precision = tp / (tp + fp)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]

    grid = np.arange(round(100 * _MIN_RECALL) + 1, 101, dtype=np.float64) / 100.0
    idx = np.searchsorted(recall, grid, side="left")
    prec_at = np.where(idx < len(recall), envelope[np.minimum(idx, len(recall) - 1)], 0.0)
    clipped = np.maximum(prec_at - _MIN_PRECISION, 0.0)
    return min(1.0, float(np.mean(clipped) / (1.0 - _MIN_PRECISION)))


def compute_tp_errors(
    pairs: Sequence[tuple[Box3D, Box3D]],
) -> tuple[float, float, float, float]:
    """(ATE, ASE, AOE, AAE) means over matched (gt, pred) pairs.

    With no pairs every error is the worst case 1.0, matching the nuScenes
    convention for empty classes.
    """
    if not pairs:
        return 1.0, 1.0, 1.0, 1.0
    ate = sum(center_distance(g.center, p.center) for g, p in pairs) / len(pairs)
    ase = sum(1.0 - _scale_iou(g, p) for g, p in pairs) / len(pairs)
    aoe = sum(abs(wrap_angle(p.yaw - g.yaw)) for g, p in pairs) / len(pairs)
    aae = sum(1.0 for g, p in pairs if g.attribute != p.attribute) / len(pairs)
    return ate, ase, aoe, aae


def _scale_iou(a: Box3D, b: Box3D) -> float:
    """3D IoU of the two boxes after aligning centers and yaw."""
    inter = math.prod(min(sa, sb) for sa, sb in zip(a.size, b.size))
    union = math.prod(a.size) + math.prod(b.size) - inter
    return inter / union


def compute_ave_offline(
    offline_outputs: Mapping | Sequence[FrameDetections],
    gt_frames: Sequence[FrameAnnotations],
    classes: Sequence[str],
) -> float:
    """Mean planar velocity error over offline true positives.

    Each detection frame is matched against the ground truth of its own
    scene and source timestamp at the 2 m threshold, with no streaming
    delay.
    """
    dets = list(
        offline_outputs.values() if isinstance(offline_outputs, Mapping) else offline_outputs
    )
    dets.sort(key=lambda d: (d.scene_id, d.source_timestamp_us))
    gt_by_key = {(f.scene_id, f.timestamp_us): f for f in gt_frames}
    wanted = set(classes)
    errors: list[float] = []
    for det in dets:
        gt = gt_by_key.get((det.scene_id, det.source_timestamp_us))
        if gt is None:
            continue
        preds = sorted([b for b in det.boxes if b.category in wanted], key=_score, reverse=True)
        ranked = _rank_candidates(gt.boxes, preds, TP_ERROR_THRESHOLD_M)
        (matched,) = _greedy_matches(ranked, [TP_ERROR_THRESHOLD_M])
        # summed class by class in the order of `classes`, predictions by score
        by_cls: dict[str, list[float]] = {}
        for p, i in zip(preds, matched):
            if i >= 0:
                g = gt.boxes[i]
                by_cls.setdefault(p.category, []).append(
                    math.hypot(p.velocity[0] - g.velocity[0], p.velocity[1] - g.velocity[1])
                )
        if by_cls:
            for cls in classes:
                errors.extend(by_cls.get(cls, ()))
    if not errors:
        return 1.0
    return sum(errors) / len(errors)


def compute_nds_s(
    map_s: float, ate_s: float, ase_s: float, aoe_s: float, ave: float, aae_s: float
) -> float:
    """Composite detection score: mAP weighted 5, each clamped TP error 1."""
    tp_terms = sum(1.0 - min(1.0, e) for e in (ave, ate_s, ase_s, aoe_s, aae_s))
    return 0.1 * (5.0 * map_s + tp_terms)


PredictionsFn = Callable[[int], FrameDetections]


def collect_pairs(
    gt_frames: Sequence[FrameAnnotations],
    stream: PredictionStream,
    predictions_fn: PredictionsFn | None = None,
) -> list[tuple[FrameAnnotations, list[Box3D]]]:
    """Pair every input timestamp with its effective prediction set."""
    scene_ids = {f.scene_id for f in gt_frames}
    for rec in stream.records:
        if rec.detections.scene_id not in scene_ids:
            raise ValidationError(
                f"scene mismatch: stream record for {rec.detections.scene_id!r}"
            )
    pairs = []
    for frame in gt_frames:
        if predictions_fn is not None:
            boxes = list(predictions_fn(frame.timestamp_us).boxes)
        else:
            m = match_recent(stream, frame.timestamp_us)
            if m.matched_record_index is None:
                boxes = []
            else:
                boxes = list(stream.records[m.matched_record_index].detections.boxes)
        pairs.append((frame, boxes))
    return pairs


@dataclass(slots=True)
class _ClassTally:
    """What `evaluate_pairs` gathers for one class over all frames: the score
    of each prediction, whether it is a TP at each AP threshold, and the 2 m
    TP pairs frame by frame. AP events are zipped from these one threshold
    at a time, so they are never all held at once."""

    scores: list[float]
    hits: list[bytearray]
    tp_pairs: list[tuple[Box3D, Box3D]]


def evaluate_pairs(
    pairs: Sequence[tuple[FrameAnnotations, list[Box3D]]],
    *,
    offline_outputs: Mapping | Sequence[FrameDetections] | None = None,
    metadata: dict | None = None,
) -> MetricReport:
    """Compute the full report from (ground truth, prediction) pairs.

    AP is scored at `DISTANCE_THRESHOLDS_M` for every class with ground
    truth, in sorted order, and TP errors and counts at 2 m; predictions of
    any other class are ignored. Each frame is matched once: the exact
    distances within the largest threshold are ranked once, and each
    threshold runs only the greedy walk over them.
    """
    if not pairs:
        raise ValidationError("empty ground truth: nothing to evaluate")
    npos = Counter(b.category for f, _ in pairs for b in f.boxes)
    if not npos:
        raise ValidationError("empty ground truth: no annotated boxes")
    classes = sorted(npos)
    slots = {
        cls: _ClassTally([], [bytearray() for _ in DISTANCE_THRESHOLDS_M], []) for cls in classes
    }
    for frame, preds in pairs:
        preds = sorted([p for p in preds if p.category in slots], key=_score, reverse=True)
        if not preds:
            continue
        gts = frame.boxes
        ranked = _rank_candidates(gts, preds, max(DISTANCE_THRESHOLDS_M))
        matches = _greedy_matches(ranked, DISTANCE_THRESHOLDS_M)
        for j, p in enumerate(preds):
            tally = slots[p.category]
            tally.scores.append(p.score)
            for hits, matched in zip(tally.hits, matches):
                hits.append(matched[j] >= 0)
            i = matches[_TP_INDEX][j]
            if i >= 0:
                tally.tp_pairs.append((gts[i], p))

    per_class_ap: dict[tuple[str, float], float] = {}
    tp_pairs_2m: list[tuple[Box3D, Box3D]] = []
    counts = {"tp": 0, "fp": 0, "fn": 0}
    for cls, tally in slots.items():
        for thr, hits in zip(DISTANCE_THRESHOLDS_M, tally.hits):
            events = list(zip(tally.scores, map(bool, hits)))
            per_class_ap[(cls, thr)] = compute_ap(events, npos[cls])
        tps = len(tally.tp_pairs)
        tp_pairs_2m.extend(tally.tp_pairs)
        counts["tp"] += tps
        counts["fp"] += len(tally.scores) - tps
        counts["fn"] += npos[cls] - tps

    map_s = sum(per_class_ap.values()) / len(per_class_ap)
    ate_s, ase_s, aoe_s, aae_s = compute_tp_errors(tp_pairs_2m)
    if offline_outputs is not None:
        ave = compute_ave_offline(offline_outputs, [f for f, _ in pairs], classes)
    else:
        ave = 1.0
    nds = compute_nds_s(map_s, ate_s, ase_s, aoe_s, ave, aae_s)
    return MetricReport(
        per_class_ap=per_class_ap,
        map_s=map_s,
        ate_s=ate_s,
        ase_s=ase_s,
        aoe_s=aoe_s,
        aae_s=aae_s,
        ave_offline=ave,
        nds_s=nds,
        counts=counts,
        metadata=metadata or {},
    )


def evaluate_scenes(
    gt_frames: Sequence[FrameAnnotations],
    streams: Mapping[str, PredictionStream],
    predictions_fns: Mapping[str, PredictionsFn] | None = None,
    *,
    offline_outputs: Mapping | Sequence[FrameDetections] | None = None,
    metadata: dict | None = None,
) -> MetricReport:
    """Score per-scene prediction streams against multi-scene ground truth.

    `streams` and `predictions_fns` are keyed by scene id. A scene without a
    stream scores against the empty set; one with a predictions function is
    scored through it. Scenes are pooled into one report in sorted order.
    """
    gt_by_scene = group_by_scene(gt_frames)
    predictions_fns = predictions_fns or {}
    unknown = (set(streams) | set(predictions_fns)) - set(gt_by_scene)
    if unknown:
        raise ValidationError(f"scene mismatch: stream for unknown scenes {sorted(unknown)}")
    pairs = []
    for scene_id in sorted(gt_by_scene):
        stream = streams.get(scene_id, PredictionStream([]))
        pairs.extend(collect_pairs(gt_by_scene[scene_id], stream, predictions_fns.get(scene_id)))
    return evaluate_pairs(pairs, offline_outputs=offline_outputs, metadata=metadata)


def evaluate_streaming(
    gt_frames: Sequence[FrameAnnotations],
    stream: PredictionStream,
    *,
    offline_outputs: Mapping | Sequence[FrameDetections] | None = None,
    predictions_fn: PredictionsFn | None = None,
    metadata: dict | None = None,
) -> MetricReport:
    """Score one scene's prediction stream at every input timestamp.

    The one-scene case of `evaluate_scenes`; ground truth spanning several
    scenes is rejected, because one stream cannot serve them all.
    """
    scene_ids = sorted({f.scene_id for f in gt_frames})
    if not scene_ids:
        raise ValidationError("empty ground truth: no frames")
    if len(scene_ids) > 1:
        raise ValidationError(f"ground truth spans scenes {scene_ids}; use evaluate_scenes")
    scene_id = scene_ids[0]
    return evaluate_scenes(
        gt_frames,
        {scene_id: stream},
        {scene_id: predictions_fn} if predictions_fn is not None else None,
        offline_outputs=offline_outputs,
        metadata=metadata,
    )
