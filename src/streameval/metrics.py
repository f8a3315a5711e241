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
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Iterable, Sequence

import numpy as np

from .data import Box3D, FrameAnnotations, FrameDetections, ValidationError, _typed, check_scenes
from .data import PredictionStream, SceneCursor, group_by_scene
from .geom import center_distance, wrap_angle

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
_source_time = attrgetter("source_timestamp_us")
# the version of the report's JSON form, which `MetricReport.from_dict` requires
REPORT_SCHEMA_VERSION = 1
# the scalar scores of a report, in `to_dict` order
REPORT_SCORES = ("map_s", "nds_s", "ate_s", "ase_s", "aoe_s", "aae_s", "ave_offline")


@dataclass(frozen=True, slots=True)
class MatchResult:
    """Outcome of pairing one evaluation timestamp with the stream."""

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

    def to_dict(self) -> dict:
        ap_nested: dict[str, dict[str, float]] = {}
        for (cls, thr), ap in self.per_class_ap.items():
            ap_nested.setdefault(cls, {})[f"{thr:g}"] = ap
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            **{name: getattr(self, name) for name in REPORT_SCORES},
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
        if type(version) is not int or version != REPORT_SCHEMA_VERSION:
            raise ValidationError(f"unsupported report schema_version: {version!r}")
        thresholds = {f"{thr:g}": thr for thr in DISTANCE_THRESHOLDS_M}
        per_class = {}
        try:
            for cls, by_thr in _typed(obj["per_class_ap"], dict, "per_class_ap").items():
                for thr, ap in _typed(by_thr, dict, f"per_class_ap {cls!r}").items():
                    if thr not in thresholds:
                        raise ValidationError(f"per_class_ap {cls!r}: {thr!r} is no AP threshold")
                    per_class[cls, thresholds[thr]] = _typed(ap, float, f"per_class_ap {cls!r}")
            numbers = {k: _typed(obj[k], float, k) for k in REPORT_SCORES}
            counts = _typed(obj["counts"], dict, "counts")
            counts = {k: _typed(v, int, f"counts {k!r}") for k, v in counts.items()}
        except KeyError as exc:
            raise ValidationError(f"report is missing field {exc.args[0]!r}") from None
        metadata = _typed(obj.get("metadata", {}), dict, "report metadata")
        return MetricReport(per_class, **numbers, counts=counts, metadata=metadata)


def match_recent(stream: PredictionStream, t_eval: int) -> MatchResult:
    """Most recent stream record completing strictly before `t_eval`.

    Returns an empty match when no record qualifies; evaluation then scores
    against the empty prediction set.
    """
    idx = stream.index_before(t_eval)
    if idx is None:
        return MatchResult(None, None)
    return MatchResult(idx, t_eval - stream.records[idx].completion_us)


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
    scores = np.array([s for s, _ in events], dtype=np.float64)
    flags = np.array([tp for _, tp in events], dtype=bool)
    order = np.argsort(-scores, kind="stable")
    return _ranked_ap(scores[order], flags[order], npos)


def _ranked_ap(scores: np.ndarray, flags: np.ndarray, npos: int) -> float:
    """`compute_ap` of events already in descending score order, stably
    sorted: `scores` and their TP `flags`."""
    if not len(scores):
        return 0.0
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


def _tp_terms(g: Box3D, p: Box3D) -> tuple[float, float, float]:
    """The translation, scale and orientation error of one TP."""
    gc, pc = g.center, p.center
    translation = math.hypot(gc.x - pc.x, gc.y - pc.y)  # `center_distance`, inlined
    return translation, 1.0 - _scale_iou(g, p), abs(wrap_angle(p.yaw - g.yaw))


def _mean_errors(tallies: Sequence[_ClassTally]) -> tuple[float, float, float, float]:
    """(ATE, ASE, AOE, AAE) over the TPs of `tallies`.

    Each error is summed TP by TP in the order of the tallies, as one
    Python `sum`, so the result does not depend on how the TPs are chunked.
    AAE sums ones, so it is the exact ratio of the counts.
    """
    n = sum(len(t.tp_terms) for t in tallies) // 3
    if not n:
        return 1.0, 1.0, 1.0, 1.0
    ate, ase, aoe = (_mean([t.tp_terms[k::3] for t in tallies]) for k in range(3))
    return ate, ase, aoe, sum(t.mislabeled for t in tallies) / n


def _mean(chunks: Sequence[array]) -> float:
    """The mean of the values of `chunks`, summed in order; 1.0 for none."""
    n = sum(len(c) for c in chunks)
    return sum(e for c in chunks for e in c) / n if n else 1.0


def _scale_iou(a: Box3D, b: Box3D) -> float:
    """3D IoU of the two boxes after aligning centers and yaw.

    The products are written out: the same multiplications in the same
    order as `math.prod`, so the same bits.
    """
    (w1, l1, h1), (w2, l2, h2) = a.size, b.size
    inter = min(w1, w2) * min(l1, l2) * min(h1, h2)
    return inter / (w1 * l1 * h1 + w2 * l2 * h2 - inter)


def _ave_terms(dets: Sequence[FrameDetections], gt_frames: Sequence[FrameAnnotations]) -> array:
    """Velocity errors of one scene's offline true positives.

    Each detection frame, in source-time order, is matched against the
    ground truth of its source timestamp at the 2 m threshold, with no
    streaming delay. A frame's errors go class by class in sorted order,
    predictions by score. A prediction matches only boxes of its own class,
    so these are the errors of every class with ground truth.
    """
    gt_at = {f.timestamp_us: f for f in gt_frames}
    errors = array("d")
    for det in sorted(dets, key=_source_time):
        gt = gt_at.get(det.source_timestamp_us)
        if gt is None:
            continue
        preds = sorted(det.boxes, key=_score, reverse=True)
        ranked = _rank_candidates(gt.boxes, preds, TP_ERROR_THRESHOLD_M)
        (matched,) = _greedy_matches(ranked, [TP_ERROR_THRESHOLD_M])
        by_cls: dict[str, list[float]] = {}
        for p, i in zip(preds, matched):
            if i >= 0:
                g = gt.boxes[i]
                by_cls.setdefault(p.category, []).append(
                    math.hypot(p.velocity[0] - g.velocity[0], p.velocity[1] - g.velocity[1])
                )
        for cls in sorted(by_cls):
            errors.extend(by_cls[cls])
    return errors


def compute_ave_offline(
    offline_outputs: Sequence[FrameDetections], gt_frames: Sequence[FrameAnnotations]
) -> float:
    """Mean planar velocity error over offline true positives of every class
    with ground truth.

    Each detection frame is matched against the ground truth of its own
    scene and source timestamp at the 2 m threshold, with no streaming
    delay. Scenes are pooled in sorted order.
    """
    dets = group_by_scene(offline_outputs)
    gt_by_scene = group_by_scene(gt_frames)
    check_scenes("offline detections", dets, gt_by_scene)
    return _mean([_ave_terms(dets[s], gt_by_scene[s]) for s in sorted(dets)])


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
    check_scenes(
        "stream records", {r.detections.scene_id for r in stream.records},
        {f.scene_id for f in gt_frames},
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
    """What one class gathers over one chunk of frames (a scene, say): the
    score of each prediction, whether it is a TP at each AP threshold, the
    three `_tp_terms` of each 2 m TP, in frame then score order, and how
    many TPs are mislabeled. A prediction keeps about 12 bytes and a TP 24
    more, and no box."""

    scores: array = field(default_factory=lambda: array("d"))
    hits: list[bytearray] = field(
        default_factory=lambda: [bytearray() for _ in DISTANCE_THRESHOLDS_M]
    )
    tp_terms: array = field(default_factory=lambda: array("d"))
    mislabeled: int = 0

    def add_tp(self, g: Box3D, p: Box3D) -> None:
        self.tp_terms.extend(_tp_terms(g, p))
        self.mislabeled += g.attribute != p.attribute


class ScenePool:
    """One streaming evaluation, which `pool_scenes` feeds a chunk of frames (a scene) at a time.

    `add` matches a chunk's (ground truth, predictions) pairs and keeps only
    what the report needs: per class, each prediction's score and hit bits
    and each 2 m TP's error terms, and each offline TP's velocity error.
    `report` pools the chunks in sorted key order, so its scores are, bit for
    bit, those of the chunks' pairs evaluated at once in that order.
    """

    def __init__(self):
        self._frames = 0
        self._npos: Counter = Counter()
        self._tallies: dict[str, dict[str, _ClassTally]] = {}
        self._ave: dict[str, array] = {}

    def add(
        self,
        key: str,
        pairs: Sequence[tuple[FrameAnnotations, list[Box3D]]],
        offline: Sequence[FrameDetections] | None = None,
    ) -> None:
        """Tally one chunk's pairs and, with its offline detections, their
        velocity errors (`_ave_terms`).

        Each frame is matched once: the exact distances within the largest
        threshold are ranked once, and each threshold runs only the greedy
        walk over them. Every class is tallied, since which classes have
        ground truth is known only once every chunk is in.
        """
        if key in self._tallies:
            raise ValidationError(f"scene {key!r} is pooled twice")
        tallies: dict[str, _ClassTally] = {}
        for frame, preds in pairs:
            self._npos.update(b.category for b in frame.boxes)
            if not preds:
                continue
            preds = sorted(preds, key=_score, reverse=True)
            gts = frame.boxes
            ranked = _rank_candidates(gts, preds, max(DISTANCE_THRESHOLDS_M))
            matches = _greedy_matches(ranked, DISTANCE_THRESHOLDS_M)
            for j, p in enumerate(preds):
                tally = tallies.get(p.category)
                if tally is None:
                    tally = tallies[p.category] = _ClassTally()
                tally.scores.append(p.score)
                for hits, matched in zip(tally.hits, matches):
                    hits.append(matched[j] >= 0)
                i = matches[_TP_INDEX][j]
                if i >= 0:
                    tally.add_tp(gts[i], p)
        self._frames += len(pairs)
        self._tallies[key] = tallies
        if offline is not None:
            self._ave[key] = _ave_terms(offline, [f for f, _ in pairs])

    def scenes(self) -> list[str]:
        """The keys of the chunks added, in sorted order."""
        return sorted(self._tallies)

    def classes(self) -> list[str]:
        """The classes scored: those with ground truth, in sorted order."""
        if not self._frames:
            raise ValidationError("empty ground truth: nothing to evaluate")
        if not self._npos:
            raise ValidationError("empty ground truth: no annotated boxes")
        return sorted(self._npos)

    def report(self, metadata: dict | None = None, ave: float | None = None) -> MetricReport:
        """The report over every chunk added.

        AP is scored at `DISTANCE_THRESHOLDS_M` for every class with ground
        truth, in sorted order, and TP errors and counts at 2 m; predictions
        of any other class are ignored. The offline velocity error is `ave`
        when given, else that of the offline detections given to `add`.
        """
        classes = self.classes()
        chunks = [self._tallies[key] for key in sorted(self._tallies)]
        per_class_ap: dict[tuple[str, float], float] = {}
        tp_tallies: list[_ClassTally] = []
        counts = {"tp": 0, "fp": 0, "fn": 0}
        for cls in classes:
            tallies = [chunk[cls] for chunk in chunks if cls in chunk]
            # one stable ranking of the pooled scores serves every threshold
            scores = np.frombuffer(b"".join(tally.scores for tally in tallies))
            order = np.argsort(-scores, kind="stable")
            ranked = scores[order]
            for k, thr in enumerate(DISTANCE_THRESHOLDS_M):
                hits = np.frombuffer(b"".join(tally.hits[k] for tally in tallies), dtype=bool)
                per_class_ap[(cls, thr)] = _ranked_ap(ranked, hits[order], self._npos[cls])
            tps = sum(len(tally.tp_terms) for tally in tallies) // 3
            tp_tallies.extend(tallies)
            counts["tp"] += tps
            counts["fp"] += len(scores) - tps
            counts["fn"] += self._npos[cls] - tps

        map_s = sum(per_class_ap.values()) / len(per_class_ap)
        ate_s, ase_s, aoe_s, aae_s = _mean_errors(tp_tallies)
        if ave is None:
            ave = _mean([self._ave[key] for key in sorted(self._ave)])
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


def pool_scenes(
    gt_blocks: Iterable[tuple[str, Sequence[FrameAnnotations]]],
    streams: Iterable[tuple[str, PredictionStream]] = (),
    predictions_fns: Iterable[tuple[str, PredictionsFn]] = (),
    offline: Iterable[tuple[str, Sequence[FrameDetections]]] | None = None,
) -> ScenePool:
    """Pool each scene of `gt_blocks`, (scene_id, frames) as
    `data.iter_scene_annotations` yields them, one at a time.

    The other inputs are (scene_id, value) pairs in any order, each read
    through a `data.SceneCursor` only as far as the scene being pooled. A
    scene is scored through its predictions function, else against its
    stream or the empty set; its offline detections, none without `offline`,
    give its velocity errors. Once every scene is in, a stream or function
    of a scene not in `gt_blocks` is a scene mismatch, then an empty ground
    truth and then an offline scene not in it.
    """
    streams = SceneCursor(streams, "stream")
    fns = SceneCursor(predictions_fns, "stream")
    offline = SceneCursor(offline or (), "offline detections")
    pool = ScenePool()
    for scene_id, frames in gt_blocks:
        stream = streams.take(scene_id) or PredictionStream([])
        pool.add(scene_id, collect_pairs(frames, stream, fns.take(scene_id)),
                 offline.take(scene_id) or [])
    check_scenes("stream", streams.rest().keys() | fns.rest().keys(), pool.scenes())
    pool.classes()  # an empty ground truth is reported before an offline scene mismatch
    offline.finish(pool.scenes())
    return pool


def evaluate_pairs(
    pairs: Sequence[tuple[FrameAnnotations, list[Box3D]]],
    *,
    offline_outputs: Sequence[FrameDetections] | None = None,
    metadata: dict | None = None,
) -> MetricReport:
    """Compute the full report from (ground truth, prediction) pairs, pooled in the
    given order: one chunk of `pool_scenes`, its function replaying the predictions."""
    preds = iter([boxes for _, boxes in pairs])
    pool = pool_scenes([("", [f for f, _ in pairs])],
                       predictions_fns=[("", lambda t: FrameDetections("", t, next(preds)))])
    ave = None
    if offline_outputs is not None:
        ave = compute_ave_offline(offline_outputs, [f for f, _ in pairs])
    return pool.report(metadata, ave)


def evaluate_streaming(
    gt_frames: Sequence[FrameAnnotations],
    stream: PredictionStream,
    *,
    offline_outputs: Sequence[FrameDetections] | None = None,
    predictions_fn: PredictionsFn | None = None,
    metadata: dict | None = None,
) -> MetricReport:
    """Score one scene's prediction stream at every input timestamp.

    The one-scene case of `pool_scenes`; ground truth spanning several
    scenes is rejected, because one stream cannot serve them all.
    """
    scene_ids = sorted({f.scene_id for f in gt_frames})
    if not scene_ids:
        raise ValidationError("empty ground truth: no frames")
    if len(scene_ids) > 1:
        raise ValidationError(f"ground truth spans scenes {scene_ids}; use pool_scenes")
    scene_id = scene_ids[0]
    fns = [] if predictions_fn is None else [(scene_id, predictions_fn)]
    offline = None if offline_outputs is None else group_by_scene(offline_outputs).items()
    return pool_scenes([(scene_id, gt_frames)], [(scene_id, stream)], fns, offline).report(metadata)
