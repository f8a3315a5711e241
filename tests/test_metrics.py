import dataclasses
import gc
import math
import pickle
from array import array
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import det_frame, gt_frame, make_box
from oracles import (
    brute_ap,
    seed_compute_ave_offline,
    seed_compute_tp_errors,
    seed_evaluate_pairs,
    seed_match_boxes,
    seed_ranked_ap,
    theta_match,
)
from streameval import metrics
from streameval.baseline import cv_pipeline, refine_stream
from streameval.data import Box3D, FrameAnnotations, FrameDetections, PredictionStream, RuntimeProfile
from streameval.data import StreamRecord, ValidationError
from streameval.metrics import (
    MetricReport,
    ScenePool,
    compute_ap,
    compute_ave_offline,
    compute_nds_s,
    evaluate_pairs,
    evaluate_streaming,
    latest,
    match_boxes,
    match_recent,
    pool_scenes,
)
from streameval.stream_sim import SimConfig, simulate_stream
from streameval.synth import DetectorNoise, SceneSpec, ObjectSpec, gen_scene, oracle_detector


def stream_of(completions, sources=None, boxes_per_record=None, scene="s0"):
    sources = sources or list(range(len(completions)))
    records = []
    for i, (c, s) in enumerate(zip(completions, sources)):
        boxes = boxes_per_record[i] if boxes_per_record else []
        records.append(StreamRecord(c, det_frame(scene, s, boxes)))
    return PredictionStream(records)


class TestMatchRecent:
    def test_between_two(self):
        m = match_recent(stream_of([100, 200]), 150)
        assert m.matched_record_index == 0
        assert m.staleness_us == 50

    def test_boundary_excluded(self):
        m = match_recent(stream_of([100]), 100)
        assert m.matched_record_index is None

    def test_far_future_matches_last(self):
        m = match_recent(stream_of([100, 200, 300]), 10**9)
        assert m.matched_record_index == 2

    def test_before_first(self):
        assert match_recent(stream_of([100]), 50).matched_record_index is None

    @given(st.lists(st.integers(0, 10**7), min_size=1, max_size=40, unique=True),
           st.lists(st.integers(0, 10**7 + 10), min_size=1, max_size=20))
    @settings(max_examples=200)
    def test_matches_linear_scan_oracle(self, completions, t_evals):
        completions = sorted(completions)
        sources = [c - 1 for c in completions]
        stream = stream_of(completions, sources)
        predictions_at = latest(stream)
        for t_eval in t_evals:  # one stream serves every timestamp
            got = match_recent(stream, t_eval).matched_record_index
            assert got == theta_match(completions, t_eval)
            # a raw stream's predictions function answers with that record, or with no boxes
            assert predictions_at(t_eval) == (
                FrameDetections("s0", t_eval) if got is None else stream.records[got].detections)

    def test_monotone_in_eval_time(self):
        rng = np.random.default_rng(3)
        completions = sorted(rng.choice(10**6, size=30, replace=False).tolist())
        stream = stream_of(completions, [c - 1 for c in completions])
        last = -1
        for t in range(0, 10**6, 7919):
            idx = match_recent(stream, t).matched_record_index
            if idx is not None:
                assert idx >= last
                last = idx


class TestMatchBoxes:
    def test_exact_hit(self):
        pairs, fps, fns = match_boxes([make_box()], [make_box(score=0.9)], "car", 2.0)
        assert len(pairs) == 1 and not fps and not fns

    def test_too_far(self):
        pairs, fps, fns = match_boxes([make_box()], [make_box(x=5.0, score=0.9)], "car", 4.0)
        assert not pairs and len(fps) == 1 and len(fns) == 1

    def test_greedy_by_score(self):
        gt = [make_box()]
        preds = [make_box(x=0.5, score=0.8), make_box(x=0.1, score=0.9)]
        pairs, fps, _ = match_boxes(gt, preds, "car", 2.0)
        assert len(pairs) == 1
        assert pairs[0][1].score == 0.9
        assert fps[0].score == 0.8

    def test_category_gate(self):
        pairs, fps, fns = match_boxes([make_box()], [make_box(category="bus", score=0.9)], "car", 2.0)
        assert not pairs and not fps and len(fns) == 1


class TestComputeAp:
    def test_perfect_detector(self):
        events = [(1.0, True)] * 10
        assert compute_ap(events, npos=10) == 1.0

    def test_no_predictions(self):
        assert compute_ap([], npos=5) == 0.0

    def test_one_tp_one_fp_of_two_gt(self):
        events = [(0.9, True), (0.8, False)]
        got = compute_ap(events, npos=2)
        assert got == pytest.approx(brute_ap(events, 2), abs=1e-12)
        # envelope is 1.0 up to recall 0.5: grid points 0.11..0.50
        assert got == pytest.approx(40 / 90, abs=1e-12)

    def test_zero_gt_rejected(self):
        with pytest.raises(ValidationError, match="zero ground truth"):
            compute_ap([(0.9, True)], npos=0)

    @given(st.lists(st.tuples(st.floats(0.01, 0.99), st.booleans()), min_size=1, max_size=60),
           st.integers(1, 40))
    @settings(max_examples=100)
    def test_matches_brute_oracle(self, events, extra_gt):
        npos = sum(1 for _, tp in events if tp) + extra_gt
        assert compute_ap(events, npos) == pytest.approx(brute_ap(events, npos), abs=1e-9)

    def test_rank_invariance(self):
        rng = np.random.default_rng(0)
        scores = rng.uniform(0.05, 0.95, size=40)
        flags = rng.random(40) < 0.5
        events = list(zip(scores.tolist(), flags.tolist()))
        transformed = [(s * s, tp) for s, tp in events]  # strictly increasing on [0,1]
        npos = int(flags.sum()) + 3
        assert compute_ap(events, npos) == compute_ap(transformed, npos)

    @given(st.data())
    @settings(max_examples=300)
    def test_ranked_aps_equal_the_two_cumsum_seed(self, data):
        """Each operating point's event count is the rank of the last event
        of its score run, so the AP at every threshold is bit-identical to
        the seed's, which counted TPs and FPs with two cumulative sums: on
        few distinct scores, no events, all-FP flags and all-TP flags."""
        n = data.draw(st.integers(0, 40), label="events")
        scores = data.draw(st.lists(st.sampled_from([0.2, 0.5, 0.5 + 2**-40, 0.9]),
                                    min_size=n, max_size=n))
        ranked = np.array(sorted(scores, reverse=True), dtype=np.float64)
        flags = st.lists(st.booleans(), min_size=n, max_size=n)
        flags |= st.sampled_from([[False] * n, [True] * n])
        hits = [np.array(f, dtype=bool) for f in data.draw(st.lists(flags, min_size=1, max_size=4))]
        npos = max(1, max(int(h.sum()) for h in hits)) + data.draw(st.integers(0, 5), label="extra")
        assert metrics._ranked_aps(ranked, hits, npos) == [seed_ranked_ap(ranked, h, npos) for h in hits]


SHAPES = st.fixed_dictionaries({
    "w": st.floats(1e-3, 1e3), "l": st.floats(1e-3, 1e3), "h": st.floats(1e-3, 1e3),
    "yaw": st.floats(-math.pi, math.pi),
})


class TestTpErrors:
    """The report's (ATE, ASE, AOE, AAE), from one frame per (gt, pred) pair,
    so that each prediction is the TP of its ground-truth box."""

    @staticmethod
    def errors(pairs):
        report = evaluate_pairs([(gt_frame("s0", i, [g]), [p]) for i, (g, p) in enumerate(pairs)])
        return report.ate_s, report.ase_s, report.aoe_s, report.aae_s

    def test_exact_match_all_zero(self):
        pairs = [(make_box(attribute="x"), make_box(attribute="x"))]
        assert self.errors(pairs) == (0.0, 0.0, 0.0, 0.0)

    def test_translation_only(self):
        pairs = [(make_box(), make_box(x=1.0))]
        assert self.errors(pairs) == (1.0, 0.0, 0.0, 0.0)

    def test_orientation_quarter_turn(self):
        pairs = [(make_box(), make_box(yaw=math.pi / 2))]
        assert self.errors(pairs)[2] == pytest.approx(math.pi / 2, abs=1e-12)

    def test_scale_error(self):
        g = make_box(w=2.0, l=4.0, h=2.0)
        p = make_box(w=1.0, l=4.0, h=2.0)
        # aligned 3D IoU = 8/16
        assert self.errors([(g, p)])[1] == pytest.approx(0.5, abs=1e-12)

    def test_attribute_error(self):
        pairs = [
            (make_box(attribute="a"), make_box(attribute="a")),
            (make_box(attribute="a"), make_box(attribute="b")),
        ]
        assert self.errors(pairs)[3] == 0.5

    def test_empty_is_worst_case(self):
        report = evaluate_pairs([(gt_frame("s0", 0, [make_box()]), [])])
        assert (report.ate_s, report.ase_s, report.aoe_s, report.aae_s) == (1.0, 1.0, 1.0, 1.0)

    @given(st.lists(st.tuples(
        st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.floats(-1.4, 1.4), st.floats(-1.4, 1.4),
        SHAPES, SHAPES,
    ), min_size=1, max_size=8))
    @settings(max_examples=100)
    def test_bit_identical_to_generator_products(self, draws):
        # written-out products and the inlined center distance must give the
        # bits of `math.prod` and `center_distance`; each prediction lies
        # within 2 m of its ground truth, so every pair is a TP
        pairs = [(make_box(x=x, y=y, **g), make_box(x=x + dx, y=y + dy, **p))
                 for x, y, dx, dy, g, p in draws]
        assert self.errors(pairs) == seed_compute_tp_errors(pairs)


class TestAveOffline:
    def frames_and_outputs(self, pred_vel):
        gt = [gt_frame("s0", 0, [make_box(vx=0.0, vy=0.0)])]
        outputs = [det_frame("s0", 0, [make_box(vx=pred_vel[0], vy=pred_vel[1], score=0.9)])]
        return gt, outputs

    def test_perfect_velocity(self):
        gt, outputs = self.frames_and_outputs((0.0, 0.0))
        assert compute_ave_offline(outputs, gt) == 0.0

    def test_unit_error(self):
        gt, outputs = self.frames_and_outputs((1.0, 0.0))
        assert compute_ave_offline(outputs, gt) == 1.0

    def test_three_four_five(self):
        gt, outputs = self.frames_and_outputs((3.0, 4.0))
        assert compute_ave_offline(outputs, gt) == 5.0

    def test_no_tps_is_one(self):
        gt = [gt_frame("s0", 0, [make_box()])]
        assert compute_ave_offline([], gt) == 1.0

    def test_unknown_scene_is_rejected(self):
        gt, _ = self.frames_and_outputs((0.0, 0.0))
        outputs = [det_frame("s1", 0, [make_box(score=0.9)])]
        match = r"scene mismatch: offline detections for unknown scenes \['s1'\]"
        with pytest.raises(ValidationError, match=match):
            compute_ave_offline(outputs, gt)
        with pytest.raises(ValidationError, match=match):
            evaluate_pairs([(gt[0], [])], offline_outputs=outputs)


class TestNdsS:
    def test_published_operating_points(self):
        # three (mAP-S, ATE-S, ASE-S, AOE-S, AVE, AAE-S) -> NDS-S triples
        assert compute_nds_s(0.323, 0.654, 0.272, 0.414, 0.440, 0.198) == pytest.approx(
            0.464, abs=5e-4
        )
        assert compute_nds_s(0.208, 0.828, 0.269, 0.512, 1.315, 0.175) == pytest.approx(
            0.326, abs=5e-4
        )
        assert compute_nds_s(0.310, 0.760, 0.276, 0.385, 0.397, 0.216) == pytest.approx(
            0.452, abs=5e-4
        )

    def test_perfect_score(self):
        assert compute_nds_s(1.0, 0.0, 0.0, 0.0, 0.0, 0.0) == 1.0

    def test_errors_clamped_at_one(self):
        # raising an error beyond 1 cannot lower the score further
        assert compute_nds_s(0.2, 1.0, 0.3, 0.3, 5.0, 0.3) == compute_nds_s(
            0.2, 2.0, 0.3, 0.3, 1.0, 0.3
        )


def simulate_scene(spec, runtime_ms, seed=0, noise=DetectorNoise(), keyframe_every=1):
    frames = gen_scene(spec, keyframe_every=keyframe_every)
    outputs = oracle_detector(frames, noise, seed=seed)
    profile = RuntimeProfile("c", distribution="constant", params={"ms": runtime_ms})
    stream = simulate_stream(
        [f.timestamp_us for f in frames], outputs, profile, SimConfig(seed=seed)
    )
    return frames, outputs, stream


def warm(frames, min_t_us):
    return [f for f in frames if f.timestamp_us >= min_t_us]


class TestEvaluateStreaming:
    def test_static_scene_perfect_detector(self, static_scene_spec):
        frames, outputs, stream = simulate_scene(static_scene_spec, runtime_ms=80.0)
        report = evaluate_streaming(warm(frames, 200_000), stream, offline_outputs=outputs)
        assert report.map_s == 1.0
        assert (report.ate_s, report.ase_s, report.aoe_s, report.aae_s) == (0, 0, 0, 0)
        assert report.ave_offline == 0.0
        assert report.nds_s == 1.0

    def test_constant_staleness_half_second(self):
        # direct stream with eval-to-source gap of exactly 0.5 s: a 4 m/s
        # object is displaced 2 m, failing the 0.5/1 m thresholds
        spec = SceneSpec(
            duration_s=4.0, objects=(ObjectSpec("car", (0.0, 0.0, 0.0), velocity=(4.0, 0.0)),)
        )
        frames = gen_scene(spec)
        outputs = oracle_detector(frames)
        records = [StreamRecord(d.source_timestamp_us + 499_999, d) for d in outputs]
        stream = PredictionStream(records)
        eval_frames = warm(frames, 500_000)
        report = evaluate_streaming(eval_frames, stream)

        assert report.per_class_ap[("car", 0.5)] == 0.0
        assert report.per_class_ap[("car", 1.0)] == 0.0
        assert report.per_class_ap[("car", 4.0)] == 1.0

        # oracle over the same event schedule
        expected = {}
        for thr in (0.5, 1.0, 2.0, 4.0):
            events = []
            npos = 0
            for f in eval_frames:
                npos += 1
                idx = theta_match([r.completion_us for r in records], f.timestamp_us)
                pred = records[idx].detections.boxes[0]
                dist = math.hypot(
                    pred.center.x - f.boxes[0].center.x, pred.center.y - f.boxes[0].center.y
                )
                events.append((pred.score, dist <= thr))
            events = [(s, tp) for s, tp in events]
            expected[thr] = brute_ap(
                [(s, tp) for s, tp in events if tp] + [(s, False) for s, tp in events if not tp],
                npos,
            )
        got_map = report.map_s
        want_map = sum(expected.values()) / len(expected)
        assert got_map == pytest.approx(want_map, abs=1e-9)
        assert report.ate_s == pytest.approx(2.0, abs=1e-9)

    def test_empty_stream(self):
        frames = [gt_frame("s0", t, [make_box()]) for t in (0, 83_333)]
        report = evaluate_streaming(frames, PredictionStream([]))
        assert report.map_s == 0.0
        assert report.ate_s == report.ase_s == report.aoe_s == report.aae_s == 1.0
        assert report.ave_offline == 1.0
        assert report.nds_s == 0.0

    def test_empty_gt_rejected(self):
        with pytest.raises(ValidationError, match="empty ground truth"):
            evaluate_streaming([], PredictionStream([]))
        with pytest.raises(ValidationError, match="empty ground truth"):
            evaluate_streaming([gt_frame("s0", 0, [])], PredictionStream([]))

    def test_scene_mismatch_rejected(self):
        frames = [gt_frame("s0", 0, [make_box()])]
        stream = stream_of([100], [0], scene="other")
        with pytest.raises(ValidationError, match="scene mismatch"):
            evaluate_streaming(frames, stream)

    def test_class_without_gt_excluded_from_mean(self):
        # a "bus" prediction against "car"-only ground truth is ignored, not
        # a false positive, and "bus" gets no AP
        frames = [gt_frame("s0", t, [make_box()]) for t in (0, 83_333, 166_667)]
        boxes = [[make_box(score=0.9), make_box(x=20.0, category="bus", score=0.95)]]
        stream = stream_of([50_000], [0], boxes_per_record=boxes)
        report = evaluate_streaming(frames, stream)
        assert all(cls == "car" for cls, _ in report.per_class_ap)
        assert report.counts == {"tp": 2, "fp": 0, "fn": 1}

    def test_zero_motion_streaming_equals_offline(self, static_scene_spec):
        frames, outputs, stream = simulate_scene(static_scene_spec, runtime_ms=350.0)
        eval_frames = warm(frames, 400_000)
        streaming = evaluate_streaming(eval_frames, stream, offline_outputs=outputs)
        offline_pairs = [(f, list(d.boxes)) for f, d in zip(frames, outputs) if f in eval_frames]
        offline = evaluate_pairs(offline_pairs, offline_outputs=outputs)
        assert streaming.map_s == offline.map_s
        assert streaming.ate_s == offline.ate_s
        assert streaming.nds_s == offline.nds_s

    def test_tp_errors_and_counts_ignore_ap_thresholds(self, moving_scene_spec):
        noise = DetectorNoise(pos_sigma=0.6, drop_rate=0.2, score_model="uniform")
        frames, _, stream = simulate_scene(moving_scene_spec, runtime_ms=250.0, noise=noise)
        eval_frames = warm(frames, 300_000)
        report = evaluate_streaming(eval_frames, stream)
        assert min(report.counts.values()) > 0

        # the 2 m matching, class by class and frame by frame
        pairs, counts = [], {"tp": 0, "fp": 0, "fn": 0}
        for cls in sorted({b.category for f in eval_frames for b in f.boxes}):
            for f in eval_frames:
                idx = theta_match([r.completion_us for r in stream.records], f.timestamp_us)
                preds = stream.records[idx].detections.boxes if idx is not None else []
                tps, fps, fns = match_boxes(f.boxes, preds, cls, 2.0)
                pairs.extend(tps)
                for key, found in (("tp", tps), ("fp", fps), ("fn", fns)):
                    counts[key] += len(found)
        want = (*seed_compute_tp_errors(pairs), counts)
        assert (report.ate_s, report.ase_s, report.aoe_s, report.aae_s, report.counts) == want

    def test_nds_recomputation_consistency(self, moving_scene_spec):
        frames, outputs, stream = simulate_scene(moving_scene_spec, runtime_ms=250.0)
        report = evaluate_streaming(warm(frames, 500_000), stream, offline_outputs=outputs)
        again = compute_nds_s(
            report.map_s, report.ate_s, report.ase_s, report.aoe_s,
            report.ave_offline, report.aae_s,
        )
        assert abs(again - report.nds_s) < 1e-12

    def test_map_nonincreasing_in_contention(self, moving_scene_spec):
        frames = gen_scene(moving_scene_spec)
        outputs = oracle_detector(frames)
        eval_frames = warm(frames, 900_000)
        maps = []
        for factor in (1.0, 2.0, 4.0):
            profile = RuntimeProfile("c", distribution="constant", params={"ms": 100.0})
            stream = simulate_stream(
                [f.timestamp_us for f in frames], outputs, profile,
                SimConfig(seed=1, contention_factor=factor),
            )
            maps.append(evaluate_streaming(eval_frames, stream).map_s)
        assert all(a >= b for a, b in zip(maps, maps[1:]))


class TestMetricReportSerialization:
    def test_roundtrip(self, moving_scene_spec):
        frames, outputs, stream = simulate_scene(moving_scene_spec, runtime_ms=150.0)
        report = evaluate_streaming(warm(frames, 400_000), stream, offline_outputs=outputs)
        again = MetricReport.from_dict(report.to_dict())
        assert again.per_class_ap == report.per_class_ap
        assert again.nds_s == report.nds_s

    def test_schema_version_checked(self):
        with pytest.raises(ValidationError, match="schema_version"):
            MetricReport.from_dict({"schema_version": 99})

    def test_schema_version_is_not_a_field(self):
        """A report writes the one version `from_dict` reads: the constructor
        takes none."""
        args = ({("car", 2.0): 0.5}, 0.5, 0.1, 0.1, 0.1, 0.1, 0.1, 0.6, {"tp": 1})
        with pytest.raises(TypeError, match="schema_version"):
            MetricReport(*args, schema_version=2)
        assert MetricReport(*args).to_dict()["schema_version"] == 1

    @pytest.mark.parametrize(
        "changes, match",
        [
            ({"map_s": None}, "malformed"),
            ({"per_class_ap": [1]}, "malformed"),
            ({"per_class_ap": {"car": 0.5}}, "malformed"),
            ({"counts": {"tp": "x"}}, "malformed"),
            ({"metadata": [1]}, "metadata"),
            ({"nds_s": KeyError}, "missing field 'nds_s'"),
            # nothing is coerced: a threshold key is one the protocol writes
            ({"per_class_ap": {"car": {"2.0": 0.5}}}, "'2.0' is no AP threshold"),
            ({"schema_version": True}, "schema_version"),
            ({"counts": {"tp": 1.5}}, "malformed counts 'tp'"),
        ],
    )
    def test_malformed_report_rejected(self, changes, match):
        obj = MetricReport({("car", 2.0): 0.5}, 0.5, 0.1, 0.1, 0.1, 0.1, 0.1, 0.6,
                           {"tp": 1, "fp": 0, "fn": 1}).to_dict()
        assert MetricReport.from_dict(obj).to_dict() == obj
        obj.update(changes)
        obj = {k: v for k, v in obj.items() if v is not KeyError}
        with pytest.raises(ValidationError, match=match):
            MetricReport.from_dict(obj)
        with pytest.raises(ValidationError, match="JSON object"):
            MetricReport.from_dict([obj])


CLASSES = ("car", "pedestrian", "bus")
# far from the origin the |dx|, |dy| gate works at the margin of rounding
ORIGINS = st.sampled_from([0.0, 1e6, -987654.321, 4.5e6])
# a grid makes duplicate centers and distances exactly at a threshold
GRID = st.sampled_from([0.0, 0.5, -0.5, 1.0, 2.0, -2.0, 4.0, 6.0])
COORDS = GRID | st.floats(-8.0, 8.0)
OFFSETS = (
    st.sampled_from([0.0, 0.5, -1.0, 2.0, -2.0, 4.0, 2.0 + 2.0**-40, 4.0 - 2.0**-40, 1.0 + 1e-12])
    | st.floats(-5.0, 5.0)
)
SCORES = st.sampled_from([0.25, 0.5, 0.5, 1.0]) | st.floats(0.0, 1.0)
VELOCITIES = st.sampled_from([0.0, 1.0]) | st.floats(-10.0, 10.0)


@st.composite
def frame_pairs(draw):
    """(ground truth, predictions) pairs of a few multi-class frames of one
    to three scenes, which share their timestamps, and each scene's
    predictions as its own offline outputs, in time order: only matching
    by scene and time pairs each with its own ground truth. Most
    predictions sit at a small offset from a ground-truth box."""
    origin = draw(ORIGINS)
    pairs, offline, frames = [], [], []
    for k in range(draw(st.integers(1, 3))):
        frames += [(f"s{k}", t) for t in range(draw(st.integers(1, 3)))]
    for scene_id, t in frames:
        gts = [
            make_box(x=origin + draw(COORDS), y=origin + draw(COORDS), vx=draw(VELOCITIES),
                     category=draw(st.sampled_from(CLASSES)),
                     attribute=draw(st.sampled_from([None, "a"])))
            for _ in range(draw(st.integers(0, 6)))
        ]
        preds = []
        for _ in range(draw(st.integers(0, 7))):
            if len(gts) > 1 and not draw(st.integers(0, 4)):
                # halfway between two boxes: a tie that the lower index wins
                a, b = draw(st.sampled_from(gts)), draw(st.sampled_from(gts))
                x, y = (a.center.x + b.center.x) / 2, (a.center.y + b.center.y) / 2
                category = a.category
            elif gts and draw(st.integers(0, 3)):
                g = draw(st.sampled_from(gts))
                x, y = g.center.x + draw(OFFSETS), g.center.y + draw(OFFSETS)
                category = g.category if draw(st.integers(0, 4)) else draw(st.sampled_from(CLASSES))
            else:
                x, y = origin + draw(COORDS), origin + draw(COORDS)
                category = draw(st.sampled_from(CLASSES))
            preds.append(make_box(x=x, y=y, vx=draw(VELOCITIES), vy=draw(VELOCITIES),
                                  category=category, score=draw(SCORES),
                                  attribute=draw(st.sampled_from([None, "a"]))))
        pairs.append((FrameAnnotations(scene_id, t, True, gts), preds))
        offline.append(FrameDetections(scene_id, t, preds))
    return pairs, sorted(offline, key=lambda d: d.source_timestamp_us)


def summed_order(tp_pairs):
    """The (gt, pred) ids of the TPs that `metrics._tp_terms` saw, in the
    order their error terms are summed: class by class, in sorted order, and
    in the order they were seen within a class."""
    return [(id(g), id(p)) for g, p in sorted(tp_pairs, key=lambda pair: pair[1].category)]


def outcome(fn):
    try:
        return "ok", fn()
    except ValidationError as exc:
        return "ValidationError", str(exc)


class TestOnePassMatchingAgainstSeed:
    @given(frame_pairs(), st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_report_and_tp_pair_order_equal_seed(self, pairs_offline, with_offline):
        pairs, offline = pairs_offline
        offline = offline if with_offline else None
        tallied = []
        original = metrics._tp_terms

        def spy(g, p):
            tallied.append((g, p))
            return original(g, p)

        with mock.patch.object(metrics, "_tp_terms", spy):
            got = outcome(lambda: evaluate_pairs(pairs, offline_outputs=offline).to_dict())
        want = outcome(lambda: seed_evaluate_pairs(pairs, offline_outputs=offline))
        if want[0] != "ok":
            assert got == want
            return
        report, tp_pairs = want[1]
        assert got == ("ok", report.to_dict())
        assert repr(got[1]) == repr(report.to_dict())
        assert summed_order(tallied) == [(id(g), id(p)) for g, p in tp_pairs]

    @given(frame_pairs(), st.sampled_from([0.5, 1.0, 2.0, 2.0 + 2.0**-40, 4.0, 1e9, math.inf]))
    @settings(max_examples=300, deadline=None)
    def test_match_boxes_equals_seed(self, pairs_offline, threshold):
        for frame, preds in pairs_offline[0]:
            for cls in CLASSES:
                got = match_boxes(frame.boxes, preds, cls, threshold)
                want = seed_match_boxes(frame.boxes, preds, cls, threshold)
                assert [[tuple(map(id, x)) if isinstance(x, tuple) else id(x) for x in part]
                        for part in got] == [
                    [tuple(map(id, x)) if isinstance(x, tuple) else id(x) for x in part]
                    for part in want
                ]

    @given(frame_pairs())
    @settings(max_examples=200, deadline=None)
    def test_ave_equals_seed(self, pairs_offline):
        # the seed matches class by class, over the classes with ground truth
        pairs, offline = pairs_offline
        gt = [f for f, _ in pairs]
        classes = sorted({b.category for f in gt for b in f.boxes})
        assert repr(compute_ave_offline(offline, gt)) == repr(
            seed_compute_ave_offline(offline, gt, classes)
        )

    @pytest.mark.parametrize("xs", [(1.0, -1.0), (-1.0, 1.0), (1e6 + 1.0, 1e6 - 1.0)])
    def test_equidistant_tie_goes_to_lower_index(self, xs):
        gt = [make_box(x=x) for x in xs]
        pred = [make_box(x=(xs[0] + xs[1]) / 2, score=0.5)]
        (pair,), _, (missed,) = match_boxes(gt, pred, "car", 2.0)
        assert pair == (gt[0], pred[0]) and missed is gt[1]
        pairs = [(FrameAnnotations("s", 0, True, gt), pred)]
        want, want_pairs = seed_evaluate_pairs(pairs, offline_outputs=[FrameDetections("s", 0, pred)])
        with mock.patch.object(metrics, "_tp_terms", wraps=metrics._tp_terms) as spy:
            got = evaluate_pairs(pairs, offline_outputs=[FrameDetections("s", 0, pred)])
        assert got.to_dict() == want.to_dict()
        assert summed_order(call.args for call in spy.call_args_list) == [
            (id(g), id(p)) for g, p in want_pairs
        ] == [(id(gt[0]), id(pred[0]))]

    def test_infinite_distance_never_matches(self):
        # the centers are finite but their difference overflows
        gt = [make_box(x=-1.5e308)]
        pred = [make_box(x=1.5e308, score=0.5)]
        for threshold in (2.0, math.inf):
            assert match_boxes(gt, pred, "car", threshold) == ([], pred, gt)
            assert seed_match_boxes(gt, pred, "car", threshold) == ([], pred, gt)

    def test_greedy_conflict_at_larger_threshold_only(self):
        # at 4 m the first prediction takes the box, 3 m away, that the
        # second one, 1 m away, takes at 2 m
        gt = [make_box(x=0.0)]
        preds = [make_box(x=3.0, score=0.9), make_box(x=1.0, score=0.8)]
        at_2 = match_boxes(gt, preds, "car", 2.0)
        at_4 = match_boxes(gt, preds, "car", 4.0)
        assert [(g.center.x, p.center.x) for g, p in at_2[0]] == [(0.0, 1.0)]
        assert [(g.center.x, p.center.x) for g, p in at_4[0]] == [(0.0, 3.0)]
        pairs = [(FrameAnnotations("s", 0, True, gt), preds)]
        report = evaluate_pairs(pairs)
        want, _ = seed_evaluate_pairs(pairs)
        assert report.to_dict() == want.to_dict()
        assert report.per_class_ap[("car", 2.0)] < report.per_class_ap[("car", 4.0)]


class TestScenePool:
    @given(st.lists(frame_pairs(), min_size=1, max_size=4), st.randoms(use_true_random=False),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_scene_at_a_time_equals_every_pair_at_once(self, scenes, rnd, with_offline):
        chunks = []
        for k, (pairs, offline) in enumerate(scenes):
            sid = f"scene-{k}"
            chunks.append((
                sid,
                [(gt_frame(sid, f.timestamp_us, f.boxes), preds) for f, preds in pairs],
                [det_frame(sid, d.source_timestamp_us, d.boxes) for d in offline],
            ))
        pairs = [pair for _, scene_pairs, _ in chunks for pair in scene_pairs]
        offline = [d for _, _, dets in chunks for d in dets] if with_offline else None
        want = outcome(lambda: evaluate_pairs(pairs, offline_outputs=offline).to_dict())
        # pooled in any order, the scenes sum in sorted order
        rnd.shuffle(chunks)
        pool = ScenePool()
        for sid, scene_pairs, dets in chunks:
            pool.add(sid, scene_pairs, dets if with_offline else ())
        assert repr(outcome(lambda: pool.report().to_dict())) == repr(want)

    def test_a_pooled_scene_keeps_no_box(self):
        gts = [make_box(x=0.0), make_box(x=5.0, category="pedestrian")]
        preds = [make_box(x=0.5, score=0.9), make_box(x=20.0, score=0.4),
                 make_box(x=5.0, category="pedestrian", score=0.7, attribute="a")]
        pool = ScenePool()
        pool.add("s", [(gt_frame("s", t, gts), preds) for t in (0, 100)],
                 [det_frame("s", t, preds) for t in (0, 100)])
        for tallies in pool._tallies.values():
            for tally in tallies.values():
                for f in dataclasses.fields(tally):
                    value = getattr(tally, f.name)
                    for v in value if f.name == "hits" else [value]:
                        assert type(v) in (array, bytearray, int), f.name
        assert pool._ave and all(type(v) is array for v in pool._ave.values())
        # every object the pool reaches, short of types (and the modules
        # and functions behind them)
        seen, todo = set(), [pool]
        while todo:
            obj = todo.pop()
            if id(obj) in seen or isinstance(obj, type):
                continue
            seen.add(id(obj))
            assert type(obj) not in (Box3D, FrameAnnotations, FrameDetections)
            todo.extend(gc.get_referents(obj))

    def test_a_scene_pooled_twice_is_rejected(self):
        pool = ScenePool()
        pairs = [(gt_frame("s", 0, [make_box()]), [make_box(score=0.5)])]
        pool.add("s", pairs)
        with pytest.raises(ValidationError, match="'s' is pooled twice"):
            pool.add("s", pairs)

    @given(st.lists(frame_pairs(), min_size=1, max_size=5),
           st.lists(st.booleans(), min_size=5, max_size=5), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_two_pools_merged_equal_one_pool_of_every_scene(self, scenes, sides, with_offline):
        one, parts = ScenePool(), (ScenePool(), ScenePool())
        for k, (pairs, offline) in enumerate(scenes):
            sid = f"scene-{k}"
            scene_pairs = [(gt_frame(sid, f.timestamp_us, f.boxes), preds) for f, preds in pairs]
            dets = [det_frame(sid, d.source_timestamp_us, d.boxes) for d in offline]
            for pool in (one, parts[sides[k]]):
                pool.add(sid, scene_pairs, dets if with_offline else ())
        merged, other = parts
        # as the CLI hands a pool from one process to another
        merged.merge(pickle.loads(pickle.dumps(other)))
        assert merged.scenes() == one.scenes()
        assert repr(outcome(lambda: merged.report().to_dict())) == repr(
            outcome(lambda: one.report().to_dict()))

    def test_pools_sharing_a_scene_do_not_merge(self):
        pairs = [(gt_frame("s", 0, [make_box()]), [make_box(score=0.5)])]
        pools = ScenePool(), ScenePool()
        for pool in pools:
            pool.add("s", pairs)
        with pytest.raises(ValidationError, match="'s' is pooled twice"):
            pools[0].merge(pools[1])


def pool_scene_sources(n=4):
    """Ground truth, predictions functions and offline detections of `n`
    moving scenes, each a list of (scene_id, value) in sorted order. Scene
    0 is scored on its raw stream, the last scene has no function, and
    every other scene a function over its refined stream."""
    gt, fns, offline = [], [], []
    for k in range(n):
        sid = f"s{k}"
        spec = SceneSpec(duration_s=2.0, seed=k, scene_id=sid, objects=(
            ObjectSpec("car", (0.0, 0.0, 0.0), velocity=(3.0 + k, 0.0)),
            ObjectSpec("truck", (0.0, 20.0, 0.0), size=(2.5, 8.0, 3.0), velocity=(-2.0, k)),
        ))
        noise = DetectorNoise(pos_sigma=0.3, vel_sigma=0.3, drop_rate=0.1)
        frames, outputs, stream = simulate_scene(spec, runtime_ms=150.0 + 40 * k, seed=k,
                                                 noise=noise)
        gt.append((sid, warm(frames, 300_000)))
        offline.append((sid, outputs))
        if k == 0:
            fns.append((sid, latest(stream)))
        elif k < n - 1:
            fns.append((sid, cv_pipeline(refine_stream(stream))))
    return gt, fns, offline


SOURCES = pool_scene_sources()


class TestPoolScenes:
    def test_sources_are_read_no_further_than_the_scene_pooled(self):
        log, scenes = [], ["s0", "s1", "s2"]

        def source(kind, value_of):
            for sid in scenes:
                log.append((kind, sid))
                yield sid, value_of(sid)

        def fn_of(sid):
            def predictions_at(t):
                log.append(("score", sid))
                return det_frame(sid, t, [make_box(score=0.9)])
            return predictions_at

        pool = pool_scenes(
            source("gt", lambda sid: [gt_frame(sid, t, [make_box()]) for t in (0, 100)]),
            source("fn", fn_of),
            source("offline", lambda sid: [det_frame(sid, 0, [make_box(score=0.9)])]),
        )
        assert log == [
            (kind, sid) for sid in scenes for kind in ("gt", "fn", "score", "score", "offline")
        ]
        assert pool.scenes() == scenes

    @given(st.permutations(range(4)), st.randoms(use_true_random=False))
    @settings(max_examples=20, deadline=None)
    def test_sources_in_any_order_score_as_sorted(self, gt_order, rnd):
        gt, fns, offline = SOURCES
        want = pool_scenes(gt, fns, offline).report().to_dict()
        shuffled = []
        for source in (fns, offline):
            source = list(source)
            rnd.shuffle(source)
            shuffled.append(source)
        got = pool_scenes([gt[k] for k in gt_order], *shuffled).report().to_dict()
        assert repr(got) == repr(want)

    def test_unknown_scenes_of_streams_and_functions_are_named_together(self):
        frames = [gt_frame("a", 0, [make_box()])]
        with pytest.raises(ValidationError) as exc:
            pool_scenes([("a", frames)], [("b", latest(stream_of([50], scene="b"))),
                                          ("c", lambda t: det_frame("c", t, []))]).report()
        assert str(exc.value) == "scene mismatch: stream for unknown scenes ['b', 'c']"

    @pytest.mark.parametrize("fn", [latest, cv_pipeline], ids=["latest", "cv_pipeline"])
    def test_answers_with_boxes_of_another_scene_are_a_scene_mismatch(self, fn):
        # scene b's stream given as scene a's would score b's boxes against a's
        frames = [gt_frame("a", t, [make_box()]) for t in (0, 100)]
        stream_b = stream_of([50], boxes_per_record=[[make_box(score=0.9)]], scene="b")
        with pytest.raises(ValidationError) as exc:
            pool_scenes([("a", frames)], [("a", fn(stream_b))])
        assert str(exc.value) == "scene mismatch: stream records for unknown scenes ['b']"

    @pytest.mark.parametrize("fn", [latest, cv_pipeline], ids=["latest", "cv_pipeline"])
    def test_empty_answers_may_carry_any_scene(self, fn):
        # an empty stream answers for the scene "unknown", and stream b answers
        # for b before its first record: neither has a box to score
        frames = [gt_frame("a", t, [make_box()]) for t in (0, 100)]
        stream_b = stream_of([500], boxes_per_record=[[make_box(score=0.9)]], scene="b")
        for stream in (PredictionStream([]), stream_b):
            report = pool_scenes([("a", frames)], [("a", fn(stream))]).report()
            assert report.counts == {"tp": 0, "fp": 0, "fn": 2}

    def test_a_failing_predictions_function_wins_over_an_unknown_stream_scene(self):
        # the scene checks run once every scene is pooled, so an error in
        # scoring a scene is reported first
        frames = [gt_frame("a", 0, [make_box()])]

        def failing(t):
            raise ValidationError(f"no predictions at {t}")

        other = ("b", latest(stream_of([50], scene="b")))
        with pytest.raises(ValidationError, match="no predictions at 0"):
            pool_scenes([("a", frames)], [("a", failing), other]).report()
        with pytest.raises(ValidationError, match=r"stream for unknown scenes \['b'\]"):
            pool_scenes([("a", frames)], [("a", lambda t: det_frame("a", t, [])), other]).report()


class TestTimeShift:
    @given(st.integers(1, 3), st.integers(0, 2**16), st.integers(-10**9, 10**15))
    @settings(max_examples=25, deadline=None)
    def test_shifting_every_timestamp_leaves_every_report(self, n, seed, dt):
        """Scores depend on time differences alone: moving the ground truth,
        the detector outputs and so the simulated records by one integer
        gives, raw and updated, the reports of the unshifted scenes."""
        profile = RuntimeProfile("l", distribution="lognormal",
                                 params={"mu": math.log(120.0), "sigma": 0.4})
        noise = DetectorNoise(pos_sigma=0.3, vel_sigma=0.3, drop_rate=0.1)
        scenes = []
        for k in range(n):
            spec = SceneSpec(duration_s=1.5, seed=seed + k, scene_id=f"s{k}", objects=(
                ObjectSpec("car", (0.0, 0.0, 0.0), velocity=(3.0 + k, 0.0)),
                ObjectSpec("truck", (0.0, 20.0, 0.0), size=(2.5, 8.0, 3.0), velocity=(-2.0, k)),
            ))
            frames = gen_scene(spec)
            scenes.append((spec.scene_id, frames, oracle_detector(frames, noise, seed=seed + k)))
        reports = []
        for shift in (0, dt):
            gt, raw, updated, offline = [], [], [], []
            for k, (sid, frames, outputs) in enumerate(scenes):
                frames = [dataclasses.replace(f, timestamp_us=f.timestamp_us + shift) for f in frames]
                outputs = [dataclasses.replace(d, source_timestamp_us=d.source_timestamp_us + shift)
                           for d in outputs]
                stream = simulate_stream([f.timestamp_us for f in frames], outputs, profile,
                                         SimConfig(seed=seed + k))
                gt.append((sid, frames))
                offline.append((sid, outputs))
                raw.append((sid, latest(stream)))
                updated.append((sid, cv_pipeline(refine_stream(stream))))
            reports.append([pool_scenes(gt, fns, offline).report().to_dict() for fns in (raw, updated)])
        assert all(report["counts"]["tp"] > 0 for report in reports[0])
        assert repr(reports[1]) == repr(reports[0])


class TestFixedProtocol:
    @pytest.mark.parametrize(
        "call",
        [
            lambda f: evaluate_pairs([(f, [])], classes=["car"]),
            lambda f: evaluate_pairs([(f, [])], thresholds=[2.0]),
            lambda f: evaluate_pairs([(f, [])], None),
            lambda f: evaluate_streaming([f], PredictionStream([]), ["car"]),
            lambda f: evaluate_streaming([f], PredictionStream([]), thresholds=[2.0]),
            lambda f: pool_scenes([("s", [f])], (), (), None, ["car"]),
            lambda f: pool_scenes([("s", [f])], classes=["car"]),
            lambda f: compute_ave_offline([], [f], ["car"]),
        ],
    )
    def test_classes_and_thresholds_are_not_parameters(self, call):
        # a stale positional `classes` must not be read as offline outputs
        with pytest.raises(TypeError):
            call(FrameAnnotations("s", 0, True, [make_box()]))
