import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import boxes, det_frame, make_box
from oracles import scalar_greedy_associate
from streameval.baseline import (
    KalmanConfig,
    cv_pipeline,
    cv_update,
    greedy_associate,
    kalman_step,
    new_track,
    sv_pipeline,
)
from streameval.data import RuntimeProfile, ValidationError
from streameval.metrics import evaluate_streaming
from streameval.stream_sim import PredictionStream, SimConfig, StreamRecord, simulate_stream
from streameval.synth import DetectorNoise, ObjectSpec, SceneSpec, gen_scene, oracle_detector

CFG = KalmanConfig()


class TestCvUpdate:
    def test_static_unchanged(self):
        b = make_box(x=1.0, y=2.0)
        assert cv_update(b, 3.7) == b

    def test_quarter_second_shift(self):
        b = make_box(vx=2.0)
        assert cv_update(b, 0.25).center.x == 0.5

    def test_identity_at_zero_dt(self):
        b = make_box(x=1.0, vx=5.0, vy=-3.0)
        assert cv_update(b, 0.0) == b

    @given(st.floats(0.0, 5.0), st.floats(0.0, 5.0),
           st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
    @settings(max_examples=50)
    def test_flow_composition(self, a, c, vx, vy):
        b = make_box(vx=vx, vy=vy)
        two_step = cv_update(cv_update(b, a), c)
        one_step = cv_update(b, a + c)
        assert two_step.center.x == pytest.approx(one_step.center.x, abs=1e-9)
        assert two_step.center.y == pytest.approx(one_step.center.y, abs=1e-9)

    def test_nonfinite_center_raises(self):
        with pytest.raises(ValueError, match="non-finite Vec3"):
            cv_update(make_box(x=1.7e308, vx=1.7e308), 1.0)


class TestGreedyAssociate:
    def test_identical_sets(self):
        boxes = [make_box(x=0.0), make_box(x=20.0)]
        matches, up, uc = greedy_associate(boxes, list(boxes), CFG)
        assert sorted(matches) == [(0, 0), (1, 1)]
        assert not up and not uc

    def test_disjoint_sets(self):
        matches, up, uc = greedy_associate([make_box(x=0.0)], [make_box(x=50.0)], CFG)
        assert not matches and up == [0] and uc == [0]

    def test_higher_iou_wins(self):
        prev = [make_box(x=0.0), make_box(x=1.0)]
        curr = [make_box(x=0.9)]
        matches, _, _ = greedy_associate(prev, curr, CFG)
        assert matches == [(1, 0)]

    def test_category_gate(self):
        matches, _, _ = greedy_associate([make_box()], [make_box(category="bus")], CFG)
        assert not matches


class TestGreedyAssociateAgainstScalarOracle:
    @pytest.mark.parametrize("threshold", [0.0, 0.1, 1.0])
    @given(
        prev=st.lists(boxes(("car", "pedestrian", "bus")), max_size=6),
        curr=st.lists(boxes(("car", "pedestrian", "bus")), max_size=6),
        twins=st.lists(st.integers(0, 5), max_size=3),
    )
    @settings(max_examples=60)
    def test_equals_oracle(self, threshold, prev, curr, twins):
        # exact copies of previous boxes reach IoU 1.0
        curr = curr + [prev[i] for i in twins if i < len(prev)]
        cfg = KalmanConfig(assoc_iou_threshold=threshold)
        assert greedy_associate(prev, curr, cfg) == scalar_greedy_associate(prev, curr, threshold)

    @pytest.mark.parametrize("threshold", [0.0, 0.1, 1.0])
    def test_empty_inputs(self, threshold):
        cfg = KalmanConfig(assoc_iou_threshold=threshold)
        box = make_box()
        for prev, curr in (([], []), ([box], []), ([], [box])):
            assert greedy_associate(prev, curr, cfg) == scalar_greedy_associate(
                prev, curr, threshold
            )

    def test_threshold_zero_matches_disjoint_same_category(self):
        cfg = KalmanConfig(assoc_iou_threshold=0.0)
        prev = [make_box(x=0.0), make_box(x=30.0, category="bus")]
        curr = [make_box(x=60.0, category="bus"), make_box(x=90.0)]
        assert greedy_associate(prev, curr, cfg) == ([(0, 1), (1, 0)], [], [])


class TestKalmanStep:
    def test_consistent_prediction_leaves_state(self):
        tiny = KalmanConfig(
            process_noise_pos=1e-12, process_noise_vel=1e-12,
            meas_noise_pos=1e-12, meas_noise_vel=1e-12,
        )
        track = new_track(make_box(x=1.0, vx=2.0), 0, 0, tiny)
        meas = make_box(x=1.0 + 2.0 * 0.1, vx=2.0)
        stepped = kalman_step(track, meas, 0.1, tiny)
        assert stepped.state[0] == pytest.approx(1.2, abs=1e-9)
        assert stepped.state[3] == pytest.approx(2.0, abs=1e-9)

    def test_noise_free_track_converges(self):
        # twenty steps along an exact constant-velocity track
        track = new_track(make_box(x=0.0, vx=3.0, vy=-1.0), 0, 0, CFG)
        dt = 1.0 / 12.0
        for k in range(1, 21):
            meas = make_box(x=3.0 * k * dt, y=-1.0 * k * dt, vx=3.0, vy=-1.0)
            track = kalman_step(track, meas, dt, CFG)
        assert track.state[3] == pytest.approx(3.0, abs=1e-6)
        assert track.state[4] == pytest.approx(-1.0, abs=1e-6)
        assert track.hits == 21

    def test_covariance_stays_symmetric_psd(self):
        track = new_track(make_box(), 0, 0, CFG)
        rng = np.random.default_rng(0)
        for k in range(1, 50):
            meas = make_box(x=float(rng.normal(0, 0.5)), y=float(rng.normal(0, 0.5)))
            track = kalman_step(track, meas, 1 / 12, CFG)
            p = track.covariance
            assert np.allclose(p, p.T, atol=1e-9)
            assert np.linalg.eigvalsh(p)[0] >= -1e-12

    def test_filter_reduces_position_error(self):
        # filtered RMS position error beats the raw measurements, averaged
        # over 100 independent noisy tracks
        dt = 1.0 / 12.0
        sigma = 0.2
        raw_sq, filt_sq = [], []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            track = None
            for k in range(100):
                true_x, true_y = 2.0 * k * dt, 0.5 * k * dt
                mx = true_x + rng.normal(0, sigma)
                my = true_y + rng.normal(0, sigma)
                meas = make_box(x=mx, y=my, vx=2.0, vy=0.5)
                if track is None:
                    track = new_track(meas, 0, 0, CFG)
                else:
                    track = kalman_step(track, meas, dt, CFG)
                if k >= 10:  # after burn-in
                    raw_sq.append((mx - true_x) ** 2 + (my - true_y) ** 2)
                    filt_sq.append(
                        (track.state[0] - true_x) ** 2 + (track.state[1] - true_y) ** 2
                    )
        assert math.sqrt(np.mean(filt_sq)) < math.sqrt(np.mean(raw_sq))

    def test_nonpositive_dt_rejected(self):
        track = new_track(make_box(), 0, 0, CFG)
        with pytest.raises(ValueError):
            kalman_step(track, make_box(), 0.0, CFG)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_posterior_raises(self):
        # the predicted center overflows to inf, and the update turns it into NaN
        track = new_track(make_box(vx=1.7e308), 0, 0, CFG)
        with pytest.raises(FloatingPointError, match="NaN in Kalman state"):
            kalman_step(track, make_box(x=1.0, vx=1.0), 2.0, CFG)


def constant_velocity_stream(runtime_ms=250.0, vel=(4.0, 0.0), noise=DetectorNoise(), seed=0,
                             duration_s=4.0):
    spec = SceneSpec(
        duration_s=duration_s,
        objects=(ObjectSpec("car", (0.0, 0.0, 0.0), velocity=vel),),
        scene_id="s-cv",
    )
    frames = gen_scene(spec)
    outputs = oracle_detector(frames, noise, seed=seed)
    profile = RuntimeProfile("c", distribution="constant", params={"ms": runtime_ms})
    stream = simulate_stream(
        [f.timestamp_us for f in frames], outputs, profile, SimConfig(seed=seed)
    )
    return frames, outputs, stream


class TestSvPipeline:
    def test_single_static_record(self):
        box = make_box(x=3.0)
        rec = StreamRecord(100_000, 0, det_frame("s0", 0, [box]))
        fn = sv_pipeline(PredictionStream([rec]), [200_000, 900_000])
        for t in (200_000, 900_000):
            got = fn(t)
            assert len(got.boxes) == 1
            assert got.boxes[0].center == box.center

    def test_before_first_completion_empty(self):
        rec = StreamRecord(100_000, 0, det_frame("s0", 0, [make_box()]))
        fn = sv_pipeline(PredictionStream([rec]), [50_000])
        assert fn(50_000).boxes == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_refined_center_raises(self):
        # the refined velocity carries the track's center past the float range
        recs = [
            StreamRecord(100_000, 0, det_frame("s0", 0, [make_box(x=1e308, vx=1e308)])),
            StreamRecord(
                200_000, 100_000, det_frame("s0", 100_000, [make_box(x=1.7e308, vx=1e308)])
            ),
        ]
        with pytest.raises(ValueError, match="non-finite Vec3"):
            sv_pipeline(PredictionStream(recs), [250_000])

    def test_unlisted_timestamp_rejected(self):
        rec = StreamRecord(100_000, 0, det_frame("s0", 0, [make_box()]))
        fn = sv_pipeline(PredictionStream([rec]), [200_000])
        with pytest.raises(ValidationError, match="not an evaluation timestamp"):
            fn(300_000)

    def test_perfect_detector_fully_compensates(self):
        frames, _, stream = constant_velocity_stream(runtime_ms=500.0)
        eval_ts = [f.timestamp_us for f in frames if f.timestamp_us >= 1_000_000]
        fn = sv_pipeline(stream, eval_ts)
        truth = {f.timestamp_us: f.boxes[0].center for f in frames}
        for t in eval_ts:
            got = fn(t).boxes[0].center
            want = truth[t]
            assert math.hypot(got.x - want.x, got.y - want.y) < 1e-6

    def test_only_centers_and_velocities_change(self):
        noise = DetectorNoise(vel_sigma=0.5)
        frames, _, stream = constant_velocity_stream(noise=noise, seed=3)
        eval_ts = [f.timestamp_us for f in frames]
        fn = sv_pipeline(stream, eval_ts)
        for t in eval_ts:
            m_idx = None
            for i, rec in enumerate(stream.records):
                if rec.completion_us < t:
                    m_idx = i
            got = fn(t)
            if m_idx is None:
                assert got.boxes == []
                continue
            raw = stream.records[m_idx].detections.boxes
            assert len(got.boxes) == len(raw)
            for g, r in zip(got.boxes, raw):
                assert g.category == r.category
                assert g.score == r.score
                assert g.size == r.size
                assert g.rotation == r.rotation

    def test_static_scene_equals_raw_stream(self):
        spec = SceneSpec(
            duration_s=3.0,
            objects=(ObjectSpec("car", (5.0, 1.0, 0.0)), ObjectSpec("bus", (30.0, 0.0, 0.0), size=(3.0, 10.0, 3.2))),
            scene_id="s-static",
        )
        frames = gen_scene(spec)
        outputs = oracle_detector(frames)
        profile = RuntimeProfile("c", distribution="constant", params={"ms": 300.0})
        stream = simulate_stream(
            [f.timestamp_us for f in frames], outputs, profile, SimConfig()
        )
        eval_ts = [f.timestamp_us for f in frames]
        fn = sv_pipeline(stream, eval_ts)
        for t in eval_ts:
            idx = None
            for i, rec in enumerate(stream.records):
                if rec.completion_us < t:
                    idx = i
            if idx is None:
                continue
            raw = stream.records[idx].detections.boxes
            got = fn(t).boxes
            assert [b.center for b in got] == [b.center for b in raw]

    def test_improves_over_raw_on_perfect_detections(self):
        # desk-scale analogue of the published gains: with exact velocities
        # the updated stream dominates the raw one at every latency
        for runtime in (100.0, 250.0, 500.0):
            frames, outputs, stream = constant_velocity_stream(runtime_ms=runtime)
            eval_frames = [f for f in frames if f.timestamp_us >= 1_000_000]
            raw = evaluate_streaming(eval_frames, stream)
            fn = sv_pipeline(stream, [f.timestamp_us for f in eval_frames])
            sv = evaluate_streaming(eval_frames, stream, predictions_fn=fn)
            assert sv.map_s >= raw.map_s

    def test_kalman_beats_raw_cv_on_noisy_velocity(self):
        # Monte-Carlo: mean center error at eval time, Kalman-refined vs
        # raw constant-velocity extrapolation of noisy velocities
        wins = 0
        n_seeds = 30
        for seed in range(n_seeds):
            frames, _, stream = constant_velocity_stream(
                noise=DetectorNoise(vel_sigma=0.5), seed=seed
            )
            eval_frames = [f for f in frames if f.timestamp_us >= 1_000_000]
            eval_ts = [f.timestamp_us for f in eval_frames]
            truth = {f.timestamp_us: f.boxes[0].center for f in eval_frames}
            sv_fn = sv_pipeline(stream, eval_ts)
            cv_fn = cv_pipeline(stream)

            def mean_err(fn):
                errs = []
                for t in eval_ts:
                    boxes = fn(t).boxes
                    if boxes:
                        errs.append(
                            math.hypot(
                                boxes[0].center.x - truth[t].x,
                                boxes[0].center.y - truth[t].y,
                            )
                        )
                return float(np.mean(errs))

            if mean_err(sv_fn) < mean_err(cv_fn):
                wins += 1
        assert wins >= 0.8 * n_seeds
