import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import boxes, det_frame, make_box
from oracles import covariance, scalar_greedy_associate, seed_kalman_step
from streameval.baseline import (
    KalmanConfig,
    cv_pipeline,
    cv_update,
    greedy_associate,
    kalman_step,
    new_track,
    refine_stream,
    sv_pipeline,
)
from streameval.data import PredictionStream, RuntimeProfile, StreamRecord, ValidationError
from streameval.metrics import evaluate_streaming
from streameval.stream_sim import SimConfig, simulate_stream
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


class TestKalmanConfig:
    @pytest.mark.parametrize("name", ["process_noise_pos", "process_noise_vel",
                                      "meas_noise_pos", "meas_noise_vel"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
    def test_noise_must_be_positive_and_finite(self, name, value):
        with pytest.raises(ValidationError, match=f"{name} must be positive and finite"):
            KalmanConfig(**{name: value})

    @pytest.mark.parametrize("name", ["meas_noise_pos", "meas_noise_vel"])
    def test_measurement_noise_must_leave_the_birth_covariance_finite(self, name):
        KalmanConfig(**{name: 1.7e307})
        with pytest.raises(ValidationError, match=f"{name} overflows the birth covariance"):
            KalmanConfig(**{name: 1e308})

    def test_overflowing_noise_rejected_before_any_track_update(self):
        # two records 500 m apart never associate, so no Kalman step would
        # ever see the infinite birth covariance
        recs = [
            StreamRecord(100_000, det_frame("s0", 0, [make_box(x=0.0)])),
            StreamRecord(200_000, det_frame("s0", 100_000, [make_box(x=500.0)])),
        ]
        with pytest.raises(ValidationError, match="meas_noise_pos overflows"):
            sv_pipeline(PredictionStream(recs), [250_000], KalmanConfig(meas_noise_pos=1e308))


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
            p = covariance(track)
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

    @given(
        st.tuples(*[st.floats(-50.0, 50.0)] * 5),
        st.lists(st.tuples(st.floats(1e-4, 5.0), *[st.floats(-50.0, 50.0)] * 5), min_size=1,
                 max_size=12),
        st.tuples(*[st.floats(1e-3, 10.0)] * 4),
    )
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_seed_numpy_filter(self, birth, steps, noise):
        # Each step starts both filters from the same prior. Two correct float
        # filters differ by about eps * cond(S) of what they combine, S = P + R
        # being the innovation covariance: the bound is 1e-12 relative while
        # cond(S) <= 100 and grows with it past that (noise ratios near 1e4).
        cfg = KalmanConfig(*noise)
        x, y, z, vx, vy = birth
        track = new_track(make_box(x=x, y=y, z=z, vx=vx, vy=vy), 0, 7, cfg)
        r = np.diag([cfg.meas_noise_pos] * 3 + [cfg.meas_noise_vel] * 2)
        for dt, x, y, z, vx, vy in steps:
            meas = make_box(x=x, y=y, z=z, vx=vx, vy=vy)
            want = seed_kalman_step(track, meas, dt, cfg)
            f = np.eye(5)
            f[0, 3] = f[1, 4] = dt
            q = np.diag([cfg.process_noise_pos * dt] * 3 + [cfg.process_noise_vel * dt] * 2)
            p_pred = f @ covariance(track) @ f.T + q
            rel = max(1e-12, 1e-14 * np.linalg.cond(p_pred + r))
            x_scale = max(np.abs(f @ np.array(track.state)).max(), max(map(abs, (x, y, z, vx, vy))))
            p_scale = max(np.abs(p_pred).max(), np.abs(r).max())

            track = kalman_step(track, meas, dt, cfg)
            assert np.abs(np.array(track.state) - want.state).max() <= rel * x_scale
            assert np.abs(covariance(track) - want.covariance).max() <= 1e-12 * p_scale
            assert all(type(v) is float for v in track.state + track.blocks)
            pxx, pxvx, pvxvx, pyy, pyvy, pvyvy, pzz = track.blocks
            for p00, p01, p11 in ((pxx, pxvx, pvxvx), (pyy, pyvy, pvyvy)):
                assert p00 >= 0.0 and p11 >= 0.0 and p00 * p11 - p01 * p01 >= 0.0
            assert pzz >= 0.0
            assert (track.last_update_us, track.track_id, track.hits) == (
                want.last_update_us, want.track_id, want.hits
            )

    def test_long_track_agrees_with_seed_numpy_filter(self):
        # 20 s at 12 Hz under the default configuration, each filter fed only
        # its own posteriors: no drift builds up
        rng = np.random.default_rng(1)
        track = want = new_track(make_box(x=5.0, vx=3.0), 0, 0, CFG)
        for k in range(1, 241):
            x, y, vx, vy = rng.normal([5.0 + 0.25 * k, 0.0, 3.0, 0.0], [0.3, 0.3, 0.5, 0.5])
            meas = make_box(x=x, y=y, z=float(rng.normal(0.0, 0.1)), vx=vx, vy=vy)
            track = kalman_step(track, meas, 1 / 12, CFG)
            want = seed_kalman_step(want, meas, 1 / 12, CFG)
        assert np.allclose(track.state, want.state, rtol=1e-12, atol=0.0)
        assert np.allclose(covariance(track), want.covariance, rtol=1e-12, atol=0.0)

    def test_birth_holds_floats_and_ten_times_measurement_noise(self):
        track = new_track(make_box(x=np.float64(1.5), vx=np.float64(-2.0)), 0, 0, CFG)
        assert track.state == (1.5, 0.0, 0.0, -2.0, 0.0)
        assert all(type(v) is float for v in track.state + track.blocks)
        r = np.diag([CFG.meas_noise_pos] * 3 + [CFG.meas_noise_vel] * 2)
        assert np.array_equal(covariance(track), 10.0 * r)

    def test_nonfinite_posterior_raises(self):
        # the predicted center overflows to inf, and the update turns it into NaN
        track = new_track(make_box(vx=1.7e308), 0, 0, CFG)
        with pytest.raises(ValidationError, match="NaN or inf in Kalman state"):
            kalman_step(track, make_box(x=1.0, vx=1.0), 2.0, CFG)

    def test_infinite_posterior_raises(self):
        # the innovation overflows to inf and carries the state with it, no NaN
        track = new_track(make_box(x=-1.7e308), 0, 0, CFG)
        with pytest.raises(ValidationError, match="NaN or inf in Kalman state"):
            kalman_step(track, make_box(x=1.7e308), 0.1, CFG)


class TestRefineStream:
    def test_keeps_timing_and_refines_in_record_order(self):
        noise = DetectorNoise(vel_sigma=0.5)
        _, _, stream = constant_velocity_stream(noise=noise, seed=3)
        refined = refine_stream(stream)
        assert len(refined) == len(stream)
        for got, raw in zip(refined.records, stream.records):
            assert (got.completion_us, got.source_us) == (raw.completion_us, raw.source_us)
            assert got.detections.scene_id == raw.detections.scene_id
            assert [b.size for b in got.detections.boxes] == [b.size for b in raw.detections.boxes]
        # the first record starts its tracks; the later ones are filtered
        assert refined.records[0] == stream.records[0]
        assert refined.records[-1] != stream.records[-1]

    def test_sv_pipeline_extrapolates_the_refined_stream(self):
        frames, _, stream = constant_velocity_stream(noise=DetectorNoise(vel_sigma=0.5), seed=5)
        eval_ts = [f.timestamp_us for f in frames]
        sv_fn, cv_fn = sv_pipeline(stream, eval_ts), cv_pipeline(refine_stream(stream))
        for t in eval_ts:
            assert sv_fn(t) == cv_fn(t)


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
        rec = StreamRecord(100_000, det_frame("s0", 0, [box]))
        fn = sv_pipeline(PredictionStream([rec]), [200_000, 900_000])
        for t in (200_000, 900_000):
            got = fn(t)
            assert len(got.boxes) == 1
            assert got.boxes[0].center == box.center

    def test_before_first_completion_empty(self):
        rec = StreamRecord(100_000, det_frame("s0", 0, [make_box()]))
        fn = sv_pipeline(PredictionStream([rec]), [50_000])
        assert fn(50_000).boxes == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_refined_center_raises(self):
        # the refined velocity carries the track's center past the float range
        recs = [
            StreamRecord(100_000, det_frame("s0", 0, [make_box(x=1e308, vx=1e308)])),
            StreamRecord(200_000, det_frame("s0", 100_000, [make_box(x=1.7e308, vx=1e308)])),
        ]
        predictions_at = sv_pipeline(PredictionStream(recs), [250_000])
        with pytest.raises(ValueError, match="non-finite Vec3"):
            predictions_at(250_000)

    def test_propagated_center_overflow_raises(self):
        # the track's footprint is carried past the float range before the
        # second record's association
        recs = [
            StreamRecord(100_000, det_frame("s0", 0, [make_box(x=1.7e308, vx=1.7e308)])),
            StreamRecord(600_000, det_frame("s0", 500_000, [make_box()])),
        ]
        with pytest.raises(ValidationError, match="non-finite"):
            refine_stream(PredictionStream(recs))

    def test_unlisted_timestamp_rejected(self):
        rec = StreamRecord(100_000, det_frame("s0", 0, [make_box()]))
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
