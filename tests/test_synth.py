import math

import numpy as np
import pytest

from streameval.data import ValidationError, iter_detections, write_detections
from streameval.synth import (
    DetectorNoise,
    ObjectSpec,
    SceneSpec,
    gen_scene,
    oracle_detector,
    scene_spec_from_dict,
)


class TestGenScene:
    def test_static_object_thirteen_frames(self):
        spec = SceneSpec(duration_s=1.0, objects=(ObjectSpec("car", (1.0, 2.0, 0.0)),))
        frames = gen_scene(spec)
        assert len(frames) == 13
        first = frames[0].boxes[0]
        for f in frames:
            assert f.boxes[0] == first

    def test_constant_velocity_position(self):
        spec = SceneSpec(
            duration_s=1.0, objects=(ObjectSpec("car", (0.0, 0.0, 0.0), velocity=(4.0, 0.0)),)
        )
        frames = gen_scene(spec)
        at_half = next(f for f in frames if f.timestamp_us == 500_000)
        assert at_half.boxes[0].center.x == pytest.approx(2.0, abs=1e-12)

    def test_yaw_rate(self):
        spec = SceneSpec(
            duration_s=1.0, objects=(ObjectSpec("car", (0.0, 0.0, 0.0), yaw_rate=math.pi),)
        )
        frames = gen_scene(spec)
        at_half = next(f for f in frames if f.timestamp_us == 500_000)
        assert at_half.boxes[0].yaw == pytest.approx(math.pi / 2, abs=1e-12)

    def test_keyframe_subsample(self):
        spec = SceneSpec(duration_s=1.0, objects=(ObjectSpec("car", (0.0, 0.0, 0.0)),))
        frames = gen_scene(spec, keyframe_every=6)
        kf = [f for f in frames if f.is_keyframe]
        assert [f.timestamp_us for f in kf] == [0, 500_000, 1_000_000]

    def test_instance_ids_stable(self):
        spec = SceneSpec(
            duration_s=0.5,
            objects=(ObjectSpec("car", (0.0, 0.0, 0.0)), ObjectSpec("bus", (30.0, 0.0, 0.0), size=(3.0, 10.0, 3.0))),
        )
        frames = gen_scene(spec)
        for f in frames:
            assert [b.instance_id for b in f.boxes] == ["obj-0", "obj-1"]

    def test_invalid_spec(self):
        with pytest.raises(ValidationError):
            SceneSpec(duration_s=0.0)


class TestOracleDetector:
    def scene(self, n_objects=1, duration_s=1.0):
        objs = tuple(
            ObjectSpec("car", (30.0 * k, 0.0, 0.0), velocity=(1.0, 0.0)) for k in range(n_objects)
        )
        return gen_scene(SceneSpec(duration_s=duration_s, objects=objs))

    def test_zero_noise_identity(self):
        frames = self.scene()
        outputs = oracle_detector(frames)
        for f, det in zip(frames, outputs, strict=True):
            assert len(det.boxes) == 1
            assert det.boxes[0].center == f.boxes[0].center
            assert det.boxes[0].score == 1.0

    def test_position_noise_rms(self):
        frames = self.scene(n_objects=10, duration_s=83.0)  # ~10^4 boxes
        sigma = 0.2
        outputs = oracle_detector(frames, DetectorNoise(pos_sigma=sigma), seed=1)
        sq = []
        for f, det in zip(frames, outputs, strict=True):
            for g, d in zip(f.boxes, det.boxes):
                sq.append((d.center.x - g.center.x) ** 2 + (d.center.y - g.center.y) ** 2)
        rms = math.sqrt(np.mean(sq))
        expected = sigma * math.sqrt(2.0)
        assert abs(rms - expected) / expected < 0.05

    def test_drop_rate(self):
        frames = self.scene(n_objects=10, duration_s=83.0)
        outputs = oracle_detector(frames, DetectorNoise(drop_rate=0.5), seed=2)
        total = sum(len(f.boxes) for f in frames)
        kept = sum(len(det.boxes) for det in outputs)
        assert abs(kept / total - 0.5) < 0.02

    def test_noise_is_the_generators_draws_in_order(self):
        frames = self.scene(n_objects=3, duration_s=2.0)
        noise = DetectorNoise(pos_sigma=0.3, vel_sigma=0.2, drop_rate=0.2, score_model="uniform")
        outputs = oracle_detector(frames, noise, seed=11)
        # per box: the drop draw, then two center, two velocity and one score draw
        rng = np.random.default_rng(11)
        dropped = 0
        for f, det in zip(frames, outputs, strict=True):
            want = []
            for g in f.boxes:
                if rng.random() < noise.drop_rate:
                    dropped += 1
                    continue
                dx, dy = rng.normal(0.0, noise.pos_sigma, size=2)
                dvx, dvy = rng.normal(0.0, noise.vel_sigma, size=2)
                score = rng.uniform(0.5, 1.0)
                want.append((g.center.x + dx, g.center.y + dy, g.center.z,
                             g.velocity[0] + dvx, g.velocity[1] + dvy, score))
            got = [(b.center.x, b.center.y, b.center.z, *b.velocity, b.score)
                   for b in det.boxes]
            assert got == want
        assert dropped > 0

    def test_deterministic_under_seed(self):
        frames = self.scene()
        noise = DetectorNoise(pos_sigma=0.3, vel_sigma=0.2, drop_rate=0.1)
        a = oracle_detector(frames, noise, seed=9)
        b = oracle_detector(frames, noise, seed=9)
        assert a == b

    def test_outputs_are_a_list_in_frame_order_that_reads_back_equal(self, tmp_path):
        frames = self.scene(n_objects=2)
        outputs = oracle_detector(frames, DetectorNoise(pos_sigma=0.3, vel_sigma=0.2), seed=4)
        assert type(outputs) is list
        assert [d.source_timestamp_us for d in outputs] == [f.timestamp_us for f in frames]
        path = tmp_path / "a.det.jsonl"
        write_detections(path, outputs)
        assert list(iter_detections(path)) == [("synthetic-0", outputs)]


def test_scene_spec_from_dict_roundtrip():
    obj = {
        "scene_id": "demo",
        "duration_s": 2.0,
        "rate_hz": 12,
        "keyframe_every": 6,
        "seed": 5,
        "objects": [
            {"category": "car", "center": [0, 0, 0], "velocity": [4, 0]},
            {"category": "pedestrian", "center": [10, 5, 0], "size": [0.7, 0.7, 1.8]},
        ],
        "noise": {"pos_sigma": 0.1, "vel_sigma": 0.4},
    }
    spec, noise, keyframe_every = scene_spec_from_dict(obj)
    assert spec.scene_id == "demo"
    assert len(spec.objects) == 2
    assert noise.vel_sigma == 0.4
    assert keyframe_every == 6
