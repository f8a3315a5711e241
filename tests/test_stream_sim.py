import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, reject, settings
from hypothesis import strategies as st

from conftest import det_frame, make_box
from oracles import constant_runtime_schedule
from streameval.baseline import refine_stream
from streameval.data import (
    Box3D,
    PredictionStream,
    RuntimeProfile,
    StreamRecord,
    ValidationError,
    iter_stream,
    regular_timestamps,
    write_stream,
)
from streameval.geom import Quaternion, Vec3
from streameval.stream_sim import SimConfig, contention_sweep, sample_runtime, simulate_stream

CONSTANT_500 = RuntimeProfile("c500", distribution="constant", params={"ms": 500.0})


def outputs_for(times, scene="s0"):
    return [det_frame(scene, t, [make_box(x=t / 1e6, score=0.9)]) for t in times]


class TestSampleRuntime:
    def test_constant(self):
        rng = np.random.default_rng(0)
        assert sample_runtime(CONSTANT_500, rng) == 500_000

    def test_contention_scaling(self):
        rng = np.random.default_rng(0)
        profile = replace(CONSTANT_500, contention_factor=2.0)
        assert sample_runtime(profile, rng) == 1_000_000

    def test_overhead_added_after_scaling(self):
        profile = RuntimeProfile(
            "c", distribution="constant", params={"ms": 100.0}, overhead_ms=10.0,
            contention_factor=2.0,
        )
        rng = np.random.default_rng(0)
        assert sample_runtime(profile, rng) == 210_000

    def test_empirical_mean_converges(self):
        profile = RuntimeProfile("e", samples_ms=[100.0, 200.0, 300.0])
        rng = np.random.default_rng(42)
        draws = [sample_runtime(profile, rng) for _ in range(100_000)]
        assert abs(np.mean(draws) / 1000.0 - 200.0) < 2.0

    def test_deterministic_under_seed(self):
        profile = RuntimeProfile("e", samples_ms=list(range(50, 150)))
        a = [sample_runtime(profile, np.random.default_rng(7)) for _ in range(1)]
        b = [sample_runtime(profile, np.random.default_rng(7)) for _ in range(1)]
        assert a == b

    def test_lognormal_median(self):
        import math

        profile = RuntimeProfile(
            "ln", distribution="lognormal", params={"mu": math.log(200.0), "sigma": 0.25}
        )
        rng = np.random.default_rng(3)
        draws = [sample_runtime(profile, rng) / 1000.0 for _ in range(20_000)]
        assert abs(np.median(draws) - 200.0) < 3.0

    def test_sim_config_validation(self):
        with pytest.raises(ValidationError):
            SimConfig(contention_factor=0.5)
        with pytest.raises(ValidationError):
            SimConfig(input_frame_interval=0)


class TestSimulateStream:
    def test_keeps_up_when_faster_than_frame_period(self):
        times = regular_timestamps(0, 1_000_000, 12.0)
        profile = RuntimeProfile("fast", distribution="constant", params={"ms": 80.0})
        stream = simulate_stream(times, outputs_for(times), profile, SimConfig())
        assert len(stream) == len(times)
        for rec in stream.records:
            assert rec.completion_us == rec.source_us + 80_000

    def test_every_third_frame_at_quarter_second(self):
        # hand-simulated schedule: runtime of three frame periods consumes
        # frames 0, 3, 6, 9 and drops everything overtaken mid-inference
        times = regular_timestamps(0, 916_667, 12.0)
        assert len(times) == 12
        profile = RuntimeProfile("slow", distribution="constant", params={"ms": 250.0})
        stream = simulate_stream(times, outputs_for(times), profile, SimConfig())
        expected = constant_runtime_schedule(times, 250_000)
        assert [(r.completion_us, r.source_us) for r in stream.records] == expected
        assert [r.source_us for r in stream.records] == [times[0], times[3], times[6], times[9]]
        assert len(stream) == -(-len(times) // 3)  # M = ceil(T/3)

    def test_single_frame(self):
        stream = simulate_stream([7_000], outputs_for([7_000]), CONSTANT_500, SimConfig())
        assert len(stream) == 1
        assert stream.records[0].completion_us == 507_000

    def test_missing_output_errors(self):
        with pytest.raises(ValidationError, match="missing detector output"):
            simulate_stream([0, 83_333], [], CONSTANT_500, SimConfig())

    def test_two_outputs_for_one_frame_rejected(self):
        outputs = [*outputs_for([0, 83_333]), det_frame("s0", 83_333, [])]
        with pytest.raises(ValidationError, match="two detector outputs for frame t=83333"):
            simulate_stream([0, 83_333], outputs, CONSTANT_500, SimConfig())

    def test_determinism(self):
        times = regular_timestamps(0, 2_000_000, 12.0)
        profile = RuntimeProfile("e", samples_ms=[90.0, 140.0, 260.0, 400.0])
        cfg = SimConfig(seed=123)
        a = simulate_stream(times, outputs_for(times), profile, cfg)
        b = simulate_stream(times, outputs_for(times), profile, cfg)
        assert a == b

    def test_causality_and_order_invariants(self):
        times = regular_timestamps(0, 3_000_000, 12.0)
        profile = RuntimeProfile("e", samples_ms=[60.0, 120.0, 350.0])
        stream = simulate_stream(times, outputs_for(times), profile, SimConfig(seed=5))
        completions = [r.completion_us for r in stream.records]
        sources = [r.source_us for r in stream.records]
        assert completions == sorted(completions)
        assert sources == sorted(sources)
        assert all(c >= s + 60_000 for c, s in zip(completions, sources))

    def test_monotone_load(self):
        times = regular_timestamps(0, 3_000_000, 12.0)
        outputs = outputs_for(times)
        sizes = []
        for factor in (1.0, 2.0, 4.0):
            cfg = SimConfig(seed=1, contention_factor=factor)
            profile = RuntimeProfile("c", distribution="constant", params={"ms": 150.0})
            sizes.append(len(simulate_stream(times, outputs, profile, cfg)))
        assert sizes == sorted(sizes, reverse=True)

    def test_input_frame_interval_subsamples(self):
        times = regular_timestamps(0, 1_000_000, 12.0)
        profile = RuntimeProfile("fast", distribution="constant", params={"ms": 1.0})
        cfg = SimConfig(input_frame_interval=6)
        stream = simulate_stream(times, outputs_for(times), profile, cfg)
        assert [r.source_us for r in stream.records] == times[::6]

    def test_unsorted_frames_rejected(self):
        with pytest.raises(ValidationError):
            simulate_stream([10, 10], outputs_for([10]), CONSTANT_500, SimConfig())

    def test_numpy_frame_times_write_as_ints(self):
        times = np.arange(0, 1_000_000, 83_333)
        outputs = outputs_for(times.tolist())
        profile = RuntimeProfile("c100", distribution="constant", params={"ms": 100.0})
        written = []
        for frames in (times, times.tolist()):
            out = io.StringIO()
            write_stream(out, [simulate_stream(frames, outputs, profile, SimConfig())])
            written.append(out.getvalue())
        assert written[0] == written[1]

    def test_float_frame_times_rejected(self):
        with pytest.raises(ValidationError, match="frame timestamp must be an integer, got 0.0"):
            simulate_stream([0.0, 83333.0], outputs_for([0, 83333]), CONSTANT_500, SimConfig())

    def test_outputs_needed_only_for_selected_frames(self):
        # a 250 ms model on a 12 Hz clock consumes every third frame; the
        # dropped frames never need detector outputs
        times = regular_timestamps(0, 916_667, 12.0)
        profile = RuntimeProfile("slow", distribution="constant", params={"ms": 250.0})
        outputs = outputs_for([times[0], times[3], times[6], times[9]])
        stream = simulate_stream(times, outputs, profile, SimConfig())
        assert len(stream) == 4

    def test_matches_longhand_schedule_for_random_runtimes(self):
        rng = np.random.default_rng(17)
        times = regular_timestamps(0, 5_000_000, 12.0)
        outputs = outputs_for(times)
        for _ in range(50):
            runtime_ms = float(rng.uniform(5.0, 1500.0))
            profile = RuntimeProfile("c", distribution="constant", params={"ms": runtime_ms})
            stream = simulate_stream(times, outputs, profile, SimConfig())
            want = constant_runtime_schedule(times, max(1, round(runtime_ms * 1000.0)))
            assert [(r.completion_us, r.source_us) for r in stream.records] == want


class TestContentionSweep:
    BASE = RuntimeProfile("base", distribution="constant", params={"ms": 500.0})

    def test_identity_factor(self):
        (profile,) = contention_sweep(self.BASE, [1.0])
        assert profile == self.BASE

    def test_three_factor_means(self):
        profiles = contention_sweep(self.BASE, [1.0, 2.0, 4.0])
        rng = np.random.default_rng(0)
        means = [sample_runtime(p, np.random.default_rng(0)) for p in profiles]
        assert means == [500_000, 1_000_000, 2_000_000]

    def test_empirical_scaling_law(self):
        base = RuntimeProfile("e", samples_ms=[100.0, 250.0])
        (scaled,) = contention_sweep(base, [3.0])
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(200):
            assert sample_runtime(scaled, rng_a) == 3 * sample_runtime(base, rng_b)

    def test_subunit_factor_rejected(self):
        with pytest.raises(ValidationError):
            contention_sweep(self.BASE, [0.5])

    def test_swept_profile_equals_config_factor(self):
        # the two contention mechanisms are interchangeable on a fixed seed
        times = regular_timestamps(0, 3_000_000, 12.0)
        outputs = outputs_for(times)
        (swept,) = contention_sweep(self.BASE, [3.0])
        via_profile = simulate_stream(times, outputs, swept, SimConfig(seed=4))
        via_config = simulate_stream(
            times, outputs, self.BASE, SimConfig(seed=4, contention_factor=3.0)
        )
        assert via_profile == via_config

    def test_profile_and_config_factors_multiply(self):
        # a profile's own slowdown and the configured one fold into one factor
        times = regular_timestamps(0, 3_000_000, 12.0)
        outputs = outputs_for(times)
        half = replace(self.BASE, contention_factor=2.0)
        (folded,) = contention_sweep(half, [2.0])
        # the name stays; only the factor is multiplied
        assert folded == replace(half, contention_factor=4.0)
        via_both = simulate_stream(times, outputs, half, SimConfig(seed=4, contention_factor=2.0))
        via_profile = simulate_stream(
            times, outputs, replace(self.BASE, contention_factor=4.0), SimConfig(seed=4)
        )
        assert via_both == via_profile


class TestStreamFileRoundtrip:
    def test_roundtrip(self, tmp_path):
        # two scenes on the same clock: each scene's records restart in time
        times = regular_timestamps(0, 1_000_000, 12.0)
        streams = {
            scene: simulate_stream(times, outputs_for(times, scene), CONSTANT_500, SimConfig())
            for scene in ("s1", "s0")
        }
        path = tmp_path / "two.stream.jsonl"
        write_stream(path, streams.values())
        assert dict(iter_stream(path)) == streams
        refined = {scene: refine_stream(stream) for scene, stream in streams.items()}
        write_stream(path, refined.values(), boxes="refined")
        assert dict(iter_stream(path, boxes="refined")) == refined

    def test_streams_written_in_the_order_given(self, tmp_path):
        # the order given, whatever the scene ids: "s1" goes before "s0"
        times = regular_timestamps(0, 1_000_000, 12.0)
        a, b = (simulate_stream(times, outputs_for(times, scene), CONSTANT_500, SimConfig())
                for scene in ("s1", "s0"))
        path = tmp_path / "two.stream.jsonl"
        write_stream(path, [a, b])
        lines = path.read_text().splitlines()
        assert [json.loads(line)["scene_id"] for line in lines] == ["s1"] * len(a) + ["s0"] * len(b)
        assert list(iter_stream(path)) == [("s1", a), ("s0", b)]

    def test_invariant_violations_rejected(self):
        det = det_frame("s0", 100, [])
        with pytest.raises(ValidationError):
            PredictionStream([StreamRecord(50, det)])
        det0 = det_frame("s0", 0, [])
        with pytest.raises(ValidationError):
            PredictionStream([StreamRecord(100, det0), StreamRecord(100, det0)])
        with pytest.raises(ValidationError, match="source timestamps must strictly increase"):
            PredictionStream([StreamRecord(100, det0), StreamRecord(200, det0)])


# floats at the edges of the double range: signed zeros, subnormals, the
# smallest normal and values near the overflow threshold
EXTREME = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300])
COORD = EXTREME | st.floats(-1e300, 1e300)
POSITIVE = st.sampled_from([5e-324, 2.2250738585072014e-308, 1e300]) | st.floats(1e-300, 1e300)


@st.composite
def extreme_boxes(draw):
    rotation = draw(
        st.builds(Quaternion.rot_z, st.floats(-math.pi, math.pi))
        | st.just(Quaternion(1.0, -0.0, 0.0, -0.0))
    )
    return Box3D(
        draw(st.sampled_from(["car", "bus"])),
        Vec3(draw(COORD), draw(COORD), draw(COORD)),
        (draw(POSITIVE), draw(POSITIVE), draw(POSITIVE)),
        rotation,
        (draw(COORD), draw(COORD)),
        draw(st.sampled_from([0.0, -0.0, 5e-324, 1.0]) | st.floats(0.0, 1.0)),
    )


@st.composite
def extreme_streams(draw):
    streams = {}
    for scene in draw(st.lists(st.sampled_from(["s0", "s1"]), min_size=1, max_size=2, unique=True)):
        records, boxes = [], []
        for k in range(draw(st.integers(1, 4))):
            source = k * 100_000
            # a record that repeats the previous one's boxes gets them associated
            if not (boxes and draw(st.booleans())):
                boxes = draw(st.lists(extreme_boxes(), max_size=3))
            records.append(StreamRecord(source + 60_000, det_frame(scene, source, boxes)))
        streams[scene] = PredictionStream(records)
    return streams


class TestSvFileRoundtrip:
    @given(extreme_streams())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_refined_streams_read_back_bit_identical(self, tmp_path, streams):
        try:
            refined = {scene: refine_stream(s) for scene, s in streams.items()}
        except ValidationError:
            reject()  # the track filter left the float range
        event("refined" if repr(refined) != repr(streams) else "unchanged")
        path = tmp_path / "run.sv.jsonl"
        write_stream(path, refined.values(), boxes="refined")
        # repr tells -0.0 from 0.0, which == does not
        loaded = list(iter_stream(path, boxes="refined"))
        assert repr(loaded) == repr(list(refined.items()))
        # the raw boxes are not in the file: read as a raw stream, it is rejected
        with pytest.raises(ValidationError, match="missing field 'boxes'"):
            list(iter_stream(path))

    def test_each_line_is_the_record_plus_its_refined_boxes(self, tmp_path):
        times = regular_timestamps(0, 1_000_000, 12.0)
        stream = simulate_stream(times, outputs_for(times), CONSTANT_500, SimConfig())
        raw_path, sv_path = tmp_path / "raw.jsonl", tmp_path / "sv.jsonl"
        write_stream(raw_path, [stream])
        write_stream(sv_path, [refine_stream(stream)], boxes="refined")
        raw_lines, sv_lines = raw_path.read_text().splitlines(), sv_path.read_text().splitlines()
        assert len(sv_lines) == len(raw_lines) == len(stream)
        for raw, sv in zip(raw_lines, sv_lines):
            raw, sv = json.loads(raw), json.loads(sv)
            assert list(sv) == ["scene_id", "completion_us", "source_us", "refined"]
            assert len(sv.pop("refined")) == len(raw.pop("boxes"))
            assert sv == raw
