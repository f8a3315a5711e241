import math
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import boxes, make_box
from oracles import linear_query_temporal_db, scalar_auto_clean
from streameval.data import (
    FrameAnnotations,
    FrameDetections,
    TemporalDatabase,
    ValidationError,
    regular_timestamps,
)
from streameval.geom import Quaternion, Vec3, bev_iou
from streameval.interp import (
    InterpolationConfig,
    _frames_at,
    _ticks,
    auto_clean,
    extend_annotations,
    interpolate_instance,
    query_temporal_db,
)
from streameval.synth import ObjectSpec, SceneSpec, gen_scene

CFG = InterpolationConfig()
# scene offsets up to 1e9 m, where the clipper's rounding swamps a car
OFFSETS = st.one_of(st.sampled_from([0.0, 1e4, -1e6, 1e9]), st.floats(-1e9, 1e9))


def shifted(box, x0, y0):
    return box.moved_to(box.center.x + x0, box.center.y + y0)


def near_copy(box, dx, dy, dyaw):
    """`box` moved by (dx, dy) and turned by `dyaw`, as a scored database box."""
    return box.replace(
        center=Vec3(box.center.x + dx, box.center.y + dy, box.center.z),
        rotation=Quaternion.rot_z(box.yaw + dyaw),
        score=0.5,
    )


class TestInterpolateInstance:
    def test_midpoint(self):
        a = make_box(x=0.0, instance_id="i")
        b = make_box(x=4.0, instance_id="i")
        got = interpolate_instance(a, b, 0, 1_000_000, 500_000)
        assert got.center.x == pytest.approx(2.0, abs=1e-12)
        assert got.velocity == pytest.approx((4.0, 0.0))
        assert got.instance_id == "i"

    def test_static_object_identity(self):
        a = make_box(x=3.0, y=-2.0, yaw=0.8, instance_id="i")
        for t in (100, 250_000, 499_999):
            got = interpolate_instance(a, a, 0, 500_000, t)
            assert got.center == a.center
            assert got.rotation == a.rotation
            assert got.velocity == (0.0, 0.0)

    def test_rotation_quarter(self):
        # 0 -> pi/2 about z over 0.5 s, sampled at 0.25 s
        a = make_box(yaw=0.0, instance_id="i")
        b = make_box(yaw=math.pi / 2, instance_id="i")
        got = interpolate_instance(a, b, 0, 500_000, 250_000)
        assert got.yaw == pytest.approx(math.pi / 4, abs=1e-12)

    def test_instance_mismatch(self):
        with pytest.raises(ValidationError, match="instance mismatch"):
            interpolate_instance(
                make_box(instance_id="a"), make_box(instance_id="b"), 0, 10, 5
            )

    def test_size_and_attribute_from_earlier(self):
        a = make_box(w=2.0, l=4.0, instance_id="i", attribute="vehicle.moving")
        b = make_box(x=1.0, w=2.2, l=4.4, instance_id="i", attribute="vehicle.parked")
        got = interpolate_instance(a, b, 0, 1_000_000, 400_000)
        assert got.size == a.size
        assert got.attribute == "vehicle.moving"


class TestQueryTemporalDb:
    DB = TemporalDatabase(
        [
            FrameDetections("s0", 0, [make_box(x=0.0, score=0.9)]),
            FrameDetections("s0", 50_000, [make_box(x=1.0, score=0.9)]),
            FrameDetections("s0", 100_000, [make_box(x=2.0, score=0.9)]),
        ]
    )

    def test_nearest(self):
        assert query_temporal_db(self.DB, 49_000)[0].center.x == 1.0

    def test_tie_breaks_earlier(self):
        assert query_temporal_db(self.DB, 25_000)[0].center.x == 0.0

    def test_single_entry(self):
        db = TemporalDatabase([FrameDetections("s0", 10, [make_box(x=7.0)])])
        assert query_temporal_db(db, 999_999)[0].center.x == 7.0

    def test_score_filter(self):
        db = TemporalDatabase(
            [FrameDetections("s0", 0, [make_box(score=0.2), make_box(x=9.0, score=0.8)])]
        )
        got = query_temporal_db(db, 0, min_score=0.3)
        assert [b.center.x for b in got] == [9.0]

    def test_empty_db(self):
        with pytest.raises(ValidationError, match="empty temporal database"):
            query_temporal_db(TemporalDatabase([]), 0)

    @given(
        st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=12, unique=True),
        st.data(),
        st.sampled_from([0.0, 0.3, 0.75, 1.0]),
    )
    @settings(max_examples=300)
    def test_matches_linear_scan_oracle(self, timestamps, data, min_score):
        timestamps.sort()
        db = TemporalDatabase(
            [FrameDetections("s0", t, [make_box(x=float(k), score=0.5),
                                       make_box(x=float(k), score=0.9)])
             for k, t in enumerate(timestamps)]
        )
        # ties sit halfway between neighbours; the ends and far outside too
        near = [t + d for t in timestamps for d in (-1, 0, 1)]
        near += [(a + b) // 2 for a, b in zip(timestamps, timestamps[1:])]
        near += [timestamps[0] - 10**7, timestamps[-1] + 10**7]
        t = data.draw(st.sampled_from(near) | st.integers(-2 * 10**6, 2 * 10**6))
        got = query_temporal_db(db, t, min_score)
        want = linear_query_temporal_db(db, t, min_score)
        assert len(got) == len(want) and all(g is w for g, w in zip(got, want))


class TestAutoClean:
    def test_identical_box_dropped(self):
        interp = [make_box(instance_id="i")]
        queried = [make_box(score=0.9)]
        assert auto_clean(interp, queried, CFG) == interp

    def test_disjoint_box_appended(self):
        interp = [make_box(instance_id="i")]
        new = make_box(x=50.0, score=0.9)
        assert auto_clean(interp, [new], CFG) == interp + [new]

    def test_empty_interpolated_keeps_all(self):
        queried = [make_box(score=0.9), make_box(x=50.0, score=0.8)]
        assert auto_clean([], queried, CFG) == queried


class TestAutoCleanAgainstScalarOracle:
    @pytest.mark.parametrize("threshold", [0.0, 0.1, 1.0])
    @given(
        interpolated=st.lists(boxes(), max_size=6),
        queried=st.lists(boxes(score=st.floats(0.0, 1.0)), max_size=6),
        twins=st.lists(st.integers(0, 5), max_size=3),
    )
    @settings(max_examples=60)
    def test_equals_oracle(self, threshold, interpolated, queried, twins):
        # exact copies of interpolated boxes reach IoU 1.0
        queried = queried + [interpolated[i] for i in twins if i < len(interpolated)]
        cfg = InterpolationConfig(clean_iou_threshold=threshold)
        assert auto_clean(interpolated, queried, cfg) == scalar_auto_clean(
            interpolated, queried, threshold
        )

    @pytest.mark.parametrize("threshold", [0.0, 0.1, 1.0])
    @given(
        interpolated=st.lists(boxes(), max_size=6),
        queried=st.lists(boxes(score=st.floats(0.0, 1.0)), max_size=6),
        twins=st.lists(st.tuples(st.integers(0, 5), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
                                 st.floats(-0.3, 0.3)), max_size=4),
        x0=OFFSETS,
        y0=OFFSETS,
    )
    @settings(max_examples=60)
    def test_equals_oracle_far_from_origin(self, threshold, interpolated, queried, twins, x0, y0):
        # near-copies of interpolated boxes overlap them at a high IoU; the
        # whole scene sits up to 1e9 m out, where `bev_iou` rounds coarsely
        queried = queried + [near_copy(interpolated[i], dx, dy, dyaw)
                             for i, dx, dy, dyaw in twins if i < len(interpolated)]
        interpolated = [shifted(b, x0, y0) for b in interpolated]
        queried = [shifted(b, x0, y0) for b in queried]
        cfg = InterpolationConfig(clean_iou_threshold=threshold)
        assert auto_clean(interpolated, queried, cfg) == scalar_auto_clean(
            interpolated, queried, threshold
        )

    @given(
        box=boxes(),
        dx=st.floats(-4.0, 4.0),
        dy=st.floats(-4.0, 4.0),
        dyaw=st.floats(-0.5, 0.5),
        delta=st.floats(-1e-9, 1e-9),
        x0=OFFSETS,
        y0=OFFSETS,
    )
    @settings(max_examples=200)
    def test_threshold_within_1e9_of_the_pair_iou(self, box, dx, dy, dyaw, delta, x0, y0):
        interpolated = [shifted(box, x0, y0)]
        queried = [shifted(near_copy(box, dx, dy, dyaw), x0, y0)]
        iou = bev_iou(queried[0].bev_rect(), interpolated[0].bev_rect())
        threshold = min(1.0, max(0.0, iou + delta))
        cfg = InterpolationConfig(clean_iou_threshold=threshold)
        assert auto_clean(interpolated, queried, cfg) == scalar_auto_clean(
            interpolated, queried, threshold
        )

    @pytest.mark.parametrize("threshold", [0.0, 0.1, 1.0])
    def test_empty_inputs(self, threshold):
        cfg = InterpolationConfig(clean_iou_threshold=threshold)
        box = make_box(score=0.9)
        for interpolated, queried in (([], []), ([box], []), ([], [box])):
            assert auto_clean(interpolated, queried, cfg) == scalar_auto_clean(
                interpolated, queried, threshold
            )

    def test_threshold_zero_appends_nothing(self):
        cfg = InterpolationConfig(clean_iou_threshold=0.0)
        far = make_box(x=50.0, score=0.9)
        assert auto_clean([make_box(instance_id="i")], [far], cfg) == [make_box(instance_id="i")]
        assert auto_clean([], [far], cfg) == []


class TestExtendAnnotations:
    def keyframes(self, positions, dt_us=500_000, category="car"):
        frames = []
        for i, xs in enumerate(positions):
            boxes = [
                make_box(x=x, instance_id=f"obj-{k}", category=category)
                for k, x in enumerate(xs)
            ]
            frames.append(FrameAnnotations("s0", i * dt_us, True, boxes))
        return frames

    def test_cadence_five_intermediates(self):
        dense = extend_annotations(self.keyframes([[0.0], [4.0]]), None, CFG)
        inter = [f for f in dense if not f.is_keyframe]
        assert len(inter) == 5
        assert [f.timestamp_us for f in dense] == regular_timestamps(0, 500_000, 12.0)

    def test_covisibility_skips_one_sided(self):
        kf = self.keyframes([[0.0], [4.0]])
        kf[1].boxes.append(make_box(x=100.0, instance_id="late"))
        dense = extend_annotations(kf, None, CFG)
        for f in dense:
            if not f.is_keyframe:
                assert [b.instance_id for b in f.boxes] == ["obj-0"]

    def test_db_append_follows_scripted_trajectory(self):
        # the object missed by interpolation moves at exactly 10 m/s in the
        # database; appended boxes must reproduce the nearest scripted pose
        kf = self.keyframes([[0.0], [4.0]])
        kf[1].boxes.append(make_box(x=105.0, y=50.0, instance_id="late"))
        db_times = regular_timestamps(0, 500_000, 20.0)
        db = TemporalDatabase(
            [FrameDetections("s0", t, [make_box(x=100.0 + 10.0 * t / 1e6, y=50.0, score=0.9)])
             for t in db_times]
        )
        dense = extend_annotations(kf, db, CFG)
        inter = [f for f in dense if not f.is_keyframe]
        assert len(inter) == 5
        for f in inter:
            appended = [b for b in f.boxes if b.instance_id is None]
            assert len(appended) == 1
            nearest = min(db_times, key=lambda t: (abs(t - f.timestamp_us), t))
            assert appended[0].center.x == pytest.approx(100.0 + 10.0 * nearest / 1e6, abs=1e-12)

    def test_db_boxes_below_score_cut_ignored(self):
        kf = self.keyframes([[0.0], [4.0]])
        db = TemporalDatabase([FrameDetections("s0", 250_000, [make_box(x=50.0, score=0.1)])])
        dense = extend_annotations(kf, db, CFG)
        for f in dense:
            assert all(b.instance_id == "obj-0" for b in f.boxes)

    def test_keyframes_pass_through(self):
        kf = self.keyframes([[0.0], [4.0], [8.0]])
        dense = extend_annotations(kf, None, CFG)
        assert [f for f in dense if f.is_keyframe] == kf

    def test_requires_two_keyframes(self):
        with pytest.raises(ValidationError):
            extend_annotations(self.keyframes([[0.0]]), None, CFG)

    def test_timestamps_superset_and_increasing(self):
        kf = self.keyframes([[0.0], [4.0], [8.0]], dt_us=437_000)  # off-grid keyframes
        dense = extend_annotations(kf, None, CFG)
        times = [f.timestamp_us for f in dense]
        assert times == sorted(set(times))
        assert {f.timestamp_us for f in kf} <= set(times)

    def test_idempotent_on_dense_keyframes(self):
        spec = SceneSpec(
            duration_s=1.0,
            objects=(ObjectSpec("car", (0.0, 0.0, 0.0), velocity=(3.0, 1.0)),),
        )
        dense = gen_scene(spec, keyframe_every=1)
        again = extend_annotations(dense, None, CFG)
        assert again == dense

    def test_matches_per_instance_interpolation(self):
        # with an empty database and full co-visibility the pipeline is
        # exactly per-instance interpolation
        kf = self.keyframes([[0.0, 10.0], [4.0, 12.0]])
        dense = extend_annotations(kf, None, CFG)
        for f in dense:
            if f.is_keyframe:
                continue
            by_id = {b.instance_id: b for b in f.boxes}
            for k, (x0, x1) in enumerate([(0.0, 4.0), (10.0, 12.0)]):
                expected = interpolate_instance(
                    kf[0].boxes[k], kf[1].boxes[k], 0, 500_000, f.timestamp_us
                )
                assert by_id[f"obj-{k}"] == expected

    def test_continuity_constant_velocity(self):
        spec = SceneSpec(
            duration_s=2.0,
            objects=(ObjectSpec("car", (0.0, 0.0, 0.0), velocity=(4.0, -1.0)),),
        )
        frames = gen_scene(spec, keyframe_every=6)
        dense = extend_annotations([f for f in frames if f.is_keyframe], None, CFG)
        speed = math.hypot(4.0, -1.0)
        prev = None
        for f in dense:
            if prev is not None:
                dt = (f.timestamp_us - prev.timestamp_us) / 1e6
                dist = math.hypot(
                    f.boxes[0].center.x - prev.boxes[0].center.x,
                    f.boxes[0].center.y - prev.boxes[0].center.y,
                )
                assert dist <= speed * dt + 1e-6
            prev = f


@st.composite
def cut_scenes(draw):
    """Keyframes at off-grid times whose instances come and go, no database
    or a sparse one with entries anywhere about the scene, and a rate."""
    start = draw(st.integers(0, 10**6))
    gaps = draw(st.lists(st.integers(1, 700_000), min_size=1, max_size=5))
    keyframes = []
    for t in accumulate([start, *gaps]):
        ids = draw(st.lists(st.sampled_from("abcd"), unique=True, max_size=4))
        placed = [make_box(x=draw(st.floats(-10.0, 10.0)), y=draw(st.floats(-10.0, 10.0)),
                           yaw=draw(st.floats(-math.pi, math.pi)), instance_id=i) for i in ids]
        # a frame not marked a keyframe passes through marked as one
        keyframes.append(FrameAnnotations("s0", t, draw(st.booleans()), placed))
    db = None
    if draw(st.booleans()):
        end = keyframes[-1].timestamp_us
        times = draw(st.lists(st.integers(start - 500_000, end + 500_000),
                              min_size=1, max_size=3, unique=True))
        db = TemporalDatabase([
            FrameDetections("s0", t, draw(st.lists(boxes(score=st.floats(0.0, 1.0)), max_size=3)))
            for t in sorted(times)
        ])
    rate = draw(st.sampled_from([12.0, 10.0, 7.3, 1000.0]))
    return keyframes, db, InterpolationConfig(target_rate_hz=rate)


class TestTickSlices:
    """`interpolate` splits a scene's ticks across processes: the frames of
    consecutive tick slices must join into the whole scene's frames."""

    @given(scene=cut_scenes(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_slices_join_into_the_whole_scene(self, scene, data):
        keyframes, db, cfg = scene
        ticks = _ticks(keyframes, cfg)
        cuts = sorted(data.draw(st.lists(st.integers(0, len(ticks)), max_size=6)))
        bounds = [0, *cuts, len(ticks)]
        joined = [frame for a, b in zip(bounds, bounds[1:])
                  for frame in _frames_at(keyframes, db, cfg, ticks[a:b])]
        assert joined == extend_annotations(keyframes, db, cfg)

    def test_a_slice_answers_from_a_database_entry_beyond_its_end(self):
        kf = [FrameAnnotations("s0", t, True, [make_box(x=x, instance_id="a")])
              for t, x in ((0, 0.0), (1_000_000, 4.0))]
        db = TemporalDatabase([FrameDetections("s0", 900_000, [make_box(x=50.0, score=0.9)])])
        ticks = _ticks(kf, CFG)
        head = _frames_at(kf, db, CFG, ticks[:3])
        assert [f.timestamp_us for f in head] == [0, 83_333, 166_667]
        assert [len(f.boxes) for f in head] == [1, 2, 2]
        assert head + _frames_at(kf, db, CFG, ticks[3:]) == extend_annotations(kf, db, CFG)

    def test_a_slice_starting_between_keyframes_brackets_itself(self):
        kf = [FrameAnnotations("s0", t, True, [make_box(x=x, instance_id="a")])
              for t, x in ((0, 0.0), (437_000, 4.0), (900_000, 4.0))]
        ticks = _ticks(kf, CFG)
        i = next(i for i, t in enumerate(ticks) if 437_000 < t)
        (frame,) = _frames_at(kf, None, CFG, ticks[i:i + 1])
        assert frame.boxes == [interpolate_instance(kf[1].boxes[0], kf[2].boxes[0],
                                                    437_000, 900_000, ticks[i])]
