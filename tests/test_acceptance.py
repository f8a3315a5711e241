"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line. Run with
`pytest tests/test_acceptance.py -v -s` to see the lines as they complete.
"""

import json
import math

import numpy as np

from conftest import make_box
from oracles import brute_ap, coaxial_slerp, constant_runtime_schedule, mc_bev_iou, theta_match
from streameval.baseline import cv_pipeline, sv_pipeline
from streameval.cli import run
from streameval.data import (
    FrameAnnotations,
    FrameDetections,
    PredictionStream,
    RuntimeProfile,
    StreamRecord,
    TemporalDatabase,
    iter_scene_annotations,
    regular_timestamps,
    write_scene_annotations,
)
from streameval.geom import BevRect, Quaternion, bev_iou, slerp, wrap_angle
from streameval.interp import InterpolationConfig, extend_annotations
from streameval.metrics import compute_nds_s, evaluate_streaming, match_recent
from streameval.stream_sim import SimConfig, simulate_stream
from streameval.synth import DetectorNoise, ObjectSpec, SceneSpec, gen_scene, oracle_detector


def check(criterion, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


def constant_profile(ms):
    return RuntimeProfile(f"c{ms:g}", distribution="constant", params={"ms": float(ms)})


def warm(frames, min_t_us):
    return [f for f in frames if f.timestamp_us >= min_t_us]


def test_criterion_1_nds_regression():
    """Composite-score regression against three published operating points."""
    rows = [
        ((0.323, 0.654, 0.272, 0.414, 0.440, 0.198), 0.464),
        ((0.208, 0.828, 0.269, 0.512, 1.315, 0.175), 0.326),
        ((0.310, 0.760, 0.276, 0.385, 0.397, 0.216), 0.452),
    ]
    worst = max(abs(compute_nds_s(*inputs) - want) for inputs, want in rows)
    check("criterion 1: NDS-S regression (3 published rows, +/-0.0005)", worst <= 5e-4,
          f"max deviation {worst:.2e}")


def test_criterion_2_theta_matching_properties():
    """10^4 random (stream, t_eval) pairs: strict precedence, monotone index,
    boundary exclusion."""
    rng = np.random.default_rng(2024)
    from conftest import det_frame

    failures = 0
    n_pairs = 0
    for _ in range(100):
        n = int(rng.integers(1, 60))
        completions = np.sort(rng.choice(5_000_000, size=n, replace=False)).tolist()
        stream = PredictionStream(
            [StreamRecord(c, det_frame("s0", max(0, c - 1000), []))
             for c in completions]
        )
        evals = np.sort(rng.integers(0, 5_100_000, size=100)).tolist()
        last_idx = -1
        for t in evals:
            n_pairs += 1
            m = match_recent(stream, int(t))
            if m.matched_record_index is None:
                ok = all(c >= t for c in completions)
            else:
                c = completions[m.matched_record_index]
                ok = (
                    c < t
                    and m.staleness_us == t - c
                    and m.matched_record_index >= last_idx
                    and m.matched_record_index == theta_match(completions, int(t))
                )
                last_idx = m.matched_record_index
            failures += not ok
        # boundary exclusion at exact completion times
        for c in completions[:5]:
            m = match_recent(stream, int(c))
            if m.matched_record_index is not None and completions[m.matched_record_index] >= c:
                failures += 1
    check("criterion 2: theta-matching property suite (10^4 pairs)", failures == 0,
          f"{n_pairs} pairs, {failures} violations")


def test_criterion_3_interpolation_fidelity():
    """100 random constant-velocity / constant-yaw-rate scenes: densified
    2 Hz keyframes reproduce dense truth within 1e-9 m and 1e-9 rad."""
    rng = np.random.default_rng(33)
    cfg = InterpolationConfig()
    worst_pos = worst_yaw = 0.0
    for s in range(100):
        objects = tuple(
            ObjectSpec(
                "car",
                (float(rng.uniform(-40, 40)), float(rng.uniform(-40, 40)), 0.0),
                yaw=float(rng.uniform(-math.pi, math.pi)),
                velocity=(float(rng.uniform(-8, 8)), float(rng.uniform(-8, 8))),
                yaw_rate=float(rng.uniform(-2.5, 2.5)),
            )
            for _ in range(3)
        )
        spec = SceneSpec(duration_s=2.0, objects=objects, scene_id=f"fid-{s}")
        dense = gen_scene(spec, keyframe_every=6)
        got = extend_annotations([f for f in dense if f.is_keyframe], None, cfg)
        truth = {f.timestamp_us: f for f in dense}
        assert [f.timestamp_us for f in got] == sorted(truth)
        for f in got:
            want = truth[f.timestamp_us]
            by_id = {b.instance_id: b for b in f.boxes}
            for b in want.boxes:
                g = by_id[b.instance_id]
                worst_pos = max(
                    worst_pos,
                    abs(g.center.x - b.center.x),
                    abs(g.center.y - b.center.y),
                    abs(g.center.z - b.center.z),
                )
                worst_yaw = max(worst_yaw, abs(wrap_angle(g.yaw - b.yaw)))
    check("criterion 3: interpolation fidelity (100 scenes, 1e-9)",
          worst_pos <= 1e-9 and worst_yaw <= 1e-9,
          f"max center err {worst_pos:.2e} m, max yaw err {worst_yaw:.2e} rad")


def test_criterion_4_auto_clean_behavior():
    """An object visible only in the later keyframe is recovered from the
    temporal database at database-accurate positions, and absent without it."""
    cfg = InterpolationConfig()
    kf0 = FrameAnnotations("s0", 0, True, [make_box(x=0.0, instance_id="seen")])
    kf1 = FrameAnnotations(
        "s0", 500_000, True,
        [make_box(x=4.0, instance_id="seen"), make_box(x=105.0, y=50.0, instance_id="late")],
    )
    db_times = regular_timestamps(0, 500_000, 20.0)
    db = TemporalDatabase(
        [FrameDetections("s0", t, [make_box(x=100.0 + 10.0 * t / 1e6, y=50.0, score=0.9)])
         for t in db_times]
    )

    with_db = extend_annotations([kf0, kf1], db, cfg)
    inter = [f for f in with_db if not f.is_keyframe]
    ok = len(inter) == 5
    for f in inter:
        appended = [b for b in f.boxes if b.instance_id is None]
        ok = ok and len(appended) == 1
        nearest = min(db_times, key=lambda t: (abs(t - f.timestamp_us), t))
        expected_x = 100.0 + 10.0 * nearest / 1e6
        ok = ok and appended[0].center.x == expected_x and appended[0].center.y == 50.0

    without_db = extend_annotations([kf0, kf1], None, cfg)
    for f in without_db:
        if not f.is_keyframe:
            ok = ok and [b.instance_id for b in f.boxes] == ["seen"]
    check("criterion 4: auto-clean append/absence behavior", ok)


def _oracle_map(frames, eval_frames, outputs, runtime_us, thresholds=(0.5, 1.0, 2.0, 4.0)):
    """Expected mAP from first principles: hand schedule, linear-scan
    matching, loop-based AP."""
    times = [f.timestamp_us for f in frames]
    schedule = constant_runtime_schedule(times, runtime_us)
    completions = [c for c, _ in schedule]
    truth_by_time = {f.timestamp_us: f for f in frames}
    classes = sorted({b.category for f in frames for b in f.boxes})
    aps = []
    for cls in classes:
        npos = sum(
            1 for f in eval_frames for b in f.boxes if b.category == cls
        )
        for thr in thresholds:
            events = []
            for f in eval_frames:
                idx = theta_match(completions, f.timestamp_us)
                if idx is None:
                    continue
                source = schedule[idx][1]
                preds = [b for b in outputs[source].boxes if b.category == cls]
                gts = [b for b in f.boxes if b.category == cls]
                for p in preds:
                    dists = [
                        math.hypot(g.center.x - p.center.x, g.center.y - p.center.y)
                        for g in gts
                    ]
                    events.append((p.score, bool(dists) and min(dists) <= thr))
            aps.append(brute_ap(events, npos) if events else 0.0)
    return sum(aps) / len(aps)


def test_criterion_5_streaming_degradation():
    """mAP-S strictly decreases over 40/250/1000 ms constant runtimes on a
    moving scene; a static scene holds 1.0 at every latency; values agree
    with the brute-force PR oracle to 1e-9."""
    moving = SceneSpec(
        duration_s=4.0,
        objects=(
            ObjectSpec("car", (0.0, 0.0, 0.0), velocity=(4.0, 0.0)),
            ObjectSpec("truck", (0.0, 40.0, 0.0), size=(2.5, 8.0, 3.0), velocity=(2.0, 0.0)),
        ),
        scene_id="deg-moving",
    )
    static = SceneSpec(
        duration_s=4.0,
        objects=(
            ObjectSpec("car", (5.0, 0.0, 0.0)),
            ObjectSpec("pedestrian", (-5.0, 8.0, 0.0), size=(0.7, 0.7, 1.8)),
        ),
        scene_id="deg-static",
    )
    runtimes_ms = (40.0, 250.0, 1000.0)
    warm_from = 1_100_000  # past the slowest first completion

    moving_maps = []
    worst_dev = 0.0
    for spec in (moving, static):
        frames = gen_scene(spec)
        outputs = oracle_detector(frames)
        eval_frames = warm(frames, warm_from)
        for ms in runtimes_ms:
            stream = simulate_stream(
                [f.timestamp_us for f in frames], outputs, constant_profile(ms), SimConfig()
            )
            report = evaluate_streaming(eval_frames, stream)
            expected = _oracle_map(frames, eval_frames, outputs, round(ms * 1000))
            worst_dev = max(worst_dev, abs(report.map_s - expected))
            if spec is moving:
                moving_maps.append(report.map_s)
            else:
                worst_dev = max(worst_dev, abs(report.map_s - 1.0))

    strictly_decreasing = all(a > b for a, b in zip(moving_maps, moving_maps[1:]))
    check(
        "criterion 5: streaming degradation (40/250/1000 ms)",
        strictly_decreasing and worst_dev <= 1e-9,
        f"moving mAP-S {['%.4f' % m for m in moving_maps]}, max oracle dev {worst_dev:.2e}",
    )


def test_criterion_6_baseline_gain_direction():
    """With a 250 ms profile and velocity noise 0.5 m/s, the velocity-based
    updating beats the raw stream on >= 95 of 100 seeds, and the Kalman
    refinement beats pure constant-velocity updating on mean center error."""
    spec = SceneSpec(
        duration_s=4.0,
        objects=(
            ObjectSpec("car", (0.0, 0.0, 0.0), velocity=(5.0, 0.0)),
            ObjectSpec("truck", (0.0, 40.0, 0.0), size=(2.5, 8.0, 3.0), velocity=(3.0, 0.0)),
        ),
        scene_id="gain",
    )
    frames = gen_scene(spec)
    times = [f.timestamp_us for f in frames]
    eval_frames = warm(frames, 600_000)
    eval_ts = [f.timestamp_us for f in eval_frames]
    truth = {
        f.timestamp_us: {b.category: b.center for b in f.boxes} for f in eval_frames
    }
    profile = constant_profile(250.0)

    sv_wins = 0
    kf_err_sum = cv_err_sum = 0.0
    for seed in range(100):
        outputs = oracle_detector(frames, DetectorNoise(vel_sigma=0.5), seed=seed)
        stream = simulate_stream(times, outputs, profile, SimConfig(seed=seed))
        raw = evaluate_streaming(eval_frames, stream)
        sv_fn = sv_pipeline(stream, eval_ts)
        sv = evaluate_streaming(eval_frames, stream, predictions_fn=sv_fn)
        if sv.map_s > raw.map_s:
            sv_wins += 1

        cv_fn = cv_pipeline(stream)
        for t in eval_ts:
            for fn, acc in ((sv_fn, "kf"), (cv_fn, "cv")):
                for b in fn(t).boxes:
                    want = truth[t][b.category]
                    err = math.hypot(b.center.x - want.x, b.center.y - want.y)
                    if acc == "kf":
                        kf_err_sum += err
                    else:
                        cv_err_sum += err

    check(
        "criterion 6: baseline gain direction (100 seeds)",
        sv_wins >= 95 and kf_err_sum < cv_err_sum,
        f"sv wins {sv_wins}/100, pooled center err KF {kf_err_sum:.1f} < CV {cv_err_sum:.1f}",
    )


def test_criterion_7_contention_monotonicity():
    """mAP-S is non-increasing over contention factors 1/2/4/8, fixed seed."""
    spec = SceneSpec(
        duration_s=6.0,
        objects=(
            ObjectSpec("car", (0.0, 0.0, 0.0), velocity=(4.0, 0.0)),
            ObjectSpec("truck", (0.0, 40.0, 0.0), size=(2.5, 8.0, 3.0), velocity=(2.0, 0.0)),
            ObjectSpec("pedestrian", (0.0, -40.0, 0.0), size=(0.7, 0.7, 1.8), velocity=(0.5, 0.0)),
        ),
        scene_id="contention",
    )
    frames = gen_scene(spec)
    outputs = oracle_detector(frames)
    eval_frames = warm(frames, 1_000_000)
    maps = []
    for factor in (1.0, 2.0, 4.0, 8.0):
        stream = simulate_stream(
            [f.timestamp_us for f in frames], outputs, constant_profile(100.0),
            SimConfig(seed=11, contention_factor=factor),
        )
        maps.append(evaluate_streaming(eval_frames, stream).map_s)
    ok = all(a >= b for a, b in zip(maps, maps[1:]))
    check("criterion 7: contention monotonicity (factors 1/2/4/8)", ok,
          " >= ".join(f"{m:.4f}" for m in maps))


def test_criterion_8_geometry_oracles():
    """BEV IoU within 2e-3 of a 10^6-sample Monte-Carlo oracle on 200 random
    rotated-rectangle pairs; slerp within 1e-9 of the coaxial axis-angle
    oracle on 10^4 cases."""
    rng = np.random.default_rng(81)
    worst_iou = 0.0
    for i in range(200):
        a = BevRect(
            0.0, 0.0,
            float(rng.uniform(1.0, 4.0)), float(rng.uniform(1.0, 4.0)),
            float(rng.uniform(-math.pi, math.pi)),
        )
        b = BevRect(
            float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-2.0, 2.0)),
            float(rng.uniform(1.0, 4.0)), float(rng.uniform(1.0, 4.0)),
            float(rng.uniform(-math.pi, math.pi)),
        )
        got = bev_iou(a, b)
        want = mc_bev_iou(a, b, n=1_000_000, seed=1000 + i)
        worst_iou = max(worst_iou, abs(got - want))

    worst_slerp = 0.0
    for _ in range(10_000):
        ys, ye = rng.uniform(-math.pi, math.pi, 2)
        u = float(rng.uniform(0.0, 1.0))
        got = slerp(Quaternion.rot_z(ys), Quaternion.rot_z(ye), u)
        want = coaxial_slerp(float(ys), float(ye), u)
        direct = max(abs(got.w - want.w), abs(got.x - want.x), abs(got.y - want.y), abs(got.z - want.z))
        flipped = max(abs(got.w + want.w), abs(got.x + want.x), abs(got.y + want.y), abs(got.z + want.z))
        worst_slerp = max(worst_slerp, min(direct, flipped))

    check(
        "criterion 8: geometry oracles (Monte-Carlo IoU, coaxial slerp)",
        worst_iou <= 2e-3 and worst_slerp <= 1e-9,
        f"max IoU dev {worst_iou:.2e}, max slerp dev {worst_slerp:.2e}",
    )


def test_criterion_9_determinism(tmp_path):
    """Every subcommand, rerun with identical inputs and seed, produces
    byte-identical outputs (manifests carry wall-clock and are exempt)."""
    spec = {
        "scene_id": "det0",
        "duration_s": 2.0,
        "rate_hz": 12,
        "keyframe_every": 6,
        "objects": [
            {"category": "car", "center": [0.0, 0.0, 0.0], "velocity": [4.0, 0.0]},
            {"category": "truck", "center": [0.0, 30.0, 0.0], "size": [2.5, 8.0, 3.0], "velocity": [2.0, 0.0]},
        ],
        "noise": {"pos_sigma": 0.05, "vel_sigma": 0.3},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    profile_path = tmp_path / "profile.json"
    profile_path.write_text(json.dumps({"name": "e", "samples_ms": [120.0, 250.0, 310.0]}))

    def one_run(tag):
        d = tmp_path / tag
        d.mkdir()
        gt, det = d / "gt.jsonl", d / "det.jsonl"
        kf, dense = d / "kf.jsonl", d / "dense.jsonl"
        stream, sv = d / "stream.jsonl", d / "sv.jsonl"
        report, table = d / "report.json", d / "table.csv"
        assert run(["--quiet", "--seed", "5", "synth", "--spec", str(spec_path),
                    "--out-gt", str(gt), "--out-det", str(det)]) == 0
        ((_, frames),) = iter_scene_annotations(gt)
        write_scene_annotations(kf, [f for f in frames if f.is_keyframe])
        assert run(["--quiet", "interpolate", "--gt", str(kf), "--out", str(dense)]) == 0
        assert run(["--quiet", "--seed", "5", "simulate", "--det", str(det), "--gt", str(gt),
                    "--profile", str(profile_path), "--out", str(stream)]) == 0
        assert run(["--quiet", "baseline-sv", "--stream", str(stream), "--gt", str(gt),
                    "--out", str(sv)]) == 0
        assert run(["--quiet", "evaluate", "--gt", str(gt), "--stream", str(stream),
                    "--offline", str(det), "--out", str(report)]) == 0
        assert run(["--quiet", "report", str(report), "--out", str(table)]) == 0
        return [gt, det, dense, stream, sv, report, table]

    first = one_run("run1")
    second = one_run("run2")
    mismatched = [a.name for a, b in zip(first, second) if a.read_bytes() != b.read_bytes()]
    check("criterion 9: determinism (byte-identical reruns, all subcommands)",
          not mismatched, f"mismatched: {mismatched or 'none'}")
