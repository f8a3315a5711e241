import csv
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from streameval import cli
from streameval.baseline import sv_pipeline
from streameval.cli import run
from streameval.data import (
    ValidationError,
    iter_detections,
    iter_scene_annotations,
    iter_stream,
    write_scene_annotations,
)
from streameval.metrics import evaluate_streaming, latest, pool_scenes

SPEC_STATIC = {
    "scene_id": "cli-static",
    "duration_s": 3.0,
    "rate_hz": 12,
    "keyframe_every": 6,
    "objects": [
        {"category": "car", "center": [5.0, 0.0, 0.0]},
        {"category": "pedestrian", "center": [-5.0, 8.0, 0.0], "size": [0.7, 0.7, 1.8]},
    ],
}

SPEC_MOVING = {
    "scene_id": "cli-moving",
    "duration_s": 3.0,
    "rate_hz": 12,
    "keyframe_every": 6,
    "objects": [
        {"category": "car", "center": [0.0, 0.0, 0.0], "velocity": [4.0, 0.0]},
        {"category": "truck", "center": [0.0, 30.0, 0.0], "size": [2.5, 8.0, 3.0], "velocity": [2.0, 0.0]},
    ],
}

PROFILE_250 = {"name": "c250", "distribution": "constant", "params": {"ms": 250.0}}


class Raw(str):
    """File text to write as it is: input that `json.dumps` cannot produce."""


def write_json(path, obj):
    path.write_text(obj if isinstance(obj, Raw) else json.dumps(obj))
    return str(path)


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def synth(workdir, spec=SPEC_MOVING, name="a"):
    spec_path = write_json(workdir / f"{name}.spec.json", spec)
    gt = workdir / f"{name}.gt.jsonl"
    det = workdir / f"{name}.det.jsonl"
    code = run(["--quiet", "synth", "--spec", spec_path, "--out-gt", str(gt), "--out-det", str(det)])
    assert code == 0
    return gt, det


def simulate(workdir, gt, det, name="a", seed=7, contention=None, profile=PROFILE_250):
    profile_path = write_json(workdir / f"{name}.profile.json", profile)
    stream = workdir / f"{name}.stream.jsonl"
    argv = [
        "--quiet", "--seed", str(seed), "simulate",
        "--det", str(det), "--gt", str(gt), "--profile", profile_path,
        "--out", str(stream),
    ]
    if contention is not None:
        argv += ["--contention", str(contention)]
    assert run(argv) == 0
    return stream


def evaluate(workdir, gt, stream, det=None, name="a", sv=None):
    report = workdir / f"{name}.report.json"
    argv = ["--quiet", "evaluate", "--gt", str(gt), "--stream", str(stream), "--out", str(report)]
    if det is not None:
        argv += ["--offline", str(det)]
    if sv is not None:
        argv += ["--sv", str(sv)]
    assert run(argv) == 0
    return json.loads(report.read_text())


def warm_gt_file(workdir, gt, min_t_us, name="warm"):
    frames = [f for _, block in iter_scene_annotations(gt) for f in block if f.timestamp_us >= min_t_us]
    out = workdir / f"{name}.gt.jsonl"
    write_scene_annotations(out, frames)
    return out


class TestPipeline:
    def test_static_perfect_detector_scores_one(self, workdir):
        gt, det = synth(workdir, SPEC_STATIC)
        stream = simulate(workdir, gt, det)
        warm = warm_gt_file(workdir, gt, 500_000)
        report = evaluate(workdir, warm, stream, det)
        assert report["map_s"] == 1.0
        assert report["nds_s"] == 1.0

    def test_interpolate_densifies_keyframes(self, workdir):
        gt, _ = synth(workdir, SPEC_MOVING)
        ((_, dense_frames),) = iter_scene_annotations(gt)
        keyframes = [f for f in dense_frames if f.is_keyframe]
        kf_path = workdir / "kf.gt.jsonl"
        write_scene_annotations(kf_path, keyframes)
        out = workdir / "dense.gt.jsonl"
        assert run(["--quiet", "interpolate", "--gt", str(kf_path), "--rate", "12", "--out", str(out)]) == 0
        ((_, got),) = iter_scene_annotations(out)
        assert [f.timestamp_us for f in got] == [f.timestamp_us for f in dense_frames]
        for a, b in zip(got, dense_frames):
            for ba, bb in zip(a.boxes, b.boxes):
                assert abs(ba.center.x - bb.center.x) < 1e-9

    def test_interpolate_idempotent_at_file_level(self, workdir):
        gt, _ = synth(workdir, SPEC_MOVING)
        ((_, frames),) = iter_scene_annotations(gt)
        kf_path = workdir / "kf.gt.jsonl"
        write_scene_annotations(kf_path, [f for f in frames if f.is_keyframe])
        once = workdir / "once.jsonl"
        twice = workdir / "twice.jsonl"
        assert run(["--quiet", "interpolate", "--gt", str(kf_path), "--out", str(once)]) == 0
        assert run(["--quiet", "interpolate", "--gt", str(once), "--out", str(twice)]) == 0
        assert once.read_bytes() == twice.read_bytes()

    def test_baseline_sv_improves_moving_scene(self, workdir):
        gt, det = synth(workdir, SPEC_MOVING)
        stream = simulate(workdir, gt, det)
        sv_out = workdir / "a.sv.jsonl"
        assert run(["--quiet", "baseline-sv", "--stream", str(stream), "--gt", str(gt), "--out", str(sv_out)]) == 0
        warm = warm_gt_file(workdir, gt, 600_000)
        raw = evaluate(workdir, warm, stream, det, name="raw")
        sv = evaluate(workdir, warm, stream, det, name="sv", sv=sv_out)
        assert sv["map_s"] >= raw["map_s"]
        assert sv["ate_s"] <= raw["ate_s"]

    def test_simulate_deterministic_bytes(self, workdir):
        gt, det = synth(workdir, SPEC_MOVING)
        profile = {"name": "emp", "samples_ms": [90.0, 180.0, 320.0]}
        s1 = simulate(workdir, gt, det, name="d1", seed=42, profile=profile)
        s2 = simulate(workdir, gt, det, name="d2", seed=42, profile=profile)
        assert s1.read_bytes() == s2.read_bytes()

    def test_manifest_written(self, workdir):
        gt, det = synth(workdir, SPEC_STATIC)
        stream = simulate(workdir, gt, det)
        manifest = json.loads(Path(str(stream) + ".manifest.json").read_text())
        assert manifest["seed"] == 7
        assert set(manifest["inputs"]) == {str(gt), str(det), str(workdir / "a.profile.json")}
        assert all(len(digest) == 64 for digest in manifest["inputs"].values())

    def test_evaluate_csv(self, workdir):
        gt, det = synth(workdir, SPEC_MOVING)
        stream = simulate(workdir, gt, det)
        report_path = workdir / "r.json"
        csv_path = workdir / "r.csv"
        assert run([
            "--quiet", "evaluate", "--gt", str(gt), "--stream", str(stream),
            "--offline", str(det), "--out", str(report_path), "--csv", str(csv_path),
        ]) == 0
        rows = list(csv.reader(csv_path.read_text().splitlines()))
        assert rows[0] == ["class", "threshold_m", "ap"]
        # every row, the blank one too, ends in the csv module's "\r\n"
        data = csv_path.read_bytes()
        assert data.count(b"\r\n") == len(rows) and data.count(b"\n") == len(rows)
        classes = {r[0] for r in rows[1:] if r and r[0] not in ("summary", "class", "")}
        assert classes == {"car", "truck"}


class TestMultiScene:
    def test_library_reads_and_scores_cli_output(self, workdir):
        gt_a, det_a = synth(workdir, SPEC_STATIC, name="a")
        gt_b, det_b = synth(workdir, SPEC_MOVING, name="b")
        gt = workdir / "both.gt.jsonl"
        det = workdir / "both.det.jsonl"
        gt.write_text(gt_a.read_text() + gt_b.read_text())
        det.write_text(det_a.read_text() + det_b.read_text())
        stream = simulate(workdir, gt, det, name="both")
        sv_out = workdir / "both.sv.jsonl"
        assert run(["--quiet", "baseline-sv", "--stream", str(stream), "--gt", str(gt),
                    "--out", str(sv_out)]) == 0
        raw = evaluate(workdir, gt, stream, det, name="raw")
        sv = evaluate(workdir, gt, stream, det, name="sv", sv=sv_out)
        assert raw["metadata"]["scenes"] == ["cli-moving", "cli-static"]

        gt_blocks = list(iter_scene_annotations(gt))
        streams = dict(iter_stream(stream))
        assert set(streams) == {"cli-moving", "cli-static"}
        refined = dict(iter_stream(sv_out, boxes="refined"))
        assert {sid: cli._record_times(s) for sid, s in refined.items()} == {
            sid: cli._record_times(s) for sid, s in streams.items()}
        lib_raw = pool_scenes(gt_blocks, [(sid, latest(s)) for sid, s in streams.items()],
                              offline=iter_detections(det)).report(raw["metadata"])
        assert json.loads(json.dumps(lib_raw.to_dict())) == raw
        fns = [(sid, sv_pipeline(streams[sid], [f.timestamp_us for f in frames]))
               for sid, frames in gt_blocks]
        lib_sv = pool_scenes(gt_blocks, fns, iter_detections(det)).report(sv["metadata"])
        assert json.loads(json.dumps(lib_sv.to_dict())) == sv

        with pytest.raises(ValidationError, match="spans scenes"):
            evaluate_streaming([f for _, block in gt_blocks for f in block], streams["cli-moving"])

    def test_offline_velocity_error_scene_aware(self, workdir):
        # both scenes share frame timestamps; velocity matching must pair
        # detections with their own scene's ground truth
        gt_a, det_a = synth(workdir, SPEC_STATIC, name="a")
        gt_b, det_b = synth(workdir, SPEC_MOVING, name="b")
        gt = workdir / "both.gt.jsonl"
        det = workdir / "both.det.jsonl"
        gt.write_text(gt_a.read_text() + gt_b.read_text())
        det.write_text(det_a.read_text() + det_b.read_text())
        stream = simulate(workdir, gt, det, name="ave")
        report = evaluate(workdir, gt, stream, det, name="ave")
        # perfect velocities in both scenes
        assert report["ave_offline"] == 0.0


class TestReport:
    def make_reports(self, workdir):
        gt, det = synth(workdir, SPEC_MOVING)
        warm = warm_gt_file(workdir, gt, 600_000)
        paths = []
        for factor in (1.0, 2.0):
            stream = simulate(workdir, gt, det, name=f"c{factor}", contention=factor)
            report = workdir / f"c{factor}.report.json"
            assert run([
                "--quiet", "evaluate", "--gt", str(warm), "--stream", str(stream),
                "--out", str(report),
            ]) == 0
            paths.append(report)
        return paths

    def test_table_and_pivot(self, workdir):
        paths = self.make_reports(workdir)
        out = workdir / "table.csv"
        assert run(["--quiet", "report", *map(str, paths), "--out", str(out)]) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["report", "contention", "metric", "value"]
        pivot = [r for r in rows[1:] if r[0] == "PIVOT"]
        assert {r[1] for r in pivot} == {"1.0", "2.0"}
        pivot_map = [float(r[3]) for r in pivot if r[2] == "map_s"]
        assert pivot_map[0] >= pivot_map[1]  # load up, score down

    def test_compare_deltas(self, workdir):
        paths = self.make_reports(workdir)
        out = workdir / "diff.csv"
        assert run(["--quiet", "report", "--compare", *map(str, paths), "--out", str(out)]) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        by_metric = {r[0]: r for r in rows[1:]}
        a, b, delta = map(float, by_metric["map_s"][1:])
        assert delta == pytest.approx(b - a, abs=1e-9)

    @pytest.mark.parametrize("flags", [[], ["--compare"]])
    def test_failure_after_the_header_leaves_out_as_it_was(
            self, workdir, flags, monkeypatch, capsys):
        paths = self.make_reports(workdir)
        out = workdir / "table.csv"
        out.write_bytes(b"an earlier table\r\n")
        before = sorted(workdir.iterdir())
        make_writer = csv.writer

        class HeaderOnly:
            def __init__(self, fh):
                self.writer, self.rows = make_writer(fh), 0

            def writerow(self, row):
                if self.rows:
                    raise OSError("disk full")
                self.rows += 1
                return self.writer.writerow(row)

        monkeypatch.setattr(csv, "writer", HeaderOnly)
        capsys.readouterr()
        assert run(["--quiet", "report", *flags, *map(str, paths), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "i/o error: disk full\n"
        assert out.read_bytes() == b"an earlier table\r\n"
        assert sorted(workdir.iterdir()) == before  # no *.tmp left behind

    def test_empty_report_list_rejected(self, workdir):
        out = workdir / "t.csv"
        assert run(["--quiet", "report", "--out", str(out)]) == 1

    def test_schema_mismatch_rejected(self, workdir):
        bad = workdir / "bad.json"
        bad.write_text(json.dumps({"schema_version": 99}))
        assert run(["--quiet", "report", str(bad), "--out", str(workdir / "t.csv")]) == 1


class TestProvenance:
    """A report names the slowdown its stream was simulated under."""

    def test_report_carries_every_simulate_setting(self, workdir):
        gt, det = synth(workdir, SPEC_MOVING)
        profile = write_json(workdir / "p.json", PROFILE_250)
        for interval in (1, 2):
            stream = workdir / f"i{interval}.stream.jsonl"
            assert run(["--quiet", "--seed", "7", "simulate", "--det", str(det), "--gt", str(gt),
                        "--profile", profile, "--input-frame-interval", str(interval),
                        "--out", str(stream)]) == 0
            metadata = evaluate(workdir, gt, stream, name=f"i{interval}")["metadata"]
            assert {k: metadata[k] for k in
                    ("contention_factor", "input_frame_interval", "profile", "sim_seed")} == {
                "contention_factor": 1.0, "input_frame_interval": interval, "profile": "c250",
                "sim_seed": 7}

    def test_report_names_the_slowdown_that_ran(self, workdir):
        # the profile's own factor times --contention: 4 either way
        gt, det = synth(workdir, SPEC_MOVING)
        runs = {"own": ({**PROFILE_250, "contention_factor": 4}, None),
                "both": ({**PROFILE_250, "contention_factor": 2}, 2)}
        streams, reports = [], []
        for name, (profile, contention) in runs.items():
            stream = simulate(workdir, gt, det, name=name, contention=contention, profile=profile)
            metadata = evaluate(workdir, gt, stream, name=name)["metadata"]
            assert metadata["contention_factor"] == 4.0
            assert metadata["profile"] == "c250"
            streams.append(stream.read_bytes())
            reports.append(str(workdir / f"{name}.report.json"))
        assert streams[0] == streams[1]
        table = workdir / "table.csv"
        assert run(["--quiet", "report", *reports, "--out", str(table)]) == 0
        rows = list(csv.reader(table.read_text().splitlines()))[1:]
        assert {r[1] for r in rows} == {"4.0"}
        assert len({r[3] for r in rows if r[:3] == ["PIVOT", "4.0", "map_s"]}) == 1


class TestManifests:
    """Every output gets a sidecar manifest digesting every input its stage read."""

    @pytest.mark.parametrize("stage", ["interpolate", "simulate", "baseline-sv"])
    def test_config_file_is_digested(self, workdir, stage):
        gt, det = synth(workdir, SPEC_MOVING)
        stream = simulate(workdir, gt, det)
        profile = workdir / "a.profile.json"
        config = write_json(workdir / "c.json", {})
        out = workdir / "out.jsonl"
        args = {
            "interpolate": ["--gt", gt],
            "simulate": ["--gt", gt, "--det", det, "--profile", profile],
            "baseline-sv": ["--stream", stream, "--gt", gt],
        }[stage]
        assert run([str(a) for a in ["--quiet", "--config", config, stage, *args,
                                     "--out", out]]) == 0
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["inputs"][config] == hashlib.sha256(b"{}").hexdigest()
        assert set(manifest["inputs"]) == {config, *map(str, args[1::2])}

    def test_evaluate_csv_gets_a_manifest(self, workdir):
        gt, det = synth(workdir, SPEC_MOVING)
        stream = simulate(workdir, gt, det)
        report, table = workdir / "r.json", workdir / "r.csv"
        assert run(["--quiet", "evaluate", "--gt", str(gt), "--stream", str(stream),
                    "--out", str(report), "--csv", str(table)]) == 0
        manifests = [json.loads(Path(f"{p}.manifest.json").read_text()) for p in (report, table)]
        assert manifests[0] == manifests[1]
        assert set(manifests[1]["inputs"]) == {str(gt), str(stream), f"{stream}.manifest.json"}

    def test_a_piped_input_is_recorded_without_a_digest(self, workdir):
        # the stage drains the pipe, so reading it again for a digest would
        # digest the empty string; the input is named, with no digest
        r, w = os.pipe()
        try:
            os.write(w, json.dumps(SPEC_MOVING).encode())
            os.close(w)
            spec = f"/dev/fd/{r}"
            gt, det = workdir / "p.gt.jsonl", workdir / "p.det.jsonl"
            assert run(["--quiet", "synth", "--spec", spec, "--out-gt", str(gt),
                        "--out-det", str(det)]) == 0
        finally:
            os.close(r)
        assert gt.read_bytes() == synth(workdir, SPEC_MOVING)[0].read_bytes()
        manifest = json.loads(Path(f"{gt}.manifest.json").read_text())
        assert manifest["inputs"] == {spec: None}


class TestConfigFile:
    def test_config_defaults_and_flag_override(self, workdir):
        gt, _ = synth(workdir, SPEC_MOVING)
        ((_, frames),) = iter_scene_annotations(gt)
        kf_path = workdir / "kf.gt.jsonl"
        write_scene_annotations(kf_path, [f for f in frames if f.is_keyframe])
        cfg_path = write_json(workdir / "cfg.json", {"target_rate_hz": 6.0})

        out_cfg = workdir / "dense6.jsonl"
        assert run(["--quiet", "--config", cfg_path, "interpolate",
                    "--gt", str(kf_path), "--out", str(out_cfg)]) == 0
        out_flag = workdir / "dense12.jsonl"
        assert run(["--quiet", "--config", cfg_path, "interpolate",
                    "--gt", str(kf_path), "--rate", "12", "--out", str(out_flag)]) == 0
        ((_, dense6),) = iter_scene_annotations(out_cfg)
        ((_, dense12),) = iter_scene_annotations(out_flag)
        assert len(dense12) > len(dense6)  # explicit flag wins over the config file


class TestSvFile:
    """A baseline-sv file holds refined records; evaluation extrapolates them."""

    def test_serves_any_ground_truth_of_its_scenes(self, workdir):
        gt, det = synth(workdir, SPEC_MOVING)
        stream = simulate(workdir, gt, det)
        # built against a truncated clock, then evaluated on the full one
        ((_, frames),) = iter_scene_annotations(gt)
        short = workdir / "short.gt.jsonl"
        write_scene_annotations(short, frames[: len(frames) // 2])
        sv_out = workdir / "short.sv.jsonl"
        assert run(["--quiet", "baseline-sv", "--stream", str(stream),
                    "--gt", str(short), "--out", str(sv_out)]) == 0
        sv = evaluate(workdir, gt, stream, name="sv", sv=sv_out)

        ((scene_id, lib_stream),) = iter_stream(stream)
        fn = sv_pipeline(lib_stream, [f.timestamp_us for f in frames])
        lib_sv = pool_scenes([(scene_id, frames)], [(scene_id, fn)]).report(sv["metadata"])
        assert json.loads(json.dumps(lib_sv.to_dict())) == sv

    def test_sv_file_with_raw_boxes_evaluates_the_same(self, workdir):
        # an sv line that also carries its record's raw boxes, as sv files
        # once did, is read for its refined boxes alone
        gt, det = synth(workdir, SPEC_MOVING)
        stream = simulate(workdir, gt, det)
        sv_out = workdir / "a.sv.jsonl"
        assert run(["--quiet", "baseline-sv", "--stream", str(stream), "--gt", str(gt),
                    "--out", str(sv_out)]) == 0
        old = workdir / "old.sv.jsonl"
        lines = zip(stream.read_text().splitlines(), sv_out.read_text().splitlines(), strict=True)
        old.write_text("".join(
            json.dumps({**json.loads(raw), "refined": json.loads(sv)["refined"]}) + "\n"
            for raw, sv in lines
        ))
        assert "boxes" in json.loads(old.read_text().splitlines()[0])
        new_report = evaluate(workdir, gt, stream, det, name="new", sv=sv_out)
        assert evaluate(workdir, gt, stream, det, name="old", sv=old) == new_report

    @pytest.mark.parametrize("other", [{"seed": 8}, {"contention": 2.0}])
    def test_sv_file_of_another_stream_rejected(self, workdir, other, capsys):
        gt, det = synth(workdir, SPEC_MOVING)
        profile = {"name": "emp", "samples_ms": [90.0, 180.0, 320.0]}
        stream = simulate(workdir, gt, det, profile=profile)
        other_stream = simulate(workdir, gt, det, name="b", profile=profile, **other)
        sv_out = workdir / "b.sv.jsonl"
        assert run(["--quiet", "baseline-sv", "--stream", str(other_stream),
                    "--gt", str(gt), "--out", str(sv_out)]) == 0
        capsys.readouterr()
        assert run(["--quiet", "evaluate", "--gt", str(gt), "--stream", str(stream),
                    "--sv", str(sv_out), "--out", str(workdir / "r.json")]) == 1
        assert "record times differ in scenes ['cli-moving']" in capsys.readouterr().err


CHAIN_CLASSES = ("car", "truck", "pedestrian")


@st.composite
def chain_inputs(draw):
    """Valid multi-scene specs, a runtime profile and the chain's options."""
    coord, speed = st.floats(-30.0, 30.0), st.floats(-5.0, 5.0)
    specs = []
    for k in range(draw(st.integers(2, 3))):
        objects = draw(st.lists(st.fixed_dictionaries({
            "category": st.sampled_from(CHAIN_CLASSES),
            "center": st.tuples(coord, coord, st.just(0.0)).map(list),
            "yaw": st.floats(-math.pi, math.pi),
            "velocity": st.tuples(speed, speed).map(list),
            "yaw_rate": st.floats(-0.5, 0.5),
        }), min_size=1, max_size=4))
        specs.append({
            "scene_id": f"chain-{k}",
            "duration_s": draw(st.floats(0.5, 1.5)),
            "keyframe_every": draw(st.integers(2, 6)),
            "seed": draw(st.integers(0, 1000)),
            "objects": objects,
            "noise": {
                "pos_sigma": draw(st.floats(0.0, 0.5)),
                "vel_sigma": draw(st.floats(0.0, 0.5)),
                "drop_rate": draw(st.floats(0.0, 0.9)),
                "score_model": draw(st.sampled_from(["constant", "uniform"])),
            },
        })
    # --gt and --det list their scenes in drawn orders; stream and sv files
    # are written in sorted order, so the stages read them ahead or behind
    gt_order = draw(st.permutations(range(len(specs))))
    det_order = draw(st.permutations(range(len(specs))))
    own_factor = draw(st.sampled_from([1.0, 1.5]))
    profile = draw(st.one_of(
        st.builds(lambda ms: {"name": "c", "distribution": "constant", "params": {"ms": ms}},
                  st.floats(20.0, 400.0)),
        st.builds(lambda mu, sigma: {"name": "ln", "distribution": "lognormal",
                                     "params": {"mu": mu, "sigma": sigma}},
                  st.floats(math.log(20.0), math.log(400.0)), st.floats(0.0, 0.5)),
    ))
    return {
        "specs": specs,
        "gt_order": gt_order,
        "det_order": det_order,
        "profile": {**profile, "contention_factor": own_factor},
        "contention": draw(st.sampled_from([None, 1.0, 2.0])),
        "seed": draw(st.integers(0, 1000)),
        # a --gt scene that gets no stream, and a class no detection has
        "streamless": draw(st.booleans()),
        "unseen_class": draw(st.sampled_from([None, *CHAIN_CLASSES])),
    }


def _stage(stage, *args, flags=()) -> bool:
    """Run one CLI stage; it must exit 0, or exit 1 with an `error:` line."""
    with redirect_stderr(io.StringIO()) as err:
        code = run(["--quiet", *map(str, flags), stage, *map(str, args)])
    assert code == 0 and not err.getvalue() or code == 1 and err.getvalue().startswith("error: ")
    if code:
        event(f"exit 1: {stage}")
    return code == 0


def _write_lines(path, objs):
    path.write_text("".join(json.dumps(o) + "\n" for o in objs))
    return path


class TestValidChain:
    """Valid inputs flow through every stage, and the CLI scores what the
    library scores on the same files."""

    @given(chain_inputs())
    @settings(max_examples=50, deadline=None)
    def test_every_stage_runs_and_reports_match_the_library(self, inputs):
        with tempfile.TemporaryDirectory() as tmp:
            self._run_chain(Path(tmp), inputs)

    def _run_chain(self, d, inputs):
        scene_gt, scene_det = [], []
        for k, spec in enumerate(inputs["specs"]):
            gt_k, det_k = d / f"{k}.gt.jsonl", d / f"{k}.det.jsonl"
            assert _stage("synth", "--spec", write_json(d / f"{k}.spec.json", spec),
                          "--out-gt", gt_k, "--out-det", det_k)
            scene_gt.append(list(map(json.loads, gt_k.read_text().splitlines())))
            scene_det.append(list(map(json.loads, det_k.read_text().splitlines())))
        gt_lines = [o for k in inputs["gt_order"] for o in scene_gt[k]]
        det_lines = [o for k in inputs["det_order"] for o in scene_det[k]]
        event(f"scenes sorted in --gt: {list(inputs['gt_order']) == sorted(inputs['gt_order'])}")
        unseen = inputs["unseen_class"]
        if unseen is not None:
            det_lines = [{**o, "boxes": [b for b in o["boxes"] if b["category"] != unseen]}
                         for o in det_lines]
        gt, det = _write_lines(d / "gt.jsonl", gt_lines), _write_lines(d / "det.jsonl", det_lines)
        n_gt, n_det = (sum(len(o["boxes"]) for o in lines) for lines in (gt_lines, det_lines))
        event(f"detections dropped: {n_det < n_gt}")
        event(f"class without detections: {unseen is not None}")

        dense = d / "dense.gt.jsonl"
        if not _stage("interpolate", "--gt", gt, "--tdb", det, "--out", dense):
            return
        # the last scene gets no stream: evaluation scores it against nothing
        sim_gt, sim_det = dense, det
        if inputs["streamless"]:
            last = inputs["specs"][-1]["scene_id"]
            sim_gt = _write_lines(d / "sim.gt.jsonl", [
                o for o in map(json.loads, dense.read_text().splitlines()) if o["scene_id"] != last
            ])
            sim_det = _write_lines(d / "sim.det.jsonl",
                                   [o for o in det_lines if o["scene_id"] != last])
        event(f"scene without stream: {inputs['streamless']}")
        stream = d / "stream.jsonl"
        contention = [] if inputs["contention"] is None else ["--contention", inputs["contention"]]
        if not _stage("simulate", "--det", sim_det, "--gt", sim_gt,
                      "--profile", write_json(d / "profile.json", inputs["profile"]),
                      *contention, "--out", stream, flags=["--seed", inputs["seed"]]):
            return
        sv = d / "sv.jsonl"
        if not _stage("baseline-sv", "--stream", stream, "--gt", dense, "--out", sv):
            return
        reports = [d / "raw.report.json", d / "sv.report.json"]
        for report, extra in zip(reports, ([], ["--sv", sv])):
            if not _stage("evaluate", "--gt", dense, "--stream", stream, "--offline", det,
                          *extra, "--out", report):
                return
        raw, sv_report = (json.loads(p.read_text()) for p in reports)

        gt_blocks = list(iter_scene_annotations(dense))
        streams = dict(iter_stream(stream))
        timestamps = {sid: [f.timestamp_us for f in frames] for sid, frames in gt_blocks}
        # every stream's first record completes after its scene's first frame
        assert all(s.records[0].completion_us > timestamps[sid][0] for sid, s in streams.items())
        lib_raw = pool_scenes(gt_blocks, [(sid, latest(s)) for sid, s in streams.items()],
                              offline=iter_detections(det)).report(raw["metadata"])
        assert json.loads(json.dumps(lib_raw.to_dict())) == raw
        fns = [(sid, sv_pipeline(s, timestamps[sid])) for sid, s in streams.items()]
        lib_sv = pool_scenes(gt_blocks, fns, iter_detections(det)).report(sv_report["metadata"])
        assert json.loads(json.dumps(lib_sv.to_dict())) == sv_report
        factor = inputs["profile"]["contention_factor"] * (inputs["contention"] or 1.0)
        assert raw["metadata"]["contention_factor"] == factor

        table = d / "table.csv"
        assert _stage("report", *reports, "--out", table)
        rows = list(csv.reader(table.read_text().splitlines()))[1:]
        assert [r[1:] for r in rows if r[0] == "PIVOT" and r[2] == "map_s"] == [
            [str(factor), "map_s", f"{rep['map_s']:.6f}"] for rep in (raw, sv_report)
        ]


# each case: the file it corrupts and how it rewrites that file's records
# (JSON-Lines files) or its one object (the profile, spec and --config files);
# a "-flags" case gives flags before the stage, an "-args" case after it
def corrupt_first_box(field, value):
    """Set `field` of the first box in the file to `value`."""

    def corrupt(objs):
        k = next(k for k, o in enumerate(objs) if o["boxes"])
        box, *rest = objs[k]["boxes"]
        return [*objs[:k], {**objs[k], "boxes": [{**box, field: value}, *rest]}, *objs[k + 1:]]

    return corrupt


def spec_object(spec, **fields):
    """The spec with `fields` set on its first object."""
    first, *rest = spec["objects"]
    return {**spec, "objects": [{**first, **fields}, *rest]}


MALFORMED = {
    "box-center-string": ("gt", corrupt_first_box("center", "123")),
    "box-size-bools": ("gt", corrupt_first_box("size", [True, True, True])),
    "box-category-number": ("gt", corrupt_first_box("category", 7)),
    "box-velocity-object": ("stream", corrupt_first_box("velocity", {"1": 0, "2": 0})),
    "box-score-string": ("stream", corrupt_first_box("score", "0.5")),
    "box-score-bool": ("stream", corrupt_first_box("score", True)),
    "boxes-not-array": ("gt", lambda objs: [{**objs[0], "boxes": 5}, *objs[1:]]),
    "box-not-object": ("gt", lambda objs: [{**objs[0], "boxes": [5]}, *objs[1:]]),
    "timestamp-not-numeric": ("gt", lambda objs: [{**objs[0], "timestamp_us": "soon"}, *objs[1:]]),
    "line-is-array": ("gt", lambda objs: [list(objs[0].values()), *objs[1:]]),
    "duplicate-source": (
        "stream", lambda objs: [objs[0], {**objs[1], "source_us": objs[0]["source_us"]}, *objs[2:]]
    ),
    "refined-not-array": ("sv", lambda objs: [{**o, "refined": 5} for o in objs]),
    "refined-entry-not-object": ("sv", lambda objs: [{**o, "refined": [5]} for o in objs]),
    "refined-missing-boxes": ("sv", lambda objs: [{**o, "refined": [{"eval_us": 0}]} for o in objs]),
    "refined-missing-eval-us": ("sv", lambda objs: [{**o, "refined": [{"boxes": []}]} for o in objs]),
    # a raw stream line, read as an sv line
    "refined-missing": (
        "sv", lambda objs: [{k: v for k, v in o.items() if k != "refined"} for o in objs]
    ),
    # a stream line in the sv layout: an sv file given as --stream
    "stream-sv-layout": (
        "stream", lambda objs: [{**{k: v for k, v in o.items() if k != "boxes"},
                                 "refined": o["boxes"]} for o in objs]
    ),
    "sv-missing-scene-id": (
        "sv", lambda objs: [{k: v for k, v in o.items() if k != "scene_id"} for o in objs]
    ),
    "profile-samples-not-numeric": ("profile", lambda p: {"name": "p", "samples_ms": ["x"]}),
    "profile-samples-not-array": ("profile", lambda p: {"name": "p", "samples_ms": 5}),
    "profile-params-not-object": ("profile", lambda p: {**p, "params": [1]}),
    "config-interpolate-rate": ("interpolate-config", lambda _: {"target_rate_hz": "x"}),
    "config-simulate-seed": ("simulate-config", lambda _: {"seed": "x"}),
    "config-simulate-contention": ("simulate-config", lambda _: {"contention_factor": "x"}),
    "config-baseline-sv-noise": ("baseline-sv-config", lambda _: {"process_noise_pos": "x"}),
    "config-baseline-sv-coast": ("baseline-sv-config", lambda _: {"max_coast_us": "x"}),
    # a finite noise whose 10x birth covariance is inf
    "config-baseline-sv-noise-overflow": (
        "baseline-sv-config", lambda _: {"meas_noise_pos": 1e308}
    ),
    "config-baseline-sv-noise-inf": ("baseline-sv-config", lambda _: {"meas_noise_pos": math.inf}),
    # every track would expire before association: refined boxes equal to raw
    "config-baseline-sv-coast-negative": ("baseline-sv-config", lambda _: {"max_coast_us": -5}),
    "config-simulate-seed-negative": ("simulate-config", lambda _: {"seed": -3}),
    "seed-simulate-negative": ("simulate-flags", lambda _: ["--seed", "-1"]),
    "seed-synth-negative": ("synth-flags", lambda _: ["--seed", "-1"]),
    "spec-seed-negative": ("spec", lambda spec: {**spec, "seed": -1}),
    # time arithmetic that leaves the float range
    "profile-ms-overflow": ("profile", lambda p: {**p, "params": {"ms": 1e308}}),
    "contention-overflow": ("simulate-args", lambda _: ["--contention", "1e306"]),
    "rate-underflow": ("interpolate-args", lambda _: ["--rate", "5e-324"]),
    "spec-duration-overflow": ("spec", lambda spec: {**spec, "duration_s": 1e308}),
    "config-baseline-sv-unknown-key": ("baseline-sv-config", lambda _: {"max_coast": 5}),
    # a JSON value of another type is never coerced
    "keyframe-string": ("gt", lambda objs: [{**objs[0], "is_keyframe": "false"}, *objs[1:]]),
    "timestamp-fractional": (
        "gt", lambda objs: [{**objs[0], "timestamp_us": objs[0]["timestamp_us"] + 0.9}, *objs[1:]]
    ),
    "completion-bool": ("stream", lambda objs: [{**objs[0], "completion_us": True}, *objs[1:]]),
    "profile-ms-string": ("profile", lambda p: {**p, "params": {"ms": "250"}}),
    "spec-center-string": (
        "spec", lambda spec: {**spec, "objects": [{**spec["objects"][0], "center": "123"}]}
    ),
    "spec-array": ("spec", lambda spec: [spec]),
    # spec values the type rule accepts but the scene cannot hold
    "spec-yaw-nan": ("spec", lambda spec: spec_object(spec, yaw=math.nan)),
    "spec-yaw-rate-inf": ("spec", lambda spec: spec_object(spec, yaw_rate=math.inf)),
    "spec-yaw-rate-overflow": ("spec", lambda spec: spec_object(spec, yaw_rate=1e308)),
    "spec-velocity-nan": ("spec", lambda spec: spec_object(spec, velocity=[math.nan, 0])),
    "spec-attribute-number": ("spec", lambda spec: spec_object(spec, attribute=5)),
    "spec-noise-pos-sigma-inf": ("spec", lambda spec: {**spec, "noise": {"pos_sigma": math.inf}}),
    "spec-noise-pos-sigma-negative": ("spec", lambda spec: {**spec, "noise": {"pos_sigma": -1}}),
    "box-instance-id-number": ("gt", corrupt_first_box("instance_id", 5)),
    "stream-completion-swapped": ("stream", lambda objs: [objs[1], objs[0], *objs[2:]]),
    # a scene whose lines resume after another scene's: its keyframes up to
    # line 13 densify, and line 15 is rejected
    "gt-interleaved": (
        "gt", lambda objs: [*objs[:13], {**objs[13], "scene_id": "other"}, *objs[14:]]
    ),
    "stream-interleaved": (
        "stream", lambda objs: [objs[0], {**objs[1], "scene_id": "other"}, *objs[2:]]
    ),
    # nested past the JSON parser's recursion limit
    "gt-nested-deep": ("gt", lambda _: Raw("[" * 200_000 + "]" * 200_000 + "\n")),
    "spec-nested-deep": ("spec", lambda _: Raw('{"a":' * 100_000 + "0" + "}" * 100_000)),
    "report-nested-deep": ("report", lambda _: Raw('{"a":' * 100_000 + "0" + "}" * 100_000)),
}
# what the error message of a case must name, beyond the "error: " prefix
MALFORMED_MESSAGES = {
    "refined-missing": "missing field 'refined'",
    "stream-sv-layout": "missing field 'boxes'",
    "sv-missing-scene-id": "missing field 'scene_id'",
    "config-baseline-sv-noise-overflow": "meas_noise_pos overflows the birth covariance",
    "config-baseline-sv-noise-inf": "meas_noise_pos must be positive and finite",
    "config-baseline-sv-coast-negative": "max_coast_us must be non-negative",
    "config-simulate-seed-negative": "seed must be non-negative",
    "seed-simulate-negative": "seed must be non-negative",
    "seed-synth-negative": "seed must be non-negative",
    "spec-seed-negative": "seed must be non-negative",
    "profile-ms-overflow": "sampled inference time is not finite",
    "contention-overflow": "sampled inference time is not finite",
    "rate-underflow": "rate must give a finite period",
    "spec-duration-overflow": "duration must be positive and finite",
    "config-baseline-sv-unknown-key": "unknown config keys ['max_coast']",
    "keyframe-string": "malformed is_keyframe",
    "timestamp-fractional": "malformed timestamp_us",
    "completion-bool": "malformed completion_us",
    "profile-ms-string": "malformed params 'ms'",
    "spec-center-string": "malformed object center",
    "spec-array": "expected a JSON object, got list",
    "spec-yaw-nan": "non-finite rotation angle",
    "spec-yaw-rate-inf": "non-finite rotation angle",
    "spec-yaw-rate-overflow": "non-finite rotation angle",
    "spec-velocity-nan": "non-finite Vec3 component",
    "spec-attribute-number": "malformed attribute",
    "spec-noise-pos-sigma-inf": "pos_sigma must be non-negative and finite",
    "spec-noise-pos-sigma-negative": "pos_sigma must be non-negative and finite",
    "box-instance-id-number": "box instance_id must be a string",
    "stream-completion-swapped": "bad.stream.jsonl:2: unsorted scene 'cli-moving'",
    "gt-interleaved": "bad.gt.jsonl:15: scene 'cli-moving' comes back after other scenes' lines",
    "stream-interleaved":
        "bad.stream.jsonl:3: scene 'cli-moving' comes back after other scenes' lines",
    "gt-nested-deep": "bad.gt.jsonl:1: malformed JSON: nested too deeply",
    "spec-nested-deep": "bad.spec.json: malformed JSON: nested too deeply",
    "report-nested-deep": "bad.report.json: malformed JSON: nested too deeply",
}


class TestExitCodes:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_input_exits_1(self, workdir, case, capsys):
        gt, det = synth(workdir, SPEC_MOVING)
        stream = simulate(workdir, gt, det)
        sv = workdir / "a.sv.jsonl"
        assert run(["--quiet", "baseline-sv", "--stream", str(stream), "--gt", str(gt),
                    "--out", str(sv)]) == 0
        files = {"gt": gt, "stream": stream, "sv": sv,
                 "profile": Path(write_json(workdir / "p.json", PROFILE_250)),
                 "spec": Path(write_json(workdir / "s.json", SPEC_MOVING)),
                 "report": workdir / "a.report.json"}
        target, corrupt = MALFORMED[case]
        if target == "report":
            evaluate(workdir, gt, stream)
        config, args = [], []
        if target.endswith("-config"):
            config = ["--config", write_json(workdir / "bad.config.json", corrupt(None))]
        elif target.endswith("-flags"):
            config = corrupt(None)
        elif target.endswith("-args"):
            args = corrupt(None)
        elif target in ("profile", "spec", "report"):
            obj = corrupt(json.loads(files[target].read_text()))
            files[target] = Path(write_json(workdir / f"bad.{target}.json", obj))
        else:
            objs = corrupt([json.loads(line) for line in files[target].read_text().splitlines()])
            files[target] = workdir / f"bad.{target}.jsonl"
            files[target].write_text(
                objs if isinstance(objs, Raw) else "".join(json.dumps(o) + "\n" for o in objs))
        out = str(workdir / "out.json")
        stages = {
            "synth": ["synth", "--spec", str(files["spec"]), "--out-gt", out,
                      "--out-det", str(workdir / "out.det.jsonl")],
            "interpolate": ["interpolate", "--gt", str(files["gt"]), "--out", out],
            "simulate": ["simulate", "--det", str(det), "--gt", str(gt),
                         "--profile", str(files["profile"]), "--out", out],
            "baseline-sv": ["baseline-sv", "--stream", str(stream), "--gt", str(gt), "--out", out],
            "evaluate": ["evaluate", "--gt", str(gt), "--stream", str(files["stream"]),
                         "--sv", str(files["sv"]), "--out", out],
            "report": ["report", str(files["report"]), "--out", str(workdir / "out.csv")],
        }
        stage = {"gt": "interpolate", "stream": "evaluate", "sv": "evaluate",
                 "profile": "simulate", "spec": "synth"}.get(
            target, target.removesuffix("-config").removesuffix("-flags").removesuffix("-args"))
        capsys.readouterr()
        assert run(["--quiet", *config, *stages[stage], *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert MALFORMED_MESSAGES.get(case, "") in err

    @pytest.mark.parametrize("sidecar", [
        [1], {}, {"config": [1]}, {"config": "x"}, "{not json",
        pytest.param(b"\xff\xfe{}", id="not-utf8"),
        pytest.param("[" * 200_000 + "]" * 200_000, id="nested-deep"),
        pytest.param({"config": {"contention_factor": 3.0}}, id="no-outputs"),
        pytest.param({"config": {}, "outputs": []}, id="outputs-not-an-object"),
        pytest.param(None, id="copied-stream"),
    ])
    def test_malformed_stream_sidecar_exits_1(self, workdir, sidecar, capsys):
        gt, det = synth(workdir, SPEC_MOVING)
        stream = simulate(workdir, gt, det)
        manifest = Path(f"{stream}.manifest.json")
        if sidecar is None:
            # another stream's bytes in place of these: the sidecar describes neither
            other = simulate(workdir, gt, det, name="b", contention=3.0)
            stream.write_bytes(other.read_bytes())
        elif isinstance(sidecar, bytes):
            manifest.write_bytes(sidecar)
        else:
            manifest.write_text(sidecar if isinstance(sidecar, str) else json.dumps(sidecar))
        report = workdir / "r.json"
        capsys.readouterr()
        assert run(["--quiet", "evaluate", "--gt", str(gt), "--stream", str(stream),
                    "--out", str(report)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest}: ") and err.count("\n") == 1, err
        assert not report.exists()

    def test_overflowing_detection_exits_1(self, workdir, capsys):
        # the validators accept the box; extrapolating it leaves the float range
        gt, det = synth(workdir, SPEC_MOVING)
        objs = [json.loads(line) for line in det.read_text().splitlines()]
        objs = corrupt_first_box("center", [1.7e308, 0.0, 0.0])(objs)
        objs = corrupt_first_box("velocity", [1.7e308, 0.0])(objs)
        det.write_text("".join(json.dumps(o) + "\n" for o in objs))
        stream = simulate(workdir, gt, det)
        capsys.readouterr()
        assert run(["--quiet", "baseline-sv", "--stream", str(stream), "--gt", str(gt),
                    "--out", str(workdir / "o.jsonl")]) == 1
        assert capsys.readouterr().err.startswith("error: non-finite")

    @pytest.mark.parametrize("stage", ["baseline-sv", "interpolate"])
    def test_failure_in_a_later_scene_leaves_out_as_it_was(self, workdir, stage, capsys):
        # the first scene is written before the second one fails
        gt_a, det_a = synth(workdir, {**SPEC_MOVING, "scene_id": "scene-a"}, name="a")
        gt_b, det_b = synth(workdir, {**SPEC_MOVING, "scene_id": "scene-b"}, name="b")
        lines_b = gt_b.read_text().splitlines(keepends=True)
        if stage == "baseline-sv":
            objs = [json.loads(line) for line in det_b.read_text().splitlines()]
            objs = corrupt_first_box("center", [1.7e308, 0.0, 0.0])(objs)
            objs = corrupt_first_box("velocity", [1.7e308, 0.0])(objs)
            det_b.write_text("".join(json.dumps(o) + "\n" for o in objs))
        else:
            lines_b = lines_b[:1]  # one keyframe: scene-b cannot be densified
        gt, det = workdir / "both.gt.jsonl", workdir / "both.det.jsonl"
        gt.write_text(gt_a.read_text() + "".join(lines_b))
        det.write_text(det_a.read_text() + det_b.read_text())
        out = workdir / "out.jsonl"
        out.write_bytes(b"an earlier output\n")
        if stage == "baseline-sv":
            stream = simulate(workdir, gt, det, name="both")
            argv = ["baseline-sv", "--stream", str(stream), "--gt", str(gt), "--out", str(out)]
            message = "error: non-finite"
        else:
            argv = ["interpolate", "--gt", str(gt), "--out", str(out)]
            message = "error: need at least 2 keyframes"
        capsys.readouterr()
        assert run(["--quiet", *argv]) == 1
        assert capsys.readouterr().err.startswith(message)
        assert out.read_bytes() == b"an earlier output\n"
        assert sorted(p.name for p in workdir.iterdir() if p.name.startswith("out.")) == [
            "out.jsonl"]

    @pytest.mark.parametrize("stage", ["interpolate", "synth"])
    def test_bytes_that_are_not_utf8_exit_1(self, workdir, stage, capsys):
        gt, _ = synth(workdir, SPEC_MOVING)
        bad = workdir / "bad.json"
        if stage == "interpolate":
            bad.write_bytes(gt.read_bytes() + b'{"scene_id": "\xff"}\n')
            argv = ["interpolate", "--gt", str(bad), "--out", str(workdir / "o.jsonl")]
        else:
            bad.write_bytes(json.dumps(SPEC_MOVING).encode().replace(b"car", b"c\xe9r"))
            argv = ["synth", "--spec", str(bad), "--out-gt", str(workdir / "o.gt.jsonl"),
                    "--out-det", str(workdir / "o.det.jsonl")]
        capsys.readouterr()
        assert run(["--quiet", *argv]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}")

    @pytest.mark.parametrize("stage", ["synth", "evaluate"])
    def test_an_output_that_cannot_be_written_leaves_the_others_as_they_were(
            self, workdir, stage, capsys):
        # the second output's directory is missing, after the first output is done
        gt, det = synth(workdir, SPEC_MOVING)
        out = workdir / "out.jsonl"
        out.write_bytes(b"an earlier output\n")
        missing = workdir / "missing" / "x.jsonl"
        if stage == "synth":
            argv = ["synth", "--spec", str(workdir / "a.spec.json"), "--out-gt", str(out),
                    "--out-det", str(missing)]
        else:
            stream = simulate(workdir, gt, det)
            argv = ["evaluate", "--gt", str(gt), "--stream", str(stream), "--out", str(out),
                    "--csv", str(missing)]
        before = sorted(workdir.iterdir())
        capsys.readouterr()
        assert run(["--quiet", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and str(missing) in err
        assert out.read_bytes() == b"an earlier output\n"
        assert sorted(workdir.iterdir()) == before

    @pytest.mark.parametrize("stage, sidecar", [
        ("synth", ""), ("evaluate", ""),
        ("synth", ".manifest.json"), ("evaluate", ".manifest.json"),
    ], ids=["synth", "evaluate", "synth-manifest", "evaluate-manifest"])
    def test_two_outputs_naming_one_file_exit_1(self, workdir, stage, sidecar, capsys):
        # the second output names the first output's file or its manifest
        gt, det = synth(workdir, SPEC_MOVING)
        out = workdir / "out.jsonl"
        named = workdir / f"out.jsonl{sidecar}"
        for path in {out, named}:
            path.write_bytes(b"an earlier output\n")
        same = f"{workdir}/./{named.name}"  # another spelling of the same path
        if stage == "synth":
            argv = ["synth", "--spec", str(workdir / "a.spec.json"), "--out-gt", str(out),
                    "--out-det", same]
            flags = "--out-gt and --out-det"
        else:
            stream = simulate(workdir, gt, det)
            argv = ["evaluate", "--gt", str(gt), "--stream", str(stream), "--out", str(out),
                    "--csv", same]
            flags = "--out and --csv"
        before = sorted(workdir.iterdir())
        capsys.readouterr()
        assert run(["--quiet", *argv]) == 1
        assert capsys.readouterr().err == f"error: {flags} both name {named}\n"
        assert out.read_bytes() == named.read_bytes() == b"an earlier output\n"
        assert sorted(workdir.iterdir()) == before  # no *.tmp left behind

    @pytest.mark.parametrize("stage", ["synth", "interpolate", "simulate", "baseline-sv",
                                       "evaluate", "report", "interpolate-config",
                                       "simulate-config", "baseline-sv-config",
                                       "evaluate-manifest", "synth-manifest"])
    def test_output_naming_an_input_exit_1(self, workdir, stage, capsys):
        gt, det = synth(workdir, SPEC_MOVING)
        stream = simulate(workdir, gt, det)
        evaluate(workdir, gt, stream)
        spec, profile, report = (workdir / f"a.{kind}.json" for kind in ("spec", "profile", "report"))
        config = Path(write_json(workdir / "c.json", {}))
        # the flag giving the input, the input, the file that the stage's
        # first output names (the input or its manifest) and the stage's
        # other arguments
        flag, path, named, rest = {
            "synth": ("--spec", spec, spec, ["--out-det", workdir / "b.det.jsonl"]),
            "interpolate": ("--gt", gt, gt, []),
            "simulate": ("--det", det, det, ["--gt", gt, "--profile", profile]),
            "baseline-sv": ("--stream", stream, stream, ["--gt", gt]),
            "evaluate": ("--gt", gt, gt, ["--stream", stream]),
            "report": ("reports", report, report, []),
            "interpolate-config": ("--config", config, config, ["--gt", gt]),
            "simulate-config": ("--config", config, config,
                                ["--det", det, "--gt", gt, "--profile", profile]),
            "baseline-sv-config": ("--config", config, config, ["--stream", stream, "--gt", gt]),
            "evaluate-manifest": ("--stream", stream, Path(f"{stream}.manifest.json"),
                                  ["--gt", gt]),
            "synth-manifest": ("--spec", spec, Path(f"{spec}.manifest.json"),
                               ["--out-det", workdir / "b.det.jsonl"]),
        }[stage]
        if flag == "--spec":
            Path(f"{spec}.manifest.json").write_text("an earlier manifest\n")
        stage = stage.removesuffix("-config").removesuffix("-manifest")
        out_flag = "--out-gt" if stage == "synth" else "--out"
        same = f"{workdir}/./{named.name}"  # another spelling of the named file's path
        given = [path] if flag == "reports" else [flag, path]
        global_flags, given = (given, []) if flag == "--config" else ([], given)
        argv = ["--quiet", *global_flags, stage, *given, *rest, out_flag, same]
        named_bytes = named.read_bytes()
        before = sorted(workdir.iterdir())
        capsys.readouterr()
        assert run([str(arg) for arg in argv]) == 1
        assert capsys.readouterr().err == f"error: {flag} and {out_flag} both name {named}\n"
        assert named.read_bytes() == named_bytes
        assert sorted(workdir.iterdir()) == before  # no *.tmp or other output left behind

    @pytest.mark.parametrize("stage", ["synth", "evaluate"])
    def test_a_manifest_that_cannot_be_written_leaves_the_outputs_as_they_were(
            self, workdir, stage, capsys):
        # the last output's manifest path is a directory; the first output has a manifest
        gt, det = synth(workdir, SPEC_MOVING)
        outs = [workdir / "out.a.jsonl", workdir / "out.b.jsonl"]
        if stage == "synth":
            argv = ["synth", "--spec", str(workdir / "a.spec.json"), "--out-gt", str(outs[0]),
                    "--out-det", str(outs[1])]
        else:
            stream = simulate(workdir, gt, det)
            argv = ["evaluate", "--gt", str(gt), "--stream", str(stream), "--out", str(outs[0]),
                    "--csv", str(outs[1])]
        for path in (*outs, Path(f"{outs[0]}.manifest.json")):
            path.write_bytes(b"an earlier output\n")
        Path(f"{outs[1]}.manifest.json").mkdir()
        before = {p: p.is_dir() or p.read_bytes() for p in workdir.iterdir()}
        capsys.readouterr()
        assert run(["--quiet", *argv]) == 2
        assert capsys.readouterr().err.startswith("i/o error: ")
        assert {p: p.is_dir() or p.read_bytes() for p in workdir.iterdir()} == before

    @pytest.mark.parametrize("flag, out", [("--out", "out"), ("--csv", "")], ids=["dir", "empty"])
    def test_an_output_naming_a_directory_exits_2_and_writes_no_manifest(
            self, workdir, monkeypatch, flag, out, capsys):
        gt, det = synth(workdir, SPEC_MOVING)
        stream = simulate(workdir, gt, det)
        monkeypatch.chdir(workdir)  # "" names the working directory
        if out:
            Path(out).mkdir()
        outs = ["--out", out] if flag == "--out" else ["--out", "r.json", flag, out]
        before = sorted(workdir.iterdir())
        capsys.readouterr()
        assert run(["--quiet", "evaluate", "--gt", str(gt), "--stream", str(stream),
                    *outs]) == 2
        assert capsys.readouterr().err.startswith("i/o error: [Errno ")
        assert sorted(workdir.iterdir()) == before

    def test_unknown_flag(self):
        assert run(["--definitely-not-a-flag"]) == 1

    def test_missing_input_file(self, workdir):
        assert run([
            "--quiet", "interpolate", "--gt", str(workdir / "nope.jsonl"),
            "--out", str(workdir / "o.jsonl"),
        ]) == 2

    def test_validation_error(self, workdir):
        bad = workdir / "bad.gt.jsonl"
        bad.write_text('{"scene_id": "s", "timestamp_us": 0, "is_keyframe": true, "boxes": []}\n')
        # only one keyframe: interpolation must refuse
        assert run([
            "--quiet", "interpolate", "--gt", str(bad), "--out", str(workdir / "o.jsonl"),
        ]) == 1

    def test_tdb_scene_mismatch(self, workdir, capsys):
        gt, _ = synth(workdir, SPEC_STATIC)
        other_gt, other_det = synth(workdir, SPEC_MOVING, name="b")
        profile = write_json(workdir / "p.json", PROFILE_250)
        out = str(workdir / "o.jsonl")
        capsys.readouterr()
        assert run(["--quiet", "interpolate", "--gt", str(gt), "--tdb", str(other_det),
                    "--out", out]) == 1
        assert "scene mismatch" in capsys.readouterr().err
        assert run(["--quiet", "simulate", "--gt", str(gt), "--det", str(other_det),
                    "--profile", profile, "--out", out]) == 1
        assert "scene mismatch" in capsys.readouterr().err

    def test_simulate_names_the_scene_without_detections(self, workdir, capsys):
        gt_a, det_a = synth(workdir, SPEC_STATIC, name="a")
        gt_b, _ = synth(workdir, SPEC_MOVING, name="b")
        gt = workdir / "both.gt.jsonl"
        gt.write_text(gt_a.read_text() + gt_b.read_text())
        profile = write_json(workdir / "p.json", PROFILE_250)
        capsys.readouterr()
        assert run(["--quiet", "simulate", "--gt", str(gt), "--det", str(det_a),
                    "--profile", profile, "--out", str(workdir / "o.jsonl")]) == 1
        assert capsys.readouterr().err == (
            "error: scene 'cli-moving': missing detector output for frame t=0\n"
        )

    def test_baseline_sv_scene_mismatch(self, workdir, capsys):
        gt, _ = synth(workdir, SPEC_STATIC)
        other_gt, other_det = synth(workdir, SPEC_MOVING, name="b")
        stream = simulate(workdir, other_gt, other_det, name="b")
        capsys.readouterr()
        assert run(["--quiet", "baseline-sv", "--stream", str(stream), "--gt", str(gt),
                    "--out", str(workdir / "o.jsonl")]) == 1
        assert capsys.readouterr().err == (
            "error: scene mismatch: stream for unknown scenes ['cli-moving']\n"
        )

    def test_offline_scene_mismatch(self, workdir, capsys):
        gt, det = synth(workdir, SPEC_STATIC)
        _, other_det = synth(workdir, SPEC_MOVING, name="b")
        stream = simulate(workdir, gt, det)
        capsys.readouterr()
        assert run(["--quiet", "evaluate", "--gt", str(gt), "--stream", str(stream),
                    "--offline", str(other_det), "--out", str(workdir / "r.json")]) == 1
        assert capsys.readouterr().err == (
            "error: scene mismatch: offline detections for unknown scenes ['cli-moving']\n"
        )

    def test_scene_mismatch(self, workdir):
        gt, det = synth(workdir, SPEC_STATIC)
        other_gt, other_det = synth(workdir, SPEC_MOVING, name="b")
        stream = simulate(workdir, other_gt, other_det, name="b")
        assert run([
            "--quiet", "evaluate", "--gt", str(gt), "--stream", str(stream),
            "--out", str(workdir / "r.json"),
        ]) == 1


@pytest.fixture(scope="module")
def two_scene_files(tmp_path_factory):
    """Scene A (`cli-static`) and scene B (`cli-moving`): ground truth,
    detections, stream and sv files of each and of both, and an empty
    ground truth, as {name: path}."""
    workdir = tmp_path_factory.mktemp("two-scenes")
    files = {"empty-gt": workdir / "empty.gt.jsonl"}
    files["empty-gt"].write_text("")
    for name, spec in (("a", SPEC_STATIC), ("b", SPEC_MOVING)):
        gt, det = synth(workdir, spec, name=name)
        stream = simulate(workdir, gt, det, name=name)
        sv = workdir / f"{name}.sv.jsonl"
        assert run(["--quiet", "baseline-sv", "--stream", str(stream), "--gt", str(gt),
                    "--out", str(sv)]) == 0
        files.update({f"{name}-gt": gt, f"{name}-det": det, f"{name}-stream": stream,
                      f"{name}-sv": sv})
    for kind in ("stream", "sv"):
        both = files[f"ab-{kind}"] = workdir / f"ab.{kind}.jsonl"
        both.write_text(files[f"a-{kind}"].read_text() + files[f"b-{kind}"].read_text())
    return files


SRC = Path(__file__).resolve().parent.parent / "src"
# one stage in a fresh interpreter, which then says on stderr whether it
# loaded numpy: the test process loaded it long before
FRESH_STAGE = (
    "import sys\n"
    "from streameval.cli import run\n"
    "code = run(sys.argv[1:])\n"
    "print('numpy loaded:', 'numpy' in sys.modules, file=sys.stderr)\n"
    "sys.exit(code)\n"
)


class TestFreshInterpreter:
    """Only the stages that draw random numbers or score AP load numpy, and
    each stage writes the same bytes in a fresh interpreter as in-process."""

    ARGV = {
        "synth": ["synth", "--spec", "{spec}", "--out-gt", "{out}/s.gt.jsonl",
                  "--out-det", "{out}/s.det.jsonl"],
        "interpolate": ["interpolate", "--gt", "{b-gt}", "--rate", "24",
                        "--out", "{out}/dense.gt.jsonl"],
        "simulate": ["--seed", "7", "simulate", "--det", "{b-det}", "--gt", "{b-gt}",
                     "--profile", "{profile}", "--out", "{out}/stream.jsonl"],
        "baseline-sv": ["baseline-sv", "--stream", "{b-stream}", "--gt", "{b-gt}",
                        "--out", "{out}/sv.jsonl"],
        "evaluate": ["evaluate", "--gt", "{b-gt}", "--stream", "{b-stream}",
                     "--offline", "{b-det}", "--sv", "{b-sv}", "--out", "{out}/report.json",
                     "--csv", "{out}/report.csv"],
        "report": ["report", "{report}", "--out", "{out}/table.csv"],
    }
    NUMPY_STAGES = {"synth", "simulate", "evaluate"}

    @pytest.mark.parametrize("stage", ARGV)
    def test_stage_loads_numpy_only_where_it_draws_or_scores(self, two_scene_files, tmp_path, stage):
        files = {k: str(v) for k, v in two_scene_files.items()}
        files["spec"] = write_json(tmp_path / "spec.json", SPEC_MOVING)
        files["profile"] = write_json(tmp_path / "profile.json", PROFILE_250)
        if stage == "report":
            evaluate(tmp_path, files["b-gt"], files["b-stream"], files["b-det"], name="b")
            files["report"] = str(tmp_path / "b.report.json")
        fresh, here = tmp_path / "fresh", tmp_path / "here"
        argvs = {out: ["--quiet", *(arg.format(out=out, **files) for arg in self.ARGV[stage])]
                 for out in (fresh, here)}
        fresh.mkdir()
        here.mkdir()
        done = subprocess.run([sys.executable, "-c", FRESH_STAGE, *argvs[fresh]],
                              env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stderr == f"numpy loaded: {stage in self.NUMPY_STAGES}\n"
        assert run(argvs[here]) == 0
        assert self.written(fresh) and self.written(fresh) == self.written(here)

    @staticmethod
    def written(out: Path) -> dict[str, bytes]:
        """The bytes of each data output in `out`, by file name."""
        return {path.name: path.read_bytes() for path in out.iterdir()
                if not path.name.endswith(".manifest.json")}


class TestEvaluateSceneChecks:
    """Which error `evaluate` reports when several scene checks fail: an sv
    file not built from the stream first, then a stream scene not in the
    ground truth, then an empty ground truth, then an offline scene not in
    it."""

    SV_ERROR = ("error: sv file {sv} was not built from {stream}: "
                "record times differ in scenes {scenes}\n")
    STREAM_ERROR = "error: scene mismatch: stream for unknown scenes {scenes}\n"

    @pytest.mark.parametrize("gt, stream, sv, offline, message, scenes", [
        ("a", "ab", "a", None, SV_ERROR, ["cli-moving"]),
        ("a", "a", "ab", None, SV_ERROR, ["cli-moving"]),
        ("a", "ab", "ab", None, STREAM_ERROR, ["cli-moving"]),
        ("a", "ab", "ab", "b", STREAM_ERROR, ["cli-moving"]),
        ("a", "a", "b", "b", SV_ERROR, ["cli-moving", "cli-static"]),
        ("a", "ab", None, "b", STREAM_ERROR, ["cli-moving"]),
        ("empty", "a", None, None, STREAM_ERROR, ["cli-static"]),
        ("empty", "a", None, "a", STREAM_ERROR, ["cli-static"]),
    ], ids=["stream-ab-sv-a", "stream-a-sv-ab", "stream-sv-ab", "stream-sv-ab-offline-b",
            "stream-a-sv-b-offline-b", "stream-ab-offline-b", "empty-gt", "empty-gt-offline"])
    def test_first_failing_check_is_reported(
        self, two_scene_files, tmp_path, capsys, gt, stream, sv, offline, message, scenes
    ):
        files = {k: str(v) for k, v in two_scene_files.items()}
        argv = ["--quiet", "evaluate", "--gt", files[f"{gt}-gt"],
                "--stream", files[f"{stream}-stream"], "--out", str(tmp_path / "r.json")]
        if sv is not None:
            argv += ["--sv", files[f"{sv}-sv"]]
        if offline is not None:
            argv += ["--offline", files[f"{offline}-det"]]
        capsys.readouterr()
        assert run(argv) == 1
        assert capsys.readouterr().err == message.format(
            sv=files.get(f"{sv}-sv"), stream=files[f"{stream}-stream"], scenes=scenes
        )
        assert not (tmp_path / "r.json").exists()


class TestCyclicCollector:
    """A stage runs with the cyclic collector off; `run` then restores it."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collector(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize(
        "raised, code", [(None, 0), (ValidationError("bad"), 1), (OSError("gone"), 2)],
        ids=["exit-0", "exit-1", "exit-2"],
    )
    def test_stage_runs_without_it_and_leaves_it_as_found(
        self, workdir, monkeypatch, collector, raised, code
    ):
        seen = []

        def stage(args, fh):
            seen.append(gc.isenabled())
            if raised is not None:
                raise raised
            return {}, None

        monkeypatch.setattr(cli, "_cmd_report", stage)
        report = write_json(workdir / "r.json", {})
        assert run(["--quiet", "report", report, "--out", str(workdir / "t.csv")]) == code
        assert seen == [False]
        assert gc.isenabled() is collector

    def test_usage_error_leaves_it_as_found(self, collector):
        assert run(["--definitely-not-a-flag"]) == 1
        assert gc.isenabled() is collector


class TestSceneAtATime:
    """A stage holds one scene's records at a time, so its memory does not
    grow with the number of scenes in its inputs."""

    def evaluate_argv(self, workdir, n):
        gts, dets = [], []
        for k in range(n):
            spec = {**SPEC_MOVING, "scene_id": f"scene-{k}", "duration_s": 6.0, "seed": k}
            gt_k, det_k = synth(workdir, spec, name=f"{n}-{k}")
            gts.append(gt_k.read_text())
            dets.append(det_k.read_text())
        gt, det = workdir / f"{n}.gt.jsonl", workdir / f"{n}.det.jsonl"
        gt.write_text("".join(gts))
        det.write_text("".join(dets))
        stream = simulate(workdir, gt, det, name=str(n))
        sv = workdir / f"{n}.sv.jsonl"
        assert run(["--quiet", "baseline-sv", "--stream", str(stream), "--gt", str(gt),
                    "--out", str(sv)]) == 0
        return ["--quiet", "evaluate", "--gt", str(gt), "--stream", str(stream),
                "--offline", str(det), "--sv", str(sv), "--out", str(workdir / f"{n}.json")]

    def test_evaluate_peak_is_flat_in_the_scene_count(self, workdir, monkeypatch):
        argv = {n: self.evaluate_argv(workdir, n) for n in (2, 8)}
        # tracemalloc sees this process only, so every scene is pooled here
        monkeypatch.setattr(cli, "_usable_cores", lambda: 1)
        assert run(argv[2]) == 0  # allocations made once per process are no scene's
        peaks = {}
        for n in (2, 8):
            tracemalloc.start()
            try:
                assert run(argv[n]) == 0
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[8] < 1.5 * peaks[2], peaks
