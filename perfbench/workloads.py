"""The three benchmark workloads: inputs from a seed, a timed run, and checks.

Each workload is a closed loop: one caller runs the stages back to back.
`run` is the timed region; `check` runs after it, untimed and untraced, and
reads the outputs without going through the code under test where it can.

- densify: CLI `synth` twice (keyframe scene; scene plus extra objects as
  the temporal database), then `interpolate`. Rotated BEV IoU inside
  auto-clean dominates; the extra objects take the append path and the
  database copies of annotated objects take the drop path.
- sweep-lib: the library sweep of the README's "Library use" over several
  scenes and contention factors, with no file I/O. Matching, the Kalman
  filter and association IoU dominate.
- pipeline-long: the whole CLI chain on many small, long scenes. Per-frame
  and per-call costs dominate (JSONL codec, temporal-database scan,
  `match_recent`), and pairwise geometry is negligible.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import streameval
import streameval.cli

SIZES = {
    "car": (2.0, 4.5, 1.6),
    "truck": (2.5, 8.0, 3.2),
    "pedestrian": (0.7, 0.7, 1.8),
    "bicycle": (0.7, 1.8, 1.3),
}
INTERP_TOL = 1e-9
VALUE_TOL = 1e-9

SCALES = {
    "full": {
        "densify": {"objects": 40, "extra": 6, "duration_s": 20.0, "keyframe_every": 6,
                    "half_extent_m": 100.0},
        "sweep-lib": {"scenes": 4, "objects": 20, "duration_s": 20.0, "factors": [1.0, 2.0, 4.0],
                      "half_extent_m": 60.0},
        "pipeline-long": {"scenes": 8, "objects": 3, "duration_s": 60.0, "half_extent_m": 40.0},
    },
    "tiny": {
        "densify": {"objects": 6, "extra": 2, "duration_s": 3.0, "keyframe_every": 6,
                    "half_extent_m": 20.0},
        "sweep-lib": {"scenes": 2, "objects": 5, "duration_s": 3.0, "factors": [1.0, 2.0, 4.0],
                      "half_extent_m": 20.0},
        "pipeline-long": {"scenes": 2, "objects": 2, "duration_s": 4.0, "half_extent_m": 20.0},
    },
}
RATE_HZ = 12.0


def params_digest(name: str, params: dict) -> str:
    """Identifies a workload's shape; references are valid only for it."""
    blob = json.dumps({"workload": name, "rate_hz": RATE_HZ, **params}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def random_objects(rng: np.random.Generator, n: int, half_extent: float) -> list[dict]:
    """Constant-velocity, constant-yaw-rate objects in the synth spec layout.

    Categories take turns, so every seed has the same number of objects per
    class: per-class matching and association cost grow with its square,
    and a random mix would make the work, not only the layout, vary by seed.
    """
    categories = sorted(SIZES)
    objects = []
    for i in range(n):
        category = categories[i % len(categories)]
        speed = float(rng.uniform(2.0, 10.0))
        heading = float(rng.uniform(-math.pi, math.pi))
        objects.append({
            "category": category,
            "center": [float(rng.uniform(-half_extent, half_extent)),
                       float(rng.uniform(-half_extent, half_extent)), 0.0],
            "size": list(SIZES[category]),
            "yaw": float(rng.uniform(-math.pi, math.pi)),
            "velocity": [speed * math.cos(heading), speed * math.sin(heading)],
            "yaw_rate": float(rng.uniform(-0.1, 0.1)),
        })
    return objects


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def yaw_of(rotation) -> float:
    w, _, _, z = rotation
    return 2.0 * math.atan2(z, w)


def angle_diff(a: float, b: float) -> float:
    return abs(math.remainder(a - b, math.tau))


@dataclass
class Iteration:
    """What one pass over a workload did, measured and checked."""

    workdir: Path
    stage_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    values: dict[str, float] = field(default_factory=dict)
    bytes_read: int = 0
    bytes_written: int = 0
    wall_s: float = 0.0

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        """Count one operation; a failed one is kept with its reason."""
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def cli(self, stage: str, argv: list[str], inputs: list[Path], outputs: list[Path]) -> bool:
        """One CLI invocation through `streameval.cli.run`, timed as its stage."""
        t0 = perf_counter()
        try:
            code = streameval.cli.run(["--quiet", *argv])
        except Exception as exc:  # a stage that raises is a failed operation
            code = f"{type(exc).__name__}: {exc}"
        self.stage_s[stage] += perf_counter() - t0
        if not self.record(f"cli {stage}", code == 0, f"exit {code}"):
            return False
        self.bytes_read += sum(p.stat().st_size for p in inputs)
        for p in outputs:
            self.bytes_written += p.stat().st_size
            self.digests[p.name] = sha256_file(p)
        return True

    def lib(self, stage: str, fn, *args, **kwargs):
        """One library call, timed as its stage; None when it raised."""
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # counted, and the caller skips what depends on it
            result = None
            self.record(stage, False, f"{type(exc).__name__}: {exc}")
        else:
            self.record(stage, True)
        self.stage_s[stage] += perf_counter() - t0
        return result


class Workload:
    name = ""

    def __init__(self, seed: int, scale: str = "full"):
        self.params = SCALES[scale][self.name]
        self.params_digest = params_digest(self.name, self.params)
        salt = sorted(SCALES["full"]).index(self.name)
        self.rng = np.random.default_rng([seed, salt])

    def prepare(self, workdir: Path) -> None:
        """Write the run's input files (once per run, untimed)."""

    def run(self, it: Iteration) -> None:
        raise NotImplementedError

    def check(self, it: Iteration) -> None:
        raise NotImplementedError


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
    return path


class Densify(Workload):
    name = "densify"

    def __init__(self, seed: int, scale: str = "full"):
        super().__init__(seed, scale)
        p = self.params
        objects = random_objects(self.rng, p["objects"] + p["extra"], p["half_extent_m"])
        base = {"scene_id": "densify-0", "duration_s": p["duration_s"], "rate_hz": RATE_HZ,
                "keyframe_every": p["keyframe_every"]}
        self.kf_spec = {**base, "objects": objects[: p["objects"]]}
        # the temporal database is a detector that sees every object: small
        # position noise, no drops, score 1
        self.tdb_spec = {**base, "objects": objects, "noise": {"pos_sigma": 0.05}}
        self.synth_seed = int(self.rng.integers(2**31))

    def prepare(self, workdir: Path) -> None:
        self.kf_spec_path = _write_json(workdir / "kf.spec.json", self.kf_spec)
        self.tdb_spec_path = _write_json(workdir / "tdb.spec.json", self.tdb_spec)

    def run(self, it: Iteration) -> None:
        d = it.workdir
        seed = ["--seed", str(self.synth_seed)]
        it.cli("synth", [*seed, "synth", "--spec", str(self.kf_spec_path),
                         "--out-gt", str(d / "scene.gt.jsonl"), "--out-det", str(d / "scene.det.jsonl")],
               [self.kf_spec_path], [d / "scene.gt.jsonl", d / "scene.det.jsonl"])
        it.cli("synth", [*seed, "synth", "--spec", str(self.tdb_spec_path),
                         "--out-gt", str(d / "full.gt.jsonl"), "--out-det", str(d / "full.tdb.jsonl")],
               [self.tdb_spec_path], [d / "full.gt.jsonl", d / "full.tdb.jsonl"])
        it.cli("interpolate", ["interpolate", "--gt", str(d / "scene.gt.jsonl"),
                               "--tdb", str(d / "full.tdb.jsonl"), "--out", str(d / "dense.gt.jsonl")],
               [d / "scene.gt.jsonl", d / "full.tdb.jsonl"], [d / "dense.gt.jsonl"])

    def check(self, it: Iteration) -> None:
        d = it.workdir
        if not (d / "dense.gt.jsonl").exists():
            it.record("densify outputs", False, "dense.gt.jsonl missing")
            return
        gt = read_jsonl(d / "scene.gt.jsonl")
        tdb = read_jsonl(d / "full.tdb.jsonl")
        dense = read_jsonl(d / "dense.gt.jsonl")
        n_kf_objects = len(self.kf_spec["objects"])
        it.record("densify timestamps", [f["timestamp_us"] for f in dense] == [f["timestamp_us"] for f in gt],
                  "dense grid differs from the synthetic frame clock")
        worst = 0.0
        appended = 0
        bad: list[str] = []
        for frame, truth, db in zip(dense, gt, tdb):
            t = frame["timestamp_us"]
            if truth["is_keyframe"]:
                if frame != truth:
                    bad.append(f"keyframe t={t} changed")
                continue
            by_id = {b["instance_id"]: b for b in truth["boxes"]}
            interpolated = [b for b in frame["boxes"] if "instance_id" in b]
            if sorted(b["instance_id"] for b in interpolated) != sorted(by_id):
                bad.append(f"t={t}: interpolated instances differ from ground truth")
                continue
            for b in interpolated:
                g = by_id[b["instance_id"]]
                err = max(
                    max(abs(u - v) for u, v in zip(b["center"], g["center"])),
                    angle_diff(yaw_of(b["rotation"]), yaw_of(g["rotation"])),
                    max(abs(u - v) for u, v in zip(b["velocity"], g["velocity"])),
                )
                worst = max(worst, err)
            # database boxes of the extra objects: appended unless they may
            # overlap an interpolated box (circumcircles intersect); appended
            # boxes are verbatim copies of database boxes
            extras = db["boxes"][n_kf_objects:]
            added = [b for b in frame["boxes"] if "instance_id" not in b]
            appended += len(added)
            for b in added:
                if not any(_same_center(b, e) for e in extras):
                    bad.append(f"t={t}: appended box at {b['center'][:2]} is not an extra object")
            for e in extras:
                if not any(_same_center(b, e) for b in added) and not any(
                    _may_overlap(e, b) for b in interpolated
                ):
                    bad.append(f"t={t}: isolated extra object at {e['center'][:2]} was dropped")
        it.record("densify interpolation within 1e-9", worst <= INTERP_TOL, f"worst error {worst:.3g}")
        it.record("densify auto-clean", not bad, "; ".join(bad[:3]))
        it.values["appended"] = appended
        it.values["dense_frames"] = len(dense)
        it.values["max_interp_error"] = worst


def _same_center(a: dict, b: dict) -> bool:
    return max(abs(u - v) for u, v in zip(a["center"], b["center"])) <= INTERP_TOL


def _may_overlap(a: dict, b: dict) -> bool:
    ra = math.hypot(a["size"][0], a["size"][1]) / 2.0
    rb = math.hypot(b["size"][0], b["size"][1]) / 2.0
    return math.dist(a["center"][:2], b["center"][:2]) < ra + rb


def _report_values(prefix: str, report_dicts: list[dict], out: dict) -> None:
    """Scene-mean mAP-S / NDS-S and summed tp/fp/fn of per-scene reports."""
    out[f"{prefix}.map_s"] = sum(r["map_s"] for r in report_dicts) / len(report_dicts)
    out[f"{prefix}.nds_s"] = sum(r["nds_s"] for r in report_dicts) / len(report_dicts)
    for key in ("tp", "fp", "fn"):
        out[f"{prefix}.{key}"] = sum(r["counts"][key] for r in report_dicts)


class SweepLib(Workload):
    name = "sweep-lib"

    def __init__(self, seed: int, scale: str = "full"):
        super().__init__(seed, scale)
        p = self.params
        self.specs = []
        for k in range(p["scenes"]):
            objects = [
                streameval.ObjectSpec(
                    o["category"], tuple(o["center"]), tuple(o["size"]), o["yaw"],
                    tuple(o["velocity"]), o["yaw_rate"],
                )
                for o in random_objects(self.rng, p["objects"], p["half_extent_m"])
            ]
            self.specs.append(streameval.SceneSpec(
                duration_s=p["duration_s"], rate_hz=RATE_HZ, objects=tuple(objects),
                scene_id=f"sweep-{k}",
            ))
        self.noise = streameval.DetectorNoise(
            pos_sigma=0.2, vel_sigma=0.5, drop_rate=0.1, score_model="uniform"
        )
        self.profile = streameval.RuntimeProfile(
            "lognormal-200ms", distribution="lognormal",
            params={"mu": math.log(200.0), "sigma": 0.25},
        )
        self.det_seeds = [int(s) for s in self.rng.integers(2**31, size=p["scenes"])]
        self.sim_seed = int(self.rng.integers(2**31))
        self.gt_boxes: list[int] = []

    def run(self, it: Iteration) -> None:
        se = streameval
        scenes = []
        for spec, det_seed in zip(self.specs, self.det_seeds):
            frames = it.lib("synth", se.gen_scene, spec)
            outputs = it.lib("synth", se.oracle_detector, frames, self.noise, det_seed)
            if frames is not None and outputs is not None:
                scenes.append((frames, outputs))
        self.gt_boxes = [sum(len(f.boxes) for f in frames) for frames, _ in scenes]
        profiles = it.lib("simulate", se.contention_sweep, self.profile, self.params["factors"]) or []
        self.reports = {}
        for factor, profile in zip(self.params["factors"], profiles):
            raw, sv, streams = [], [], []
            for frames, outputs in scenes:
                timestamps = [f.timestamp_us for f in frames]
                stream = it.lib("simulate", se.simulate_stream, timestamps, outputs, profile,
                                se.SimConfig(seed=self.sim_seed))
                if stream is None:
                    continue
                streams.append([(r.completion_us, r.source_us, len(r.detections.boxes))
                                for r in stream.records])
                raw.append(it.lib("evaluate", se.evaluate_streaming, frames, stream,
                                  offline_outputs=outputs))
                fn = it.lib("baseline_sv", se.sv_pipeline, stream, timestamps)
                if fn is not None:
                    sv.append(it.lib("evaluate", se.evaluate_streaming, frames, stream,
                                     offline_outputs=outputs, predictions_fn=fn))
            self.reports[factor] = (
                [r.to_dict() for r in raw if r is not None],
                [r.to_dict() for r in sv if r is not None],
                streams,
            )

    def check(self, it: Iteration) -> None:
        n = self.params["scenes"]
        complete = len(self.reports) == len(self.params["factors"]) and all(
            len(raw) == n and len(sv) == n for raw, sv, _ in self.reports.values()
        )
        if not it.record("sweep-lib outputs", complete, "a stage failed; no reports to check"):
            return
        for factor, (raw, sv, streams) in self.reports.items():
            tag = f"x{factor:g}"
            _report_values(f"{tag}.raw", raw, it.values)
            _report_values(f"{tag}.sv", sv, it.values)
            it.digests[f"{tag}.raw"] = sha256_json(raw)
            it.digests[f"{tag}.sv"] = sha256_json(sv)
            it.digests[f"{tag}.stream"] = sha256_json(streams)
            for kind, reports in (("raw", raw), ("sv", sv)):
                ok = all(r["counts"]["tp"] + r["counts"]["fn"] == g for r, g in zip(reports, self.gt_boxes))
                it.record(f"{tag} {kind} tp+fn equals ground truth", ok)
        # the paper's claims: raw accuracy does not improve under contention,
        # and updating never loses to the raw stream
        raw_map = [it.values[f"x{f:g}.raw.map_s"] for f in self.params["factors"]]
        sv_map = [it.values[f"x{f:g}.sv.map_s"] for f in self.params["factors"]]
        it.record("raw mAP-S non-increasing in contention",
                  all(b <= a for a, b in zip(raw_map, raw_map[1:])), f"raw mAP-S {raw_map}")
        it.record("sv mAP-S at least raw mAP-S",
                  all(s >= r for s, r in zip(sv_map, raw_map)), f"sv {sv_map} raw {raw_map}")


class PipelineLong(Workload):
    name = "pipeline-long"

    def __init__(self, seed: int, scale: str = "full"):
        super().__init__(seed, scale)
        p = self.params
        self.specs = [
            {"scene_id": f"long-{k}", "duration_s": p["duration_s"], "rate_hz": RATE_HZ,
             "keyframe_every": 6,
             "objects": random_objects(self.rng, p["objects"], p["half_extent_m"]),
             "noise": {"pos_sigma": 0.1, "vel_sigma": 0.3, "drop_rate": 0.05,
                       "score_model": "uniform"}}
            for k in range(p["scenes"])
        ]
        self.synth_seeds = [int(s) for s in self.rng.integers(2**31, size=p["scenes"])]
        self.sim_seed = int(self.rng.integers(2**31))

    def prepare(self, workdir: Path) -> None:
        self.spec_paths = [
            _write_json(workdir / f"{s['scene_id']}.spec.json", s) for s in self.specs
        ]
        self.profile_path = _write_json(
            workdir / "const50.profile.json",
            {"name": "const-50ms", "distribution": "constant", "params": {"ms": 50}},
        )

    def run(self, it: Iteration) -> None:
        d = it.workdir
        gt, det = d / "all.gt.jsonl", d / "all.det.jsonl"
        # one synth call per scene, concatenated into multi-scene files
        with open(gt, "wb") as gt_fh, open(det, "wb") as det_fh:
            for spec, spec_path, seed in zip(self.specs, self.spec_paths, self.synth_seeds):
                one_gt = d / f"{spec['scene_id']}.gt.jsonl"
                one_det = d / f"{spec['scene_id']}.det.jsonl"
                if it.cli("synth", ["--seed", str(seed), "synth", "--spec", str(spec_path),
                                    "--out-gt", str(one_gt), "--out-det", str(one_det)],
                          [spec_path], [one_gt, one_det]):
                    gt_fh.write(one_gt.read_bytes())
                    det_fh.write(one_det.read_bytes())
        dense, stream, sv = d / "dense.gt.jsonl", d / "run.stream.jsonl", d / "run.sv.jsonl"
        raw_report, sv_report = d / "raw.report.json", d / "sv.report.json"
        it.cli("interpolate", ["interpolate", "--gt", str(gt), "--tdb", str(det), "--out", str(dense)],
               [gt, det], [dense])
        it.cli("simulate", ["--seed", str(self.sim_seed), "simulate", "--det", str(det),
                            "--gt", str(dense), "--profile", str(self.profile_path),
                            "--out", str(stream)],
               [det, dense, self.profile_path], [stream])
        it.cli("baseline_sv", ["baseline-sv", "--stream", str(stream), "--gt", str(dense),
                               "--out", str(sv)],
               [stream, dense], [sv])
        it.cli("evaluate", ["evaluate", "--gt", str(dense), "--stream", str(stream),
                            "--offline", str(det), "--out", str(raw_report)],
               [dense, stream, det], [raw_report])
        it.cli("evaluate", ["evaluate", "--gt", str(dense), "--stream", str(stream),
                            "--offline", str(det), "--sv", str(sv), "--out", str(sv_report)],
               [dense, stream, det, sv], [sv_report])

    def check(self, it: Iteration) -> None:
        d = it.workdir
        paths = {"raw": d / "raw.report.json", "sv": d / "sv.report.json"}
        if not it.record("pipeline-long outputs", all(p.exists() for p in paths.values()),
                         "a stage failed; no reports to check"):
            return
        gt_boxes = sum(len(f["boxes"]) for f in read_jsonl(d / "dense.gt.jsonl"))
        for kind, path in paths.items():
            report = json.loads(path.read_text(encoding="utf-8"))
            _report_values(kind, [report], it.values)
            counts = report["counts"]
            it.record(f"{kind} tp+fn equals ground truth", counts["tp"] + counts["fn"] == gt_boxes,
                      f"tp {counts['tp']} + fn {counts['fn']} != {gt_boxes}")


WORKLOADS = {w.name: w for w in (Densify, SweepLib, PipelineLong)}


def check_reference(it: Iteration, entry: dict | None) -> bool | None:
    """Compare values with the stored reference; None when there is none.

    Counts must match exactly and scores within 1e-9; each mismatch is a
    failed operation. Returns whether any output digest changed.
    """
    if entry is None:
        return None
    for key, want in sorted(entry["values"].items()):
        got = it.values.get(key)
        if isinstance(want, int):
            ok = got == want
        else:
            ok = got is not None and abs(got - want) <= VALUE_TOL
        it.record(f"reference {key}", ok, f"got {got}, reference {want}")
    return entry["digests"] != it.digests
