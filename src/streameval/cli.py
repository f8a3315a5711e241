"""Command-line pipeline: interpolate -> simulate -> baseline-sv -> evaluate -> report.

Each stage reads and writes plain JSON/JSON-Lines files so intermediate
artifacts stay inspectable, and every output is accompanied by a
`<output>.manifest.json` recording the command line, config snapshot, input
digests, seed, and tool version. All randomness derives from --seed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import gc
import hashlib
import json
import sys
import time
from pathlib import Path

from . import __version__
from .baseline import KalmanConfig, cv_pipeline, refine_stream
from .data import (
    ValidationError,
    _read_json,
    _typed,
    check_scenes,
    group_by_scene,
    load_detections,
    load_runtime_profile,
    load_scene_annotations,
    load_temporal_db,
    write_detections,
    write_scene_annotations,
)
from .interp import InterpolationConfig, extend_annotations
from .metrics import REPORT_SCORES, MetricReport, evaluate_scenes
from .stream_sim import PredictionStream, SimConfig, load_stream, simulate_stream, write_stream
from .stream_sim import with_contention
from .synth import gen_scene, oracle_detector, scene_spec_from_dict

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; the CLI contract is exit 1
    def error(self, message):
        raise _UsageError(message)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_path: str, args, inputs: list[str], config: dict) -> None:
    manifest = {
        "command": [sys.argv[0] if sys.argv else "streameval", *map(str, args._argv)],
        "config": config,
        "inputs": {p: _sha256(p) for p in inputs},
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "wall_clock_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    with open(f"{out_path}.manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _info(args, msg: str) -> None:
    if not args.quiet:
        print(msg, file=sys.stderr)


# the keys a --config file may set: every stage's, so that one file serves them all
_CONFIG_KEYS = {
    f.name for c in (InterpolationConfig, SimConfig, KalmanConfig) for f in dataclasses.fields(c)
}


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    config = _read_json(path, dict)
    unknown = sorted(config.keys() - _CONFIG_KEYS)
    if unknown:
        raise ValidationError(f"{path}: unknown config keys {unknown}")
    return config


def _pick(cli_value, config: dict, key: str, default):
    """CLI flag wins over config file, config file over the default.

    A config value must be a JSON value of the default's kind (`data._typed`).
    """
    if cli_value is not None:
        return cli_value
    if key not in config:
        return default
    return _typed(config[key], type(default), f"config {key!r}")


def _config(cls, config: dict, **flags):
    """A `cls` whose every field is picked by `_pick` from the CLI flag of
    that name in `flags`, the config file and the field's default."""
    fields = dataclasses.fields(cls)
    return cls(**{f.name: _pick(flags.get(f.name), config, f.name, f.default) for f in fields})


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _cmd_synth(args) -> int:
    spec_obj, (spec, noise, keyframe_every) = _read_json(
        args.spec, lambda obj: (obj, scene_spec_from_dict(obj))
    )
    seed = args.seed if args.seed is not None else spec.seed
    frames = gen_scene(spec, keyframe_every=keyframe_every)
    outputs = oracle_detector(frames, noise, seed=seed)
    write_scene_annotations(args.out_gt, frames)
    write_detections(args.out_det, [outputs[f.timestamp_us] for f in frames])
    for out in (args.out_gt, args.out_det):
        _write_manifest(out, args, [args.spec], {"spec": spec_obj, "seed": seed})
    _info(args, f"wrote {len(frames)} frames to {args.out_gt} and {args.out_det}")
    return EXIT_OK


def _cmd_interpolate(args) -> int:
    cfg = _config(
        InterpolationConfig,
        _load_config(args.config),
        clean_iou_threshold=args.clean_iou,
        min_db_score=args.min_db_score,
        target_rate_hz=args.rate,
    )
    gt_by_scene = group_by_scene(load_scene_annotations(args.gt))
    db_by_scene = load_temporal_db(args.tdb) if args.tdb else {}
    inputs = [args.gt, args.tdb] if args.tdb else [args.gt]
    check_scenes("temporal database", db_by_scene, gt_by_scene)

    dense = []
    for scene_id, scene_frames in gt_by_scene.items():
        keyframes = [f for f in scene_frames if f.is_keyframe]
        dense.extend(extend_annotations(keyframes, db_by_scene.get(scene_id), cfg))
    write_scene_annotations(args.out, dense)
    _write_manifest(args.out, args, inputs, dataclasses.asdict(cfg))
    _info(args, f"wrote {len(dense)} dense frames to {args.out}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    cfg = _config(
        SimConfig,
        _load_config(args.config),
        seed=args.seed,
        contention_factor=args.contention,
        input_frame_interval=args.input_frame_interval,
    )
    profile = load_runtime_profile(args.profile)
    gt_by_scene = group_by_scene(load_scene_annotations(args.gt))
    det_by_scene = group_by_scene(load_detections(args.det))
    check_scenes("detections", det_by_scene, gt_by_scene)

    streams = {}
    for scene_id in sorted(gt_by_scene):
        frames = [f.timestamp_us for f in gt_by_scene[scene_id]]
        outputs = {d.source_timestamp_us: d for d in det_by_scene.get(scene_id, [])}
        try:
            streams[scene_id] = simulate_stream(frames, outputs, profile, cfg)
        except ValidationError as exc:
            raise ValidationError(f"scene {scene_id!r}: {exc}") from None
    write_stream(args.out, streams)
    # the slowdown that ran: the profile's own factor times the configured one
    contention = with_contention(profile, cfg.contention_factor).contention_factor
    _write_manifest(
        args.out,
        args,
        [args.gt, args.det, args.profile],
        {"seed": cfg.seed, "contention_factor": contention,
         "input_frame_interval": cfg.input_frame_interval, "profile": profile.name},
    )
    total = sum(len(s) for s in streams.values())
    _info(args, f"wrote {total} stream records to {args.out}")
    return EXIT_OK


def _cmd_baseline_sv(args) -> int:
    kcfg = _config(KalmanConfig, _load_config(args.config))
    gt_by_scene = group_by_scene(load_scene_annotations(args.gt))
    streams = load_stream(args.stream)
    check_scenes("stream", streams, gt_by_scene)
    refined = {scene_id: refine_stream(stream, kcfg) for scene_id, stream in streams.items()}
    write_stream(args.out, refined, boxes="refined")
    _write_manifest(args.out, args, [args.stream, args.gt], dataclasses.asdict(kcfg))
    _info(args, f"wrote refined stream to {args.out}")
    return EXIT_OK


def _record_times(streams: dict[str, PredictionStream]) -> dict[str, list[tuple[int, int]]]:
    """(completion, source) times of every record, per scene."""
    return {sid: [(r.completion_us, r.source_us) for r in s.records] for sid, s in streams.items()}


def _cmd_evaluate(args) -> int:
    gt_frames = load_scene_annotations(args.gt)
    scene_ids = sorted({f.scene_id for f in gt_frames})
    streams = load_stream(args.stream)
    inputs = [args.gt, args.stream]
    offline = None
    if args.offline:
        inputs.append(args.offline)
        offline = load_detections(args.offline)

    predictions_fns = None
    if args.sv:
        inputs.append(args.sv)
        refined = load_stream(args.sv, boxes="refined")
        raw, ref = _record_times(streams), _record_times(refined)
        mismatched = sorted(s for s in raw.keys() | ref.keys() if raw.get(s) != ref.get(s))
        if mismatched:
            raise ValidationError(
                f"sv file {args.sv} was not built from {args.stream}: "
                f"record times differ in scenes {mismatched}"
            )
        # the refined records replace the raw ones, which are not needed again
        streams = refined
        predictions_fns = {
            scene_id: cv_pipeline(stream, scene_id) for scene_id, stream in refined.items()
        }

    metadata = {
        "scenes": scene_ids,
        "gt": Path(args.gt).name,
        "stream": Path(args.stream).name,
        "sv": bool(args.sv),
        "seed": args.seed,
    }
    # simulation provenance (every `simulate` config key) travels in the
    # stream's manifest sidecar when the stream came from `simulate`
    stream_manifest = Path(f"{args.stream}.manifest.json")
    if stream_manifest.exists():
        try:
            echo = _read_json(stream_manifest, dict).get("config")
        except ValidationError:  # a malformed sidecar carries no metadata
            echo = None
        if isinstance(echo, dict):
            for key, value in echo.items():
                metadata.setdefault("sim_seed" if key == "seed" else key, value)

    report = evaluate_scenes(
        gt_frames, streams, predictions_fns, offline_outputs=offline, metadata=metadata
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")
    if args.csv:
        _write_report_csv(args.csv, report)
    _write_manifest(args.out, args, inputs, {"sv": bool(args.sv)})
    _info(args, f"mAP-S={report.map_s:.4f} NDS-S={report.nds_s:.4f} -> {args.out}")
    return EXIT_OK


def _write_report_csv(path, report: MetricReport) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class", "threshold_m", "ap"])
        for (cls, thr), ap in sorted(report.per_class_ap.items()):
            writer.writerow([cls, f"{thr:g}", f"{ap:.6f}"])
        writer.writerow([])
        writer.writerow(["summary", "metric", "value"])
        for name in REPORT_SCORES:
            writer.writerow(["summary", name, f"{getattr(report, name):.6f}"])


def _cmd_report(args) -> int:
    if not args.reports:
        raise ValidationError("no reports given")
    reports = []
    for path in args.reports:
        reports.append((path, _read_json(path, MetricReport.from_dict)))

    if args.compare:
        if len(reports) != 2:
            raise ValidationError("--compare takes exactly two reports")
        (pa, ra), (pb, rb) = reports
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["metric", Path(pa).name, Path(pb).name, "delta"])
            for name in ("map_s", "nds_s"):
                a, b = getattr(ra, name), getattr(rb, name)
                writer.writerow([name, f"{a:.6f}", f"{b:.6f}", f"{b - a:.6f}"])
    else:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["report", "contention", "metric", "value"])
            for path, rep in reports:
                contention = rep.metadata.get("contention_factor", "")
                for name in REPORT_SCORES:
                    writer.writerow(
                        [Path(path).name, contention, name, f"{getattr(rep, name):.6f}"]
                    )
            # pivot of the two headline metrics across contention factors
            for name in ("map_s", "nds_s"):
                for path, rep in reports:
                    writer.writerow(
                        ["PIVOT", rep.metadata.get("contention_factor", ""), name,
                         f"{getattr(rep, name):.6f}"]
                    )
    _write_manifest(args.out, args, list(args.reports), {"compare": bool(args.compare)})
    _info(args, f"wrote {args.out}")
    return EXIT_OK


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="streameval", description=__doc__)
    parser.add_argument("--seed", type=int, default=None, help="seed for all randomness")
    parser.add_argument("--config", default=None, help="JSON file of config overrides")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene and oracle detections")
    p.add_argument("--spec", required=True)
    p.add_argument("--out-gt", required=True)
    p.add_argument("--out-det", required=True)
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("interpolate", help="densify keyframe annotations")
    p.add_argument("--gt", required=True, help="keyframe annotations (.gt.jsonl)")
    p.add_argument("--tdb", default=None, help="temporal database (.tdb.jsonl)")
    p.add_argument("--rate", type=float, default=None, help="target rate in Hz (default 12)")
    p.add_argument("--clean-iou", type=float, default=None, help="auto-clean IoU threshold")
    p.add_argument("--min-db-score", type=float, default=None, help="database score cutoff")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_interpolate)

    p = sub.add_parser("simulate", help="simulate the prediction stream under latency")
    p.add_argument("--det", required=True, help="per-frame detector outputs (.det.jsonl)")
    p.add_argument("--gt", required=True, help="dense annotations giving the input clock")
    p.add_argument("--profile", required=True, help="runtime profile JSON")
    p.add_argument("--contention", type=float, default=None, help="runtime slowdown factor")
    p.add_argument("--input-frame-interval", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("baseline-sv", help="velocity-based updating over a stream")
    p.add_argument("--stream", required=True)
    p.add_argument("--gt", required=True, help="annotations whose scenes must cover the stream's")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_baseline_sv)

    p = sub.add_parser("evaluate", help="streaming evaluation of a prediction stream")
    p.add_argument("--gt", required=True)
    p.add_argument("--stream", required=True)
    p.add_argument("--offline", default=None, help="raw detector outputs for velocity error")
    p.add_argument("--sv", default=None, help="baseline-sv output to evaluate instead of raw")
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--csv", default=None, help="optional CSV table path")
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("report", help="tabulate or compare evaluation reports")
    p.add_argument("reports", nargs="*", help="report JSON files")
    p.add_argument("--compare", action="store_true", help="diff two reports")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_report)

    return parser


def run(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_VALIDATION
    args._argv = argv
    # a stage allocates its records up front and frees them at exit, so the
    # cyclic collector would only rescan a growing heap
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.fn(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    finally:
        if gc_was_enabled:
            gc.enable()


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
