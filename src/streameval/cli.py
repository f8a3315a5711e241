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
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .baseline import KalmanConfig, cv_pipeline, refine_stream
from .data import (
    PredictionStream,
    SceneCursor,
    ValidationError,
    _read_json,
    _typed,
    iter_detections,
    iter_scene_annotations,
    iter_stream,
    iter_temporal_db,
    load_runtime_profile,
    write_detections,
    write_scene_annotations,
    write_stream,
)
from .interp import InterpolationConfig, extend_annotations
from .metrics import REPORT_SCORES, MetricReport, pool_scenes
from .stream_sim import SimConfig, simulate_stream, with_contention
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


def _distinct(args, inputs: list[str], outputs: list[str]) -> list[str]:
    """The paths the `inputs` flags give, once it is checked that no output
    flag names the file of an input or of another output (by
    `os.path.realpath`). Flags are spelt as on the command line; `reports`
    is the report stage's positional list."""
    def given(flags):  # (flag, path) per path a flag gives; an unset flag gives none
        values = [(f, getattr(args, f.lstrip("-").replace("-", "_"))) for f in flags]
        return [(f, p) for f, v in values for p in (v if isinstance(v, list) else [v]) if p]

    named = {os.path.realpath(p): (f, p) for f, p in given(inputs)}
    for flag, path in given(outputs):
        first, first_path = named.setdefault(os.path.realpath(path), (flag, path))
        if first != flag:
            raise ValidationError(f"{first} and {flag} both name {first_path}")
    return [p for _, p in given(inputs)]


@contextmanager
def _replacing(path: str):
    """A text file that takes the place of `path` when the block completes.

    It is written under a temporary name in the same directory and moved
    over `path` at the end, so a stage that fails partway through its input
    removes it and leaves any earlier `path` as it was.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    # newline="" writes each line ending as given: "\n" in JSON, "\r\n" in CSV
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


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
    inputs = _distinct(args, ["--spec"], ["--out-gt", "--out-det"])
    spec_obj, (spec, noise, keyframe_every) = _read_json(
        args.spec, lambda obj: (obj, scene_spec_from_dict(obj))
    )
    seed = args.seed if args.seed is not None else spec.seed
    frames = gen_scene(spec, keyframe_every=keyframe_every)
    outputs = oracle_detector(frames, noise, seed=seed)
    with _replacing(args.out_gt) as gt_fh, _replacing(args.out_det) as det_fh:
        write_scene_annotations(gt_fh, frames)
        write_detections(det_fh, outputs)
    for out in (args.out_gt, args.out_det):
        _write_manifest(out, args, inputs, {"spec": spec_obj, "seed": seed})
    _info(args, f"wrote {len(frames)} frames to {args.out_gt} and {args.out_det}")
    return EXIT_OK


def _cmd_interpolate(args) -> int:
    inputs = _distinct(args, ["--gt", "--tdb"], ["--out"])
    cfg = _config(
        InterpolationConfig,
        _load_config(args.config),
        clean_iou_threshold=args.clean_iou,
        min_db_score=args.min_db_score,
        target_rate_hz=args.rate,
    )
    dbs = SceneCursor(iter_temporal_db(args.tdb), "temporal database") if args.tdb else None
    scene_ids, total = [], 0
    with _replacing(args.out) as fh:
        for scene_id, frames in iter_scene_annotations(args.gt):
            scene_ids.append(scene_id)
            keyframes = [f for f in frames if f.is_keyframe]
            dense = extend_annotations(keyframes, None if dbs is None else dbs.take(scene_id), cfg)
            write_scene_annotations(fh, dense)
            total += len(dense)
        if dbs is not None:
            dbs.finish(scene_ids)
    _write_manifest(args.out, args, inputs, dataclasses.asdict(cfg))
    _info(args, f"wrote {total} dense frames to {args.out}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    inputs = _distinct(args, ["--gt", "--det", "--profile"], ["--out"])
    cfg = _config(
        SimConfig,
        _load_config(args.config),
        seed=args.seed,
        contention_factor=args.contention,
        input_frame_interval=args.input_frame_interval,
    )
    profile = load_runtime_profile(args.profile)
    # each scene's input clock: its boxes are decoded, checked and dropped
    clocks = {
        scene_id: [f.timestamp_us for f in frames]
        for scene_id, frames in iter_scene_annotations(args.gt)
    }
    dets = SceneCursor(iter_detections(args.det), "detections", known=clocks)
    total = 0
    with _replacing(args.out) as fh:
        # every scene is seeded alike, so the order scenes run in is immaterial
        for scene_id in sorted(clocks):
            try:
                stream = simulate_stream(clocks[scene_id], dets.take(scene_id) or (), profile, cfg)
            except ValidationError as exc:
                raise ValidationError(f"scene {scene_id!r}: {exc}") from None
            write_stream(fh, [stream])
            total += len(stream)
        dets.finish(clocks)
    # the slowdown that ran: the profile's own factor times the configured one
    contention = with_contention(profile, cfg.contention_factor).contention_factor
    _write_manifest(args.out, args, inputs,
                    {"seed": cfg.seed, "contention_factor": contention,
                     "input_frame_interval": cfg.input_frame_interval, "profile": profile.name})
    _info(args, f"wrote {total} stream records to {args.out}")
    return EXIT_OK


def _cmd_baseline_sv(args) -> int:
    inputs = _distinct(args, ["--stream", "--gt"], ["--out"])
    kcfg = _config(KalmanConfig, _load_config(args.config))
    # only the scene ids of --gt are used: its boxes are decoded, checked and dropped
    scene_ids = {scene_id for scene_id, _ in iter_scene_annotations(args.gt)}
    streams = SceneCursor(iter_stream(args.stream), "stream", known=scene_ids)
    with _replacing(args.out) as fh:
        for scene_id in sorted(scene_ids):
            stream = streams.take(scene_id)
            if stream is not None:
                write_stream(fh, [refine_stream(stream, kcfg)], boxes="refined")
        streams.finish(scene_ids)
    _write_manifest(args.out, args, inputs, dataclasses.asdict(kcfg))
    _info(args, f"wrote refined stream to {args.out}")
    return EXIT_OK


def _record_times(stream: PredictionStream | None) -> list[tuple[int, int]] | None:
    """(completion, source) times of every record; None for no stream."""
    return None if stream is None else [(r.completion_us, r.source_us) for r in stream.records]


def _sv_predictions(sv_path: str, stream_path: str):
    """(scene_id, `cv_pipeline` over the refined stream) for each scene of
    the sv file. Once it is read to its end, a scene whose record times
    differ from the stream file's, or that only one of the files has, is a
    ValidationError naming every such scene."""
    raw = SceneCursor(iter_stream(stream_path), "stream")
    mismatched = []
    for scene_id, sv in iter_stream(sv_path, boxes="refined"):
        if _record_times(raw.take(scene_id)) != _record_times(sv):
            mismatched.append(scene_id)
        yield scene_id, cv_pipeline(sv)
    mismatched += raw.rest()  # the scenes the sv file lacks
    if mismatched:
        raise ValidationError(
            f"sv file {sv_path} was not built from {stream_path}: "
            f"record times differ in scenes {sorted(mismatched)}"
        )


def _cmd_evaluate(args) -> int:
    inputs = _distinct(args, ["--gt", "--stream", "--offline", "--sv"], ["--out", "--csv"])
    if args.sv:
        # the refined records replace the raw ones, which serve only to check them
        streams, fns = (), _sv_predictions(args.sv, args.stream)
    else:
        streams, fns = iter_stream(args.stream), ()
    pool = pool_scenes(iter_scene_annotations(args.gt), streams, fns,
                       iter_detections(args.offline) if args.offline else None)

    metadata = {
        "scenes": pool.scenes(),
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

    report = pool.report(metadata)
    with _replacing(args.out) as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")
        if args.csv:
            _write_report_csv(args.csv, report)
    _write_manifest(args.out, args, inputs, {"sv": bool(args.sv)})
    _info(args, f"mAP-S={report.map_s:.4f} NDS-S={report.nds_s:.4f} -> {args.out}")
    return EXIT_OK


def _write_report_csv(path, report: MetricReport) -> None:
    with _replacing(path) as fh:
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
    inputs = _distinct(args, ["reports"], ["--out"])
    reports = []
    for path in args.reports:
        reports.append((path, _read_json(path, MetricReport.from_dict)))

    if args.compare and len(reports) != 2:
        raise ValidationError("--compare takes exactly two reports")
    with _replacing(args.out) as fh:
        writer = csv.writer(fh)
        if args.compare:
            (pa, ra), (pb, rb) = reports
            writer.writerow(["metric", Path(pa).name, Path(pb).name, "delta"])
            for name in ("map_s", "nds_s"):
                a, b = getattr(ra, name), getattr(rb, name)
                writer.writerow([name, f"{a:.6f}", f"{b:.6f}", f"{b - a:.6f}"])
        else:
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
    _write_manifest(args.out, args, inputs, {"compare": bool(args.compare)})
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
    # a stage frees each scene's records by reference counting as it goes:
    # they hold no cycles, so the cyclic collector would only rescan them
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
