"""Command-line pipeline: interpolate -> simulate -> baseline-sv -> evaluate -> report.

Each stage reads and writes plain JSON/JSON-Lines files so intermediate
artifacts stay inspectable. A stage declares its input and output flags once,
in `_build_parser`. `run` rejects an output that names an input, another
output or the `.manifest.json` sidecar of either; opens every output before
the stage reads an input; and moves each output's manifest (command line,
config snapshot, SHA-256 of every input that is a regular file, `--config`
included, the SHA-256 of every output, seed and tool version) into place
just before the output. All randomness derives from --seed. A stage that
treats each scene on its own runs its scenes in forked processes, one per
usable core, and writes what a serial run writes (`_runs`); `synth`, and
`interpolate` on one scene, split that scene's frames instead. Every
process runs the same `_cmd_*` function, which returns the stage's config
and its tally; the parent appends the children's text to its own and hands
every tally to the stage's end step, which alone prints: the progress line,
or, for `evaluate`, the merged pools' report.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import errno
import gc
import hashlib
import json
import os
import pickle
import shutil
import signal
import stat
import sys
import tempfile
import threading
import time
from contextlib import ExitStack, contextmanager
from functools import cache, partial
from itertools import accumulate
from pathlib import Path

from . import __version__
from .baseline import KalmanConfig, cv_pipeline, refine_stream
from .data import (
    SceneCursor,
    ValidationError,
    _read_json,
    _typed,
    iter_detections,
    iter_scene_annotations,
    iter_stream,
    iter_temporal_db,
    load_runtime_profile,
    scene_sizes,
    write_detections,
    write_scene_annotations,
    write_stream,
)
from .interp import InterpolationConfig, _ticks, extend_annotations
from .metrics import REPORT_SCORES, MetricReport, latest, pool_scenes
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


def _sha256(path: str) -> str | None:
    """The SHA-256 of the file at `path`; None for one that is not a regular
    file, such as a pipe (`/dev/fd/N`), which the stage has drained already."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        return None
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _flag(args, flag: str):
    """The value of the stage's `flag`, spelt as on the command line;
    `reports` is the report stage's list."""
    return getattr(args, flag.lstrip("-").replace("-", "_"))


def _distinct(args) -> tuple[list[str], list[str | None]]:
    """The paths the stage reads, those its input flags give and each
    `args.sidecars` flag's sidecar that exists, and the value of each of its
    output flags, once it is checked that no output names the file of an
    input or of another output, or the `.manifest.json` sidecar of either
    (by `os.path.realpath`)."""
    def given(flags):  # (flag, path) per path a flag gives; an unset flag gives none
        values = [(f, _flag(args, f)) for f in flags]
        return [(f, p) for f, v in values for p in (v if isinstance(v, list) else [v]) if p]

    def files(flags):  # (flag, path) per file a flag names: each path and its sidecar
        return [(f, q) for f, p in given(flags) for q in (p, f"{p}.manifest.json")]

    named = {os.path.realpath(p): (f, p) for f, p in files(args.inputs)}
    for flag, path in files(args.outputs):
        first, first_path = named.setdefault(os.path.realpath(path), (flag, path))
        if first != flag:
            raise ValidationError(f"{first} and {flag} both name {first_path}")
    sidecars = [f"{p}.manifest.json" for _, p in given(args.sidecars)]
    return ([p for _, p in given(args.inputs)] + [p for p in sidecars if os.path.exists(p)],
            [_flag(args, f) for f in args.outputs])


def _manifest(args, inputs: list[str], outputs: list, files: list, config: dict,
              resources: dict) -> str:
    """The stage's manifest. Each output's bytes are digested from its file
    in `files`, flushed here: `fh.name`, the temporary file of `_replacing`."""
    _flush(files)
    manifest = {
        "command": [sys.argv[0] if sys.argv else "streameval", *map(str, args._argv)],
        "config": config,
        "inputs": {p: args.sha256(p) for p in inputs},
        "outputs": {p: args.sha256(fh.name) for p, fh in zip(outputs, files) if fh is not None},
        "resources": resources,
        "seed": args.seed,
        "version": __version__,
        "wall_clock_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


@contextmanager
def _replacing(path: str):
    """A text file that takes the place of `path` when the block completes.

    It is written under a temporary name in the same directory and moved
    over `path` at the end, so a stage that fails partway through its input
    removes it and leaves any earlier `path` as it was.
    """
    # a directory, or "" (the working one), would fail only the final move, after the stage ran
    if os.path.isdir(path or os.curdir):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
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


def _cmd_synth(args, gt_fh, det_fh) -> tuple[dict, int]:
    spec_obj, (spec, noise, keyframe_every) = _read_json(
        args.spec, lambda obj: (obj, scene_spec_from_dict(obj))
    )
    seed = args.seed if args.seed is not None else spec.seed
    frames = gen_scene(spec, keyframe_every=keyframe_every)
    outputs = oracle_detector(frames, noise, seed=seed)
    share = args.share(len(frames))
    write_scene_annotations(gt_fh, frames[share])
    write_detections(det_fh, outputs[share])
    return {"spec": spec_obj, "seed": seed}, len(frames[share])


def _cmd_interpolate(args, fh) -> tuple[dict, int]:
    cfg = _config(
        InterpolationConfig,
        _load_config(args.config),
        clean_iou_threshold=args.clean_iou,
        min_db_score=args.min_db_score,
        target_rate_hz=args.rate,
    )
    dbs = None
    if args.tdb:
        dbs = SceneCursor(iter_temporal_db(args.tdb, args.skip), "temporal database")
    scene_ids, total = [], 0
    for scene_id, frames in iter_scene_annotations(args.gt, args.skip):
        scene_ids.append(scene_id)
        keyframes = [f for f in frames if f.is_keyframe]
        db = None if dbs is None else dbs.take(scene_id)
        ticks = _ticks(keyframes, cfg)
        dense = extend_annotations(keyframes, db, cfg, ticks[args.share(len(ticks))])
        write_scene_annotations(fh, dense)
        total += len(dense)
    if dbs is not None:
        dbs.finish(scene_ids)
    return dataclasses.asdict(cfg), total


def _cmd_simulate(args, fh) -> tuple[dict, int]:
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
        for scene_id, frames in iter_scene_annotations(args.gt, args.skip)
    }
    dets = SceneCursor(iter_detections(args.det, args.skip), "detections", known=clocks)
    total = 0
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
    return {"seed": cfg.seed, "contention_factor": contention,
            "input_frame_interval": cfg.input_frame_interval, "profile": profile.name}, total


def _cmd_baseline_sv(args, fh) -> tuple[dict, int]:
    kcfg = _config(KalmanConfig, _load_config(args.config))
    # only the scene ids of --gt are used: its boxes are decoded, checked and dropped
    scene_ids = {scene_id for scene_id, _ in iter_scene_annotations(args.gt, args.skip)}
    streams = SceneCursor(iter_stream(args.stream, skip=args.skip), "stream", known=scene_ids)
    total = 0
    for scene_id in sorted(scene_ids):
        stream = streams.take(scene_id)
        if stream is not None:
            write_stream(fh, [refine_stream(stream, kcfg)], boxes="refined")
            total += len(stream)
    streams.finish(scene_ids)
    return dataclasses.asdict(kcfg), total


def _manifest_of(args, path: str) -> dict | None:
    """The manifest in `<path>.manifest.json` once its `outputs` hold the
    SHA-256 of `path`: {} with no sidecar there, None with one describing
    other bytes. A sidecar that is no JSON object with a `command` list and
    `config`, `inputs` and `outputs` objects is a ValidationError naming it."""
    sidecar = f"{path}.manifest.json"
    if not os.path.exists(sidecar):
        return {}
    digest = args.sha256(path)

    def read(obj):
        for key, kind in {"command": list, "config": dict, "inputs": dict, "outputs": dict}.items():
            _typed(obj[key], kind, key)
        return obj if digest and digest in obj["outputs"].values() else None

    return _read_json(sidecar, read)


def _built_from(args, path: str, stream: str) -> bool:
    """Whether the manifest of `path` records it built from `stream`: the
    `inputs` entry of the one path its `command` gives `--stream` holds the
    SHA-256 of the regular file `stream`."""
    manifest, digest = _manifest_of(args, path) or {"command": []}, args.sha256(stream)
    command = list(map(str, manifest["command"]))
    given = [b for a, b in zip(command, command[1:]) if a == "--stream"]
    given += [a.removeprefix("--stream=") for a in command if a.startswith("--stream=")]
    return len(given) == 1 and digest is not None and manifest["inputs"].get(given[0]) == digest


def _cmd_evaluate(args, *outputs) -> tuple[dict, tuple]:
    # both manifests are read before any scene is scored, so their errors come first
    manifest = _manifest_of(args, args.stream)
    if manifest is None:
        raise ValidationError(
            f"{args.stream}.manifest.json: describes other bytes than {args.stream}")
    if args.sv and not _built_from(args, args.sv, args.stream):
        raise ValidationError(f"sv file {args.sv} was not built from {args.stream}")
    boxes, fn = ("refined", cv_pipeline) if args.sv else ("boxes", latest)
    fns = ((sid, fn(s)) for sid, s in iter_stream(args.sv or args.stream, boxes, args.skip))
    pool = pool_scenes(iter_scene_annotations(args.gt, args.skip), fns,
                       iter_detections(args.offline, args.skip) if args.offline else None)
    # the end step, `_write_report`, writes the outputs once every pool is in
    return {"sv": bool(args.sv)}, (manifest.get("config", {}), pool)


def _write_report(args, tallies: list, fh, csv_fh) -> None:
    """`evaluate`'s end step: merge every process's pool into the parent's,
    in run order, and write the report and its CSV table."""
    (sim, pool), *others = tallies
    for _, other in others:
        pool.merge(other)
    metadata = {
        "scenes": pool.scenes(),
        "gt": Path(args.gt).name,
        "stream": Path(args.stream).name,
        "sv": bool(args.sv),
        "seed": args.seed,
    }
    for key, value in sim.items():
        metadata.setdefault("sim_seed" if key == "seed" else key, value)

    report = pool.report(metadata)
    json.dump(report.to_dict(), fh, indent=2)
    fh.write("\n")
    if csv_fh is not None:
        writer = csv.writer(csv_fh)
        writer.writerow(["class", "threshold_m", "ap"])
        for (cls, thr), ap in sorted(report.per_class_ap.items()):
            writer.writerow([cls, f"{thr:g}", f"{ap:.6f}"])
        writer.writerow([])
        writer.writerow(["summary", "metric", "value"])
        for name in REPORT_SCORES:
            writer.writerow(["summary", name, f"{getattr(report, name):.6f}"])
    _info(args, f"mAP-S={report.map_s:.4f} NDS-S={report.nds_s:.4f} -> {args.out}")


def _cmd_report(args, fh) -> tuple[dict, None]:
    reports = []
    for path in args.reports:
        reports.append((path, _read_json(path, MetricReport.from_dict)))

    if args.compare and len(reports) != 2:
        raise ValidationError("--compare takes exactly two reports")
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
    return {"compare": bool(args.compare)}, None


def _wrote(what: str | None, args, tallies: list, *files) -> None:
    """An end step: "wrote N <what> to <each output>", N summed over every
    process's tally; with no `what`, "wrote <each output>"."""
    count = f"{sum(tallies)} {what} to " if what else ""
    _info(args, f"wrote {count}{' and '.join(_flag(args, f) for f in args.outputs)}")


# --------------------------------------------------------------------------
# scenes and frames split across processes
# --------------------------------------------------------------------------


def _usable_cores() -> int:
    """The cores this process may run on, as `taskset` or a cgroup limits them."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return 1


def _cut(sizes: list[int], k: int) -> list[int]:
    """The start of each of `k` contiguous, non-empty runs of `sizes`: the
    j-th run after the first starts at the boundary whose running sum is
    nearest j/k of the total, the earlier one on a tie."""
    ends = list(accumulate(sizes))  # ends[i - 1]: the sum before index i
    starts = [0]
    for j in range(1, k):
        cuts = range(starts[-1] + 1, len(sizes) - (k - j) + 1)
        starts.append(min(cuts, key=lambda i: abs(ends[i - 1] * k - ends[-1] * j)))
    return starts


def _runs(args, inputs: list[str]) -> list[tuple[frozenset[str], int, int]]:
    """What each process of the stage does, the parent's first: the scenes
    it passes over and its share j of k of each scene's frames (`_share`).

    A stage that splits its scenes (`args.split`, the order it writes them
    in) runs them as k contiguous runs of that order, balanced by the bytes
    of their `--gt` lines, one process each, where k is the number of usable
    cores or of scenes, whichever is smaller. A stage that splits frames
    (`args.frames`) splits those of its one scene into one share per usable
    core: `synth` always, `interpolate` when its `--gt` holds one scene.
    One run, [(frozenset(), 0, 1)], is the serial stage: for a stage that
    does not split, one usable core or one scene of a stage that cannot
    split its frames, a platform without `os.fork`, a thread besides this
    one, an input that is no regular file, or a `--gt` line that does not
    start with its scene id or a scene whose lines are not contiguous
    (`data.scene_sizes`).
    """
    serial = [(frozenset(), 0, 1)]
    cores = _usable_cores()
    if (not (args.split or args.frames) or cores < 2 or not hasattr(os, "fork")
            or threading.active_count() > 1 or not all(map(os.path.isfile, inputs))):
        return serial
    shares = [(frozenset(), j, cores) for j in range(cores)]
    if not args.split:  # a stage of one scene
        return shares
    try:
        sizes = scene_sizes(args.gt)
    except OSError:  # the stage itself reports it, after any error it meets first
        return serial
    if sizes is None or len(sizes) < 2:
        return shares if sizes and args.frames else serial
    if args.split == "sorted":
        sizes.sort()
    scenes = [scene_id for scene_id, _ in sizes]
    starts = _cut([n for _, n in sizes], min(cores, len(scenes)))
    every = frozenset(scenes)
    return [(every.difference(scenes[a:b]), 0, 1)
            for a, b in zip(starts, [*starts[1:], len(scenes)])]


def _share(j: int, k: int, n: int) -> slice:
    """The j-th of k contiguous shares of a scene's n frames, balanced by
    count. Only as many shares as leave each at least 2 frames get any: with
    fewer than 4 frames the first share, the parent's, holds them all."""
    k = max(1, min(k, n // 2))
    return slice(n * j // k, n * (j + 1) // k) if j < k else slice(0)


def _flush(files: list) -> None:
    for fh in filter(None, files):  # an unset output is None
        fh.flush()


def _join(children: list, files: list, peaks: list) -> list:
    """Wait for each child in run order, append the text it wrote for each
    data output to the parent's in `files`, add its peak resident size in MB
    to `peaks`, and return the children's tallies. A child that did not exit
    0 raises ChildProcessError."""
    _flush(files)
    tallies = []
    while children:
        pid, outs, tally_file = children[0]
        _, status, usage = os.wait4(pid, 0)
        del children[0]
        if status != 0:
            raise ChildProcessError(f"child {pid} ended with status {status}")
        # ru_maxrss counts bytes on macOS and kilobytes elsewhere
        peaks.append(round(usage.ru_maxrss / (1 << 20 if sys.platform == "darwin" else 1 << 10), 1))
        for fh, out in zip(files, outs):
            if out is not None:
                out.seek(0)
                shutil.copyfileobj(out.buffer, fh.buffer)
        tally_file.seek(0)
        tallies.append(pickle.load(tally_file))
    return tallies


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="streameval", description=__doc__)
    parser.add_argument("--seed", type=int, default=None, help="seed for all randomness")
    parser.add_argument("--config", default=None, help="JSON file of config overrides")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    parser.set_defaults(split=None, frames=False, sidecars=[], end=partial(_wrote, None))
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene and oracle detections")
    p.add_argument("--spec", required=True)
    p.add_argument("--out-gt", required=True)
    p.add_argument("--out-det", required=True)
    p.set_defaults(fn=_cmd_synth, inputs=["--spec"], outputs=["--out-gt", "--out-det"],
                   end=partial(_wrote, "frames"), frames=True)

    p = sub.add_parser("interpolate", help="densify keyframe annotations")
    p.add_argument("--gt", required=True, help="keyframe annotations (.gt.jsonl)")
    p.add_argument("--tdb", default=None, help="temporal database (.tdb.jsonl)")
    p.add_argument("--rate", type=float, default=None, help="target rate in Hz (default 12)")
    p.add_argument("--clean-iou", type=float, default=None, help="auto-clean IoU threshold")
    p.add_argument("--min-db-score", type=float, default=None, help="database score cutoff")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_interpolate, inputs=["--gt", "--tdb", "--config"], outputs=["--out"],
                   end=partial(_wrote, "dense frames"), split="file", frames=True)

    p = sub.add_parser("simulate", help="simulate the prediction stream under latency")
    p.add_argument("--det", required=True, help="per-frame detector outputs (.det.jsonl)")
    p.add_argument("--gt", required=True, help="dense annotations giving the input clock")
    p.add_argument("--profile", required=True, help="runtime profile JSON")
    p.add_argument("--contention", type=float, default=None, help="runtime slowdown factor")
    p.add_argument("--input-frame-interval", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_simulate, inputs=["--gt", "--det", "--profile", "--config"],
                   outputs=["--out"], end=partial(_wrote, "stream records"), split="sorted")

    p = sub.add_parser("baseline-sv", help="velocity-based updating over a stream")
    p.add_argument("--stream", required=True)
    p.add_argument("--gt", required=True, help="annotations whose scenes must cover the stream's")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_baseline_sv, inputs=["--stream", "--gt", "--config"], outputs=["--out"],
                   end=partial(_wrote, "refined records"), split="sorted")

    p = sub.add_parser("evaluate", help="streaming evaluation of a prediction stream")
    p.add_argument("--gt", required=True)
    p.add_argument("--stream", required=True)
    p.add_argument("--offline", default=None, help="raw detector outputs for velocity error")
    p.add_argument("--sv", default=None, help="baseline-sv output to evaluate instead of raw")
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--csv", default=None, help="optional CSV table path")
    p.set_defaults(fn=_cmd_evaluate, inputs=["--gt", "--stream", "--offline", "--sv"],
                   sidecars=["--stream", "--sv"], outputs=["--out", "--csv"], end=_write_report,
                   split="file")

    p = sub.add_parser("report", help="tabulate or compare evaluation reports")
    p.add_argument("reports", nargs="+", help="report JSON files")
    p.add_argument("--compare", action="store_true", help="diff two reports")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_report, inputs=["reports"], outputs=["--out"])

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
    args.sha256 = cache(_sha256)  # each file is digested once per run
    start = time.perf_counter()
    # a stage frees each scene's records by reference counting as it goes:
    # they hold no cycles, so the cyclic collector would only rescan them
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        inputs, outputs = _distinct(args)
        with ExitStack() as stack:
            files = [None] * len(outputs)  # an unset optional output is passed as None
            sidecars = []
            for i, path in enumerate(outputs):
                if path is not None:
                    files[i] = stack.enter_context(_replacing(path))
                    # entered after its output, so the stack moves it into place first
                    sidecars.append(stack.enter_context(_replacing(f"{path}.manifest.json")))
            runs = _runs(args, inputs)
            while True:  # the split run, then, if it fails, the serial one
                children = []  # (pid, text files, tally file) of each child not yet joined
                peaks = []  # the peak resident size of each child joined, in MB
                try:
                    for skip, j, k in runs[1:]:
                        # a text file for each data output that is set, as the parent has
                        outs = [None if fh is None else stack.enter_context(
                            tempfile.TemporaryFile("w+", encoding="utf-8", newline=""))
                            for fh in files]
                        tally_file = stack.enter_context(tempfile.TemporaryFile())
                        args.skip, args.share = skip, partial(_share, j, k)
                        pid = os.fork()
                        if pid == 0:  # a child runs its share and ends here, inside the stack
                            code = 1  # whatever the stage raises ends the child unprinted
                            try:
                                pickle.dump(args.fn(args, *outs)[1], tally_file)
                                _flush([*outs, tally_file])
                                code = 0
                            finally:
                                os._exit(code)
                        children.append((pid, outs, tally_file))
                    skip, j, k = runs[0]
                    args.skip, args.share = skip, partial(_share, j, k)
                    config, tally = args.fn(args, *files)
                    tallies = [tally, *_join(children, files, peaks)]
                    break
                except Exception:
                    if len(runs) == 1:
                        raise
                    # any failure of a split run: the stage runs again, serially,
                    # and fails, if it does, as it always has
                    runs = [(frozenset(), 0, 1)]
                    for fh in filter(None, files):
                        fh.seek(0)
                        fh.truncate()
                finally:
                    for pid, _, _ in children:  # kill and wait for every child not yet joined
                        os.kill(pid, signal.SIGKILL)
                        os.waitpid(pid, 0)
            args.end(args, tallies, *files)
            resources = {"wall_s": round(time.perf_counter() - start, 3),
                         "processes": len(runs), "child_peak_rss_mb": peaks}
            manifest = _manifest(args, inputs, outputs, files, config, resources)
            for fh in sidecars:
                fh.write(manifest)
        return EXIT_OK
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
