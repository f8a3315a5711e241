"""Span tracing of the streameval layers from outside the package.

`Tracer.install()` replaces every traced function in every namespace that
binds it (the package itself and each module that imported it by name) with
a wrapper that records a span: name, start, end and parent. Spans are kept
in flat arrays for the length of one workload iteration, so a million
`bev_iou` calls cost about 24 MB, and are summarised into per-layer metrics
when the iteration ends. A few very hot helpers are only counted, because a
span would cost more than the work it measures.

Self time is a span's duration minus the time its direct children cover;
the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("synth", "data", "geom", "interp", "stream_sim", "baseline", "metrics", "cli")

# Called too often for a span to be cheap against the work: counted only.
COUNT_ONLY = {
    "geom.center_distance",
    "geom.wrap_angle",
    "data._box_from_json",
    "data._box_to_json",
}
# Private functions that are layer boundaries all the same: the CLI stages
# and the stream/sv decoders that live in the CLI module.
PRIVATE_SPANS = {
    "cli._load_streams_by_scene",
    "cli._load_sv_refinements",
}
DECODE = {
    "data.load_scene_annotations",
    "data.load_detections",
    "data.load_temporal_db",
    "data.load_runtime_profile",
    "stream_sim.load_stream",
    "cli._load_streams_by_scene",
    "cli._load_sv_refinements",
}
ENCODE = {
    "data.write_scene_annotations",
    "data.write_detections",
    "data.write_temporal_db",
    "data.write_runtime_profile",
    "stream_sim.write_stream",
}
# counted by the count-only wrappers and the hooks below; zero when unused
COUNTERS = (
    *(f"{name}.calls" for name in sorted(COUNT_ONLY)),
    "geom.bev_iou.nonzero",
    "interp.auto_clean.queried",
    "interp.auto_clean.appended",
    "stream_sim.frames",
    "stream_sim.records",
    "baseline.assoc_detections",
    "baseline.assoc_matches",
    "metrics.match_boxes.in_evaluate_pairs",
)


def _span_name(layer: str, fn_name: str) -> str | None:
    """Span name for a module function, or None when it is not traced."""
    name = f"{layer}.{fn_name}"
    if layer == "cli" and fn_name.startswith("_cmd_"):
        return f"cli.{fn_name[len('_cmd_'):]}"
    if fn_name.startswith("_") and name not in PRIVATE_SPANS and name not in COUNT_ONLY:
        return None
    return name


def _layer_of(name: str) -> str:
    return "data" if name in DECODE or name in ENCODE else name.split(".", 1)[0]


class Tracer:
    """Patches the package's functions and records spans while installed."""

    def __init__(self):
        self._package = importlib.import_module("streameval")
        self._modules = {
            layer: importlib.import_module(f"streameval.{layer}") for layer in LAYERS
        }
        self.names: list[str] = []
        self._wrappers: dict[int, object] = {}
        for layer, module in self._modules.items():
            for fn_name, fn in vars(module).items():
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = _span_name(layer, fn_name)
                if name is None or inspect.isgeneratorfunction(fn):
                    continue
                self._wrappers[id(fn)] = self._wrap(fn, name)
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Drop the spans and counters of the previous iteration."""
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: dict[str, int] = {key: 0 for key in COUNTERS}
        self.class_frames: set = set()

    def _wrap(self, fn, name: str):
        if name in COUNT_ONLY:
            counts_key = f"{name}.calls"

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.counts[counts_key] += 1
                return fn(*args, **kwargs)

            return counted

        name_id = len(self.names)
        self.names.append(name)
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(name_id)
            self.parent.append(self.stack[-1])
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self.stack.pop()
            if hook is not None:
                hook(self, idx, args, kwargs, result)
            return result

        return spanned

    def install(self) -> None:
        namespaces = [self._package, *self._modules.values()]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((ns, attr, value))
                    setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.reset()
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def parent_name(self, idx: int) -> str | None:
        p = self.parent[idx]
        return None if p < 0 else self.names[self.name_id[p]]

    def save(self, path) -> None:
        """Write the current iteration's spans as arrays, for offline reading."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

    def summary(self) -> tuple[dict[str, float], dict[str, int]]:
        """(times, counts) of the spans recorded since the last reset.

        Times are seconds; counts are exact and repeat across runs of the
        same inputs. Ratios are derived from the counts by `per_layer`.
        """
        n_names = len(self.names)
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_t = dur - child
        calls = np.bincount(name_id, minlength=n_names)
        total = np.bincount(name_id, weights=dur, minlength=n_names)
        self_total = np.bincount(name_id, weights=self_t, minlength=n_names)

        times: dict[str, float] = {}
        counts: dict[str, int] = dict(self.counts)
        for i, name in enumerate(self.names):
            counts[f"{name}.calls"] = int(calls[i])
            times[f"{name}.s"] = float(total[i])
            times[f"{name}.self_s"] = float(self_total[i])
        layer_of_name = np.array([LAYERS.index(_layer_of(n)) for n in self.names], dtype=np.int64)
        by_layer = np.bincount(layer_of_name[name_id], weights=self_t, minlength=len(LAYERS))
        for i, layer in enumerate(LAYERS):
            times[f"{layer}.self_s"] = float(by_layer[i])

        # decode/encode nest (load_temporal_db calls load_detections): count
        # only spans whose parent is not in the same group
        names_arr = np.array(self.names + [""])
        parent_name = names_arr[np.where(has_parent, name_id[np.maximum(parent, 0)], n_names)]
        span_name = names_arr[name_id]
        for group, members in (("decode", DECODE), ("encode", ENCODE)):
            members_arr = np.array(sorted(members))
            top = np.isin(span_name, members_arr) & ~np.isin(parent_name, members_arr)
            times[f"data.{group}.s"] = float(dur[top].sum())
        counts["metrics.match_boxes.class_frames"] = len(self.class_frames)
        return times, counts


# --------------------------------------------------------------------------
# hooks: counters taken where the work happens, from arguments and results
# --------------------------------------------------------------------------


def _add(tracer: Tracer, key: str, n: int) -> None:
    tracer.counts[key] += n


def _hook_bev_iou(tracer, idx, args, kwargs, result):
    if result > 0.0:
        _add(tracer, "geom.bev_iou.nonzero", 1)


def _hook_auto_clean(tracer, idx, args, kwargs, result):
    interpolated = args[0] if args else kwargs["interpolated"]
    queried = args[1] if len(args) > 1 else kwargs["queried"]
    _add(tracer, "interp.auto_clean.queried", len(queried))
    _add(tracer, "interp.auto_clean.appended", len(result) - len(interpolated))


def _hook_simulate_stream(tracer, idx, args, kwargs, result):
    frames = args[0] if args else kwargs["frame_timestamps"]
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    _add(tracer, "stream_sim.frames", len(list(frames)[:: cfg.input_frame_interval]))
    _add(tracer, "stream_sim.records", len(result))


def _hook_greedy_associate(tracer, idx, args, kwargs, result):
    curr = args[1] if len(args) > 1 else kwargs["curr_boxes"]
    _add(tracer, "baseline.assoc_detections", len(curr))
    _add(tracer, "baseline.assoc_matches", len(result[0]))


def _hook_match_boxes(tracer, idx, args, kwargs, result):
    # (class, frame) keys are counted only for evaluate_pairs' own calls;
    # compute_ave_offline matches each detection frame once more at 2 m
    if tracer.parent_name(idx) != "metrics.evaluate_pairs":
        return
    gt_boxes = args[0] if args else kwargs["gt_boxes"]
    category = args[2] if len(args) > 2 else kwargs["category"]
    tracer.class_frames.add((tracer.parent[idx], id(gt_boxes), category))
    _add(tracer, "metrics.match_boxes.in_evaluate_pairs", 1)


_HOOKS = {
    "geom.bev_iou": _hook_bev_iou,
    "interp.auto_clean": _hook_auto_clean,
    "stream_sim.simulate_stream": _hook_simulate_stream,
    "baseline.greedy_associate": _hook_greedy_associate,
    "metrics.match_boxes": _hook_match_boxes,
}
