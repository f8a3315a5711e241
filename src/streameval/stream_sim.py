"""Hardware-dependent streaming simulator.

Replays precomputed per-frame detector outputs against a runtime
distribution and produces the time-stamped prediction stream a real
deployment would emit. The scheduler always takes the newest frame: frames
overtaken while an inference is running are dropped, never processed late.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .data import (
    FrameDetections,
    RuntimeProfile,
    ValidationError,
    _box_to_json,
    _boxes_from_json,
    _iter_jsonl,
    _write_jsonl,
)


@dataclass(frozen=True, slots=True)
class SimConfig:
    seed: int = 0
    contention_factor: float = 1.0
    input_frame_interval: int = 1

    def __post_init__(self):
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")
        if not self.contention_factor >= 1.0:
            raise ValidationError(f"contention_factor must be >= 1, got {self.contention_factor}")
        if not self.input_frame_interval >= 1:
            raise ValidationError("input_frame_interval must be a positive integer")


@dataclass(frozen=True, slots=True)
class StreamRecord:
    completion_us: int
    source_us: int
    detections: FrameDetections


@dataclass(slots=True)
class PredictionStream:
    """Time-ordered model outputs: (completion time, source frame, boxes).

    Records are validated and indexed at construction; do not modify them
    afterwards.
    """

    records: list[StreamRecord] = field(default_factory=list)
    # completion times, built once so that matching many timestamps against
    # one stream bisects instead of rebuilding the list per timestamp
    _completions: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for rec in self.records:
            if rec.source_us > rec.completion_us:
                raise ValidationError("stream record completes before its source frame")
        for prev, curr in zip(self.records, self.records[1:]):
            if curr.completion_us <= prev.completion_us:
                raise ValidationError("stream completion timestamps must strictly increase")
            if curr.source_us <= prev.source_us:
                raise ValidationError("stream source timestamps must strictly increase")
        self._completions = [r.completion_us for r in self.records]

    def __len__(self) -> int:
        return len(self.records)

    def index_before(self, t_us: int) -> int | None:
        """Index of the newest record completing strictly before `t_us`, if any."""
        idx = bisect_left(self._completions, t_us) - 1
        return idx if idx >= 0 else None


def sample_runtime(
    profile: RuntimeProfile, rng: np.random.Generator, contention_factor: float = 1.0
) -> int:
    """One inference duration in microseconds (always at least 1).

    Empirical profiles draw uniformly from their samples; parametric
    profiles draw from the declared distribution. The draw is scaled by the
    profile's own contention factor times `contention_factor`, then the
    post-processing overhead is added.
    """
    if profile.samples_ms is not None:
        base = profile.samples_ms[int(rng.integers(len(profile.samples_ms)))]
    elif profile.distribution == "constant":
        base = profile.params["ms"]
    else:  # lognormal
        base = float(rng.lognormal(profile.params["mu"], profile.params["sigma"]))
    total_ms = base * profile.contention_factor * contention_factor + profile.overhead_ms
    return max(1, round(total_ms * 1000.0))


def simulate_stream(
    frame_timestamps: Sequence[int],
    outputs: Mapping[int, FrameDetections],
    profile: RuntimeProfile,
    cfg: SimConfig,
) -> PredictionStream:
    """Run the discrete-event loop over the input clock.

    The model starts on the first frame. On finishing at wall time w it
    consumes the newest not-yet-dropped frame with timestamp <= w, or idles
    until the next frame arrives; every frame that arrived strictly during
    the finished inference is dropped. Inference is slower than the frame
    period in the regimes of interest, so the stream has fewer records than
    there are input frames.
    """
    frames = list(frame_timestamps)
    for prev, curr in zip(frames, frames[1:]):
        if curr <= prev:
            raise ValidationError("frame timestamps must strictly increase")
    frames = frames[:: cfg.input_frame_interval]
    if not frames:
        return PredictionStream([])

    rng = np.random.default_rng(cfg.seed)
    records: list[StreamRecord] = []
    j = 0
    wall = frames[0]
    n = len(frames)
    while j < n:
        start = max(wall, frames[j])
        completion = start + sample_runtime(profile, rng, cfg.contention_factor)
        source = frames[j]
        try:
            dets = outputs[source]
        except KeyError:
            raise ValidationError(f"missing detector output for frame t={source}") from None
        records.append(StreamRecord(completion, source, dets))
        # next input: first frame not overtaken by this inference
        j = bisect_left(frames, completion, lo=j + 1)
        wall = completion
    return PredictionStream(records)


def contention_sweep(base_profile: RuntimeProfile, factors: Sequence[float]) -> list[RuntimeProfile]:
    """Derived profiles, one per slowdown factor, scaled at sampling time."""
    out = []
    for f in factors:
        if not f >= 1.0:
            raise ValidationError(f"contention factor must be >= 1, got {f}")
        if f == 1.0:
            out.append(replace(base_profile))
        else:
            out.append(
                replace(
                    base_profile,
                    name=f"{base_profile.name}@x{f:g}",
                    contention_factor=base_profile.contention_factor * f,
                )
            )
    return out


def _record_to_json(rec: StreamRecord) -> dict:
    return {
        "scene_id": rec.detections.scene_id,
        "completion_us": rec.completion_us,
        "source_us": rec.source_us,
        "boxes": [_box_to_json(b, with_score=True) for b in rec.detections.boxes],
    }


def _record_from_json(obj: dict, boxes: str = "boxes") -> StreamRecord:
    source_us = int(obj["source_us"])
    det = FrameDetections(
        scene_id=str(obj["scene_id"]),
        source_timestamp_us=source_us,
        boxes=_boxes_from_json(obj[boxes], with_score=True),
    )
    return StreamRecord(int(obj["completion_us"]), source_us, det)


def load_stream(path: str | Path, boxes: str = "boxes") -> dict[str, PredictionStream]:
    """Read a stream file written by `write_stream`, one stream per scene.

    Each record takes its boxes from the field named by `boxes`. A
    `baseline-sv` file read with `boxes="refined"` gives the refined
    streams; read with the default, it gives the streams it was built from.
    """
    records: dict[str, list[StreamRecord]] = {}
    for _, rec in _iter_jsonl(path, lambda obj: _record_from_json(obj, boxes)):
        records.setdefault(rec.detections.scene_id, []).append(rec)
    return {scene_id: PredictionStream(recs) for scene_id, recs in records.items()}


def write_stream(
    path: str | Path,
    streams: Mapping[str, PredictionStream],
    refined: Mapping[str, PredictionStream] | None = None,
) -> None:
    """Write per-scene streams to one file, scenes in sorted order.

    With `refined`, a stream of the same records per scene (such as
    `baseline.refine_stream` returns), each line also carries its record's
    refined boxes under `"refined"`: the `baseline-sv` file.
    """

    def lines():
        for scene_id in sorted(streams):
            records = streams[scene_id].records
            if refined is None:
                yield from map(_record_to_json, records)
                continue
            for rec, ref in zip(records, refined[scene_id].records, strict=True):
                boxes = [_box_to_json(b, with_score=True) for b in ref.detections.boxes]
                yield {**_record_to_json(rec), "refined": boxes}

    _write_jsonl(path, lines())
