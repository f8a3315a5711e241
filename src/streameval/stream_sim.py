"""Hardware-dependent streaming simulator.

Replays precomputed per-frame detector outputs against a runtime
distribution and produces the time-stamped prediction stream a real
deployment would emit. The scheduler always takes the newest frame: frames
overtaken while an inference is running are dropped, never processed late.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from math import isfinite
from pathlib import Path
from typing import Iterator, Mapping, Sequence, TextIO

import numpy as np

from .data import (
    FrameDetections,
    RuntimeProfile,
    ValidationError,
    _boxes_from_json,
    _boxes_to_json,
    _json_int,
    _quote,
    _scene_blocks,
    _typed,
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

    @property
    def scene_id(self) -> str:
        return self.detections.scene_id


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


def sample_runtime(profile: RuntimeProfile, rng: np.random.Generator) -> int:
    """One inference duration in microseconds (always at least 1).

    Empirical profiles draw uniformly from their samples; parametric
    profiles draw from the declared distribution. The draw is scaled by the
    profile's contention factor, then the post-processing overhead is added.
    """
    if profile.samples_ms is not None:
        base = profile.samples_ms[int(rng.integers(len(profile.samples_ms)))]
    elif profile.distribution == "constant":
        base = profile.params["ms"]
    else:  # lognormal
        base = float(rng.lognormal(profile.params["mu"], profile.params["sigma"]))
    total_us = (base * profile.contention_factor + profile.overhead_ms) * 1000.0
    if not isfinite(total_us):
        raise ValidationError(f"sampled inference time is not finite: {total_us} us")
    return max(1, round(total_us))


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
    frames = [_frame_time(t) for t in frame_timestamps]
    for prev, curr in zip(frames, frames[1:]):
        if curr <= prev:
            raise ValidationError("frame timestamps must strictly increase")
    frames = frames[:: cfg.input_frame_interval]
    if not frames:
        return PredictionStream([])
    profile = with_contention(profile, cfg.contention_factor)

    rng = np.random.default_rng(cfg.seed)
    records: list[StreamRecord] = []
    j = 0
    wall = frames[0]
    n = len(frames)
    while j < n:
        start = max(wall, frames[j])
        completion = start + sample_runtime(profile, rng)
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


def _frame_time(t) -> int:
    """`t` as an `int`, numpy integers included; anything else is rejected."""
    try:
        return operator.index(t)
    except TypeError:
        raise ValidationError(f"frame timestamp must be an integer, got {t!r}") from None


def with_contention(profile: RuntimeProfile, factor: float) -> RuntimeProfile:
    """`profile` slowed down by `factor` on top of its own contention factor.

    The factors multiply into one, which `sample_runtime` applies; a factor
    of 1 gives a copy of `profile`.
    """
    if not factor >= 1.0:
        raise ValidationError(f"contention factor must be >= 1, got {factor}")
    if factor == 1.0:
        return replace(profile)
    return replace(
        profile,
        name=f"{profile.name}@x{factor:g}",
        contention_factor=profile.contention_factor * factor,
    )


def contention_sweep(base_profile: RuntimeProfile, factors: Sequence[float]) -> list[RuntimeProfile]:
    """Derived profiles, one per slowdown factor, scaled at sampling time."""
    return [with_contention(base_profile, f) for f in factors]


def _record_to_json(rec: StreamRecord, boxes: str) -> str:
    """The record's JSON line, its boxes under the field named by `boxes`."""
    return (
        f'{{"scene_id":{_quote(rec.detections.scene_id)},'
        f'"completion_us":{_json_int(rec.completion_us)},"source_us":{_json_int(rec.source_us)},'
        f'{_quote(boxes)}:{_boxes_to_json(rec.detections.boxes, with_score=True)}}}'
    )


def _record_from_json(obj: dict, boxes: str) -> StreamRecord:
    source_us = _typed(obj["source_us"], int, "source_us")
    det = FrameDetections(
        scene_id=_typed(obj["scene_id"], str, "scene_id"),
        source_timestamp_us=source_us,
        boxes=_boxes_from_json(obj[boxes], with_score=True),
    )
    return StreamRecord(_typed(obj["completion_us"], int, "completion_us"), source_us, det)


def iter_stream(path: str | Path, boxes: str = "boxes") -> Iterator[tuple[str, PredictionStream]]:
    """Read a stream file one scene at a time: (scene_id, stream) per block.

    Each record takes its boxes from the field named by `boxes`: a
    `baseline-sv` file is read with `boxes="refined"`.
    """
    for scene_id, records in _scene_blocks(path, lambda obj: _record_from_json(obj, boxes)):
        try:
            stream = PredictionStream(records)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None
        yield scene_id, stream


def load_stream(path: str | Path, boxes: str = "boxes") -> dict[str, PredictionStream]:
    """Read a stream file written by `write_stream`, one stream per scene
    (`iter_stream`, collected)."""
    return dict(iter_stream(path, boxes))


def write_stream(
    out: str | Path | TextIO, streams: Mapping[str, PredictionStream], boxes: str = "boxes"
) -> None:
    """Write per-scene streams to `out` (a path or an open text file), scenes
    in sorted order.

    Each record's boxes go under the field named by `boxes`: `baseline-sv`
    writes the streams `baseline.refine_stream` returns with
    `boxes="refined"`.
    """
    _write_jsonl(
        out,
        (_record_to_json(rec, boxes) for scene_id in sorted(streams)
         for rec in streams[scene_id].records),
    )
