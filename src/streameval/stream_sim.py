"""Hardware-dependent streaming simulator.

Replays precomputed per-frame detector outputs against a runtime
distribution and produces the time-stamped prediction stream a real
deployment would emit. The scheduler always takes the newest frame: frames
overtaken while an inference is running are dropped, never processed late.
The stream's records and its file format belong to `data`.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass, replace
from math import isfinite
from typing import Sequence

import numpy as np

from .data import FrameDetections, PredictionStream, RuntimeProfile, StreamRecord, ValidationError


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
    outputs: Sequence[FrameDetections],
    profile: RuntimeProfile,
    cfg: SimConfig,
) -> PredictionStream:
    """Run the discrete-event loop over the input clock.

    The model starts on the first frame. On finishing at wall time w it
    consumes the newest not-yet-dropped frame with timestamp <= w, or idles
    until the next frame arrives; every frame that arrived strictly during
    the finished inference is dropped. Inference is slower than the frame
    period in the regimes of interest, so the stream has fewer records than
    there are input frames. Each output serves the frame of its own timestamp.
    """
    frames = [_frame_time(t) for t in frame_timestamps]
    for prev, curr in zip(frames, frames[1:]):
        if curr <= prev:
            raise ValidationError("frame timestamps must strictly increase")
    by_frame: dict[int, FrameDetections] = {}
    for dets in outputs:
        if by_frame.setdefault(dets.source_timestamp_us, dets) is not dets:
            raise ValidationError(f"two detector outputs for frame t={dets.source_timestamp_us}")
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
            dets = by_frame[source]
        except KeyError:
            raise ValidationError(f"missing detector output for frame t={source}") from None
        records.append(StreamRecord(completion, dets))
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
    """`profile`, under its own name, slowed down by `factor` on top of its
    own contention factor.

    The factors multiply into one, which `sample_runtime` applies; a factor
    of 1 gives a copy of `profile`.
    """
    if not factor >= 1.0:
        raise ValidationError(f"contention factor must be >= 1, got {factor}")
    return replace(profile, contention_factor=profile.contention_factor * factor)


def contention_sweep(base_profile: RuntimeProfile, factors: Sequence[float]) -> list[RuntimeProfile]:
    """Derived profiles, one per slowdown factor, scaled at sampling time."""
    return [with_contention(base_profile, f) for f in factors]
