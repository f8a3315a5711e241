"""Streaming-perception evaluation toolkit for autonomous-driving 3D detection.

Densifies keyframe annotations to high frame rate, simulates detector
latency under constrained compute, matches delayed predictions to ground
truth at every input timestamp, computes streaming detection metrics, and
provides a velocity-based prediction-updating baseline.
"""

__version__ = "0.1.0"

from .baseline import KalmanConfig, TrackState, cv_pipeline, cv_update, greedy_associate, kalman_step
from .baseline import refine_stream, sv_pipeline
from .data import (
    Box3D,
    FrameAnnotations,
    FrameDetections,
    PredictionStream,
    RuntimeProfile,
    TemporalDatabase,
    ValidationError,
)
from .geom import (
    BevRect,
    Quaternion,
    Vec3,
    bev_iou,
    bev_iou_reaches,
    center_distance,
    lerp_translation,
    slerp,
)
from .interp import InterpolationConfig, auto_clean, extend_annotations, interpolate_instance, query_temporal_db
from .metrics import (
    MatchResult,
    MetricReport,
    compute_ap,
    compute_ave_offline,
    compute_nds_s,
    compute_tp_errors,
    evaluate_scenes,
    evaluate_streaming,
    match_boxes,
    match_recent,
)
from .stream_sim import SimConfig, contention_sweep, sample_runtime, simulate_stream
from .synth import DetectorNoise, ObjectSpec, SceneSpec, gen_scene, oracle_detector

__all__ = [
    "__version__",
    "Box3D", "FrameAnnotations", "FrameDetections", "RuntimeProfile",
    "TemporalDatabase", "ValidationError",
    "BevRect", "Quaternion", "Vec3", "bev_iou", "bev_iou_reaches", "center_distance",
    "lerp_translation", "slerp",
    "InterpolationConfig", "auto_clean", "extend_annotations",
    "interpolate_instance", "query_temporal_db",
    "PredictionStream", "SimConfig", "contention_sweep", "sample_runtime",
    "simulate_stream",
    "MatchResult", "MetricReport", "compute_ap", "compute_ave_offline",
    "compute_nds_s", "compute_tp_errors", "evaluate_scenes", "evaluate_streaming", "match_boxes",
    "match_recent",
    "KalmanConfig", "TrackState", "cv_pipeline", "cv_update",
    "greedy_associate", "kalman_step", "refine_stream", "sv_pipeline",
    "DetectorNoise", "ObjectSpec", "SceneSpec", "gen_scene", "oracle_detector",
]
