"""Runs one workload for a while in this process and prints its result.

Started by `run.py` in a fresh interpreter whose environment pins numeric
libraries to one thread and clears `ASAP_STREAM_THREADS`. The last line of
standard output is one JSON object; `run.py` turns it into the benchmark's
metrics.

    python3 perfbench/worker.py --workload densify --seed 1 --seconds 30 \
        --trace 0 --workdir .perfbench/run-1
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from workloads import SCALES, WORKLOADS, Iteration, check_reference

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
# an iteration is not started if it would likely end after this many
# seconds of the run; the run as a whole must finish within 180 s
HARD_CAP_S = 140.0


def load_reference(workload, seed: int) -> dict | None:
    if not REFERENCE.exists():
        return None
    table = json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload.name, {})
    if table.get("params") != workload.params_digest:
        return None
    return table.get("seeds", {}).get(str(seed))


def one_iteration(workload, workdir: Path, tracer=None) -> Iteration:
    """Run, then check, one pass over the workload in a fresh directory."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    it = Iteration(workdir)
    gc.collect()
    if tracer is None:
        t0 = perf_counter()
        workload.run(it)
        it.wall_s = perf_counter() - t0
    else:
        with tracer:
            t0 = perf_counter()
            workload.run(it)
            it.wall_s = perf_counter() - t0
    workload.check(it)
    return it


def per_layer(traced: list[tuple[Iteration, dict, dict]], untraced: list[Iteration]) -> dict:
    """Per-layer metrics: median times over traced iterations, exact counts.

    Ratios come with their bases as separate counts. Stage times are from
    the untraced iterations, so tracing does not inflate them.
    """
    times = {key: statistics.median(t[key] for _, t, _ in traced) for key in traced[0][1]}
    counts = traced[0][2]
    first = traced[0][0]

    def c(key: str) -> int:
        return counts.get(key, 0)

    def ratio(num: str, den: str) -> float:
        return c(num) / c(den) if c(den) else 0.0

    out = dict(times)
    out.update(counts)
    out["geom.bev_iou.nonzero_ratio"] = ratio("geom.bev_iou.nonzero", "geom.bev_iou.calls")
    out["interp.auto_clean.append_ratio"] = ratio("interp.auto_clean.appended", "interp.auto_clean.queried")
    out["stream_sim.drop_ratio"] = (
        1.0 - c("stream_sim.records") / c("stream_sim.frames") if c("stream_sim.frames") else 0.0
    )
    out["baseline.assoc_match_ratio"] = ratio("baseline.assoc_matches", "baseline.assoc_detections")
    out["metrics.match_boxes.per_class_frame"] = ratio(
        "metrics.match_boxes.in_evaluate_pairs", "metrics.match_boxes.class_frames"
    )
    out["data.boxes_decoded"] = c("data._box_from_json.calls")
    out["data.boxes_encoded"] = c("data._box_to_json.calls")
    out["data.bytes_read"] = first.bytes_read
    out["data.bytes_written"] = first.bytes_written
    for stage in ("interpolate", "baseline_sv", "evaluate"):
        out[f"{stage}_s"] = (
            statistics.median(it.stage_s.get(stage, 0.0) for it in untraced) if untraced else 0.0
        )
    out["trace.overhead_s"] = (
        statistics.median(it.wall_s for it, _, _ in traced)
        - statistics.median(it.wall_s for it in untraced)
    )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path, default=None,
                        help="where to write the last traced iteration's spans (.npz)")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.scale)
    args.workdir.mkdir(parents=True, exist_ok=True)
    workload.prepare(args.workdir)
    reference = load_reference(workload, args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()

    start = perf_counter()
    untraced: list[Iteration] = []
    traced: list[tuple[Iteration, dict, dict]] = []
    iterations: list[Iteration] = []
    # untraced runs repeat the workload; traced runs alternate an untraced
    # and a traced pass, so tracing overhead is measured in the same run
    step = 2 if args.trace else 1
    while True:
        for k in range(step):
            it = one_iteration(workload, args.workdir / "iteration", tracer if k == 1 else None)
            iterations.append(it)
            if k == 1:
                times, counts = tracer.summary()
                traced.append((it, times, counts))
            else:
                untraced.append(it)
        # stop before a pass that would likely run past the measuring time
        elapsed = perf_counter() - start
        pass_s = sum(it.wall_s for it in iterations[-step:])
        if elapsed + pass_s > args.seconds or elapsed + 1.5 * pass_s > HARD_CAP_S:
            break
    if tracer is not None and args.trace_out is not None:
        tracer.save(args.trace_out)

    # every iteration ran on the same inputs, so everything it produced repeats
    first = iterations[0]
    for it in iterations[1:]:
        it.record("outputs repeat within the run", it.digests == first.digests)
        it.record("values repeat within the run", it.values == first.values)
    for _, _, counts in traced[1:]:
        traced[-1][0].record("trace counts repeat within the run", counts == traced[0][2])
    outputs_changed = check_reference(first, reference)

    failures = [f for it in iterations for f in it.failures]
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "scale": args.scale,
        "params": workload.params_digest,
        "attempted": sum(it.attempted for it in iterations),
        "failed": len(failures),
        "failures": failures[:20],
        "iterations": [
            {"wall_s": it.wall_s, "stage_s": dict(it.stage_s), "traced": any(it is t for t, _, _ in traced)}
            for it in iterations
        ],
        "wall_s": statistics.median(it.wall_s for it in untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "values": first.values,
        "digests": first.digests,
        "reference": "checked" if reference is not None else "absent",
        "outputs_changed": outputs_changed,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if traced:
        result["per_layer"] = per_layer(traced, untraced)
    shutil.rmtree(args.workdir / "iteration", ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
