"""streameval benchmark: run one workload from a seed and print its metrics.

    python3 perfbench/run.py --workload densify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; streameval is imported from `src/`.
The workload runs in a fresh, single-threaded child interpreter, one
workload at a time (a lock file serialises concurrent invocations). Around
it, `setup_s` is measured in fresh interpreters that only
`import streameval`.

Standard output ends with two JSON lines: the run's details (environment,
per-iteration times, output digests, failures), then the result object
with exactly the keys `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json, with
`--trace 1` its per-layer metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "streameval"
WORKDIR = ROOT / ".perfbench"
SETUP_PROBES = 10
# the whole run, set-up probes included, must end within 180 s
RUN_LIMIT_S = 175.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("ASAP_STREAM_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_times(env: dict[str, str], probes: int) -> list[float]:
    """Seconds a fresh interpreter spends in `import streameval`.

    Timed inside the probe, so the noise of process creation stays out; the
    interpreter's own start-up does not depend on this repository.
    """
    probe = "import time; t = time.perf_counter(); import streameval; print(time.perf_counter() - t)"
    return [
        float(subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True).stdout)
        for _ in range(probes)
    ]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    """Commit of the checkout; None outside a git work tree (sources are digested)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def select(spec: list[dict], values: dict) -> dict:
    """The metrics BENCHMARK.json names, with their units; all must exist."""
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise KeyError(f"workload produced no value for {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long smoke run of the same stages")
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no streameval sources under {PACKAGE}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    # on SIGTERM, unwind: subprocess.run kills and reaps the running child,
    # and the run directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    started = perf_counter()
    WORKDIR.mkdir(exist_ok=True)
    run_dir = WORKDIR / f"run-{os.getpid()}"
    env = child_env()
    with open(WORKDIR / "lock", "w") as lock:
        # one workload at a time: two at once would share the cores
        fcntl.flock(lock, fcntl.LOCK_EX)
        try:
            # half the set-up probes before the workload and half after, so a
            # slow spell of the machine does not decide the median alone
            setup = setup_times(env, SETUP_PROBES // 2)
            cmd = [
                sys.executable, str(HERE / "worker.py"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--scale", args.scale, "--workdir", str(run_dir),
                "--trace-out", str(WORKDIR / f"trace-{args.workload}.npz"),
            ]
            remaining = RUN_LIMIT_S - (perf_counter() - started)
            try:
                child = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                                       timeout=remaining)
            except subprocess.TimeoutExpired:
                print(f"error: workload did not finish within {remaining:.0f} s", file=sys.stderr)
                return 1
            setup += setup_times(env, SETUP_PROBES - SETUP_PROBES // 2)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    if child.returncode != 0:
        print(f"error: worker exited with code {child.returncode}", file=sys.stderr)
        return 1
    result = json.loads(child.stdout.strip().splitlines()[-1])

    if args.trace:
        metrics = select(bench["per_layer"], result["per_layer"])
    else:
        metrics = select(bench["end_to_end"], {
            "wall_s": result["wall_s"],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
        })
    details = {
        **result,
        "setup_probes_s": setup,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
    }
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
