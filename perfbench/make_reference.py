"""Record reference values and output digests for a range of seeds.

    PYTHONPATH=src python3 perfbench/make_reference.py --seeds 0-31 [--workload densify]

Runs one iteration of each workload per seed and stores its checked values
(mAP-S, NDS-S, tp/fp/fn, appended counts) and output digests in
perfbench/reference.json, keyed by the workload's shape. A benchmark run
on a recorded seed fails an operation for every value that differs from
the reference, and reports `outputs_changed` when a digest differs. Only
regenerate after a change that is meant to alter results, and say why.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

from worker import REFERENCE, one_iteration
from workloads import WORKLOADS


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-31")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    parser.add_argument("--workdir", type=Path, default=Path(".perfbench") / "reference")
    args = parser.parse_args(argv)

    table = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    for name in args.workload or sorted(WORKLOADS):
        for seed in args.seeds:
            workload = WORKLOADS[name](seed)
            args.workdir.mkdir(parents=True, exist_ok=True)
            workload.prepare(args.workdir)
            it = one_iteration(workload, args.workdir / "iteration")
            if it.failures:
                print(f"{name} seed {seed}: not recorded, {it.failures[:3]}", file=sys.stderr)
                return 1
            entry = table.get(name, {})
            if entry.get("params") != workload.params_digest:
                entry = {"params": workload.params_digest, "seeds": {}}
            entry["seeds"][str(seed)] = {"values": it.values, "digests": it.digests}
            table[name] = entry
            print(f"{name} seed {seed}: {it.wall_s:.1f} s", file=sys.stderr)
    shutil.rmtree(args.workdir, ignore_errors=True)
    for entry in table.values():
        entry["seeds"] = dict(sorted(entry["seeds"].items(), key=lambda kv: int(kv[0])))
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
