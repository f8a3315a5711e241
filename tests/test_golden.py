"""Every data output of a small full chain, pinned to a committed table.

The chain runs two scenes through `synth`, `interpolate --tdb`, `simulate`
under a constant and under a frame-dropping lognormal profile,
`baseline-sv`, `evaluate` (raw, `--sv` and `--csv`) and `report`
(tabulating and `--compare`), once serially and once split across two
processes. Both runs must write the bytes whose SHA-256 digests
`tests/golden.json` holds. Manifests are not data outputs and are left out
of the table; each must name the SHA-256 of every output it describes.

One object moves at 2e-05 m/s sideways and another at 1e-07 m/s, so that
lines both with and without numbers in exponent form are written.

The outputs depend on libm and on numpy's random stream, so the table
records the Python and numpy versions it was made under (and orjson's, for
reference). Under those versions any difference fails the test. Under other
Python or numpy versions a difference skips the test, naming the versions,
and the serial and split runs must still agree. A change that means to
change an output rewrites the table with

    PYTHONPATH=src python tests/test_golden.py

and names each changed digest, and why.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
from pathlib import Path
from unittest import mock

import pytest

from streameval import cli

GOLDEN = Path(__file__).with_name("golden.json")

SPECS = {
    "a": {
        "scene_id": "golden-a",
        "duration_s": 2.0,
        "keyframe_every": 6,
        "objects": [
            {"category": "car", "center": [0, 0, 0], "velocity": [4, 2e-05]},
            {"category": "truck", "center": [0, 30, 0], "size": [2.5, 8, 3], "velocity": [2, 0],
             "yaw_rate": 0.1},
            {"category": "pedestrian", "center": [-6, 4, 0], "size": [0.7, 0.7, 1.8],
             "velocity": [0.5, 1e-07], "attribute": "pedestrian.moving"},
        ],
        "noise": {"pos_sigma": 0.1, "vel_sigma": 0.3, "drop_rate": 0.1, "score_model": "uniform"},
    },
    "b": {
        "scene_id": "golden-b",
        "duration_s": 1.5,
        "keyframe_every": 6,
        "objects": [
            {"category": "car", "center": [10, -5, 0], "velocity": [-3, 1], "yaw": 0.4},
            {"category": "car", "center": [-20, 15, 0], "velocity": [6, 0]},
        ],
        "noise": {"pos_sigma": 0.2, "vel_sigma": 0.2},
    },
}
PROFILES = {
    "const": {"name": "c100", "distribution": "constant", "params": {"ms": 100}},
    "lognormal": {"name": "ln", "distribution": "lognormal",
                  "params": {"mu": 5.0, "sigma": 0.6}, "overhead_ms": 5},
}
CHAIN = [
    ["--seed", "3", "synth", "--spec", "a.spec.json", "--out-gt", "a.gt.jsonl",
     "--out-det", "a.det.jsonl"],
    ["--seed", "4", "synth", "--spec", "b.spec.json", "--out-gt", "b.gt.jsonl",
     "--out-det", "b.det.jsonl"],
    "concatenate",
    ["interpolate", "--gt", "gt.jsonl", "--tdb", "det.jsonl", "--out", "dense.gt.jsonl"],
    ["--seed", "5", "simulate", "--det", "det.jsonl", "--gt", "gt.jsonl",
     "--profile", "const.profile.json", "--out", "const.stream.jsonl"],
    ["--seed", "6", "simulate", "--det", "det.jsonl", "--gt", "gt.jsonl",
     "--profile", "lognormal.profile.json", "--contention", "2", "--out", "ln.stream.jsonl"],
    ["baseline-sv", "--stream", "const.stream.jsonl", "--gt", "gt.jsonl", "--out", "const.sv.jsonl"],
    ["evaluate", "--gt", "gt.jsonl", "--stream", "const.stream.jsonl", "--offline", "det.jsonl",
     "--out", "raw.report.json", "--csv", "raw.report.csv"],
    ["evaluate", "--gt", "gt.jsonl", "--stream", "ln.stream.jsonl", "--out", "ln.report.json"],
    ["evaluate", "--gt", "gt.jsonl", "--stream", "const.stream.jsonl", "--offline", "det.jsonl",
     "--sv", "const.sv.jsonl", "--out", "sv.report.json"],
    ["report", "raw.report.json", "ln.report.json", "sv.report.json", "--out", "table.csv"],
    ["report", "--compare", "raw.report.json", "sv.report.json", "--out", "diff.csv"],
]
# the files the test writes itself: inputs, not outputs
INPUTS = {"a.spec.json", "b.spec.json", "const.profile.json", "lognormal.profile.json",
          "gt.jsonl", "det.jsonl"}


def versions() -> dict:
    import numpy
    import orjson

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "orjson": orjson.__version__}


def chain_digests(workdir: Path, cores: int) -> dict[str, str]:
    """Run the chain in `workdir` with `cores` usable cores; the SHA-256 of
    every data output it wrote, by file name."""
    workdir.mkdir()
    old = os.getcwd()
    os.chdir(workdir)  # every path in the outputs is relative
    try:
        for name, spec in SPECS.items():
            Path(f"{name}.spec.json").write_text(json.dumps(spec))
        for name, profile in PROFILES.items():
            Path(f"{name}.profile.json").write_text(json.dumps(profile))
        with mock.patch.object(cli, "_usable_cores", lambda: cores):
            for argv in CHAIN:
                if argv == "concatenate":
                    for what in ("gt", "det"):
                        Path(f"{what}.jsonl").write_bytes(
                            Path(f"a.{what}.jsonl").read_bytes() + Path(f"b.{what}.jsonl").read_bytes())
                    continue
                assert cli.run(["--quiet", *argv]) == 0, argv
    finally:
        os.chdir(old)
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(workdir.iterdir())
        if p.name not in INPUTS and not p.name.endswith(".manifest.json")
    }
    for name in digests:
        outputs = json.loads((workdir / f"{name}.manifest.json").read_text())["outputs"]
        assert outputs == {p: digests[p] for p in outputs} and name in outputs, name
    return digests


def test_every_output_matches_the_committed_table(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    serial = chain_digests(tmp_path / "serial", cores=1)
    split = chain_digests(tmp_path / "split", cores=2)
    assert split == serial
    if serial == golden["sha256"]:
        return
    here, there = versions(), golden["versions"]
    if (here["python"], here["numpy"]) != (there["python"], there["numpy"]):
        changed = sorted(k for k in serial.keys() | golden["sha256"].keys()
                         if serial.get(k) != golden["sha256"].get(k))
        pytest.skip(f"{len(changed)} outputs differ from a table made under Python "
                    f"{there['python']} and numpy {there['numpy']}; this is Python "
                    f"{here['python']} and numpy {here['numpy']}")
    assert serial == golden["sha256"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {"versions": versions(), "sha256": chain_digests(Path(tmp) / "chain", cores=1)}
    GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(table['sha256'])} digests to {GOLDEN}", file=sys.stderr)
