"""Stages that split their scenes, or one scene's frames, across forked processes.

`interpolate`, `simulate`, `baseline-sv` and `evaluate` run their scenes as
contiguous runs, one process each, when the machine has cores to spare.
`synth`, and `interpolate` on one scene, split that scene's frames instead.
Most tests here run a stage twice: split, with `cli._usable_cores`
patched to more cores than there are scenes, and serial, with one core.
The two runs must agree in every byte written, in standard error and in
the exit code.
"""

import json
import os
import signal
import tempfile
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from streameval import cli
from streameval.cli import run
from streameval.data import write_detections, write_scene_annotations
from streameval.synth import DetectorNoise, ObjectSpec, SceneSpec, gen_scene, oracle_detector

# ids whose sorted order is none of the file orders below, with escapes in the JSON text
SCENE_IDS = ["s0", "b", "a-2", "zé", 'q"uote', "long-10"]
PROFILE = {"name": "c120", "distribution": "constant", "params": {"ms": 120.0}}


def scene(scene_id: str, k: int, duration_s: float = 1.5):
    """The frames (every sixth a keyframe) and noisy detections of one small moving scene."""
    spec = SceneSpec(duration_s=duration_s, scene_id=scene_id, objects=(
        ObjectSpec("car", (0.0, 0.0, 0.0), velocity=(3.0 + k, 0.0)),
        ObjectSpec("truck", (0.0, 20.0, 0.0), size=(2.5, 8.0, 3.0), velocity=(-2.0, 0.5 * k)),
        ObjectSpec("pedestrian", (-6.0, 4.0, 0.0), size=(0.7, 0.7, 1.8), velocity=(0.5, 0.0)),
    ))
    frames = gen_scene(spec, keyframe_every=6)
    noise = DetectorNoise(pos_sigma=0.2, vel_sigma=0.3, drop_rate=0.1, score_model="uniform")
    return frames, oracle_detector(frames, noise, seed=k)


SCENES = {scene_id: scene(scene_id, k) for k, scene_id in enumerate(SCENE_IDS)}


def lines_of(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines(keepends=True)


def by_scene(lines: list[str]) -> dict[str, list[str]]:
    """Each scene's lines, in file order."""
    out: dict[str, list[str]] = {}
    for line in lines:
        if line.strip():
            out.setdefault(json.loads(line)["scene_id"], []).append(line)
    return out


def reordered(line: str) -> str:
    """The line's object with its scene id last: the same record, another header."""
    obj = json.loads(line)
    obj["scene_id"] = obj.pop("scene_id")
    return json.dumps(obj, separators=(",", ":")) + "\n"


def write_lines(path: Path, lines: list[str], blanks=()) -> str:
    """`lines` with a blank line before each index in `blanks`."""
    out = []
    for i, line in enumerate(lines):
        out += ["\n"] * (i in blanks) + [line]
    path.write_text("".join(out), encoding="utf-8")
    return str(path)


def write_scenes(path: Path, order: list[str], what: str) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        for scene_id in order:
            frames, outputs = SCENES[scene_id]
            if what == "gt":
                write_scene_annotations(fh, frames)
            elif what == "keyframes":
                write_scene_annotations(fh, [f for f in frames if f.is_keyframe])
            else:
                write_detections(fh, outputs)
    return path


class Runs:
    """Runs a stage split and serially, and counts the children it forks."""

    def __init__(self, capfd):
        self.capfd = capfd
        self.forks = 0
        self.fork = os.fork

    def counted_fork(self):
        pid = self.fork()
        if pid:
            self.forks += 1
        return pid

    def once(self, argv: list[str], outputs: list[Path], cores: int):
        """(exit code, stderr, every output's and manifest's bytes or None,
        forks) of one run, after removing the outputs."""
        for path in outputs:
            for p in (path, Path(f"{path}.manifest.json")):
                p.unlink(missing_ok=True)
        self.capfd.readouterr()
        forks = self.forks
        with mock.patch.object(cli, "_usable_cores", lambda: cores), \
                mock.patch.object(os, "fork", self.counted_fork):
            code = run(argv)
        err = self.capfd.readouterr().err
        data = {p.name: p.read_bytes() if p.exists() else None for p in outputs}
        manifests = {p.name for p in outputs if Path(f"{p}.manifest.json").exists()}
        return code, err, data, manifests, self.forks - forks

    def both(self, argv: list[str], outputs: list[Path], cores: int = len(SCENE_IDS) + 1):
        """The split run's (exit code, stderr, outputs, manifests, forks),
        once it is checked to equal the serial run's but for the forks."""
        split = self.once(argv, outputs, cores=cores)
        serial = self.once(argv, outputs, cores=1)
        assert split[:4] == serial[:4]
        assert serial[4] == 0
        return split


@st.composite
def layouts(draw):
    """The scenes of one run and how each input lays them out."""
    scenes = draw(st.lists(st.sampled_from(SCENE_IDS), min_size=2, max_size=6, unique=True))
    orders = {what: draw(st.permutations(scenes))
              for what in ("gt", "keyframes", "det", "tdb", "stream")}
    missing = {what: draw(st.lists(st.sampled_from(scenes), max_size=len(scenes) - 1, unique=True))
               for what in ("tdb", "stream")}
    blanks = {what: draw(st.sets(st.integers(0, 40), max_size=3))
              for what in ("gt", "keyframes", "tdb", "stream")}
    # one line whose keys come in another order, in one input, or none
    odd = draw(st.none() | st.tuples(st.sampled_from(["gt", "keyframes", "tdb", "stream"]),
                                     st.integers(0, 10**6)))
    return orders, missing, blanks, odd


class TestSplitEqualsSerial:
    @given(layout=layouts())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_every_stage_writes_the_same_bytes(self, layout, capfd, tmp_path):
        orders, missing, blanks, odd = layout
        d = Path(tempfile.mkdtemp(dir=tmp_path))
        runs = Runs(capfd)
        texts = {
            "gt": lines_of(write_scenes(d / "raw.gt", orders["gt"], "gt")),
            "keyframes": lines_of(write_scenes(d / "raw.kf", orders["keyframes"], "keyframes")),
            "tdb": lines_of(write_scenes(
                d / "raw.tdb", [s for s in orders["tdb"] if s not in missing["tdb"]], "det")),
        }
        det = write_scenes(d / "all.det.jsonl", orders["det"], "det")
        profile = d / "p.json"
        profile.write_text(json.dumps(PROFILE))

        def place(what):
            lines = list(texts[what])
            if odd is not None and odd[0] == what:
                i = odd[1] % len(lines)
                lines[i] = reordered(lines[i])
            return write_lines(d / f"{what}.jsonl", lines, blanks.get(what, ()))

        def forked_as_expected(forks, gt_input):
            # a child on canonical inputs; none when the odd line is in the stage's --gt
            return forks > 0 if odd is None else odd[0] != gt_input or forks == 0

        gt, kf, tdb = place("gt"), place("keyframes"), place("tdb")

        dense = d / "dense.jsonl"
        code, _, _, _, forks = runs.both(
            ["interpolate", "--gt", kf, "--tdb", tdb, "--out", str(dense)], [dense])
        assert code == 0
        assert forked_as_expected(forks, "keyframes")

        sim = d / "sim.jsonl"
        code, _, _, _, forks = runs.both(["--seed", "3", "simulate", "--gt", gt, "--det", str(det),
                                          "--profile", str(profile), "--out", str(sim)], [sim])
        assert code == 0
        assert forked_as_expected(forks, "gt")

        stream_scenes = by_scene(lines_of(sim))
        texts["stream"] = [line for s in orders["stream"] if s not in missing["stream"]
                           for line in stream_scenes[s]]
        stream = place("stream")
        sv = d / "sv.jsonl"
        code, _, _, _, forks = runs.both(["baseline-sv", "--stream", stream, "--gt", gt,
                                          "--out", str(sv)], [sv])
        assert code == 0
        assert forked_as_expected(forks, "gt")

        for extra in ([], ["--sv", str(sv)]):
            report, table = d / "r.json", d / "r.csv"
            code, err, _, _, forks = runs.both(
                ["evaluate", "--gt", gt, "--stream", stream, "--offline", tdb, *extra,
                 "--out", str(report), "--csv", str(table)], [report, table])
            assert code == 0, err
            assert forked_as_expected(forks, "gt")


def corrupt(lines: list[str], scene_id: str) -> list[str]:
    """`lines` with the first box of `scene_id`'s first line made invalid."""
    out, done = [], False
    for line in lines:
        obj = json.loads(line)
        if not done and obj["scene_id"] == scene_id and obj["boxes"]:
            obj["boxes"][0]["size"] = [-1.0, 1.0, 1.0]
            line, done = json.dumps(obj, separators=(",", ":")) + "\n", True
        out.append(line)
    assert done
    return out


@pytest.fixture
def chain(tmp_path):
    """Four scenes in sorted order, so the first is the parent's run in
    every stage and the last a child's: their ground truth, keyframes,
    detections, a stream, another stream's sv file and this stream's."""
    order = ["s0", "b", "a-2", "long-10"]
    order.sort()
    files = {
        "gt": write_scenes(tmp_path / "in.gt.jsonl", order, "gt"),
        "kf": write_scenes(tmp_path / "in.kf.jsonl", order, "keyframes"),
        "det": write_scenes(tmp_path / "in.det.jsonl", order, "det"),
        "profile": tmp_path / "p.json",
    }
    files["profile"].write_text(json.dumps(PROFILE))
    for name, contention in (("stream", "1"), ("slow", "3")):
        files[name] = tmp_path / f"in.{name}.jsonl"
        assert run(["--quiet", "--seed", "3", "simulate", "--gt", str(files["gt"]), "--det",
                    str(files["det"]), "--profile", str(files["profile"]), "--contention",
                    contention, "--out", str(files[name])]) == 0
    for name, stream in (("sv", "stream"), ("slow_sv", "slow")):
        files[name] = tmp_path / f"in.{name}.jsonl"
        assert run(["--quiet", "baseline-sv", "--stream", str(files[stream]), "--gt",
                    str(files["gt"]), "--out", str(files[name])]) == 0
    return tmp_path, order, {k: str(v) for k, v in files.items()}


def rewrite(path: str, lines: list[str]) -> str:
    Path(path).write_text("".join(lines), encoding="utf-8")
    return path


STAGES = ("interpolate", "simulate", "baseline-sv", "evaluate")


def stage_argv(stage: str, f: dict, out: str) -> list[str]:
    return {
        "interpolate": ["interpolate", "--gt", f["kf"], "--tdb", f["det"], "--out", out],
        "simulate": ["--seed", "3", "simulate", "--gt", f["gt"], "--det", f["det"],
                     "--profile", f["profile"], "--out", out],
        "baseline-sv": ["baseline-sv", "--stream", f["stream"], "--gt", f["gt"], "--out", out],
        "evaluate": ["evaluate", "--gt", f["gt"], "--stream", f["stream"], "--offline", f["det"],
                     "--sv", f["sv"], "--out", out],
    }[stage]


def break_input(case: str, order: list[str], f: dict) -> bool:
    """Make the files of `f` fail as `case` says; whether the split run forks."""
    first, last = order[0], order[-1]
    if case in ("parent-box", "child-box"):
        scene_id = first if case == "parent-box" else last
        for key in ("gt", "kf"):
            rewrite(f[key], corrupt(lines_of(Path(f[key])), scene_id))
        return True
    if case == "gt-comes-back":
        for key in ("gt", "kf"):
            lines = lines_of(Path(f[key]))
            rewrite(f[key], lines[1:] + lines[:1])
        return False
    if case == "input-comes-back":
        for key in ("det", "stream", "sv"):
            lines = lines_of(Path(f[key]))
            rewrite(f[key], lines[1:] + lines[:1])
        return True
    if case == "unknown-scene":
        for key in ("det", "stream", "sv"):
            extra = [line.replace(f'"scene_id":"{last}"', '"scene_id":"zz-unknown"', 1)
                     for line in by_scene(lines_of(Path(f[key])))[last]]
            rewrite(f[key], lines_of(Path(f[key])) + extra)
        return True
    if case == "unknown-offline-scene":
        extra = [line.replace(f'"scene_id":"{last}"', '"scene_id":"zz-unknown"', 1)
                 for line in by_scene(lines_of(Path(f["det"])))[last]]
        offline = str(Path(f["det"]).with_suffix(".offline"))
        f["det"] = rewrite(offline, lines_of(Path(f["det"])) + extra)
        return True
    if case == "sv-times":
        f["sv"] = f["slow_sv"]
        return True
    raise AssertionError(case)


def no_leftovers(directory: Path, before: set[str]) -> list[str]:
    return sorted(set(os.listdir(directory)) - before)


class TestErrorsEqualSerial:
    @pytest.mark.parametrize("stage, case", [
        (stage, case)
        for case in ("parent-box", "child-box", "gt-comes-back", "input-comes-back",
                     "unknown-scene")
        for stage in STAGES
    ] + [("evaluate", "unknown-offline-scene"), ("evaluate", "sv-times")])
    def test_a_failing_stage_fails_as_the_serial_one(self, chain, capfd, stage, case):
        workdir, order, f = chain
        forks_expected = break_input(case, order, f)
        out = workdir / "out.jsonl"
        spare = workdir / "tmp"
        spare.mkdir()
        before = set(os.listdir(workdir))
        runs = Runs(capfd)
        with mock.patch.object(tempfile, "tempdir", str(spare)):
            code, err, data, manifests, forks = runs.both(stage_argv(stage, f, str(out)), [out])
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert data == {"out.jsonl": None} and not manifests
        assert no_leftovers(workdir, before) == []
        assert os.listdir(spare) == []
        assert (forks > 0) is forks_expected

    def test_a_child_run_without_boxes_ends_serially_with_the_serial_report(self, chain, capfd):
        workdir, order, f = chain
        # the last two scenes, a child's run, hold frames but no boxes
        empty = set(order[2:])
        lines = []
        for line in lines_of(Path(f["gt"])):
            obj = json.loads(line)
            if obj["scene_id"] in empty:
                obj["boxes"] = []
                line = json.dumps(obj, separators=(",", ":")) + "\n"
            lines.append(line)
        rewrite(f["gt"], lines)
        out = workdir / "r.json"
        with mock.patch.object(cli, "_cut", lambda sizes, k: [0, 2]):
            code, err, data, _, forks = Runs(capfd).both(
                stage_argv("evaluate", f, str(out)), [out])
        assert code == 0, err
        assert forks == 1
        report = json.loads(data["r.json"])
        assert report["metadata"]["scenes"] == order


class TestChildDeath:
    def test_a_killed_child_ends_serially_with_the_serial_output(self, chain, capfd, monkeypatch):
        workdir, order, f = chain
        parent, refine = os.getpid(), cli.refine_stream

        def killed_in_a_child(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return refine(*args)

        monkeypatch.setattr(cli, "refine_stream", killed_in_a_child)
        out = workdir / "sv.jsonl"
        code, err, data, _, forks = Runs(capfd).both(stage_argv("baseline-sv", f, str(out)), [out])
        assert code == 0, err
        assert forks == len(order) - 1
        assert data["sv.jsonl"] == Path(f["sv"]).read_bytes()


class TestInterrupt:
    def test_an_interrupt_in_the_parent_reaps_every_child(self, chain, monkeypatch):
        workdir, order, f = chain
        out = workdir / "dense.jsonl"
        out.write_text("earlier\n")
        before = set(os.listdir(workdir))
        parent, forks = os.getpid(), []
        fork, extend = os.fork, cli._frames_at

        def counted_fork():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        def interrupted(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return extend(*args)

        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(cli, "_frames_at", interrupted)
        monkeypatch.setattr(cli, "_usable_cores", lambda: 4)
        with pytest.raises(KeyboardInterrupt):
            run(["--quiet", *stage_argv("interpolate", f, str(out))])
        assert len(forks) == 3
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert out.read_text() == "earlier\n"
        assert no_leftovers(workdir, before) == []


class TestRuns:
    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=40), st.integers(1, 50))
    def test_runs_are_contiguous_non_empty_and_as_many_as_asked(self, sizes, k):
        k = min(k, len(sizes))
        starts = cli._cut(sizes, k)
        assert len(starts) == k and starts[0] == 0
        assert all(a < b for a, b in zip(starts, [*starts[1:], len(sizes)]))

    @given(st.integers(0, 200), st.integers(1, 50))
    def test_frame_shares_cover_the_scene_with_at_least_two_frames_each(self, n, k):
        shares = [range(n)[cli._share(j, k, n)] for j in range(k)]
        assert [i for share in shares for i in share] == list(range(n))
        busy = [len(share) for share in shares if share]
        assert len(busy) == (max(1, min(k, n // 2)) if n else 0)
        assert all(size >= 2 for size in busy) or busy == [n]
        assert max(busy, default=0) - min(busy, default=0) <= 1
        assert shares[0] or n == 0  # the parent's share comes first

    def test_a_stage_of_one_scene_splits_its_frames(self, chain, monkeypatch, tmp_path):
        workdir, order, f = chain
        monkeypatch.setattr(cli, "_usable_cores", lambda: 3)
        rewrite(f["kf"], by_scene(lines_of(Path(f["kf"])))[order[0]])
        spec = write_spec(tmp_path / "spec.json", 1.0)
        for argv in (synth_argv(spec, workdir)[0], stage_argv("interpolate", f, str(workdir / "o"))):
            args = cli._build_parser().parse_args(argv)
            assert cli._runs(args, [f["kf"]]) == [(frozenset(), j, 3) for j in range(3)]

    def test_equal_scenes_split_in_equal_halves(self):
        assert cli._cut([5] * 8, 2) == [0, 4]
        assert cli._cut([9, 1, 1, 1], 2) == [0, 1]

    def test_runs_follow_the_order_the_stage_writes(self, chain, monkeypatch):
        workdir, order, f = chain
        f["gt"] = f["kf"] = str(write_scenes(workdir / "rev.gt.jsonl", order[::-1], "gt"))
        monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
        every = frozenset(order)
        for stage, first in (("simulate", order[:2]), ("baseline-sv", order[:2]),
                             ("interpolate", order[2:]), ("evaluate", order[2:])):
            args = cli._build_parser().parse_args(stage_argv(stage, f, str(workdir / "o")))
            runs = cli._runs(args, [f["gt"]])
            assert [every - skip for skip, _, _ in runs] == [set(first), every - set(first)], stage
            assert [share for _, *share in runs] == [[0, 1], [0, 1]], stage

    @pytest.mark.parametrize("why", ["one-core", "one-scene", "thread", "no-file", "no-fork",
                                     "unreadable", "report"])
    def test_a_stage_runs_serially(self, chain, monkeypatch, why):
        workdir, order, f = chain
        if why == "no-fork":
            monkeypatch.delattr(os, "fork")
        if why == "unreadable":
            monkeypatch.setattr(cli, "scene_sizes", lambda path: open(workdir / "gone"))
        monkeypatch.setattr(cli, "_usable_cores", lambda: 1 if why == "one-core" else 4)
        if why == "one-scene":
            rewrite(f["gt"], by_scene(lines_of(Path(f["gt"])))[order[0]])
        argv = stage_argv("evaluate", f, str(workdir / "o"))
        if why == "report":
            argv = ["report", f["gt"], "--out", str(workdir / "o")]
        args = cli._build_parser().parse_args(argv)
        inputs = [f["gt"], "/dev/null" if why == "no-file" else f["det"]]
        with ExitStack() as stack:
            if why == "thread":
                stack.enter_context(mock.patch("threading.active_count", lambda: 2))
            assert cli._runs(args, inputs) == [(frozenset(), 0, 1)]


def write_spec(path: Path, duration_s: float, **changes) -> str:
    """A synth spec of one scene: two moving objects and a noisy detector."""
    spec = {"duration_s": duration_s, "scene_id": "one", "keyframe_every": 6,
            "objects": [{"category": "car", "center": [0, 0, 0], "velocity": [3, 0]},
                        {"category": "truck", "center": [0, 20, 0], "size": [2.5, 8, 3],
                         "velocity": [-2, 1]}],
            "noise": {"pos_sigma": 0.2, "vel_sigma": 0.3, "drop_rate": 0.1,
                      "score_model": "uniform"}}
    path.write_text(json.dumps({**spec, **changes}), encoding="utf-8")
    return str(path)


def synth_argv(spec: str, d: Path) -> tuple[list[str], list[Path]]:
    gt, det = d / "one.gt.jsonl", d / "one.det.jsonl"
    return ["--seed", "5", "synth", "--spec", spec, "--out-gt", str(gt), "--out-det", str(det)], \
        [gt, det]


def one_scene(d: Path, keyframes: int) -> tuple[str, str, Path]:
    """The ground truth (every sixth frame a keyframe) and detections of a
    scene of `keyframes` keyframes, and the output path of its `interpolate`."""
    frames, outputs = scene("one", 2, duration_s=0.5 * (keyframes - 1))
    assert sum(f.is_keyframe for f in frames) == keyframes
    gt, det = d / "one.gt.jsonl", d / "one.det.jsonl"
    write_scene_annotations(gt, frames)
    write_detections(det, outputs)
    return str(gt), str(det), d / "one.dense.jsonl"


def interpolate_argv(gt: str, det: str, out: Path) -> list[str]:
    return ["interpolate", "--gt", gt, "--tdb", det, "--out", str(out)]


def resources(path: Path) -> dict:
    return json.loads(Path(f"{path}.manifest.json").read_text(encoding="utf-8"))["resources"]


class TestOneSceneSplitEqualsSerial:
    @pytest.mark.parametrize("cores", [2, 3, 9])
    @pytest.mark.parametrize("duration_s, frames", [(0.05, 1), (0.1, 2), (0.3, 4), (3.0, 37)])
    def test_synth_writes_the_same_bytes(self, tmp_path, capfd, duration_s, frames, cores):
        argv, outputs = synth_argv(write_spec(tmp_path / "spec.json", duration_s), tmp_path)
        code, err, data, manifests, forks = Runs(capfd).both(argv, outputs, cores)
        assert code == 0, err
        assert [data[p.name].count(b"\n") for p in outputs] == [frames, frames]
        assert manifests == {p.name for p in outputs}
        assert forks == cores - 1

    # two keyframes make 7 dense frames, fewer than 9 cores
    @pytest.mark.parametrize("cores", [2, 3, 9])
    @pytest.mark.parametrize("keyframes, frames", [(2, 7), (3, 13), (7, 37)])
    def test_interpolate_writes_the_same_bytes(self, tmp_path, capfd, keyframes, frames, cores):
        gt, det, out = one_scene(tmp_path, keyframes)
        code, err, data, _, forks = Runs(capfd).both(interpolate_argv(gt, det, out), [out], cores)
        assert code == 0, err
        assert err == f"wrote {frames} dense frames to {out}\n"
        assert data[out.name].count(b"\n") == frames
        assert forks == cores - 1

    def test_one_usable_core_never_forks(self, tmp_path, capfd):
        argv, outputs = synth_argv(write_spec(tmp_path / "spec.json", 3.0), tmp_path)
        (tmp_path / "i").mkdir()
        gt, det, out = one_scene(tmp_path / "i", 7)
        for argv, outputs in ((argv, outputs), (interpolate_argv(gt, det, out), [out])):
            code, err, _, _, forks = Runs(capfd).once(argv, outputs, cores=1)
            assert (code, forks) == (0, 0), err

    def test_a_spec_from_a_pipe_never_forks(self, tmp_path, capfd):
        text = Path(write_spec(tmp_path / "spec.json", 3.0)).read_bytes()
        ran = []
        for cores in (4, 1):
            r, w = os.pipe()
            try:
                os.write(w, text)
                os.close(w)
                argv, outputs = synth_argv(f"/dev/fd/{r}", tmp_path)
                ran.append(Runs(capfd).once(argv, outputs, cores))
            finally:
                os.close(r)
        split, serial = ran
        assert split[0] == 0, split[1]
        assert split[:4] == serial[:4]
        assert split[4] == 0


@pytest.fixture
def spare(tmp_path):
    """A directory that holds every temporary file of the test's runs."""
    directory = tmp_path / "spare"
    directory.mkdir()
    with mock.patch.object(tempfile, "tempdir", str(directory)):
        yield directory
    assert os.listdir(directory) == []


class TestOneSceneErrorsEqualSerial:
    def fails_as_serial(self, capfd, argv, outputs, message):
        workdir = outputs[0].parent
        before = set(os.listdir(workdir))
        code, err, data, manifests, forks = Runs(capfd).both(argv, outputs, cores=3)
        assert (code, err) == (1, f"error: {message}\n")
        assert set(data.values()) == {None} and not manifests
        assert no_leftovers(workdir, before) == []
        assert forks == 2

    def test_a_malformed_non_keyframe_line(self, tmp_path, capfd, spare):
        gt, det, out = one_scene(tmp_path, 7)
        lines = lines_of(Path(gt))
        obj = json.loads(lines[3])
        assert not obj["is_keyframe"]
        obj["boxes"][0]["size"] = [-1.0, 1.0, 1.0]
        lines[3] = json.dumps(obj, separators=(",", ":")) + "\n"
        rewrite(gt, lines)
        self.fails_as_serial(capfd, interpolate_argv(gt, det, out), [out],
                             f"{gt}:4: size must be three positive finite values, "
                             "got (-1.0, 1.0, 1.0)")

    def test_a_tdb_scene_absent_from_gt(self, tmp_path, capfd, spare):
        gt, det, out = one_scene(tmp_path, 7)
        lines = lines_of(Path(det))
        rewrite(det, lines + [line.replace('"scene_id":"one"', '"scene_id":"other"', 1)
                              for line in lines[:2]])
        code, err, _, _, _ = Runs(capfd).once(interpolate_argv(gt, det, out), [out], cores=1)
        assert code == 1 and "other" in err
        self.fails_as_serial(capfd, interpolate_argv(gt, det, out), [out], err[len("error: "):-1])

    def test_an_invalid_noise_in_a_spec(self, tmp_path, capfd, spare):
        spec = write_spec(tmp_path / "spec.json", 3.0, noise={"drop_rate": 1.5})
        argv, outputs = synth_argv(spec, tmp_path)
        self.fails_as_serial(capfd, argv, outputs, f"{spec}: drop_rate outside [0, 1): 1.5")

    def test_a_killed_synth_child_ends_serially_with_the_serial_output(
            self, tmp_path, capfd, spare, monkeypatch):
        argv, outputs = synth_argv(write_spec(tmp_path / "spec.json", 3.0), tmp_path)
        expected = Runs(capfd).once(argv, outputs, cores=1)
        parent, write = os.getpid(), cli.write_detections

        def killed_in_a_child(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return write(*args)

        monkeypatch.setattr(cli, "write_detections", killed_in_a_child)
        got = Runs(capfd).once(argv, outputs, cores=3)
        assert got[:4] == expected[:4]
        assert got[0] == 0 and got[4] == 2
        assert resources(outputs[0])["processes"] == 1


class TestManifestResources:
    def test_a_split_stage_records_its_processes_and_each_childs_peak(self, tmp_path):
        argv, outputs = synth_argv(write_spec(tmp_path / "spec.json", 3.0), tmp_path)
        for cores in (3, 1):
            with mock.patch.object(cli, "_usable_cores", lambda: cores):
                assert run(["--quiet", *argv]) == 0
            for path in outputs:
                got = resources(path)
                assert got["processes"] == cores
                assert len(got["child_peak_rss_mb"]) == cores - 1
                assert all(mb > 0 for mb in got["child_peak_rss_mb"])
                assert got["wall_s"] >= 0

    def test_a_stage_split_by_scene_records_its_processes(self, chain, monkeypatch):
        workdir, order, f = chain
        out = workdir / "sim.jsonl"
        monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
        assert run(["--quiet", *stage_argv("simulate", f, str(out))]) == 0
        got = resources(out)
        assert got["processes"] == 2 and len(got["child_peak_rss_mb"]) == 1
