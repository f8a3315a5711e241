"""The README's walkthrough and library examples run as written.

The CLI walkthrough's heredoc files are written and its `streameval` lines
run through `cli.run` in a scratch directory; the "Library use" blocks then
run there in order, in one namespace, and the mAP-S lift the README states
must be what the walkthrough's reports hold.
"""

import json
import re
import shlex
from pathlib import Path

from conftest import box_numbers
from streameval.cli import run

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def section(title):
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:] if end < 0 else README[start:end]


def code_blocks(text, lang):
    return re.findall(rf"```{lang}\n(.*?)```", text, flags=re.S)


def walkthrough_steps(script):
    """(heredoc files, streameval argv lists) of a shell block, in order."""
    files, commands = {}, []
    lines = iter(script.replace("\\\n", " ").splitlines())
    for line in lines:
        line = line.strip()
        heredoc = re.fullmatch(r"cat > (\S+) <<'EOF'", line)
        if heredoc:
            body = []
            for inner in lines:
                if inner == "EOF":
                    break
                body.append(inner + "\n")
            files[heredoc.group(1)] = "".join(body)
        elif line.startswith("streameval "):
            commands.append(shlex.split(line)[1:])
        else:
            assert not line or line.startswith("#"), f"unhandled walkthrough line: {line!r}"
    return files, commands


def test_readme_runs_as_written(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (script,) = code_blocks(section("CLI walkthrough"), "sh")
    files, commands = walkthrough_steps(script)
    assert files and commands
    for name, body in files.items():
        Path(name).write_text(body, encoding="utf-8")
    for argv in commands:
        assert run(["--quiet", *argv]) == 0, argv
    assert len(Path("demo.dense.jsonl").read_text().splitlines()) == 49

    lift = re.search(r"lifts mAP-S from (\d\.\d+) to (\d\.\d+)", README)
    assert lift, "the README states no mAP-S lift"
    got = [json.loads(Path(p).read_text())["map_s"] for p in ("raw.report.json", "sv.report.json")]
    assert [f"{m:.3f}" for m in got] == list(lift.groups())

    namespace = {"__name__": "readme"}
    blocks = code_blocks(section("Library use"), "python")
    assert len(blocks) == 3
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)

    # the example's spec is written in ints; every box still holds floats
    stream, outputs = namespace["stream"], namespace["outputs"]
    times = [d.source_timestamp_us for d in outputs]
    predict = namespace["sv_pipeline"](stream, times)
    boxes = [
        *(b for d in outputs for b in d.boxes),
        *(b for r in stream.records for b in r.detections.boxes),
        *(b for t in times for b in predict(t).boxes),
    ]
    assert boxes
    assert {type(v) for b in boxes for v in box_numbers(b)} == {float}
