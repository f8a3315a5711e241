"""Static checks on the package source, mostly with the standard library's
`ast`: deleting code must not leave an import or a private helper behind, and
renaming code must not leave the benchmark naming what is gone."""

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import make_box
from streameval import data
from streameval.data import FrameAnnotations, FrameDetections, PredictionStream, StreamRecord
from streameval.data import write_stream

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "streameval"
MODULES = sorted(PACKAGE.glob("*.py"))
# per-layer metrics of BENCHMARK.json that the tracer sums over several functions
AGGREGATES = {"data.decode.s", "data.encode.s"}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def quoted_annotations(tree: ast.Module):
    """The string annotations of the module, such as `-> "Box3D"`."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        else:
            continue
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            yield ast.parse(annotation.value, mode="eval")


def used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads: loaded names, names in quoted
    annotations and the strings of `__all__`."""
    names = set()
    for root in (tree, *quoted_annotations(tree)):
        for node in ast.walk(root):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif (isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
                names |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = parse(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[(alias.lineno or node.lineno) - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno or node.lineno
    unused = {name: line for name, line in imported.items() if name not in used_names(tree)}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_every_private_module_name_is_referenced():
    trees = {path.name: parse(path) for path in MODULES}
    referenced = set()
    for tree in trees.values():
        referenced |= used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced |= {alias.name for alias in node.names}
    unreferenced = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defined = [node.target.id]
            else:
                continue
            unreferenced += [f"{name}:{node.lineno} {d}" for d in defined
                             if d.startswith("_") and not d.startswith("__") and d not in referenced]
    assert not unreferenced, f"private module-level names never referenced: {unreferenced}"


def test_every_traced_metric_names_a_traced_function():
    """A per-layer metric `<module>.<function>.<suffix>` of BENCHMARK.json is
    read from the span of that function (`cli.<stage>` from `_cmd_<stage>`).
    The perfbench tracer wraps only plain functions defined in the module, so
    a metric naming anything else makes `run.py --trace 1` fail on a KeyError."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    missing = []
    for name in (m["name"] for m in bench["per_layer"]):
        parts = name.split(".")
        if len(parts) != 3 or name in AGGREGATES:
            continue
        layer, fn_name, _ = parts
        if layer == "cli":
            fn_name = f"_cmd_{fn_name}"
        module = importlib.import_module(f"streameval.{layer}")
        fn = vars(module).get(fn_name)
        if not (inspect.isfunction(fn) and fn.__module__ == module.__name__
                and not inspect.isgeneratorfunction(fn)):
            missing.append(name)
    assert not missing, f"per-layer metrics naming no traced function: {missing}"


def count_only_names() -> set[str]:
    """The `COUNT_ONLY` set of the perfbench tracer, read from its source."""
    tree = parse(ROOT / "perfbench" / "tracer.py")
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "COUNT_ONLY" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    raise AssertionError("perfbench/tracer.py defines no COUNT_ONLY")


def test_every_counted_name_is_a_plain_function():
    """The tracer counts the calls of the `COUNT_ONLY` functions, and the
    benchmark reads `data.boxes_encoded` and `data.boxes_decoded` from them.
    It skips a name that is not a plain function of its module, so a rename
    would read 0 without any error."""
    names = count_only_names()
    assert {"data._box_to_json", "data._box_from_json"} <= names
    missing = []
    for name in sorted(names):
        layer, fn_name = name.split(".")
        module = importlib.import_module(f"streameval.{layer}")
        fn = vars(module).get(fn_name)
        if not (inspect.isfunction(fn) and fn.__module__ == module.__name__
                and not inspect.isgeneratorfunction(fn)):
            missing.append(name)
    assert not missing, f"counted names that are no plain function: {missing}"


def test_box_to_json_is_called_once_per_written_box(tmp_path, monkeypatch):
    """`data.boxes_encoded` counts `_box_to_json` calls, so each writer must
    make exactly one per box, through the binding the tracer patches."""
    calls = []
    box_to_json = data._box_to_json
    monkeypatch.setattr(data, "_box_to_json", lambda box, with_score: calls.append(box)
                        or box_to_json(box, with_score))
    boxes = [make_box(x=float(i), instance_id=str(i)) for i in range(3)]
    data.write_scene_annotations(tmp_path / "gt", [FrameAnnotations("s", 0, True, boxes),
                                                   FrameAnnotations("s", 1, False, [])])
    data.write_detections(tmp_path / "det", [FrameDetections("s", 0, boxes[:2])])
    stream = PredictionStream([StreamRecord(5, FrameDetections("s", 0, boxes[:1]))])
    write_stream(tmp_path / "stream", [stream])
    write_stream(tmp_path / "sv", [stream], boxes="refined")
    assert calls == [*boxes, *boxes[:2], *boxes[:1], *boxes[:1]]


def imported(path: Path) -> set[str]:
    """Every name the module at `path` imports, dotted with the package module
    it comes from: `data._typed`, `stream_sim.SimConfig`, `stream_sim`."""
    names = set()
    for node in ast.walk(parse(path)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            prefix = f"{node.module}." if getattr(node, "module", None) else ""
            names |= {(prefix + alias.name).removeprefix("streameval.") for alias in node.names}
    return names


def test_stream_records_and_codec_live_in_data():
    """The prediction stream is a record of `data`, read and written there:
    the simulator uses only `data`'s public names, and the evaluator and the
    baseline get the stream types without importing the simulator."""
    private = sorted(n for n in imported(PACKAGE / "stream_sim.py") if n.startswith("data._"))
    assert not private, f"stream_sim imports private names of data: {private}"
    for name in ("metrics.py", "baseline.py"):
        via_sim = sorted(n for n in imported(PACKAGE / name) if n.split(".")[0] == "stream_sim")
        assert not via_sim, f"{name} imports {via_sim}"


TYPE_CHECKING_GUARDS = ("TYPE_CHECKING", "typing.TYPE_CHECKING")


def runs_at_import(tree: ast.Module):
    """The nodes of the module that run when it is imported: all but those in
    a function body or in the body of an `if TYPE_CHECKING:`."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) in TYPE_CHECKING_GUARDS:
            stack.extend(node.orelse)
        else:
            stack.extend(ast.iter_child_nodes(node))


def numpy_imports(nodes) -> list[int]:
    """The line of each `import numpy...` or `from numpy... import` among `nodes`."""
    return [node.lineno for node in nodes
            if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "numpy" for a in node.names)
            or isinstance(node, ast.ImportFrom) and not node.level
            and node.module.split(".")[0] == "numpy"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_loads_numpy_when_imported(path):
    """`import streameval` must not load numpy, which would take more than
    half its time: a module imports it inside the functions that draw random
    numbers or build AP arrays, and for annotations only under
    `if TYPE_CHECKING:`."""
    lines = numpy_imports(runs_at_import(parse(path)))
    assert not lines, f"{path.name} imports numpy at import time, on lines {lines}"


def loaded_by_import(top: str) -> str:
    """The modules of package `top` that a fresh interpreter has loaded after
    `import streameval, streameval.cli`, as a printed list. The pytest
    process has loaded most packages already, so a subprocess checks."""
    probe = ("import streameval, streameval.cli, sys; "
             f"print(sorted(m for m in sys.modules if m.split('.')[0] == {top!r}))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          check=True)
    return done.stdout


def test_import_streameval_loads_no_numpy():
    """In a fresh interpreter, neither the package nor its CLI loads numpy."""
    assert loaded_by_import("numpy") == "[]\n"


def test_import_streameval_loads_no_orjson():
    """orjson is loaded by the first JSON-Lines line read, not on import."""
    assert loaded_by_import("orjson") == "[]\n"


def test_every_third_party_import_is_a_declared_dependency():
    """A module of `src/` may import, at its top or inside a function, only
    the standard library, the package itself and the distributions listed in
    `pyproject.toml`'s `dependencies` (each named as it is imported)."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", d)[0].lower().replace("-", "_")
                for d in project["dependencies"]}
    imported = set()
    for path in MODULES:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Import):
                imported |= {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.split(".")[0])
    third_party = imported - sys.stdlib_module_names - {"streameval"}
    assert third_party, "no third-party import found: the check would pass on anything"
    assert third_party <= declared, f"not declared in pyproject.toml: {third_party - declared}"


def test_geom_imports_no_numpy():
    """The pair finder and the IoU paths run on plain floats: on the few boxes
    of one frame, numpy's per-call array setup costs more than the work, so
    `geom` must not import it."""
    lines = numpy_imports(ast.walk(parse(PACKAGE / "geom.py")))
    assert not lines, f"geom.py imports numpy on lines {lines}"


def test_baseline_imports_no_numpy():
    """The Kalman filter runs in closed form on plain floats, so `baseline`
    has no use for numpy, not even inside a function: `baseline-sv` runs
    without loading it."""
    lines = numpy_imports(ast.walk(parse(PACKAGE / "baseline.py")))
    assert not lines, f"baseline.py imports numpy on lines {lines}"


def test_cli_scores_only_through_pool_scenes():
    """`metrics.pool_scenes` is the one scene loop: `evaluate` builds its
    sources and leaves the pairing and pooling to it."""
    names = imported(PACKAGE / "cli.py")
    assert not names & {"metrics.ScenePool", "metrics.collect_pairs"}, sorted(names)


def calls(tree: ast.AST):
    """The calls under `tree`, each as the dotted name it calls: `f`,
    `pool.add`, `ScenePool().add`; any other callee reads "?"."""
    def dotted(node):
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return f"{dotted(node.value)}.{node.attr}"
        if isinstance(node, ast.Call):
            return f"{dotted(node.func)}()"
        return "?"
    return [dotted(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)]


def test_cli_stages_leave_their_files_to_run():
    """Which files a stage touches is declared once, in `cli._build_parser`:
    `run` checks them, opens the outputs and writes their manifests, and no
    `_cmd_*` function opens, replaces, checks or manifests a file itself.
    Nor does one start a process: `run` alone forks the children that run a
    stage's scenes, and they end there, with `os._exit`, inside its stack of
    open files."""
    bookkeeping = {"open", "_replacing", "_distinct", "_manifest", "_sha256"}
    tree = parse(PACKAGE / "cli.py")
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert bookkeeping - {"open"} <= defined, sorted(bookkeeping - {"open"} - defined)
    named = {}
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_cmd_"):
            names = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)} & bookkeeping
            names |= set(calls(fn)) & {"os.fork", "fork", "os._exit", "_exit"}
            if names:
                named[fn.name] = sorted(names)
    assert not named, named
    processes = {"os.fork", "os.forkpty", "os._exit", "os.posix_spawn", "subprocess.Popen",
                 "subprocess.run", "multiprocessing.Process"}
    starting = {fn.name: sorted(set(calls(fn)) & processes) for fn in tree.body
                if isinstance(fn, ast.FunctionDef) and set(calls(fn)) & processes}
    assert starting == {"run": ["os._exit", "os.fork"]}, starting
    (run_fn,) = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name == "run"]
    stacks = [node for node in ast.walk(run_fn) if isinstance(node, ast.With)
              and any(calls(item.context_expr) == ["ExitStack"] for item in node.items)]
    inside = [name for stack in stacks for name in calls(stack)]
    assert inside.count("os.fork") == 1 and inside.count("os._exit") == 1, inside


def test_cli_stages_return_their_tallies():
    """A `_cmd_*` function runs alike in every process and returns its
    config and its tally; the parent's end step alone prints. So no stage
    calls `_info` or a join callback, none is a generator function, whose
    time the perfbench tracer would not record, and `cli` defines no
    exception that escapes a stage past `except Exception`."""
    tree = parse(PACKAGE / "cli.py")
    stages = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_cmd_")]
    assert len(stages) == 6, [fn.name for fn in stages]
    printing = {fn.name: sorted({"_info", "args.join"} & set(calls(fn))) for fn in stages}
    assert not any(printing.values()), printing
    generators = [fn.name for fn in stages
                  if any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in ast.walk(fn))]
    assert not generators, generators
    cli = importlib.import_module("streameval.cli")
    escaping = [name for name, value in vars(cli).items()
                if inspect.isclass(value) and issubclass(value, BaseException)
                and not issubclass(value, Exception)]
    assert not escaping, escaping


def test_cli_reads_one_stream_file_per_stage():
    """`baseline-sv` reads its `--stream` file and `evaluate` either its
    `--stream` or its `--sv` file, each through one `data.iter_stream`
    call, and no other function of `cli` reads a stream: an sv file is tied
    to its stream by its manifest, not by decoding both."""
    tree = parse(PACKAGE / "cli.py")
    readers = {fn.name: calls(fn).count("iter_stream") for fn in tree.body
               if isinstance(fn, ast.FunctionDef) and "iter_stream" in calls(fn)}
    assert readers == {"_cmd_baseline_sv": 1, "_cmd_evaluate": 1}, readers


def test_lines_are_decoded_by_one_reader():
    """`data._decode_line` parses every JSON-Lines line, and the one line
    reader `_iter_lines` is its one caller, so a run that skips scenes reads
    the lines it keeps as a serial run does."""
    callers = [(path.name, fn.name) for path in MODULES for fn in ast.walk(parse(path))
               if isinstance(fn, ast.FunctionDef)
               for name in calls(fn) if name.split(".")[-1] == "_decode_line"]
    assert callers == [("data.py", "_iter_lines")], callers


def test_lines_are_encoded_by_one_function():
    """`data._json_line` prints every JSON-Lines line: it is the one
    function of `data` that calls `json.dumps` or `orjson.dumps`, and the
    three line builders call it, so no writer prints a line its own way."""
    functions = [fn for fn in ast.walk(parse(PACKAGE / "data.py")) if isinstance(fn, ast.FunctionDef)]
    dumpers = sorted({fn.name for fn in functions
                      if {"json.dumps", "orjson.dumps"} & set(calls(fn))})
    assert dumpers == ["_json_line"], dumpers
    writers = sorted(fn.name for fn in functions if "_json_line" in calls(fn))
    assert writers == ["_record_to_json", "write_detections", "write_scene_annotations"], writers


def test_cli_builds_frames_only_through_extend_annotations():
    """`interpolate` builds a scene's frames, or a split run's share of
    them, with `interp.extend_annotations` over `interp._ticks`, not with a
    frame builder of its own choosing."""
    interp = importlib.import_module("streameval.interp")
    names = {n.removeprefix("interp.") for n in imported(PACKAGE / "cli.py") if n.startswith("interp.")}
    functions = {n for n in names if inspect.isfunction(getattr(interp, n, None))}
    assert functions == {"_ticks", "extend_annotations"}, sorted(functions)


def test_metrics_pools_only_in_pool_scenes():
    """`metrics.pool_scenes` is the one scene loop inside `metrics` too: no
    other function of the module pairs frames (`collect_pairs`) or adds them
    to a `ScenePool`, whether one it builds or one `pool_scenes` returns."""
    pooling = {}
    for fn in ast.walk(parse(PACKAGE / "metrics.py")):
        if not isinstance(fn, ast.FunctionDef):
            continue
        pools = {"ScenePool", "ScenePool()", "pool_scenes()"}
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                if calls(node.value)[0] in ("ScenePool", "pool_scenes"):
                    pools |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        found = {name for name in calls(fn)
                 if name == "collect_pairs" or name in {f"{pool}.add" for pool in pools}}
        if found:
            pooling[fn.name] = sorted(found)
    assert pooling == {"pool_scenes": ["collect_pairs", "pool.add"]}


def callers(tree: ast.Module, callee: str) -> list[str]:
    """The functions of the module that call `callee`, a method as
    `Class.method`; a call in a nested function is its outer function's."""
    functions = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            functions.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            functions += [(f"{node.name}.{fn.name}", fn) for fn in node.body
                          if isinstance(fn, ast.FunctionDef)]
    return sorted(name for name, fn in functions if callee in calls(fn))


def test_metrics_scores_through_one_source_and_one_velocity_route():
    """A scene is scored through one kind of source, its predictions
    function: a raw stream's is `latest`, the one caller of `match_recent`.
    The offline velocity error has one route too: `_ave_terms`, called by
    `ScenePool.add` and `compute_ave_offline`, and `ScenePool.report` takes
    no velocity error from outside."""
    tree = parse(PACKAGE / "metrics.py")
    assert callers(tree, "match_recent") == ["latest"]
    assert callers(tree, "_ave_terms") == ["ScenePool.add", "compute_ave_offline"]
    (report,) = [fn for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name == "ScenePool"
                 for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "report"]
    args = report.args
    assert [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)] == ["self", "metadata"]


def public_definitions(tree: ast.Module):
    """(node, name, pattern) for each public function and class of the module
    and each public method or property of its public classes: a function or
    class is used where its name is, a method where `.<name>` is."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node, node.name, re.compile(rf"\b{node.name}\b")
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield member, f"{node.name}.{member.name}", re.compile(rf"\.{member.name}\b")


def code_references(tree: ast.Module):
    """(line, name) for each reference in the module's code: a name it
    reads or imports from a module, and an attribute as `.<attr>`. A
    string, docstring or comment refers to nothing."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, f".{node.attr}"
        elif isinstance(node, ast.ImportFrom):
            yield from ((node.lineno, alias.name) for alias in node.names)


def test_every_public_name_has_a_caller_outside_the_tests():
    """A public function, class, method or property of the package must be
    used somewhere the tests are not: referred to by the code of a module of
    the package other than `__init__`, outside its own definition, or named
    in perfbench, in BENCHMARK.json or in the README. Otherwise only the
    tests call it, and it is code kept for them alone. A docstring or
    comment of the package is no caller."""
    elsewhere = [(ROOT / name).read_text(encoding="utf-8")
                 for name in ("BENCHMARK.json", "README.md")]
    elsewhere += [path.read_text(encoding="utf-8") for path in (ROOT / "perfbench").glob("*.py")]
    refs = {path: list(code_references(parse(path))) for path in MODULES
            if path.name != "__init__.py"}
    unused = []
    for path in refs:
        for node, name, pattern in public_definitions(parse(path)):
            leaf = name.rsplit(".", 1)[-1]
            wanted = {f".{leaf}"} if "." in name else {leaf, f".{leaf}"}
            own = range(node.lineno, node.end_lineno + 1)
            in_code = any(ref in wanted and not (other == path and line in own)
                          for other, found in refs.items() for line, ref in found)
            if not in_code and not any(pattern.search(text) for text in elsewhere):
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, f"public names that only the tests use: {unused}"


RECORD_TYPES = re.compile(
    r"\b(FrameDetections|FrameAnnotations|PredictionStream|StreamRecord|Box3D)\b")
KEYED = re.compile(r"\bdict\[|\bMapping\b")


def test_no_public_signature_keys_records():
    """Records carry their own frame time and scene, so a collection of them
    is a plain sequence. A `dict` or `Mapping` of records in a public
    signature or dataclass field keys them by a copy of what they hold, and
    the key can disagree with the record."""
    keyed = []
    for path in MODULES:
        for node, name, _ in public_definitions(parse(path)):
            if isinstance(node, ast.FunctionDef):
                a = node.args
                params = [p for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p]
                annotated = [(f"{name}({p.arg})", p.annotation) for p in params]
                annotated.append((f"{name} return", node.returns))
            else:
                annotated = [(f"{name}.{s.target.id}", s.annotation) for s in node.body
                             if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
                             and not s.target.id.startswith("_")]
            for where, annotation in annotated:
                text = "" if annotation is None else ast.unparse(annotation)
                if KEYED.search(text) and RECORD_TYPES.search(text):
                    keyed.append(f"{path.name}: {where}: {text}")
    assert not keyed, f"public annotations that key records by a copy of their fields: {keyed}"
