"""Static checks on the package source, mostly with the standard library's
`ast`: deleting code must not leave an import or a private helper behind, and
renaming code must not leave the benchmark naming what is gone."""

import ast
import importlib
import inspect
import json
from pathlib import Path

import pytest

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
