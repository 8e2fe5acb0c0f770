"""The runtime needs nothing beyond the standard library."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_python(code: str, *flags: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_runtime_dependencies_stay_empty():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []


def test_importing_the_package_loads_no_test_only_module():
    code = (
        "import json, sys; import czeta, czeta.cli, czeta.verify; "
        "print(json.dumps(sorted(m for m in ('numpy', 'mpmath', 'hypothesis', 'pytest') "
        "if m in sys.modules)))"
    )
    assert json.loads(_run_python(code)) == []


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter, since pytest itself imports both, and without site,
    # whose .pth hooks may preload modules czeta does not ask for; on Python
    # >= 3.12 importlib.resources itself imports inspect
    code = (
        "import json, sys; import czeta, czeta.cli, czeta.verify; "
        "print(json.dumps(sorted(m for m in ('dataclasses', 'inspect', 'importlib.resources') "
        "if m in sys.modules)))"
    )
    assert json.loads(_run_python(code, "-S")) == []


def test_czeta_classify_stays_the_function_once_the_submodule_is_imported():
    # the package re-exports the function under its submodule's name; importing
    # the submodule (directly, or through cli and verify) must not rebind it
    code = """if True:
        import importlib, sys, types
        for name in ("czeta.classify", "czeta.cli", "czeta.verify"):
            importlib.import_module(name)
            import czeta
            module = sys.modules["czeta.classify"]
            print(type(czeta.classify) is types.FunctionType, czeta.classify is module.classify,
                  type(module) is types.ModuleType, callable(module.hurwitz_counts))
    """
    assert _run_python(code).split() == ["True"] * 12


def test_every_traced_layer_names_a_czeta_attribute():
    # the benchmark's tracer wraps each (module, name) of its LAYERS table and
    # fails with AttributeError on a name the package no longer has
    import ast
    import importlib

    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    layers = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]
    )
    assert layers
    for module, qualname in layers:
        owner = importlib.import_module(f"czeta.{module}")
        for attr in qualname.split("."):
            owner = getattr(owner, attr)
        assert callable(owner), (module, qualname)


def test_every_czeta_attribute_the_benchmark_reads_resolves():
    # the benchmark also calls the package outside tracing (each workload's
    # case code, the worker, the tracer's entry point); a name it reads as
    # czeta.<name>[.<name>...] must still exist
    import ast
    import importlib

    seen = set()
    for path in sorted((ROOT / "perfbench").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if chain and isinstance(node, ast.Name) and node.id == "czeta":
                seen.add((path.name, ".".join(reversed(chain))))
    assert {"zeta_table", "det_exact", "classify", "format_rational", "Rect"} <= {
        dotted for name, dotted in seen if name == "workloads.py"
    }
    for _, dotted in sorted(seen):
        owner, qualname = importlib.import_module("czeta"), "czeta"
        for attr in dotted.split("."):
            qualname += "." + attr
            if not hasattr(owner, attr):  # a submodule the file imports itself
                importlib.import_module(qualname)
            owner = getattr(owner, attr)


def test_no_bare_assert_in_the_package():
    # python -O strips assert statements, and every check of czeta must fire
    # under it: a check raises a czeta.errors type instead
    import ast

    sources = sorted((ROOT / "src" / "czeta").glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{path.name}: assert at lines {lines}"
