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


NUMERIC_NAMES = ["Rect", "ZeroReport", "count_zeros_region", "default_search_region",
                 "find_complex_zeros", "phi", "phi_derivative"]


@pytest.mark.parametrize("flags", [(), ("-S",)])
def test_the_exact_layer_loads_without_the_numeric_one(flags):
    # the package and the CLI leave czeta.numeric (and with it cmath) and
    # czeta.verify unloaded, and dir() still lists the numeric names; the first
    # read of one loads the module and binds the name in the package, to the
    # numeric module's own object; a star import binds all of __all__
    code = f"""if True:
        import json, sys
        import czeta, czeta.cli
        loaded = sorted(m for m in ("czeta.numeric", "czeta.verify", "cmath") if m in sys.modules)
        unlisted = sorted(set(czeta.__all__) - set(dir(czeta)))
        names = {NUMERIC_NAMES!r}
        bound_early = [name for name in names if name in vars(czeta)]
        same = [getattr(czeta, name) is getattr(sys.modules["czeta.numeric"], name)
                is vars(czeta)[name] for name in names]
        star = {{}}
        exec("from czeta import *", star)
        star = sorted(set(star) - {{"__builtins__"}}) == czeta.__all__
        verify = "czeta.verify" in sys.modules
        print(json.dumps([loaded, unlisted, bound_early, same, star, verify]))
    """
    loaded, unlisted, bound_early, same, star, verify = json.loads(_run_python(code, *flags))
    assert loaded == unlisted == bound_early == []
    assert same == [True] * len(NUMERIC_NAMES) and star and not verify


def test_a_name_the_package_lacks_raises_attribute_error():
    import czeta

    with pytest.raises(AttributeError, match=r"^module 'czeta' has no attribute 'no_such_name'$"):
        czeta.no_such_name


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


def test_every_imported_name_is_used():
    # __init__ imports to re-export; every other module uses what it imports
    import ast

    sources = sorted(p for p in (ROOT / "src" / "czeta").glob("*.py") if p.name != "__init__.py")
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = sorted((line, name) for name, line in imported.items() if name not in used)
        assert unused == [], f"{path.name}: unused imports (line, name) {unused}"


def test_all_is_sorted_and_unique():
    import czeta

    assert czeta.__all__ == sorted(set(czeta.__all__))


def test_every_name_in_all_resolves():
    import czeta

    missing = [name for name in czeta.__all__ if not hasattr(czeta, name)]
    assert missing == []


def test_every_public_attribute_is_exported():
    # a stale export or an unlisted public name shows here; submodules are
    # attributes too, bound by their import, and stay out of __all__; dir()
    # also lists the numeric names that the package binds on first use
    import types

    import czeta

    public = {name for name in dir(czeta) if not name.startswith("_")
              and not isinstance(getattr(czeta, name), types.ModuleType)}
    assert public == set(czeta.__all__)
