"""Package hygiene.

Modules share only public names with each other, every name a module
exports exists, the package docstring lists every module, the demos import
only exported names, and every package name the benchmark reads exists.
"""

import ast
import importlib
from pathlib import Path

import pytest

import pendulum_ctl


def _private_sibling_imports(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        sibling = node.level > 0 or (node.module or "").startswith("pendulum_ctl")
        found.extend(f"{node.module}.{alias.name}" for alias in node.names
                     if sibling and alias.name.startswith("_"))
    return found


def test_detector_flags_private_names():
    assert _private_sibling_imports("from .linearize import _fmt, ok") == ["linearize._fmt"]
    assert _private_sibling_imports("from pendulum_ctl.cli import _run") == ["pendulum_ctl.cli._run"]
    assert _private_sibling_imports("from os import _exit\nfrom . import plants") == []


def test_no_module_imports_a_private_name_from_a_sibling():
    package = Path(pendulum_ctl.__file__).parent
    offenders = {path.name: names for path in sorted(package.glob("*.py"))
                 if (names := _private_sibling_imports(path.read_text(encoding="utf-8")))}
    assert offenders == {}


def _package_modules():
    package = Path(pendulum_ctl.__file__).parent
    return {path.stem: importlib.import_module(f"pendulum_ctl.{path.stem}")
            for path in sorted(package.glob("*.py")) if path.stem != "__init__"}


def test_package_docstring_lists_exactly_the_modules():
    doc = pendulum_ctl.__doc__.split("Modules\n-------\n")[1]
    listed = [line.split(":")[0].strip() for line in doc.splitlines() if " : " in line]
    assert sorted(listed) == sorted(_package_modules())


def test_synthesis_error_lives_in_synthesis():
    # the one module that raises it defines it; no errors module is left
    assert "SynthesisError" in importlib.import_module("pendulum_ctl.synthesis").__all__
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("pendulum_ctl.errors")


def _unexported_package_imports(source: str) -> list[str]:
    """Names taken from pendulum_ctl modules that those modules do not export."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pendulum_ctl"):
            exported = getattr(importlib.import_module(node.module), "__all__", ())
            found.extend(f"{node.module}.{alias.name}" for alias in node.names
                         if alias.name not in exported)
    return found


def test_every_exported_name_exists():
    missing = {name: [n for n in module.__all__ if not hasattr(module, n)]
               for name, module in _package_modules().items() if hasattr(module, "__all__")}
    assert {name: names for name, names in missing.items() if names} == {}


def test_export_detector_flags_unlisted_names():
    assert _unexported_package_imports(
        "from pendulum_ctl.synthesis import nominal_lqr, _allclose") == [
        "pendulum_ctl.synthesis._allclose"]
    assert _unexported_package_imports("from pendulum_ctl import cli") == ["pendulum_ctl.cli"]
    assert _unexported_package_imports("import numpy as np\nfrom os import path") == []


def test_demos_import_only_exported_names():
    demos = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
    assert demos
    offenders = {path.name: names for path in demos
                 if (names := _unexported_package_imports(path.read_text(encoding="utf-8")))}
    assert offenders == {}


def _perfbench_source(name: str) -> ast.Module:
    path = Path(__file__).resolve().parents[1] / "perfbench" / name
    return ast.parse(path.read_text(encoding="utf-8"))


def test_benchmark_reads_only_package_names_that_exist():
    # the benchmark is frozen: a trim of the package that removes a name it
    # reads through a module alias (sim.SimConfig, synthesis.design_smc) or
    # wraps as a layer function would break it without failing elsewhere
    tree = _perfbench_source("workloads.py")
    aliases = {alias.asname or alias.name: importlib.import_module(f"pendulum_ctl.{alias.name}")
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "pendulum_ctl"
               for alias in node.names}
    read = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in aliases}
    assert {"cli", "linearize", "plants", "synthesis", "sim"} <= set(aliases)
    assert len(read) > 20
    assert sorted(f"{a}.{n}" for a, n in read if not hasattr(aliases[a], n)) == []

    layers = next(ast.literal_eval(node.value) for node in _perfbench_source("tracing.py").body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "LAYER_FUNCTIONS" for t in node.targets))
    missing = [f"{layer}.{name}" for layer, names in layers.items() for name in names
               if not hasattr(importlib.import_module(f"pendulum_ctl.{layer}"), name)]
    assert sum(map(len, layers.values())) > 10 and missing == []
