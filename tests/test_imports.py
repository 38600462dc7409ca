"""Package hygiene.

Modules share only public names with each other, every name a module
exports exists, and the demos import only exported names.
"""

import ast
import importlib
from pathlib import Path

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
