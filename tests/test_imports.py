"""Package hygiene.

Modules share only public names with each other, every name a module
exports exists, the package docstring lists every module, the demos import
only exported names, every package name the benchmark reads exists, and
every function and class the package defines is read by the package, the
demos or the benchmark.
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


def _benchmark_layers() -> dict:
    """perfbench/tracing.py's LAYER_FUNCTIONS: module -> the functions it wraps."""
    return next(ast.literal_eval(node.value) for node in _perfbench_source("tracing.py").body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "LAYER_FUNCTIONS" for t in node.targets))


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

    layers = _benchmark_layers()
    missing = [f"{layer}.{name}" for layer, names in layers.items() for name in names
               if not hasattr(importlib.import_module(f"pendulum_ctl.{layer}"), name)]
    assert sum(map(len, layers.values())) > 10 and missing == []


# definitions kept although only the tests read them, with the reason
_KEPT_UNREFERENCED = {
    "plants.mechanical_energy": "the energy reference of acceptance criterion 7 and the "
                                "plant energy tests",
    "linearize.load_statespace": "the reader of the file that `linearize --out` writes",
}


def _dead_definitions(modules: dict[str, str], readers: list[str], wrapped: set) -> list[str]:
    """module.name of each module-level function or class nothing references.

    A reference is a name, an attribute or an imported name in any of the
    modules' or readers' sources, or a name in wrapped; a definition's own
    def or class line is not one.
    """
    used = set(wrapped)
    for source in [*modules.values(), *readers]:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
    return sorted(f"{module}.{node.name}" for module, source in modules.items()
                  for node in ast.parse(source).body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used)


def test_dead_definition_detector():
    modules = {"a": "def used(): pass\ndef dead(): pass\nclass Read: pass\nused()\n",
               "b": "from .a import used\ndef attr(): pass\ndef wrapped(): pass\n"
                    "class Alone:\n    def method(self): return Alone\n"}
    readers = ["import pendulum_ctl.b as b\nb.attr()\nfrom pendulum_ctl.a import Read\n"
               "__all__ = ['dead']\n"]
    assert _dead_definitions(modules, readers, {"wrapped"}) == ["a.dead"]
    assert _dead_definitions(modules, [], set()) == ["a.Read", "a.dead", "b.attr", "b.wrapped"]


def test_every_definition_is_read_by_the_package_demos_or_benchmark():
    root = Path(__file__).resolve().parents[1]
    package = Path(pendulum_ctl.__file__).parent
    modules = {path.stem: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    readers = [path.read_text(encoding="utf-8") for folder in ("demos", "perfbench")
               for path in sorted((root / folder).glob("*.py"))]
    wrapped = {name for names in _benchmark_layers().values() for name in names}
    # a kept name that gains a reader leaves the list
    assert _dead_definitions(modules, readers, wrapped) == sorted(_KEPT_UNREFERENCED)
