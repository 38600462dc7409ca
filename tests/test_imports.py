"""Package hygiene: modules share only public names with each other."""

import ast
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
