"""The package metadata in pyproject.toml matches the source tree."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import repro
from repro import cli

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "repro"


def _project() -> dict:
    with open(ROOT / "pyproject.toml", "rb") as handle:
        return tomllib.load(handle)["project"]


def _names(requirements) -> set[str]:
    """Distribution names of PEP 508 requirement strings."""
    return {re.split(r"[\s\[<>=!~;]", req, maxsplit=1)[0].lower()
            for req in requirements}


def _guards_import_error(node: ast.Try) -> bool:
    for handler in node.handlers:
        caught = handler.type
        names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
        if any(isinstance(name, ast.Name)
               and name.id in ("ImportError", "ModuleNotFoundError")
               for name in names):
            return True
    return False


def _third_party_imports(tree: ast.Module):
    """``(top-level module, required)`` per third-party import.

    Required means imported unconditionally when the module loads: at
    module level and not inside a ``try`` that catches ImportError.
    Imports inside functions or guarded that way are optional.
    """
    found = []

    def visit(node, required: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            required = False
        if isinstance(node, ast.Try) and _guards_import_error(node):
            for child in node.body:
                visit(child, False)
            for child in node.handlers + node.orelse + node.finalbody:
                visit(child, required)
            return
        modules = []
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        for module in modules:
            top = module.split(".")[0]
            if top != "repro" and top not in sys.stdlib_module_names:
                found.append((top, required))
        for child in ast.iter_child_nodes(node):
            visit(child, required)

    visit(tree, True)
    return found


def test_metadata_fields():
    project = _project()
    assert project["name"] == "repro"
    assert project["version"] == repro.__version__
    assert project["requires-python"].startswith(">=3.")
    assert project["scripts"] == {"repro": "repro.cli:main"}
    assert callable(cli.main)


def test_every_third_party_import_is_declared():
    project = _project()
    required = _names(project.get("dependencies", []))
    optional = set().union(*(
        _names(reqs)
        for reqs in project.get("optional-dependencies", {}).values()))
    missing = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for module, is_required in _third_party_imports(tree):
            declared = required if is_required else required | optional
            if module.lower() not in declared:
                missing.append(f"{path.relative_to(ROOT)}: {module}")
    assert not missing, missing


def test_numpy_is_an_optional_extra():
    project = _project()
    assert "numpy" in _names(project["optional-dependencies"]["numpy"])
    assert "numpy" not in _names(project.get("dependencies", []))


def test_numpy_stays_off_the_import_path():
    """Only the numpy simulation engine uses numpy, and it imports it on
    its first run: loading the package's entry points must not."""
    probe = ("import sys, repro.sim, repro.eval.harness, repro.cli; "
             "print('numpy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(SOURCE.parent))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
