"""Package modules import only each other's public names."""

import ast
import pathlib

MODULES = sorted((pathlib.Path(__file__).resolve().parents[1] / "src" / "pdmsim").glob("*.py"))


def private_imports(source: str) -> list[str]:
    """``module:name`` of every ``_``-prefixed name the source imports from a pdmsim module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "pdmsim":
            continue
        found += [f"{'.' * node.level}{module}:{a.name}" for a in node.names if a.name.startswith("_")]
    return found


def test_checker_sees_private_imports():
    source = (
        "from __future__ import annotations\n"
        "from .serialize import _bloch, noise_model_from_dict\n"
        "from pdmsim.linalg import _hidden\n"
        "from . import _module\n"
        "from numpy import _private\n"
    )
    assert private_imports(source) == [".serialize:_bloch", "pdmsim.linalg:_hidden", ".:_module"]


def test_no_module_imports_a_private_name():
    assert len(MODULES) >= 10
    offenders = {m.name: private_imports(m.read_text()) for m in MODULES}
    assert {name: names for name, names in offenders.items() if names} == {}
