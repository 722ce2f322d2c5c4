"""Package modules import only each other's public names."""

import ast
import importlib
import pathlib
import types

import numpy as np

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


ROOT = pathlib.Path(__file__).resolve().parents[1]
#: Where a package name counts as used.
USE_DIRS = ("src", "tests", "demos", "benchmarks")


def module_level_names(source: str) -> set[str]:
    """Names a module binds at its top level by def, class or assignment."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                names |= {n.id for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def used_names(source: str) -> set[str]:
    """Names the source reads, looks up as an attribute or imports; a definition is none."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_checker_sees_definitions_and_uses():
    source = (
        "A, B = 1, 2\n"
        "C: int = 3\n"
        "def f():\n"
        "    return A + g.h\n"
        "class K:\n"
        "    D = 4\n"
        "from m import E\n"
    )
    assert module_level_names(source) == {"A", "B", "C", "f", "K"}
    assert used_names(source) >= {"A", "g", "h", "E"}
    assert not used_names(source) & {"B", "C", "f", "K", "D"}


def test_every_module_level_name_is_used():
    used = set()
    for d in USE_DIRS:
        for path in (ROOT / d).rglob("*.py"):
            used |= used_names(path.read_text())
    dead = {
        f"{m.stem}.{name}"
        for m in MODULES
        for name in module_level_names(m.read_text())
        if name not in used
    }
    assert dead == set()


def numpy_calls(source: str, path: str) -> list[str]:
    """``function:line`` of every ``np.<path>`` or ``numpy.<path>`` the source names, by enclosing function.

    ``path`` is a dotted attribute path below numpy, such as ``"kron"`` or ``"linalg.qr"``.
    """
    names = path.split(".")
    found = []

    def names_path(node) -> bool:
        for name in reversed(names):
            if not (isinstance(node, ast.Attribute) and node.attr == name):
                return False
            node = node.value
        return isinstance(node, ast.Name) and node.id in ("np", "numpy")

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if names_path(child):
                found.append(f"{where}:{child.lineno}")
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_checker_sees_numpy_kron():
    source = (
        "import numpy as np\n"
        "A = np.kron(B, C)\n"
        "def f(x):\n"
        "    return np.kron(x, x) + kron([x])\n"
    )
    assert numpy_calls(source, "kron") == ["<module>:2", "f:4"]


def test_checker_sees_numpy_attribute_paths():
    source = (
        "import numpy as np\n"
        "def f(G):\n"
        "    Q, R = np.linalg.qr(G)\n"
        "    return numpy.linalg.qr(Q), linalg.qr(G), np.qr(G), np.linalg.eigh(G)\n"
    )
    assert numpy_calls(source, "linalg.qr") == ["f:3", "f:4"]
    assert numpy_calls(source, "linalg") == ["f:3", "f:4", "f:4"]
    assert numpy_calls(source, "qr") == ["f:4"]


def calls_outside(path: str, module: str, function: str) -> dict:
    """Each package module's uses of ``np.<path>`` other than in ``module.function``."""
    offenders = {
        m.name: [c for c in numpy_calls(m.read_text(), path) if not (m.stem == module and c.startswith(f"{function}:"))]
        for m in MODULES
    }
    return {name: calls for name, calls in offenders.items() if calls}


def test_numpy_kron_only_behind_linalg_kron():
    # Every Kronecker product goes through linalg.kron, the broadcast outer
    # product: np.kron takes ~5x as long on a pair of 2x2 factors.
    assert calls_outside("kron", "linalg", "kron") == {}


def test_numpy_qr_only_in_qr_isometries():
    # Every random isometry comes from causality.qr_isometries, which stacks
    # its matrices by shape: a single-matrix np.linalg.qr call costs ~22-45 us
    # against ~1-11 us per matrix stacked (2-vCPU x86-64 host).
    assert calls_outside("linalg.qr", "causality", "qr_isometries") == {}


def writable_arrays(module) -> list[str]:
    """Names of a module's top-level ndarrays, alone or in a tuple or list, that can be written."""
    found = []
    for name, value in vars(module).items():
        items = value if isinstance(value, (tuple, list)) else (value,)
        found += [name for v in items if isinstance(v, np.ndarray) and v.flags.writeable]
    return found


def test_checker_sees_writable_arrays():
    module = types.ModuleType("fake")
    frozen = np.zeros(2)
    frozen.setflags(write=False)
    module.A, module.B, module.C, module.D = np.zeros(2), frozen, (frozen, np.ones(1)), [frozen]
    assert writable_arrays(module) == ["A", "C"]


def test_module_level_arrays_are_read_only():
    # One in-place write by a caller to a shared constant would change every
    # later result that reads it.
    names = ["pdmsim" if m.stem == "__init__" else f"pdmsim.{m.stem}" for m in MODULES]
    offenders = {name: writable_arrays(importlib.import_module(name)) for name in names}
    assert {name: arrays for name, arrays in offenders.items() if arrays} == {}
