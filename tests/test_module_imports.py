"""Package modules import only each other's public names."""

import ast
import dataclasses
import importlib
import pathlib
import sys
import types

import numpy as np
import pytest

from pdmsim import DensityState, KrausChannel, PseudoDensityMatrix, Schedule

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
#: Module-level names that no program code calls yet, each kept for a caller
#: ROADMAP.md plans: ``reduce_pdm`` for a pair-marginal engine or multi-event
#: verify suites (items 5 and 7). Once one gains a caller,
#: ``test_every_module_level_name_is_used`` fails until it leaves this set.
UNCALLED = {"schedule.reduce_pdm"}


def package_modules(root: pathlib.Path) -> list[pathlib.Path]:
    """The package's modules, without ``__init__``: its re-exports call nothing."""
    return sorted(p for p in (root / "src" / "pdmsim").glob("*.py") if p.name != "__init__.py")


def program_files(root: pathlib.Path) -> list[pathlib.Path]:
    """The files whose reads count as calls: the package modules, the demos and the benchmark."""
    return package_modules(root) + sorted((root / "demos").rglob("*.py")) + sorted((root / "benchmarks").rglob("*.py"))


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


def read_names(source: str) -> set[str]:
    """Names the source reads or looks up as an attribute; neither a definition nor an import is one."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def uncalled_names(root: pathlib.Path) -> set[str]:
    """``module.name`` of every module-level package name that no program file reads."""
    used = set().union(*(read_names(p.read_text()) for p in program_files(root)))
    return {
        f"{m.stem}.{name}"
        for m in package_modules(root)
        for name in module_level_names(m.read_text())
        if name not in used
    }


def unread_imports(source: str) -> list[str]:
    """Every name the source binds by ``import`` that it never reads; ``__future__`` imports bind none."""
    found = []
    read = read_names(source)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound = [a.asname or a.name.split(".")[0] for a in node.names]
            found += [name for name in bound if name not in read]
    return found


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
    assert read_names(source) >= {"A", "g", "h"}
    assert not read_names(source) & {"B", "C", "f", "K", "D", "E"}


def test_checker_does_not_count_an_import():
    source = "import F\nimport G.sub as H\nfrom m import E\nfrom n import J as L\n"
    assert read_names(source) == set()
    assert unread_imports("from __future__ import annotations\n" + source) == ["F", "H", "E", "L"]
    assert unread_imports("import numpy as np\nfrom m import E\nx = np.zeros(E)\n") == []


def fake_repo(root: pathlib.Path, files: dict) -> pathlib.Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def test_checker_counts_only_program_files(tmp_path):
    # A re-export from __init__, a test and a bare import in a demo call nothing.
    root = fake_repo(tmp_path, {
        "src/pdmsim/__init__.py": "from .linalg import helper, kron\n",
        "src/pdmsim/linalg.py": "def helper():\n    pass\n\ndef kron():\n    pass\n",
        "tests/test_linalg.py": "from pdmsim.linalg import helper\n\ndef test_helper():\n    helper()\n",
        "demos/demo.py": "from pdmsim import helper, kron\nkron()\n",
        "benchmarks/bench.py": "import pdmsim.linalg\n",
    })
    assert uncalled_names(root) == {"linalg.helper"}


def test_exempt_name_with_a_caller_fails(tmp_path):
    root = fake_repo(tmp_path, {
        "src/pdmsim/schedule.py": "def reduce_pdm():\n    pass\n",
    })
    assert uncalled_names(root) == UNCALLED
    fake_repo(root, {"demos/demo.py": "from pdmsim.schedule import reduce_pdm\nreduce_pdm()\n"})
    assert uncalled_names(root) == UNCALLED - {"schedule.reduce_pdm"}


def test_every_module_level_name_is_used():
    assert uncalled_names(ROOT) == UNCALLED


def test_every_import_is_read():
    offenders = {m.name: unread_imports(m.read_text()) for m in package_modules(ROOT)}
    assert {name: names for name, names in offenders.items() if names} == {}


def matches_by_function(source: str, match) -> list[str]:
    """``function:line`` of every AST node for which ``match`` holds, by innermost enclosing function."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if match(child):
                found.append(f"{where}:{child.lineno}")
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def numpy_calls(source: str, path: str) -> list[str]:
    """``function:line`` of every ``np.<path>`` or ``numpy.<path>`` the source names, by enclosing function.

    ``path`` is a dotted attribute path below numpy, such as ``"kron"`` or ``"linalg.qr"``.
    """
    names = path.split(".")

    def names_path(node) -> bool:
        for name in reversed(names):
            if not (isinstance(node, ast.Attribute) and node.attr == name):
                return False
            node = node.value
        return isinstance(node, ast.Name) and node.id in ("np", "numpy")

    return matches_by_function(source, names_path)


def name_uses(source: str, name: str) -> list[str]:
    """``function:line`` of every read of ``name`` or of ``<anything>.name``, by enclosing function.

    An import or a definition of ``name`` is not a read.
    """
    return matches_by_function(
        source,
        lambda node: (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name),
    )


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


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules the source imports, absolute imports only."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_checker_sees_imported_modules():
    source = (
        "import ctypes\n"
        "import os.path as p\n"
        "from ctypes import util\n"
        "from .linalg import kron\n"
        "def f():\n"
        "    import json\n"
    )
    assert imported_modules(source) == {"ctypes", "os", "json"}


def test_only_linalg_imports_ctypes():
    # linalg.single_threaded is the one place that calls into a C library.
    assert [m.stem for m in MODULES if "ctypes" in imported_modules(m.read_text())] == ["linalg"]


def outside_imports(source: str) -> set[str]:
    """The modules the source imports that are neither numpy nor in the standard library."""
    return imported_modules(source) - sys.stdlib_module_names - {"numpy"}


def test_checker_sees_outside_imports():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import scipy.linalg\n"
        "from json import loads\n"
        "from .linalg import kron\n"
        "def f():\n"
        "    from hypothesis import given\n"
    )
    assert outside_imports(source) == {"scipy", "hypothesis"}


def test_package_imports_only_numpy_and_the_standard_library():
    # numpy is the one declared dependency: a module that is importable on a
    # development host, such as scipy, may be missing where pdmsim is installed.
    offenders = {m.name: outside_imports(m.read_text()) for m in MODULES}
    assert {name: mods for name, mods in offenders.items() if mods} == {}


def test_numpy_kron_only_behind_linalg_kron():
    # Every Kronecker product goes through linalg.kron, the broadcast outer
    # product: np.kron takes ~5x as long on a pair of 2x2 factors.
    assert calls_outside("kron", "linalg", "kron") == {}


def test_numpy_qr_only_in_qr_isometries():
    # Every random isometry comes from verify.qr_isometries, which stacks
    # its matrices by shape: a single-matrix np.linalg.qr call costs ~22-45 us
    # against ~1-11 us per matrix stacked (2-vCPU x86-64 host).
    assert calls_outside("linalg.qr", "verify", "qr_isometries") == {}


def test_random_generators_only_in_worst_trial():
    # Every randomized check draws from the two streams the trial loop makes,
    # so no draw can come from a generator it did not make.
    assert calls_outside("random.default_rng", "verify", "worst_trial") == {}


def test_causality_keeps_only_the_monotone():
    # The monotone needs no channel and no random draw: causality.py imports
    # nothing from .channels and factors no matrix by QR.
    source = (ROOT / "src" / "pdmsim" / "causality.py").read_text()
    channel_imports = [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and (node.level, node.module) in ((1, "channels"), (0, "pdmsim.channels"))
    ]
    assert channel_imports == []
    assert numpy_calls(source, "linalg.qr") == []


@pytest.mark.parametrize("solver", ["eigvalsh", "eigh", "eigvals", "eig"])
def test_numpy_eigensolvers_only_in_hermitian_eig(solver):
    # Every eigensolve goes through linalg.hermitian_eig, which checks and
    # symmetrizes its input and keeps OpenBLAS on the calling thread.
    assert calls_outside(f"linalg.{solver}", "linalg", "hermitian_eig") == {}


def test_checker_sees_name_uses():
    source = (
        "from .causality import worst_deviation\n"
        "def worst_deviation(d):\n"
        "    return d\n"
        "def f(d):\n"
        "    def g():\n"
        "        return causality.worst_deviation(d)\n"
        "    return worst_deviation(d), max(d, key=worst_deviation), worst_deviations(d)\n"
    )
    assert name_uses(source, "worst_deviation") == ["g:6", "f:7", "f:7"]


def test_worst_deviation_only_in_the_trial_loops():
    # A randomized check keeps its worst case through verify.worst_trial.
    allowed = {("verify", "worst_trial")}
    offenders = {
        m.name: [u for u in name_uses(m.read_text(), "worst_deviation") if (m.stem, u.split(":")[0]) not in allowed]
        for m in MODULES
    }
    assert {name: uses for name, uses in offenders.items() if uses} == {}


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


def test_constructors_take_only_the_defining_array():
    # Each type is fixed by one array; what follows from it (a qubit count,
    # the PDM's matrix) is read from that array, never passed in beside it.
    inputs = {t.__name__: tuple(f.name for f in dataclasses.fields(t))
              for t in (DensityState, KrausChannel, Schedule, PseudoDensityMatrix)}
    assert inputs == {
        "DensityState": ("matrix",),
        "KrausChannel": ("kraus_ops",),
        "Schedule": ("initial_state", "events", "inter_slice_channels"),
        "PseudoDensityMatrix": ("events", "coefficients"),
    }
