"""The package's surface: numpy is its only dependency, and `__all__` holds its five API names and nothing else."""

import ast
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import qbm_structures

SRC = Path(qbm_structures.__file__).resolve().parent
ROOT = SRC.parent.parent


def imported_roots(source: str) -> set[str]:
    """The top-level packages that `source` imports, at any depth of the module (lazy imports too)."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_no_module_imports_scipy():
    found = {path.name: imported_roots(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    assert sorted(name for name, roots in found.items() if "scipy" in roots) == []


def test_the_import_finder_sees_lazy_and_from_imports():
    source = "import os\ndef f():\n    import scipy.linalg\nfrom numpy import linalg\nfrom . import model\n"
    assert imported_roots(source) == {"os", "scipy", "numpy"}


def test_numpy_is_the_only_declared_dependency():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    (block,) = re.findall(r"^dependencies = \[(.*?)\]", text, flags=re.M | re.S)
    assert re.findall(r'"([^"]+)"', block) == ["numpy>=1.24"]


def test_all_lists_api_names_and_no_module():
    assert not [name for name in qbm_structures.__all__ if isinstance(getattr(qbm_structures, name), types.ModuleType)]
    assert qbm_structures.__all__ == ["BathSpec", "ConditioningError", "DomainError", "ModelParams", "discretize_bath"]
    namespace = {}
    exec("from qbm_structures import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == sorted(qbm_structures.__all__)


def test_package_import_loads_only_errors_and_model():
    # the scenarios, the Gaussian routines, the structure maps and the oracle load from their own modules
    code = "import sys, qbm_structures; print(sorted(m for m in sys.modules if m.split('.')[0] == 'qbm_structures'))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == str(["qbm_structures", "qbm_structures.errors", "qbm_structures.model"])
