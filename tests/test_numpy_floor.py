"""No module in src/qbm_structures uses a numpy name added after 1.24, the floor pyproject.toml declares.

numpy 2.x is what runs the suite, so a call that exists only there passes every
other test; this one reads the sources instead.
"""

import ast
import re
from pathlib import Path

import qbm_structures

SRC = Path(qbm_structures.__file__).resolve().parent
ROOT = SRC.parent.parent

# added in numpy 2.0 or 2.1 (the array-API names), relative to the numpy namespace
NEWER = {
    "acos", "acosh", "asin", "asinh", "astype", "atan", "atan2", "atanh", "bitwise_invert", "bitwise_left_shift",
    "bitwise_right_shift", "concat", "cumulative_prod", "cumulative_sum", "isdtype", "matrix_transpose",
    "permute_dims", "pow", "trapezoid", "unique_all", "unique_counts", "unique_inverse", "unique_values", "unstack",
    "vecdot", "linalg.cross", "linalg.diagonal", "linalg.matrix_norm", "linalg.matrix_transpose", "linalg.outer",
    "linalg.svdvals", "linalg.trace", "linalg.vecdot", "linalg.vector_norm",
}


def newer_numpy_names(source: str) -> list[str]:
    """The names of NEWER that `source` reads, through `import numpy [as np]` or `from numpy[.linalg] import`."""
    tree = ast.parse(source)
    roots, used = {}, []  # local name -> the numpy path it stands for
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "numpy":  # `import numpy.linalg` binds numpy itself
                    roots[alias.asname or "numpy"] = rest + "." if rest and alias.asname else ""
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            prefix = node.module[len("numpy.") :] + "." if "." in node.module else ""
            used += [prefix + alias.name for alias in node.names if prefix + alias.name in NEWER]
            roots.update({alias.asname or alias.name: prefix + alias.name + "." for alias in node.names})
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            parts, base = [], node
            while isinstance(base, ast.Attribute):
                parts.append(base.attr)
                base = base.value
            if isinstance(base, ast.Name) and roots.get(base.id) is not None:
                name = roots[base.id] + ".".join(reversed(parts))
                used += [name] if name in NEWER else []
    return used


def test_sources_use_no_numpy_name_newer_than_the_declared_floor():
    (floor,) = re.findall(r'"numpy>=([0-9.]+)"', (ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert floor == "1.24"  # NEWER is written against this floor; raising it means revising NEWER
    found = {path.name: newer_numpy_names(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    assert {name: used for name, used in found.items() if used} == {}


def test_the_finder_sees_each_way_of_naming_numpy():
    assert newer_numpy_names("import numpy as np\nnp.vecdot(a, b)\nnp.linalg.vector_norm(a)\n") == [
        "vecdot",
        "linalg.vector_norm",
    ]
    assert newer_numpy_names("import numpy\nnumpy.concat([a])\n") == ["concat"]
    assert newer_numpy_names("import numpy.linalg as la\nla.matrix_norm(a)\nla.norm(a)\n") == ["linalg.matrix_norm"]
    assert newer_numpy_names("from numpy import linalg as la, trapezoid\nla.vecdot(a, b)\n") == [
        "trapezoid",
        "linalg.vecdot",
    ]
    assert newer_numpy_names("import numpy as np\nnp.einsum('ij,ij->i', u, u)\nnp.linalg.norm(a)\n") == []
