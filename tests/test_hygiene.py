"""Static checks over the source tree: no import left unread, no dot
product in the package outside ``geometry.dot``, no broad ``except`` in the
package, and no numpy or yaml on the twin side."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "twinsync"


def modules(*dirs):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def unused_imports(tree):
    """(line, name) of each name an import binds and the module never reads."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


# numpy's ways to a BLAS product; any object's ``.dot`` counts too
PRODUCTS = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum"}


def blas_products(tree, allowed_in=()):
    """Lines that compute a product numpy may hand to the BLAS: ``.dot``
    and the other names in ``PRODUCTS`` as attributes or numpy imports,
    the ``@`` operator, and anything of ``numpy.linalg``; outside the
    module-level functions named in ``allowed_in``."""
    exempt = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in allowed_in:
            exempt.update(id(n) for n in ast.walk(node))
    lines = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Attribute) and node.attr in PRODUCTS | {"linalg"}:
            lines.append(node.lineno)
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy") \
                and (node.module.startswith("numpy.linalg")
                     or any(a.name in PRODUCTS | {"linalg"} for a in node.names)):
            lines.append(node.lineno)
        elif isinstance(node, ast.Import) and any(a.name.startswith("numpy.linalg")
                                                  for a in node.names):
            lines.append(node.lineno)
    return lines


def broad_excepts(tree):
    """Lines of each bare ``except:`` and each handler that names
    ``Exception`` or ``BaseException``, alone or in a tuple."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        if node.type is None or any(dotted(t).split(".")[-1] in ("Exception", "BaseException")
                                    for t in caught):
            lines.append(node.lineno)
    return lines


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line} {name}"
             for path, tree in modules(ROOT / "src", ROOT / "tests")
             for line, name in unused_imports(tree)]
    assert found == []


def test_dot_only_through_geometry():
    found = [f"{path.relative_to(ROOT)}:{line}"
             for path, tree in modules(PACKAGE)
             for line in blas_products(
                 tree, ("dot",) if path == PACKAGE / "geometry.py" else ())]
    assert found == []


def test_no_broad_except():
    found = [f"{path.relative_to(ROOT)}:{line}"
             for path, tree in modules(PACKAGE)
             for line in broad_excepts(tree)]
    assert found == []


# the twin side and the CLI that runs replay and live on it
TWIN_SIDE = ("twinsync.twin", "twinsync.live", "twinsync.scenario",
             "twinsync.recordlog", "twinsync.cli")


def test_twin_side_imports_neither_numpy_nor_yaml():
    script = (f"import sys\nimport {', '.join(TWIN_SIDE)}\n"
              "print(*sorted(m for m in sys.modules if m.split('.')[0] in "
              "('numpy', 'yaml', 'twinsync')))")
    out = subprocess.run([sys.executable, "-c", script], check=True, text=True,
                         capture_output=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")}).stdout
    loaded = set(out.split())
    assert {"numpy", "yaml"} & loaded == set()
    # nor any of the emulator's modules
    emulator = {"twinsync.harness", "twinsync.network", "twinsync.teleop",
                "twinsync.latency"}
    assert emulator & loaded == set()


def test_checks_see_what_they_look_for():
    tree = ast.parse("import os\nimport numpy as np\nfrom numpy.linalg import norm\n"
                     "def f(v):\n    return np.linalg.norm(v)\n")
    assert unused_imports(tree) == [(1, "os"), (3, "norm")]
    assert blas_products(tree) == [3, 5]
    products = ast.parse("import numpy.linalg\nfrom numpy import dot\n"
                         "from numpy.linalg import solve\n"
                         "a = x.dot(y)\nb = np.dot(x, y)\nc = x @ y\nc @= y\n"
                         "d = np.linalg.solve(x, y)\ne = np.einsum('i,i', x, y)\n"
                         "f = sum(map(mul, x, y))\n")
    assert sorted(set(blas_products(products))) == [1, 2, 3, 4, 5, 6, 7, 8, 9]
    geometry = ast.parse("import numpy as np\ndef dot(a, b):\n"
                         "    return np.asarray(a).dot(b)\n"
                         "def norm(v):\n    return np.linalg.norm(v)\n")
    assert blas_products(geometry) == [3, 5]
    assert blas_products(geometry, ("dot",)) == [5]
    handlers = ast.parse("try:\n    pass\nexcept ValueError:\n    pass\n"
                         "except (KeyError, Exception):\n    pass\n"
                         "except builtins.BaseException:\n    pass\n"
                         "except:\n    pass\n")
    assert broad_excepts(handlers) == [5, 7, 9]
