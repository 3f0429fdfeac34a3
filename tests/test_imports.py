"""Every module-level import in src/dimkit is used by its module, and
none of them is numpy.

No linter ships with the package, and deleting a function easily leaves
the imports only it needed behind.  ``__init__.py`` is skipped by the
unused-import pass: its imports are the package's public names.  numpy
is imported inside the functions that embed, so that commands which
never embed (convert, gen-tasks, bootstrap, ...) do not pay for it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dimkit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_flags_an_unused_import():
    source = "import os\nimport sys\nfrom typing import Any, Callable\nsys.exit(Callable)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: Any"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def eager_numpy_imports(source: str) -> list[int]:
    """Lines that import numpy while the module itself is imported: any
    statement outside a function body, except under ``if TYPE_CHECKING:``."""
    lines = []

    def visit(nodes):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
                visit(node.orelse)
                continue
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                names = []
            if any(name.split(".")[0] == "numpy" for name in names):
                lines.append(node.lineno)
            visit(ast.iter_child_nodes(node))

    visit(ast.parse(source).body)
    return lines


def test_checker_flags_an_eager_numpy_import():
    source = (
        "from typing import TYPE_CHECKING\n"
        "import numpy as np\n"
        "if TYPE_CHECKING:\n    import numpy\n"
        "try:\n    from numpy.linalg import norm\nexcept ImportError:\n    pass\n"
        "def f():\n    import numpy\n"
        "class C:\n    import numpy\n    def g(self):\n        from numpy import dot\n"
    )
    assert eager_numpy_imports(source) == [2, 6, 12]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_numpy_is_imported_lazily(path):
    assert eager_numpy_imports(path.read_text(encoding="utf-8")) == []
