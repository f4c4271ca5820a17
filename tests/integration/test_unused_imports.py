"""No unused imports in ``src/``: a stdlib-``ast`` check, no linter needed.

An imported name is used when the module loads it anywhere, names inside
string annotations (``x: "Plan"``, ``Callable[["GridCell"], ...]``) and
entries of ``__all__`` included.  ``__init__.py`` files are exempt, since
their imports are the package's re-exports, and so is ``__future__``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

SRC = Path(__file__).resolve().parents[2] / "src"


def _imported_names(tree: ast.AST) -> Iterator[Tuple[str, int]]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _strings(node: ast.AST) -> Iterator[str]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def _used_names(tree: ast.AST) -> Set[str]:
    used: Set[str] = set()
    typed: List[ast.AST] = []  # annotations and generic subscripts
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            typed.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                typed.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            typed.append(node.annotation)
        elif isinstance(node, ast.Subscript):
            typed.append(node.slice)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(_strings(node.value))
    for annotation in typed:
        for text in _strings(annotation):
            try:
                expression = ast.parse(text, mode="eval")
            except SyntaxError:
                continue
            used.update(
                sub.id for sub in ast.walk(expression) if isinstance(sub, ast.Name)
            )
    return used


def unused_imports(source: str) -> List[Tuple[str, int]]:
    """``(name, line)`` for each import the module never uses."""
    tree = ast.parse(source)
    used = _used_names(tree)
    return [(name, line) for name, line in _imported_names(tree) if name not in used]


def test_src_has_no_unused_imports():
    modules = [path for path in sorted(SRC.rglob("*.py")) if path.name != "__init__.py"]
    assert modules
    hits = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path in modules
        for name, line in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert not hits, "unused imports:\n" + "\n".join(hits)


def test_checker_flags_unused_and_spares_used_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from typing import Dict, List, Optional\n"
        "from a import Plan, Cell, Gone\n"
        "__all__ = ['Cell']\n"
        "def f(x: 'Optional[Plan]') -> Dict[str, 'List[int]']:\n"
        "    return osp\n"
    )
    assert unused_imports(source) == [("os", 2), ("Gone", 5)]
