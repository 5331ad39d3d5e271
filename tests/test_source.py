"""Static checks on the package source: every module of src/lesionkit
uses each name it imports."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lesionkit"

#: (module file, name) imports kept although the module never reads them
PINNED = {
    # perfbench/tracer.py wraps both names as attributes of lesionkit.evaluation,
    # and stops with an error when either is missing
    ("evaluation.py", "froc_by_grade"),
    ("evaluation.py", "froc_curve"),
}


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's import statements that no expression in
    the module reads; __future__ imports are directives, not names."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_checker_finds_unused_imports():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from json import dumps, loads as parse\nx = np.zeros(parse('1'))\n")
    assert unused_imports(source) == ["os", "dumps"]


def test_no_unused_imports_in_the_package():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    found = {
        (path.name, name)
        for path in modules
        # __init__.py imports only to re-export: its imports are the public API
        if path.name != "__init__.py"
        for name in unused_imports(path.read_text(encoding="utf-8"))
    }
    assert found == PINNED
