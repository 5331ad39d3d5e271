"""Static checks on the package source: every module of src/lesionkit
uses each name it imports, and README's CLI table lists each subcommand."""

import argparse
import ast
import re
from pathlib import Path

from lesionkit import cli

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lesionkit"
README = PACKAGE.parents[1] / "README.md"

#: (module file, name) imports kept although the module never reads them
PINNED = {
    # perfbench/tracer.py wraps both names as attributes of lesionkit.evaluation,
    # and stops with an error when either is missing
    ("evaluation.py", "froc_by_grade"),
    ("evaluation.py", "froc_curve"),
    # perfbench/tracer.py wraps gs_lesion_maps and cs_lesion_maps the same way; the
    # stage builds both maps with lesion_maps, and only evaluate_points reads cs_lesion_maps
    ("evaluation.py", "gs_lesion_maps"),
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


def readme_commands(text: str) -> list[str]:
    """The first column of the command table in README's CLI section."""
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `([^`]+)`\s*\|", section, flags=re.MULTILINE)


def test_readme_command_table_names_every_subcommand():
    subparsers = next(a for a in cli._build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert sorted(readme_commands(README.read_text(encoding="utf-8"))) == sorted(subparsers.choices)
