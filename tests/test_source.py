"""Static checks on the package source: every module of src/lesionkit
uses each name it imports, imports nothing outside the standard library but
its declared dependencies, and has only two volume helpers that create
files; every public name it defines is read by the package or perfbench/,
or is an allowed entry point; pyproject's console script is cli.main;
README's CLI table lists each subcommand."""

import argparse
import ast
import dataclasses
import importlib
import json
import re
import sys
from pathlib import Path

import pytest

from lesionkit import cli
from lesionkit.evaluation import EvaluationConfig
from lesionkit.phantom import PhantomConfig

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lesionkit"
README = PACKAGE.parents[1] / "README.md"
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"
PERFBENCH = PACKAGE.parents[1] / "perfbench"

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


#: public names that neither the package nor perfbench/ reads, each with the
#: reason it is public.  perfbench/ calls evaluate_cohort and
#: phantom_patient_evals as any library user would; they stay entry points
ALLOWED_UNREAD = {
    "evaluate_cohort": "evaluate on in-memory PatientEvals, without the cohort directory",
    "froc_curve": "the CS FROC of (prediction, ground truth) map pairs; stages count from matches",
    "froc_by_grade": "the per-grade FROC of map pairs, as froc_curve",
    "branch_loss": "the paper's per-branch training loss, for training code",
    "global_loss": "the paper's scheduled sum of the two branch losses, for training code",
    "phantom_patient_evals": "a generated cohort as PatientEvals, for evaluate_cohort",
    "prostate_default": "the paper's prostate-branch class weights, for training code",
    "ledger_zone_subset": "a ledger restricted to one zone: the oracle of zonal evaluation, "
                          "which tests read",
}


def exported_names(source: str) -> list[str]:
    """Names that the module's import statements bind: in __init__.py,
    the public API."""
    return [a.asname or a.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) for a in node.names]


def defined_names(source: str) -> set[str]:
    """The public names the module defines: its module-level functions,
    classes and assigned names, and the methods, properties and classmethods
    of its classes.  Dataclass fields, being annotated names of a class
    body, and dunders are left out, as is any name that starts with _."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            names |= {item.name for item in node.body
                      if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {n for n in names if not n.startswith("_")}


def read_names(source: str) -> set[str]:
    """Names that some expression of the module reads: each name loaded and
    each attribute name loaded, whatever object it is read from."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(ast.parse(source))
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def test_checker_finds_defined_and_read_names():
    source = ("A, _B = 1, 2\nC: int = 3\ndef f(x): return x.size + g(y)\n"
              "class K:\n    n: int\n    def m(self): self.p = 1\n"
              "    @property\n    def q(self): return self.m()\n    def __len__(self): return 0\n"
              "    def _r(self): pass\nclass _L:\n    def s(self): pass\n")
    assert defined_names(source) == {"A", "C", "f", "K", "m", "q", "s"}
    assert read_names(source) == {"int", "x", "size", "g", "y", "self", "property", "m"}
    assert exported_names("from .a import f, g as h\nfrom .b import C\nx = f\n") == ["f", "h", "C"]


def test_every_public_name_is_read_or_allowed():
    """A public function, constant, class, method or property that only tests
    read is a second copy of some rule that evaluate runs, or a member that
    nothing runs: its tests pass while the pipeline's code goes untested.
    Each must be read by the package, by perfbench/, or be in ALLOWED_UNREAD.

    Known limit: names are matched, not bindings.  Two classes that share a
    member name hide each other: a method named n_voxels would pass unread,
    since LesionCluster.n_voxels is read.  So does a constant that shares
    its name with an attribute some module reads."""
    modules = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    defined = set().union(*(defined_names(path.read_text(encoding="utf-8")) for path in modules))
    package = set().union(*(read_names(path.read_text(encoding="utf-8")) for path in modules))
    bench = set().union(*(read_names(path.read_text(encoding="utf-8"))
                          for path in PERFBENCH.glob("*.py")))
    assert sorted(defined - package - bench - set(ALLOWED_UNREAD)) == []
    # an allowed name that the package reads, or no longer defines, leaves the list
    assert set(ALLOWED_UNREAD) <= defined - package
    # every export is a name the package defines, so the check covers it
    exports = exported_names((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert set(exports) <= defined


def _project() -> dict:
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    return tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]


def third_party_imports(source: str) -> set[str]:
    """Top-level package names of the module's absolute imports, at any
    depth, that are neither standard library nor lesionkit itself."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"lesionkit"}


def test_checker_finds_third_party_imports():
    source = ("from __future__ import annotations\nimport os.path, numpy.linalg as la\n"
              "from . import volume\nfrom lesionkit.grades import Grade\n"
              "def f():\n    from scipy import ndimage\n    import yaml\n")
    assert third_party_imports(source) == {"numpy", "scipy", "yaml"}


def test_imports_are_the_declared_dependencies():
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group().lower().replace("-", "_")
                for d in _project()["dependencies"]}
    imported = set().union(*(third_party_imports(path.read_text(encoding="utf-8"))
                             for path in PACKAGE.glob("*.py")))
    assert imported == declared == {"numpy", "scipy"}


def test_console_script_is_cli_main():
    target = _project()["scripts"]["lesionkit"]
    assert target == "lesionkit.cli:main"
    module, func = target.split(":")
    assert getattr(importlib.import_module(module), func) is cli.main


#: (module file, function) allowed to create files: every write goes through one of them
FILE_CREATORS = {("volume.py", "_create"), ("volume.py", "_write_bytes")}


def file_creations(source: str) -> list[tuple[str, int]]:
    """(innermost enclosing function, line) of each os.open call and each
    open call whose mode is not a literal read mode."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            name = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            if isinstance(child, ast.Call) and _creates_file(child):
                found.append((func, child.lineno))
            visit(child, name)

    visit(ast.parse(source), "<module>")
    return found


def _creates_file(call: ast.Call) -> bool:
    f = call.func
    if isinstance(f, ast.Attribute) and f.attr == "open" and isinstance(f.value, ast.Name):
        return f.value.id == "os"
    if not (isinstance(f, ast.Name) and f.id == "open"):
        return False
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r"))
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def test_checker_finds_file_creations():
    source = ("import os\nopen('a')\nopen('b', 'rb')\nopen('c', mode='r', encoding='utf-8')\n"
              "def f(m):\n    open('d', 'wb')\n    def g():\n        os.open('e', 0)\n"
              "    open('f', m)\nopen('g', mode='a')\nopen('h', 'r+')\n")
    assert file_creations(source) == [("f", 6), ("g", 8), ("f", 9), ("<module>", 10),
                                      ("<module>", 11)]


def test_files_are_created_in_one_place():
    found = {
        (path.name, func)
        for path in sorted(PACKAGE.glob("*.py"))
        for func, _ in file_creations(path.read_text(encoding="utf-8"))
    }
    assert found == FILE_CREATORS


def readme_commands(text: str) -> list[str]:
    """The first column of the command table in README's CLI section."""
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `([^`]+)`\s*\|", section, flags=re.MULTILINE)


def test_readme_command_table_names_every_subcommand():
    subparsers = next(a for a in cli._build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert sorted(readme_commands(README.read_text(encoding="utf-8"))) == sorted(subparsers.choices)


def readme_config_rows(text: str) -> dict:
    """(section, key) -> (default as JSON text, accepted values, unit) of each
    row of the table in README's Config values section."""
    section = text.split("\n### Config values\n", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| (\w+) \| `(\w+)` \| `(.+?)` \| (.+?) \|\s*(.*?)\s*\|$", section,
                      flags=re.MULTILINE)
    return {(sec, key): (default, accepted, unit) for sec, key, default, accepted, unit in rows}


def test_readme_config_table_holds_each_field_with_its_default_and_spec():
    rows = readme_config_rows(README.read_text(encoding="utf-8"))
    want = {}
    for section, cls in (("evaluation", EvaluationConfig), ("phantom", PhantomConfig)):
        for f in dataclasses.fields(cls):
            spec = f.metadata["spec"]
            want[(section, f.name)] = (f.default, str(dataclasses.replace(spec, unit="")), spec.unit)
    got = {k: (json.loads(default), accepted, unit) for k, (default, accepted, unit) in rows.items()}
    assert set(got) == set(want)  # a row for every field, and no other
    for key, (default, accepted, unit) in want.items():
        assert got[key] == (json.loads(json.dumps(default)), accepted, unit), key


def attribute_reads(source: str, func: str) -> set[str]:
    """Names of the attributes the module-level function func reads."""
    tree = ast.parse(source)
    fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == func)
    return {n.attr for n in ast.walk(fn) if isinstance(n, ast.Attribute)}


def test_checker_finds_attribute_reads():
    source = "def f(p):\n    return g(p.data[0], p.a.b)\ndef g(q):\n    return q.c\n"
    assert attribute_reads(source, "f") == {"data", "a", "b"}


def test_label_from_probs_wraps_the_stack_labels():
    # ProbStack finds the argmax while it validates the stack; a label_from_probs
    # that read the stack's data would be a second scan over every voxel
    reads = attribute_reads((PACKAGE / "netmath.py").read_text(encoding="utf-8"),
                            "label_from_probs")
    assert "labels" in reads and "data" not in reads


def keyword_callers(source: str, keyword: str) -> list[str]:
    """The functions holding a call that passes keyword, one entry per call
    ('<module>' for a call outside any function)."""
    tree = ast.parse(source)
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call) and any(k.arg == keyword for k in node.keywords):
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return found


def test_checker_finds_keyword_callers():
    source = "x = f(a=1)\ndef g():\n    return h(f(a=2), b=3)\n"
    assert keyword_callers(source, "a") == ["<module>", "g"]


def test_only_select_skips_the_disjointness_check():
    # LesionMap(..., _subset=True) skips _check_disjoint; a subset of a checked
    # map is the one construction that may, so every other one stays checked
    found = {(path.name, owner) for path in sorted(PACKAGE.glob("*.py"))
             for owner in keyword_callers(path.read_text(encoding="utf-8"), "_subset")}
    assert found == {("cluster.py", "select")}
