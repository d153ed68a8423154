"""Every exported name resolves, every example imports what exists, and
no definition in ``src/repro`` is reached only by tests.

``__all__`` lists are kept by hand next to the imports they re-export, so
deleting a definition can leave a name behind that ``from repro.x import
*`` would fail on.  The examples are parsed, not run: each ``from repro…
import name`` must name an attribute or a submodule that is there.
"""

import ast
import importlib
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import repro

ROOT = pathlib.Path(__file__).resolve().parents[2]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))

PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg)


def _resolves(module, name):
    if hasattr(module, name):
        return True
    try:
        importlib.import_module(f"{module.__name__}.{name}")
    except ModuleNotFoundError:
        return False
    return True


@pytest.mark.parametrize("package", PACKAGES)
def test_every_name_in_all_resolves(package):
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"{package} has no __all__"
    assert len(set(exported)) == len(exported), f"{package}: duplicates"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names missing {missing}"


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_imports_resolve(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    importlib.import_module(alias.name)
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] == "repro"):
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{alias.name}" for alias in node.names
                        if not _resolves(module, alias.name)]
    assert not missing, f"{path.name} imports missing names {missing}"


def test_no_unkept_test_only_definitions():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "check_dead_code.py")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_census_counts_top_level_assignments():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import check_dead_code
    finally:
        sys.path.remove(str(ROOT / "tools"))
    body = ast.parse("def f(): pass\nA = 1\nB, (C, D) = x\n__all__ = []\n"
                     "E: int = 2\nA += 1\nimport os\n").body
    assert [check_dead_code._defined(stmt) for stmt in body] == [
        ["f"], ["A"], ["B", "C", "D"], [], ["E"], [], []]
