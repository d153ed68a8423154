#!/usr/bin/env python
"""Census: definitions in ``src/repro`` that no program runs.

A definition (a top-level ``def``, ``class`` or assignment, or a method
or property of a top-level class; dunders such as ``__all__`` and
``__init__`` excepted) is *dead* when its name is referenced only from
``tests/``, from ``__init__`` re-exports, or from
the bodies of other dead definitions.  The methods of a dead class are
dead with it and are counted in its lines.  Programs are the rest of
``src/repro`` (module-level statements included) plus ``bench/``,
``benchmarks/``, ``examples/``, ``tools/`` and every word of the CI
workflows, whose steps run inline scripts.  References are matched by
name, so a definition that shares its name with a live one counts as
live: the census can miss dead code, never report live code.

Every dead definition must be in ``KEEP`` with a one-line reason.

Exit codes: 0 = every dead definition is kept for a stated reason,
1 = at least one is not (or a ``KEEP`` entry names nothing dead).

Usage::

    python tools/check_dead_code.py
"""

from __future__ import annotations

import ast
import glob
import os
import re
import sys

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))

from repro.util.cli import StrictParser  # noqa: E402

PROGRAM_DIRS = ("bench", "benchmarks", "examples", "tools")

# "module.name": why a definition that only tests reach stays.  A kept
# definition counts as live, so what it calls (and, for a class, its
# methods) needs no entry of its own.
KEEP = {
    "dynamics.operators.laplacian5":
        "expression-form oracle of tests/dynamics/test_tendencies.py",
    "dynamics.operators.u_at_v_points":
        "expression-form oracle of tests/dynamics/test_tendencies.py",
    "dynamics.operators.v_at_u_points":
        "expression-form oracle of tests/dynamics/test_tendencies.py",
    "core.physics_lb.estimator.PreviousPassEstimator":
        "lagged-load estimator of ROADMAP item 12 (scheme-3 plan staleness)",
    "serve.config.ServeConfig.from_options":
        "the documented RunOptions -> gateway config mapping "
        "(docs/performance.md)",
    "perf.cache_sim.CacheSim.access":
        "one-address LRU oracle of the batched simulate() in "
        "tests/perf/test_cache_sim.py",
    "io.byteorder.native_order":
        "byte-order codec of the one result encoding, ROADMAP item 6",
    "io.byteorder.swap_bytes":
        "byte-order codec of the one result encoding, ROADMAP item 6",
    "io.byteorder.reinterpret_swapped":
        "byte-order codec of the one result encoding, ROADMAP item 6",
    "io.byteorder.convert_record":
        "byte-order codec of the one result encoding, ROADMAP item 6",
    "io.byteorder.encode_record":
        "byte-order codec of the one result encoding, ROADMAP item 6",
    "verify.differential.assert_pair":
        "pytest entry of the differential suite (pytest -m differential)",
    "verify.differential.DifferentialFailure":
        "what assert_pair raises: the differential suite's failure report",
    "verify.tolerances.FIELD_ATOL":
        "named tolerance of the test suite's one tolerance policy",
    "verify.tolerances.SPECTRAL_ATOL":
        "named tolerance of the test suite's one tolerance policy",
    "verify.pairs.pair_by_name":
        "the reproduce line a failing differential pair prints calls it",
}


def _sources(directory):
    return sorted(glob.glob(os.path.join(_REPO_ROOT, directory, "**", "*.py"),
                            recursive=True))


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def _names(node, skip=()):
    """Every identifier *node* mentions: names, attributes, the names an
    import binds and identifier-shaped strings (``getattr`` dispatch) —
    outside the subtrees in *skip*."""
    skip = set(map(id, skip))
    stack = [node]
    while stack:
        sub = stack.pop()
        if id(sub) in skip:
            continue
        stack.extend(ast.iter_child_nodes(sub))
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and sub.value.isidentifier():
            yield sub.value
        elif isinstance(sub, ast.ImportFrom):
            for alias in sub.names:
                yield alias.name


def _defined(stmt):
    """The names a top-level statement defines: a ``def`` or ``class``,
    or the plain names an assignment binds (dunders such as ``__all__``
    excepted)."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name) and not node.id.startswith("__")]


def _methods(stmt):
    """The non-dunder methods and properties a top-level class defines."""
    if not isinstance(stmt, ast.ClassDef):
        return []
    return [node for node in stmt.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def census(roots=()):
    """``{"module.name": line count}`` of the dead definitions, counting
    the definitions named in *roots* as live."""
    src = os.path.join(_REPO_ROOT, "src", "repro")
    definitions = {}  # "module.name" -> (name, node)
    owner_class = {}  # "module.Class.method" -> "module.Class"
    chunks = []  # (owners "module.name", names the chunk mentions)
    for path in _sources(os.path.join("src", "repro")):
        module = os.path.relpath(path, src)[:-3].replace(os.sep, ".")
        if os.path.basename(path) == "__init__.py":
            # Re-exports make nothing live; code in an __init__ does.
            tree = _parse(path)
            for stmt in tree.body:
                if isinstance(stmt, ast.ImportFrom) or (
                        isinstance(stmt, ast.Assign) and any(
                            getattr(t, "id", "") == "__all__"
                            for t in stmt.targets)):
                    continue
                chunks.append(((), set(_names(stmt))))
            continue
        for stmt in _parse(path).body:
            defined = _defined(stmt)
            owners = tuple(f"{module}.{name}" for name in defined)
            for key, name in zip(owners, defined):
                definitions[key] = (name, stmt)
            methods = _methods(stmt)
            chunks.append((owners, set(_names(stmt, skip=methods))
                           - set(defined)))
            for method in methods:
                key = f"{owners[0]}.{method.name}"
                definitions[key] = (method.name, method)
                owner_class[key] = owners[0]
                chunks.append(((key,), set(_names(method)) - {method.name}))
    for directory in PROGRAM_DIRS:
        for path in _sources(directory):
            chunks.append(((), set(_names(_parse(path)))))
    for path in glob.glob(os.path.join(_REPO_ROOT, ".github", "workflows",
                                       "*.yml")):
        with open(path, encoding="utf-8") as fh:
            chunks.append(((), set(re.findall(r"\w+", fh.read()))))

    dead = set(definitions) - set(roots) - {
        key for key, cls in owner_class.items() if cls in roots}
    while True:  # a definition is live once a live chunk names it
        live = set()
        for owners, names in chunks:
            if not owners or not dead.issuperset(owners):
                live |= names
        still = {key for key in dead if definitions[key][0] not in live
                 or owner_class.get(key) in dead}
        if still == dead:
            break
        dead = still
    return {key: definitions[key][1].end_lineno
            - definitions[key][1].lineno + 1 for key in sorted(dead)
            if owner_class.get(key) not in dead}


def main(argv=None) -> int:
    parser = StrictParser("check_dead_code.py",
                          prog="python tools/check_dead_code.py",
                          description=__doc__.splitlines()[0])
    parser.parse_args(argv)
    dead = census()
    unkept = census(roots=KEEP)
    stale = [key for key in KEEP if key not in dead]
    for key, lines in dead.items():
        if key in KEEP:
            print(f"{key} ({lines} lines): kept, {KEEP[key]}")
    for key, lines in unkept.items():
        print(f"{key} ({lines} lines): NOT KEPT, delete it or give it a "
              f"caller")
    for key in stale:
        print(f"{key}: in KEEP but not dead (or gone); drop the entry")
    print(f"{len(dead)} test-only definition(s), {sum(dead.values())} lines; "
          f"{len(unkept)} not kept, {len(stale)} stale keep entries")
    return 1 if unkept or stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
