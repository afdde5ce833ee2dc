import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import matryoshkan
from matryoshkan import cli, core, engine, errors, euler, mc, processes

SRC = Path(matryoshkan.__file__).resolve().parents[1]


def test_import_loads_numpy_only():
    # numpy is the only runtime dependency; scipy and mpmath serve tests and
    # benchmarks alone
    code = "import sys, matryoshkan; print(sorted({'scipy', 'mpmath'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("module", [matryoshkan, cli, core, engine, errors, euler, mc, processes])
def test_every_exported_name_exists(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("path", sorted(p.name for p in (SRC / "matryoshkan").glob("*.py") if p.name != "__init__.py"))
def test_no_unused_imports(path):
    # no linter is a dependency; a name a module imports and never reads is
    # most often left behind by a deletion
    tree = ast.parse((SRC / "matryoshkan" / path).read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {name: line for name, line in imported.items() if name not in used} == {}


def test_no_orphaned_private_names():
    # a module-level private helper, class or constant that nothing in the
    # package reads is most often left behind when its caller moved
    trees = {p.name: ast.parse(p.read_text()) for p in sorted((SRC / "matryoshkan").glob("*.py"))}
    defined = {}
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{path}:{node.lineno}"
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert {name: where for name, where in defined.items() if name not in read} == {}


def test_only_core_reads_the_packed_layout():
    # a MatryoshkanMatrix holds its dense lower triangle and gathers the
    # packed export itself, so no other module needs triangle indices
    reads = []
    for path in sorted((SRC / "matryoshkan").glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            reads += [f"{path.name}:{node.lineno}" for name in names if name in ("tril_indices", "_tril_indices")]
    assert reads == []
