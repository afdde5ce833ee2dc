import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import matryoshkan
from matryoshkan import cli, core, engine, errors, euler, mc, processes

SRC = Path(matryoshkan.__file__).resolve().parents[1]


LAZY = sorted([*euler.__all__, *mc.__all__])


def _fresh(code: str) -> str:
    """Standard output of code run in a new interpreter that imports the package from SRC."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    return out.stdout


def test_import_loads_numpy_only():
    # numpy is the only runtime dependency; scipy and mpmath serve tests and
    # benchmarks alone
    code = "import sys, matryoshkan; print(sorted({'scipy', 'mpmath'} & set(sys.modules)))"
    assert _fresh(code).strip() == "[]"


LOADED = "import sys; print(sorted(m for m in sys.modules if m.startswith('matryoshkan.')))"
HAWKES = ["--process", "hawkes", "--params", "lambda-star=1,alpha=1,beta=2", "--order", "3"]


@pytest.mark.parametrize("argv", [["moments", *HAWKES, "--time", "1"], ["steady", *HAWKES]], ids=["moments", "steady"])
def test_commands_and_import_leave_euler_and_mc_unloaded(argv):
    run = (f"import runpy, sys; sys.argv = {['matryoshkan', *argv]!r}\n"
           "try:\n    runpy.run_module('matryoshkan', run_name='__main__', alter_sys=True)\n"
           "except SystemExit as exc:\n    assert exc.code == 0, exc.code\n")
    cli_loaded = _fresh(run + LOADED).splitlines()[-1]
    assert "matryoshkan.cli" in cli_loaded
    for loaded in (cli_loaded, _fresh("import matryoshkan; " + LOADED)):
        assert "matryoshkan.euler" not in loaded and "matryoshkan.mc" not in loaded


def test_lazy_names_resolve_on_first_use():
    code = (
        "import matryoshkan\n"
        "from matryoshkan import simulate, EulerConfig\n"
        f"lazy = {LAZY!r}\n"
        "star = {}\n"
        "exec('from matryoshkan import *', star)\n"
        "print(all(hasattr(matryoshkan, n) for n in lazy), set(lazy) <= set(dir(matryoshkan)),"
        " set(lazy) <= set(star), simulate.__module__, EulerConfig.__module__)\n"
        "try:\n    matryoshkan.no_such_name\n"
        "except AttributeError as exc:\n    print(exc)\n"
    )
    assert _fresh(code).splitlines() == [
        "True True True matryoshkan.mc matryoshkan.euler",
        "module 'matryoshkan' has no attribute 'no_such_name'",
    ]
    assert sorted(set(LAZY) & set(matryoshkan.__all__)) == LAZY


def test_each_public_name_is_declared_once():
    # each module's __all__ is the one list of its names: the package
    # concatenates the eager ones and maps the lazy ones to their module
    assert matryoshkan.__all__ == [*core.__all__, *engine.__all__, *errors.__all__, *processes.__all__,
                                   *matryoshkan._LAZY]
    assert len(set(matryoshkan.__all__)) == len(matryoshkan.__all__)
    assert matryoshkan._LAZY == {**dict.fromkeys(euler.__all__, "euler"), **dict.fromkeys(mc.__all__, "mc")}


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
