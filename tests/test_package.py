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
