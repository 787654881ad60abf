"""Tests for the package's export table: every public name resolves on
first use, and ``import napx`` alone loads no numpy."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import napx

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def test_every_public_name_is_its_modules_object():
    """Each name of ``napx.__all__`` resolves, to the very object that the
    module the table names for it defines."""
    assert len(napx.__all__) == len(set(napx.__all__)) == 37
    assert set(napx.__all__) == {"__version__", *napx._MODULE_OF}
    for name in napx.__all__[1:]:
        module = importlib.import_module(f"napx.{napx._MODULE_OF[name]}")
        assert getattr(napx, name) is getattr(module, name), name


def test_star_import_binds_every_public_name():
    names = {}
    exec("from napx import *", names)
    names.pop("__builtins__")
    assert set(names) == set(napx.__all__)
    assert names["solve"] is napx.solver.solve
    assert names["__version__"] == napx.__version__


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        napx.no_such_name


def test_import_napx_loads_no_numpy_and_no_solver():
    """``import napx`` in a fresh process leaves numpy and the solver
    unloaded, so that ``python -m napx`` reaches the guard in ``__main__``
    before anything that can run out of memory while loading. ``dir``
    lists every public name without importing one."""
    probe = ("import sys, napx; "
             "print(sorted(set(napx.__all__) - set(dir(napx)))); "
             "print(sorted({'numpy', 'napx.solver'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": SRC_DIR})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n[]\n"
