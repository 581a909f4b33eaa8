import ast
import importlib
import sys
from pathlib import Path

import pytest

import sqzsim

from conftest import fresh_python

SUBMODULES = ("classical_noise", "config", "detection", "dsp", "fileio", "opo", "pulsed",
              "quantum", "spectra")


def test_import_loads_no_submodule_and_no_numpy():
    script = """
import sys
import sqzsim
loaded = sorted(m for m in sys.modules if m == "numpy" or m.startswith("sqzsim."))
assert not loaded, loaded
# dir() lists the names before any is resolved
assert set(sqzsim.__all__) <= set(dir(sqzsim))
# the first access imports the one submodule that defines the name
sqzsim.Spectrum
print(sorted(m for m in sys.modules if m.startswith("sqzsim.")))
"""
    assert fresh_python(script).split() == ["['sqzsim.spectra']"]


def test_every_public_name_is_its_submodules_object():
    owners = {}
    for name in SUBMODULES:
        module = importlib.import_module(f"sqzsim.{name}")
        owners.update(dict.fromkeys(module.__all__, module))
    assert sqzsim.__all__ and set(sqzsim.__all__) <= set(owners)
    listed = dir(sqzsim)
    for name in sqzsim.__all__:
        assert getattr(sqzsim, name) is getattr(owners[name], name), name
        assert name in listed, name


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        sqzsim.no_such_name


def test_star_import_gives_every_public_name():
    namespace = {}
    exec("from sqzsim import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(sqzsim.__all__)
    assert namespace["synthesize"] is sqzsim.dsp.synthesize


# run the package as `python -m sqzsim criteria` does, then report the exit
# code, the BLAS thread setting and the threads the process has
RUN_AS_MAIN = """
import os, runpy, sys
sys.argv = ["sqzsim", "--out", sys.argv[1], "criteria"]
try:
    runpy.run_module("sqzsim", run_name="__main__")
except SystemExit as exc:
    code = exc.code
threads = len(os.listdir("/proc/self/task")) if sys.platform == "linux" else 0
print(code, os.environ["OPENBLAS_NUM_THREADS"], threads)
"""


def test_cli_process_loads_numpy_with_one_blas_thread(tmp_path, monkeypatch):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    code, blas, threads = fresh_python(RUN_AS_MAIN, tmp_path).split()[-3:]
    assert (code, blas) == ("0", "1")
    # no OpenBLAS worker thread beside the main one
    assert threads == ("1" if sys.platform == "linux" else "0")
    assert (tmp_path / "criteria_report.json").is_file()


def test_cli_keeps_a_blas_thread_count_the_user_set(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    code, blas, _threads = fresh_python(RUN_AS_MAIN, tmp_path).split()[-3:]
    assert (code, blas) == ("0", "2")


def test_importing_the_package_or_its_entry_point_leaves_the_environment_alone():
    script = """
import os
before = dict(os.environ)
import sqzsim, sqzsim.cli
assert dict(os.environ) == before
import sqzsim.__main__  # defines main; runs nothing unless run as a script
assert dict(os.environ) == before
assert callable(sqzsim.__main__.main)
print("imported")
"""
    assert fresh_python(script).split() == ["imported"]


# names through which numpy reaches BLAS or LAPACK; a local variable of one
# of these names trips the guard too, and is best renamed
BLAS_NAMES = {"dot", "matmul", "einsum", "tensordot", "inner", "linalg"}


def test_the_package_calls_no_blas_directly():
    # `python -m sqzsim` starts OpenBLAS with one thread, which costs nothing
    # only while no command leans on BLAS; and the pulsed engine's row sums
    # keep their bits only as numpy reductions, not as BLAS products. The
    # walk sees only names written in the package; nothing reaches LAPACK
    # through numpy either, as the Gauss-Legendre rules are written out
    # rather than taken from leggauss, which solves an eigenproblem there
    found = []
    for path in sorted((Path(sqzsim.__file__).parent).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            op = getattr(node, "op", None)
            names = {getattr(node, "attr", None), getattr(node, "id", None)}
            if isinstance(node, ast.alias):
                names.update(node.name.split("."))
            if isinstance(node, ast.ImportFrom) and node.module:
                names.update(node.module.split("."))
            if isinstance(op, ast.MatMult) or names & BLAS_NAMES:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
