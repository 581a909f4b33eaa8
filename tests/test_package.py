import ast
import gc
import importlib
import sys
from pathlib import Path

import pytest

import sqzsim
from sqzsim import cli

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


def test_the_cli_process_ends_with_the_collector_on_and_its_objects_frozen(tmp_path):
    script = RUN_AS_MAIN + "import gc\nprint(gc.isenabled(), gc.get_freeze_count() > 0)\n"
    assert fresh_python(script, tmp_path).split()[-2:] == ["True", "True"]


@pytest.mark.parametrize("enabled", [True, False])
def test_cli_main_leaves_the_collector_as_it_finds_it(tmp_path, enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        frozen = gc.get_freeze_count()
        assert cli.main(["--out", str(tmp_path), "criteria"]) == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if was else gc.disable)()


# `python -m sqzsim ARGV...`, through the entry and its collector policy
RUN_MODULE = """
import runpy, sys
sys.argv = ["sqzsim"] + sys.argv[1:]
runpy.run_module("sqzsim", run_name="__main__")
"""


@pytest.mark.parametrize("argv", [
    ["criteria"], ["spectrum"], ["pulsed", "--example"], ["synth", "--n-samples", "4096"],
    ["analyze", "{in}/timeseries_minus.sqts", "--shot", "{in}/timeseries_shot.sqts"],
])
def test_the_cli_process_writes_what_cli_main_writes(tmp_path, capsys, argv):
    records = tmp_path / "in"
    for mode in ("minus", "shot"):
        assert cli.main(["--out", str(records), "--seed", "3", "synth", "--mode", mode,
                         "--n-samples", "4096"]) == 0
    argv = [a.replace("{in}", str(records)) for a in argv]
    process, in_process = tmp_path / "process", tmp_path / "in_process"
    capsys.readouterr()
    assert cli.main(["--out", str(in_process), "--seed", "7", *argv]) == 0
    printed = capsys.readouterr().out
    assert fresh_python(RUN_MODULE, "--out", process, "--seed", 7, *argv) == printed.replace(
        str(in_process), str(process))
    names = sorted(p.name for p in in_process.iterdir())
    assert names and names == sorted(p.name for p in process.iterdir())
    for name in names:
        assert (process / name).read_bytes() == (in_process / name).read_bytes(), name


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


def test_only_the_process_entry_touches_the_collector():
    # the entry freezes the collector's objects because its process ends
    # with its one command; pytest, the benchmark's in-process workers and
    # any caller of cli.main or the library keep the collector as they set it
    found = set()
    for path in sorted((Path(sqzsim.__file__).parent).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = {getattr(node, "id", None)}
            if isinstance(node, ast.alias):
                names.add(node.name.split(".")[0])
            if isinstance(node, ast.ImportFrom):
                names.add(node.module)
            if isinstance(node, ast.Constant):
                names.add(node.value)
            if "gc" in names:
                found.add(path.name if path.name == "__main__.py" else f"{path.name}:{node.lineno}")
    assert found == {"__main__.py"}, found
