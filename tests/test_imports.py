"""Each subcommand loads only its own layers; the package exports its names lazily."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import monodromy

ROOT = Path(__file__).resolve().parent.parent

LOADED_AFTER = """
import contextlib, io, json, sys
from monodromy import cli
with contextlib.redirect_stdout(io.StringIO()):
    status = cli.main(sys.argv[1:])
print(json.dumps({"status": status, "loaded": sorted(m for m in sys.modules if m.startswith("monodromy."))}))
"""


def loaded_after(*argv):
    """Exit status and the monodromy modules loaded by one fresh ``cli.main(argv)``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", LOADED_AFTER, *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    return doc["status"], set(doc["loaded"])


def test_poly_loads_neither_oracle_nor_group_lab():
    status, loaded = loaded_after("poly", "--n", "2", "--k", "2")
    assert status == 0
    assert "monodromy.engine" in loaded
    assert not loaded & {"monodromy.fforacle", "monodromy.groupdiv"}


def test_refused_poly_loads_neither_oracle_nor_group_lab():
    status, loaded = loaded_after("poly", "--n", "2", "--k", "0")
    assert status == 2
    assert not loaded & {"monodromy.fforacle", "monodromy.groupdiv"}


@pytest.mark.parametrize("argv", [
    ("verify", "--n", "2", "--k", "2", "--q", "2"),
    ("census", "--n", "2", "--q", "2"),
], ids=["verify", "census"])
def test_oracle_commands_load_the_oracle_but_not_the_group_lab(argv):
    status, loaded = loaded_after(*argv)
    assert status == 0
    assert "monodromy.fforacle" in loaded
    assert "monodromy.groupdiv" not in loaded


def test_divisibility_loads_only_the_group_lab():
    status, loaded = loaded_after("divisibility", "--group", "S3", "--k", "1")
    assert status == 0
    # monodromy.data is the namespace package that holds the packaged corpus; it has no code to compile
    assert loaded == {"monodromy.cli", "monodromy.commuting", "monodromy.data", "monodromy.groupdiv"}


def test_oracle_and_group_lab_share_the_package_counter():
    from monodromy import fforacle, groupdiv

    assert fforacle.BudgetExceeded is groupdiv.BudgetExceeded is monodromy.BudgetExceeded
    assert fforacle.count_commuting_tuples is groupdiv.count_commuting_tuples is monodromy.count_commuting_tuples


@pytest.mark.parametrize("argv", [
    ("census", "--n", "2", "--q", "2"),
    ("divisibility", "--group", "S3", "--k", "1"),
], ids=["census", "divisibility"])
def test_census_and_divisibility_do_not_load_the_engine(argv):
    status, loaded = loaded_after(*argv)
    assert status == 0
    assert "monodromy.engine" not in loaded


def test_start_up_imports_neither_dataclasses_nor_inspect():
    # without site, no site hook can have imported either module first
    code = ("import sys, monodromy.cli, monodromy.fforacle, monodromy.groupdiv;"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


COUNTING_MODULES_AFTER = """
import contextlib, io, sys
from monodromy import cli
with contextlib.redirect_stdout(io.StringIO()):
    status = cli.main(sys.argv[1:])
print(status, sorted({"fractions", "decimal"} & set(sys.modules)))
"""


@pytest.mark.parametrize("argv", [
    ("poly", "--n", "3", "--k", "2", "--q", "2,3"),
    ("poly", "--n", "2", "--k", "3", "--mode", "mixed", "--format", "json"),
    ("verify", "--n", "2", "--k", "2", "--mode", "conj", "--q", "2,3"),
    ("verify", "--n", "2", "--k", "2", "--mode", "mixed", "--q", "2", "--format", "json"),
    ("census", "--n", "4", "--q", "2,3"),
], ids=["poly", "poly-json", "verify", "verify-json", "census"])
def test_counting_commands_never_import_fractions(argv):
    # without site, no site hook can have imported either module first
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", COUNTING_MODULES_AFTER, *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"


def test_every_exported_name_resolves():
    for name in monodromy.__all__:
        assert getattr(getattr(monodromy, name), "__name__", name) == name


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from monodromy import *", namespace)
    assert set(monodromy.__all__) <= set(namespace)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        monodromy.no_such_name  # noqa: B018
    assert not hasattr(monodromy, "NonIntegerCoefficient")
