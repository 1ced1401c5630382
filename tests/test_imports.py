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
    # the engine takes its closed-point counts from exactpoly, so no factorization-type code compiles
    assert not loaded & {"monodromy.fforacle", "monodromy.groupdiv", "monodromy.typecomb"}


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
    assert loaded == {
        "monodromy.cli", "monodromy.cli_grouplab", "monodromy.commuting", "monodromy.data", "monodromy.groupdiv",
    }


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
    ("divisibility", "--group", "S3"),  # quotients 1/2, 2/3 and 1/6 among the reports
    ("divisibility", "--group", "A4", "--k", "2", "--S", "2", "--format", "json"),
], ids=["poly", "poly-json", "verify", "verify-json", "census", "divisibility", "divisibility-json"])
def test_counting_commands_never_import_fractions(argv):
    # without site, no site hook can have imported either module first
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", COUNTING_MODULES_AFTER, *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"


# the package's modules each subcommand imports, as ``python -X importtime -m monodromy.cli`` logs them
IMPORTED_BY_COMMAND = {
    ("poly", "--n", "3", "--k", "2", "--q", "2,3"): {
        "monodromy", "monodromy.cli_engine", "monodromy.engine", "monodromy.exactpoly",
    },
    ("verify", "--n", "2", "--k", "2", "--mode", "mixed", "--q", "2", "--format", "json"): {
        "monodromy", "monodromy.cli_engine", "monodromy.cli_oracle", "monodromy.commuting", "monodromy.engine",
        "monodromy.exactpoly", "monodromy.fforacle", "monodromy.typecomb",
    },
    ("census", "--n", "3", "--q", "2"): {
        "monodromy", "monodromy.cli_engine", "monodromy.cli_oracle", "monodromy.commuting", "monodromy.exactpoly",
        "monodromy.fforacle", "monodromy.typecomb",
    },
    ("divisibility", "--group", "S3", "--k", "1"): {
        "monodromy", "monodromy.cli_grouplab", "monodromy.commuting", "monodromy.groupdiv",
    },
}


@pytest.mark.parametrize("argv", list(IMPORTED_BY_COMMAND), ids=[argv[0] for argv in IMPORTED_BY_COMMAND])
def test_each_command_imports_only_its_front_end_and_layers(argv):
    # without bytecode on disk a process compiles every module it imports, so this set is what it compiles
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "monodromy.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    names = [line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")]
    ours = [name for name in names if name.split(".")[0] == "monodromy"]
    # run as __main__, cli.py would compile and run a second time if a front end imported it by name
    assert "monodromy.cli" not in ours
    assert len(ours) == len(set(ours)), ours
    assert "monodromy.rational" not in ours
    assert set(ours) == IMPORTED_BY_COMMAND[argv]


def test_moved_names_are_forwarded_from_their_old_modules():
    from monodromy import engine, exactpoly, rational, typecomb

    assert exactpoly.poly_gcd is rational.poly_gcd
    for name in ("ss_weight", "mixed_weight", "to_laurent", "_type_count_at_power"):
        assert getattr(engine, name) is getattr(rational, name), name
    assert engine.count_monic_with_type is typecomb.count_monic_with_type is rational.count_monic_with_type
    for module in (engine, exactpoly, typecomb):
        with pytest.raises(AttributeError, match=f"module '{module.__name__}' has no attribute 'no_such_name'"):
            module.no_such_name  # noqa: B018
    # only the names the benchmark looks up are forwarded
    assert not hasattr(exactpoly, "RationalFunction") and not hasattr(engine, "gl_order")
    assert not hasattr(typecomb, "count_irreducibles")


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
