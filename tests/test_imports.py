"""Each subcommand loads only its own layers; the package exports its names lazily."""

import ast
import importlib
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
    assert loaded == {"monodromy.cli", "monodromy.cli_grouplab", "monodromy.commuting", "monodromy.groupdiv"}


def test_oracle_and_group_lab_share_the_package_counter(monkeypatch):
    from monodromy import commuting, fforacle, groupdiv

    assert fforacle.BudgetExceeded is groupdiv.BudgetExceeded is monodromy.BudgetExceeded
    assert groupdiv.commuting_tuple_counts is commuting.commuting_tuple_counts
    assert commuting.count_commuting_tuples is monodromy.count_commuting_tuples
    # the oracle imports the counter inside each count, so a patch of commuting's binding reaches it
    monkeypatch.setattr(commuting, "count_commuting_tuples", lambda *args, **kwargs: 42)
    assert fforacle.brute_hom_count(2, fforacle.field_make(2, 1), 2, fforacle.MODE_ALL_SEMISIMPLE) == 42
    assert fforacle.brute_conj_count(2, fforacle.field_make(2, 1), 2) == 42 // 6  # |GL_2(F_2)| = 6


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
        "monodromy", "monodromy.cli_engine", "monodromy.cli_oracle", "monodromy.exactpoly", "monodromy.fforacle",
        "monodromy.typecomb",
    },
    ("divisibility", "--group", "S3", "--k", "1"): {
        "monodromy", "monodromy.cli_grouplab", "monodromy.commuting", "monodromy.groupdiv",
    },
}

# ``python -m monodromy.cli`` through the same runpy call, listing the modules in sys.modules at exit
RUN_AS_MAIN = """
import atexit, runpy, sys
atexit.register(lambda: print("loaded at exit:", *sorted(sys.modules), file=sys.stderr))
runpy.run_module("monodromy.cli", run_name="__main__", alter_sys=True)
"""


def run_as_main(flags, argv):
    """One ``python <flags> -m monodromy.cli <argv>``: its stderr lines, the modules loaded at exit, its stdout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *flags, "-c", RUN_AS_MAIN, *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    (at_exit,) = [line.split(":", 1)[1].split() for line in lines if line.startswith("loaded at exit:")]
    return lines, set(at_exit), proc.stdout


@pytest.mark.parametrize("argv", list(IMPORTED_BY_COMMAND), ids=[argv[0] for argv in IMPORTED_BY_COMMAND])
def test_each_command_imports_only_its_front_end_and_layers(argv):
    # without bytecode on disk a process compiles every module it imports, so this set is what it compiles
    lines, at_exit, _ = run_as_main(("-X", "importtime"), argv)
    names = [line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")]
    ours = [name for name in names if name.split(".")[0] == "monodromy"]
    # run as __main__, cli.py would compile and run a second time if a front end imported it by name
    assert "monodromy.cli" not in ours
    assert len(ours) == len(set(ours)), ours
    assert set(ours) == IMPORTED_BY_COMMAND[argv]
    # a module loaded through importlib, such as a lazy package export, is missing from the log but not from sys.modules
    assert {name for name in at_exit if name.split(".")[0] == "monodromy"} == IMPORTED_BY_COMMAND[argv]


# typing and importlib.resources, and what importing importlib.resources loads; no command needs any of them
SITE_HOOK_MODULES = {"typing", "importlib.resources", "pathlib", "zipfile", "tempfile"}


@pytest.mark.parametrize("argv", [
    ("poly", "--n", "3", "--k", "2", "--q", "2,3"),
    ("poly", "--n", "3", "--k", "2", "--format", "json"),
    ("verify", "--n", "2", "--k", "2", "--q", "2,3"),
    ("census", "--n", "3", "--q", "2"),
    ("divisibility", "--group", "S3", "--k", "1"),
    ("divisibility", "--group", "S3", "--k", "1", "--format", "json"),
], ids=["poly", "poly-json", "verify", "census", "divisibility", "divisibility-json"])
def test_commands_on_a_clean_host_load_no_site_hook_module_and_no_json(argv):
    # without site, no site hook can have imported these modules first
    _, at_exit, _ = run_as_main(("-S",), argv)
    assert not at_exit & SITE_HOOK_MODULES, sorted(at_exit & SITE_HOOK_MODULES)
    # cli writes --format json output itself and needs the json package only for a string that needs an escape
    assert "json" not in at_exit


def test_a_name_that_needs_an_escape_loads_json_and_prints_its_bytes(tmp_path):
    name = 'G"\u00e9\U0001d516'  # a quote, a BMP code point and an astral one
    corpus = tmp_path / "names.txt"
    corpus.write_text(f"{name} 2 (1 2)\n", encoding="utf-8")
    _, at_exit, out = run_as_main(("-S",), ("divisibility", "--corpus", str(corpus), "--k", "1", "--format", "json"))
    assert "json" in at_exit
    doc = json.loads(out)
    assert [g["name"] for g in doc["groups"]] == [name]
    assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"


RETIRED = {
    "engine": ("ss_weight", "mixed_weight", "to_laurent", "_type_count_at_power", "count_monic_with_type",
               "enumerate_types"),
    "exactpoly": ("poly_gcd",),
    "typecomb": ("count_monic_with_type",),
}


def test_retired_names_are_one_stub_that_raises():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("monodromy.rational")
    for module_name, names in RETIRED.items():
        module = importlib.import_module(f"monodromy.{module_name}")
        for name in names:
            assert getattr(module, name) is monodromy._retired, (module_name, name)
        with pytest.raises(AttributeError, match=f"module '{module.__name__}' has no attribute 'no_such_name'"):
            module.no_such_name  # noqa: B018
    with pytest.raises(NotImplementedError):
        monodromy._retired(2, 2)
    assert not hasattr(monodromy, "RationalFunction") and not hasattr(monodromy, "gl_order")


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


def test_sources_parse_with_the_python_3_10_grammar():
    """Every ``.py`` file under ``src/`` and ``tests/`` parses as Python 3.10, the floor pyproject.toml declares.

    This checks grammar only (``ast.parse`` with ``feature_version``), not
    library APIs: a call that exists on 3.11 alone still passes here.
    """
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
