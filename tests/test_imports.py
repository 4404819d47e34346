"""The package namespace, and which modules a cold start loads.

``amecodes`` binds ``codes``, ``errors``, ``fields``, ``linalg`` and
``pauli`` on import; ``reduction``, ``oracle`` and ``repeater``, and
their public names, resolve on first access.  The CLI imports those
three only in the subcommands that call them.  The cold-start tests run
a fresh interpreter and read which ``amecodes`` modules it holds when it
exits, so an eager import added back fails here.  (``-X importtime``
cannot tell: it does not list modules that ``importlib.import_module``
loads.)
"""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import amecodes
from amecodes.catalog import catalog_dir
from amecodes.cli import build_parser

SRC = Path(__file__).resolve().parent.parent / "src"
SUBMODULES = ("codes", "errors", "fields", "linalg", "pauli", "oracle", "reduction", "repeater")
PUBLIC = [name for name in amecodes.__all__ if name != "__version__"]

# what the benchmark's set-up probe runs: import, load and verify the catalog
SETUP = "from amecodes import catalog, stabtab; catalog.load_catalog(verify=True)"
IMPORT_MODULES = {"amecodes", "amecodes.codes", "amecodes.errors", "amecodes.fields",
                  "amecodes.linalg", "amecodes.pauli"}
SETUP_MODULES = IMPORT_MODULES | {"amecodes.catalog", "amecodes.stabtab"}

# one call of each subcommand -> the modules past SETUP_MODULES and the CLI it loads
CLI_CALLS = [
    ("verify ame_6_2", set()),
    ("catalog list", set()),
    ("reduce ame_6_2", {"reduction"}),
    ("children ame_6_2 --outdir kids", {"reduction"}),
    ("oracle code_4_1_2_2 --kl-d 2", {"oracle"}),
    ("rate --n 5 --k 1 --d 3 --q 2 --ltot 1000 --optimize", {"repeater"}),
    ("cost --n 5 --k 1 --d 3 --q 2 --ltot 1000", {"repeater"}),
    ("table --nmax 6 --qmax 3", {"repeater"}),
    ("figure --ame 6,2 --ltots 1000", {"repeater"}),
]


def modules_loaded(code, cwd):
    """The ``amecodes`` modules loaded when ``python -c code`` exits; the
    run must exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    report = ("import atexit, sys; atexit.register(lambda: print('loaded:', *(m for m in "
              "sys.modules if m.split('.')[0] == 'amecodes'), file=sys.stderr))\n")
    done = subprocess.run([sys.executable, "-c", report + code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    last = done.stderr.splitlines()[-1].split()
    assert last[0] == "loaded:"
    return set(last[1:])


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_is_its_defining_modules_object(name):
    obj = getattr(amecodes, name)
    home = obj.__module__
    assert home.split(".")[:1] == ["amecodes"] and home != "amecodes"
    assert getattr(sys.modules[home], name) is obj


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_attribute_is_the_submodule(module):
    assert getattr(amecodes, module) is importlib.import_module(f"amecodes.{module}")


def test_dir_lists_every_public_name_and_submodule_without_loading_them(tmp_path):
    # in a fresh interpreter, where no lazy name has been resolved yet
    check = (f"import amecodes; missing = {{*amecodes.__all__, *{SUBMODULES!r}}} - "
             "set(dir(amecodes)); assert not missing, missing")
    assert modules_loaded(check, tmp_path) == IMPORT_MODULES


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from amecodes import *", namespace)
    assert {name: namespace[name] for name in amecodes.__all__} == \
        {name: getattr(amecodes, name) for name in amecodes.__all__}


def test_unknown_name_raises_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="^module 'amecodes' has no attribute 'no_such_name'$"):
        amecodes.no_such_name


def test_setup_path_loads_none_of_reduction_oracle_repeater_or_cli(tmp_path):
    assert modules_loaded(SETUP, tmp_path) == SETUP_MODULES


@pytest.mark.parametrize("module, name", [("reduction", "derive_family"),
                                          ("oracle", "dense_distance"), ("repeater", "rate")])
def test_first_access_to_a_name_loads_only_its_module(tmp_path, module, name):
    check = (f"import amecodes; found = amecodes.{name}; "
             f"from amecodes.{module} import {name}; assert found is {name}")
    assert modules_loaded(check, tmp_path) == IMPORT_MODULES | {f"amecodes.{module}"}


@pytest.mark.parametrize("call, extra", CLI_CALLS, ids=[call for call, _ in CLI_CALLS])
def test_cli_start_loads_only_what_its_subcommand_runs(tmp_path, call, extra):
    argv = call.split()
    if argv[0] in ("verify", "reduce", "children", "oracle"):
        argv[1] = str(catalog_dir() / f"{argv[1]}.stabtab")
    run_main = ("import runpy; sys.argv = ['amecodes', *%r]; "
                "runpy.run_module('amecodes', run_name='__main__', alter_sys=True)" % argv)
    loaded = modules_loaded(run_main, tmp_path)
    assert loaded == SETUP_MODULES | {"amecodes.cli"} | {f"amecodes.{m}" for m in extra}


def test_cli_calls_cover_every_subcommand():
    subcommands = re.search(r"\{(.*?)\}", build_parser().format_usage()).group(1).split(",")
    assert {call.split()[0] for call, _ in CLI_CALLS} == set(subcommands)
