"""Every name a module of the package imports is used in that module, and
the package exports each public name that one module declares, once, and
that code outside the tests uses.
Importing the package loads none of its modules, and each subcommand
loads only the modules it runs.

``from __future__`` imports and the package ``__init__`` are exempt from
the first check.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import solist

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "solist"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")

# The package's public API. A change to it shows up as a diff here.
PUBLIC_API = [
    "AccessOutcome", "Algorithm", "CostLedger", "CostModel", "Family", "FrequencyCount", "GridCell", "InvalidParameterError",
    "ItemNotInListError", "ListState", "MoveToFront",
    "ParseError", "PassProfile", "PeriodicView", "Policy", "Prediction",
    "RequestSequence", "SolistError", "Transpose", "VerificationReport",
    "crossover", "expected_pass_costs", "explicit_sequence",
    "gen_t1", "gen_t2", "make_policy", "mtf_t1", "mtf_t2", "parse_list_file",
    "parse_sequence_file", "per_pass_profile", "predict", "serve", "trans_t1",
    "trans_t2", "verify_grid",
]


def unused_imports(source: str) -> list[str]:
    """The names bound by imports in ``source`` that it never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_finds_an_unused_import():
    source = "from .errors import InvalidParameterError, ItemNotInListError\nraise InvalidParameterError('x')\n"
    assert unused_imports(source) == ["ItemNotInListError"]
    assert unused_imports("from __future__ import annotations\nimport os.path\nos.sep\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_package_exports_the_public_api_once():
    # PUBLIC_API is sorted and has no duplicates, so neither has __all__.
    assert sorted(solist.__all__) == PUBLIC_API


def test_each_public_name_is_declared_by_one_module_and_exported_as_itself():
    declared = {}
    # Importing __main__ would run the command line.
    for path in filter(lambda path: path.stem != "__main__", MODULES):
        module = importlib.import_module(f"solist.{path.stem}")
        for name in getattr(module, "__all__", ()):
            assert name not in declared, (name, declared.get(name), path.stem)
            declared[name] = module
            assert getattr(module, name).__module__ == module.__name__
    for name in solist.__all__:
        assert getattr(solist, name) is getattr(declared[name], name)


def referenced_names(paths) -> set[str]:
    """Every identifier that the code in ``paths`` reads as a name, as an
    attribute or through an import."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_public_name_is_used_outside_tests():
    root = PACKAGE.parent.parent
    paths = [*PACKAGE.glob("*.py"), *(root / "demos").rglob("*.py"), *(root / "bench").rglob("*.py")]
    paths = [path for path in paths if not path.name.startswith("test_")]
    assert sorted(set(solist.__all__) - referenced_names(paths)) == []


def fresh(code: str, *argv: str):
    """Run ``code`` in a new interpreter with the package on its path, with
    ``argv`` as its arguments, and return the JSON value its last line of
    stdout holds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(PACKAGE.parent) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, check=True
    )
    return json.loads(result.stdout.splitlines()[-1])


# The package's modules and dataclasses (which imports inspect) loaded so far.
LOADED = "json.dumps(sorted(m for m in sys.modules if m.startswith('solist') or m == 'dataclasses'))"


def test_importing_the_package_loads_no_module():
    assert fresh(f"import json, sys, solist; print({LOADED})") == ["solist"]


def test_a_closed_form_loads_only_the_closed_form_module():
    code = f"import json, sys\nfrom solist import predict\nprint({LOADED})"
    assert fresh(code) == ["solist", "solist.closed_form", "solist.errors"]


def test_star_import_binds_exactly_the_public_api():
    code = "import json; ns = {}; exec('from solist import *', ns); print(json.dumps(sorted(ns)))"
    assert fresh(code) == sorted(PUBLIC_API + ["__builtins__"])


def test_dir_lists_the_public_api():
    assert set(PUBLIC_API) <= set(fresh("import json, solist; print(json.dumps(dir(solist)))"))


def test_an_unknown_name_is_an_attribute_error_naming_it():
    code = (
        "import json, solist\n"
        "try:\n    solist.nope\nexcept AttributeError as exc:\n    print(json.dumps(str(exc)))"
    )
    assert fresh(code) == "module 'solist' has no attribute 'nope'"


# What each subcommand loads, at sizes small enough to run in milliseconds.
# A module imported at the top of cli, or of a module a command uses,
# shows up here as a diff. The closed-form commands load no dataclasses.
COMMAND_MODULES = [
    (["--help"], []),
    (["predict", "--algo", "trans", "--seq", "t1", "--n", "5", "--k", "3"],
     ["solist.closed_form"]),
    (["simulate", "--algo", "mtf", "--seq", "t1", "--n", "3", "--k", "2"],
     ["dataclasses", "solist.list_core", "solist.policies", "solist.seqgen"]),
    (["compare", "--seq", "t2", "--n", "3", "--k", "1..2"],
     ["solist.closed_form"]),
    (["crossover", "--seq", "t1", "--n", "1..3", "--kmax", "5"],
     ["solist.closed_form"]),
    (["verify", "--n", "1..2", "--k", "1..2"],
     ["dataclasses", "solist.closed_form", "solist.harness", "solist.list_core", "solist.policies",
      "solist.seqgen"]),
]


@pytest.mark.parametrize("argv, modules", COMMAND_MODULES, ids=[argv[0] for argv, _ in COMMAND_MODULES])
def test_each_command_loads_only_the_modules_it_runs(argv, modules):
    code = (
        "import json, sys\n"
        "from solist.cli import main\n"
        "try:\n    main(sys.argv[1:])\nexcept SystemExit:\n    pass\n"
        f"print({LOADED})"
    )
    expected = sorted(["solist", "solist.cli", "solist.errors", *modules])
    assert fresh(code, *argv) == expected
