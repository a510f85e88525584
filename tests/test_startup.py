"""Start-up: the package and its CLI load the checks and the matrices on first use only."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import beliefdyn
from beliefdyn import specialization, verify

SRC = str(Path(__file__).resolve().parent.parent / "src")

# The names the package exports from the two modules it loads on first use.
LAZY = {
    "specialization": [
        "DespecializationMatrix",
        "EigenStructure",
        "GeneralizationMatrix",
        "SpecializationMatrix",
        "apply",
        "apply_despecialization",
        "apply_generalization",
        "conditioning_matrix",
        "dempsterian_matrix",
        "despecialize_matrix",
        "disjunctive_matrix",
        "eigen_structure",
        "enlargement_matrix",
        "incidence_inverse",
        "incidence_matrix",
        "is_dempsterian",
        "is_valid_generalization",
        "is_valid_specialization",
    ],
    "verify": ["CHECK_NAMES", "CheckReport", "all_passed", "format_reports", "run_all"],
}


def fresh(*argv: str) -> subprocess.CompletedProcess:
    """``python argv...`` in a new interpreter that imports the package from ``src``."""
    proc = subprocess.run(
        [sys.executable, *argv],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.parametrize("module", ["beliefdyn", "beliefdyn.cli"])
def test_import_loads_neither_checks_nor_matrices(module):
    code = (
        f"import sys, {module}\n"
        "print([m for m in ('beliefdyn.verify', 'beliefdyn.specialization') if m in sys.modules])\n"
    )
    assert fresh("-c", code).stdout == "[]\n"


def test_lazy_names_resolve_on_first_use():
    code = (
        "import importlib, json, sys, beliefdyn\n"
        f"lazy = {LAZY!r}\n"
        "listed = set(dir(beliefdyn))\n"
        "out = {'unlisted': [n for names in lazy.values() for n in names if n not in listed]}\n"
        "out['same'] = [beliefdyn.verify is sys.modules['beliefdyn.verify'],\n"
        "               beliefdyn.specialization is sys.modules['beliefdyn.specialization']]\n"
        "out['differ'] = [n for m, names in lazy.items() for n in names\n"
        "                 if getattr(beliefdyn, n) is not getattr(importlib.import_module('beliefdyn.' + m), n)]\n"
        "try:\n"
        "    beliefdyn.no_such_name\n"
        "except AttributeError:\n"
        "    out['missing'] = 'AttributeError'\n"
        "print(json.dumps(out))\n"
    )
    out = json.loads(fresh("-c", code).stdout)
    assert out == {
        "unlisted": [], "same": [True, True], "differ": [], "missing": "AttributeError"
    }


def test_lazy_names_resolve_in_process():
    assert beliefdyn.__getattr__("verify") is verify
    assert beliefdyn.__getattr__("run_all") is verify.run_all
    assert beliefdyn.__getattr__("apply") is specialization.apply
    listed = dir(beliefdyn)
    assert listed == sorted(listed)
    assert {*LAZY, *(n for names in LAZY.values() for n in names)} <= set(listed)


def test_no_public_callable_takes_a_tolerance():
    # DEFAULT_TOL is the one tolerance: no public function or method takes a ``tol``
    def python_defined(obj):
        return inspect.isfunction(obj) or inspect.ismethod(obj)

    callables = []
    for name in beliefdyn.__all__:
        obj = getattr(beliefdyn, name)
        if python_defined(obj):
            callables.append((name, obj))
        elif inspect.isclass(obj):
            methods = inspect.getmembers(obj, python_defined)
            callables += [(f"{name}.{attr}", m) for attr, m in methods if not attr.startswith("_")]
    assert len(callables) > 40
    assert [name for name, obj in callables if "tol" in inspect.signature(obj).parameters] == []
    assert not {"commute_check", "is_at_least_as_committed", "VALIDATION_TOL"} & set(dir(beliefdyn))
    assert not hasattr(beliefdyn.belief, "VALIDATION_TOL")


def test_star_import_brings_the_lazy_names():
    namespace = {}
    exec("from beliefdyn import *", namespace)
    assert namespace["run_all"] is verify.run_all
    assert namespace["apply"] is specialization.apply
    assert namespace["specialization"] is specialization


def test_a_name_follows_its_module(monkeypatch):
    # bench/tracing.py swaps functions in their modules; the package must not hold on to the old ones
    def run_all():
        pass

    monkeypatch.setattr(verify, "run_all", run_all)
    monkeypatch.setattr(specialization, "apply", run_all)
    assert beliefdyn.run_all is run_all
    assert beliefdyn.apply is run_all


@pytest.mark.parametrize(
    "argv",
    [["check", "--n", "1"], ["matrix", "--kind", "specialization", "--conditioning", "a|b"]],
    ids=["check", "matrix"],
)
def test_commands_that_load_them_run_in_a_fresh_process(argv):
    assert fresh("-m", "beliefdyn.cli", *argv).stdout
