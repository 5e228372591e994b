"""The package namespace is the union of its modules' public names.

Each public name is declared once, in the `__all__` of the module that
defines it; `kinetic_traffic` re-exports them by star import.  Importing
the package loads none of the test-only dependencies.
"""
import os
import subprocess
import sys
from pathlib import Path

import kinetic_traffic
from kinetic_traffic import dynamics, equilibrium, macroscopics, matrices, params

MODULES = (dynamics, equilibrium, macroscopics, matrices, params)


def test_all_is_the_union_of_the_modules():
    union = {name for module in MODULES for name in module.__all__}
    assert kinetic_traffic.__all__ == sorted(union)
    assert len(kinetic_traffic.__all__) == 57
    assert "evaluate_probability" in kinetic_traffic.__all__


def test_all_holds_no_duplicate():
    assert len(set(kinetic_traffic.__all__)) == len(kinetic_traffic.__all__)


def test_each_name_is_its_modules_own_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(kinetic_traffic, name) is getattr(module, name), name


def test_no_two_modules_export_one_name():
    # a star import would let the later module shadow the earlier one
    owners: dict[str, list[str]] = {}
    for module in MODULES:
        for name in module.__all__:
            owners.setdefault(name, []).append(module.__name__)
    shared = {name: mods for name, mods in owners.items() if len(mods) > 1}
    assert not shared, shared


def test_runtime_imports_leave_test_only_packages_unloaded():
    # a fresh interpreter, since the suite itself has imported scipy;
    # pyproject declares only numpy and PyYAML at run time
    code = ("import sys, kinetic_traffic, kinetic_traffic.cli; "
            "print(sorted(m for m in ('scipy', 'mpmath', 'hypothesis') if m in sys.modules))")
    src = str(Path(kinetic_traffic.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "[]"
