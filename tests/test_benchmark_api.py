"""The package names the benchmark in perfbench/ reaches for must exist.

perfbench traces functions by (module, name) and calls the package through
`kt.<name>`; a rename or a signature change in the package would otherwise
surface only when the benchmark runs.  The two files are read as syntax
trees, never imported.
"""
import ast
import importlib
import inspect
from pathlib import Path

import kinetic_traffic
from kinetic_traffic import Kernel, matrices

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(), filename=name)


def _traced_pairs() -> list[tuple[str, str]]:
    for node in _tree("layers.py").body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return [tuple(pair) for pair in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/layers.py defines no TRACED")


def _kt_names() -> set[str]:
    return {
        node.attr
        for node in ast.walk(_tree("workloads.py"))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "kt"
    }


def _kt_calls() -> list[ast.Call]:
    return [
        node
        for node in ast.walk(_tree("workloads.py"))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "kt"
    ]


def _resolve(module: str, name: str):
    return getattr(importlib.import_module(f"kinetic_traffic.{module}"), name, None)


def test_traced_functions_resolve():
    missing = [f"{m}.{n}" for m, n in _traced_pairs() if not callable(_resolve(m, n))]
    assert not missing, f"perfbench traces names the package lacks: {missing}"


def test_workload_names_resolve():
    missing = sorted(n for n in _kt_names() if not hasattr(kinetic_traffic, n))
    assert not missing, f"perfbench calls names the package lacks: {missing}"


def test_workload_calls_bind():
    # each call's positional count and keyword names, against the signature
    calls = _kt_calls()
    assert calls, "perfbench/workloads.py makes no kt.<name>(...) call"
    unbound = []
    for call in calls:
        assert not any(isinstance(a, ast.Starred) for a in call.args), call.lineno
        assert all(k.arg is not None for k in call.keywords), call.lineno
        signature = inspect.signature(getattr(kinetic_traffic, call.func.attr))
        try:
            signature.bind(*call.args, **{k.arg: k.value for k in call.keywords})
        except TypeError as exc:
            unbound.append(f"line {call.lineno}: kt.{call.func.attr}: {exc}")
    assert not unbound, f"perfbench calls the package with arguments it refuses: {unbound}"


def test_traced_functions_are_distinct():
    # one function object wrapped under two names would be wrapped twice,
    # and restoring would leave one wrapper installed
    seen: dict[int, str] = {}
    for module, name in _traced_pairs():
        fn = _resolve(module, name)
        assert id(fn) not in seen, f"{module}.{name} is {seen[id(fn)]}"
        seen[id(fn)] = f"{module}.{name}"


def test_build_tensor_reaches_the_traced_builders(monkeypatch):
    # perfbench times each builder by wrapping its module attribute; a
    # build_tensor that went round those names would read as zero calls
    calls = []
    for name in ("build_chi_tensor", "build_delta_tensor_generic"):
        def counted(*args, _fn=getattr(matrices, name), _name=name):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(matrices, name, counted)
    grid, ratio = matrices.VelocityGrid(n_cells=7, v_max=1.0), matrices.GridRatio(2)
    for kernel, name in ((Kernel.CHI, "build_chi_tensor"), (Kernel.DELTA, "build_delta_tensor_generic")):
        calls.clear()
        assert matrices.build_tensor(kernel, grid, ratio, 0.3).kernel is kernel
        assert calls == [name]
