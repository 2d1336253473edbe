"""Rules that hold for the package source as a whole."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dynmatch"
PERFBENCH = ROOT / "perfbench"


def test_no_assert_statements():
    # invariants raise typed errors: python -O strips assert statements
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no modules found under {SRC}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"


def _load_perfbench(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_benchmark_imports_resolve(monkeypatch):
    # perfbench/ changes only with the benchmark, so a rename in the package
    # would otherwise break it without any test noticing
    workloads = _load_perfbench("workloads", monkeypatch)
    _load_perfbench("tracing", monkeypatch)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in bench["workloads"])

    # every module.function the benchmark intercepts or calls by attribute
    used = {
        (node.value.id, node.attr)
        for name in ("run", "workloads")
        for node in ast.walk(ast.parse((PERFBENCH / f"{name}.py").read_text()))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("engine", "analytics", "oracles", "cli")
    }
    assert {("engine", "run"), ("analytics", "stationary"), ("cli", "run_sweep")} <= used
    missing = [
        f"{module}.{attr}"
        for module, attr in sorted(used)
        if not callable(getattr(importlib.import_module(f"dynmatch.{module}"), attr, None))
    ]
    assert not missing, f"perfbench uses names the package no longer has: {missing}"
