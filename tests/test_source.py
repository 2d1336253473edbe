"""Rules that hold for the package source as a whole."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import sys
from dataclasses import replace
from pathlib import Path

import dynmatch.engine as engine
from dynmatch.core import Exponential, MarketConfig, PairCompatibilityOracle, PolicyKind

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


def test_engine_makes_no_scalar_draws():
    # the event loops draw through core's block streams (uniforms, arrival
    # times, tie-breaks, query_block); a Generator's per-call integers() or
    # random(), called or bound for later calls, would quietly undo that
    tree = ast.parse((SRC / "engine.py").read_text())
    block_draws = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call) and node.args}
    found = [
        f"engine.py:{node.lineno} .{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and (node.attr == "integers" or node.attr == "random" and id(node) not in block_draws)
    ]
    assert not found, f"scalar numpy draws in the engine: {found}"


def test_one_compatibility_oracle_drawing_no_uniforms():
    # engine v2 draws the hit positions as geometric gaps; a second class with
    # a query_block, or a uniform per pair back in the one oracle, would fork
    # the engine into two sample-path versions
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    oracles = [
        (name, node.name)
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name == "query_block" for f in node.body)
    ]
    assert oracles == [("core.py", "PairCompatibilityOracle")]
    oracle = next(n for n in ast.walk(trees["core.py"]) if isinstance(n, ast.ClassDef) and n.name == oracles[0][1])
    in_oracle = set(map(id, ast.walk(oracle)))
    found = [
        f"core.py:{node.lineno}"
        for node in ast.walk(trees["core.py"])
        if isinstance(node, ast.Attribute)
        and node.attr == "random"
        and not (isinstance(node.value, ast.Name) and node.value.id == "np")  # the module
        and (id(node) in in_oracle or isinstance(node.value, ast.Attribute) and node.value.attr == "compatibility")
    ]
    assert not found, f"uniform draws on the compatibility stream: {found}"


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


def test_benchmark_trace_pass_runs(monkeypatch):
    # the benchmark's --trace 1 pass rebuilds the engine's counts from a run's
    # outputs and replays its core calls, so an engine or core change could
    # break it without any other test noticing
    tracing = _load_perfbench("tracing", monkeypatch)
    failed = []

    def check(label, ok, detail):
        if not ok:
            failed.append(f"{label}: {detail}")

    sizes = []
    query_block = PairCompatibilityOracle.query_block

    def recording(self, agent_id, member_ids):
        sizes.append(len(member_ids))
        return query_block(self, agent_id, member_ids)

    monkeypatch.setattr(PairCompatibilityOracle, "query_block", recording)
    for policy in PolicyKind:
        config = MarketConfig(m=200.0, d=3.0, T=5.0, policy=policy, departure=Exponential(1.0), seed=11)
        sizes.clear()
        stats = engine.run(config)
        engine_sizes = sorted(sizes)
        tracing.record_layers(engine.run, [(config, stats)], check)
        traced = engine.run(replace(config, pool_trace=True), keep_agents=True)
        # the rebuild goes by agent, the engine by event time: compare as multisets
        assert sorted(tracing.rebuild_counts(config, traced).query_sizes) == engine_sizes, policy
    assert not failed, failed


def test_one_implementation_per_verification_check():
    # the checks live once, in oracles' verification catalogue: verify and the
    # acceptance criteria call them, and neither redoes their work itself
    work = {"run_coupled", "instrument_patient_k1", "pool_integral", "ruin_hit_monte_carlo", "dominance_check"}
    cli_nodes = list(ast.walk(ast.parse((SRC / "cli.py").read_text())))
    checks = [n.name for n in cli_nodes if isinstance(n, ast.FunctionDef) and n.name.startswith("_check_")]
    used = {n.id for n in cli_nodes if isinstance(n, ast.Name)}
    used |= {n.attr for n in cli_nodes if isinstance(n, ast.Attribute)}
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    imported = {a.name for n in ast.walk(acceptance) if isinstance(n, ast.ImportFrom) for a in n.names}
    assert not checks, f"checks defined in cli: {checks}"
    assert not used & work, f"cli does check work itself: {sorted(used & work)}"
    assert not imported & work, f"the acceptance suite imports check work: {sorted(imported & work)}"


def test_oracles_report_rather_than_raise():
    # a check's verdict belongs in its JSON, where verify reports it, and a
    # proven inequality belongs in a test: oracles neither imports nor
    # raises NumericError
    tree = ast.parse((SRC / "oracles.py").read_text())
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.alias) and node.name == "NumericError"
        or isinstance(node, ast.Name) and node.id == "NumericError"
    ]
    assert not found, f"NumericError at oracles.py lines {found}"


def test_only_the_close_out_ledger_raises_numeric_error():
    # conservation and the waiting-time identity are checked at run time; an
    # inequality the code can prove belongs in a docstring and a test, not a raise
    close_out = next(
        n for n in ast.parse((SRC / "engine.py").read_text()).body
        if isinstance(n, ast.FunctionDef) and n.name == "_close_out"
    )
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise) and node.exc is not None and "NumericError" in ast.unparse(node.exc)
        and not (path.name == "engine.py" and close_out.lineno <= node.lineno <= close_out.end_lineno)
    ]
    analytics = ast.parse((SRC / "analytics.py").read_text())
    imported = [a.name for n in ast.walk(analytics) if isinstance(n, ast.ImportFrom) for a in n.names]
    assert not found, f"NumericError raised outside engine._close_out: {found}"
    assert "NumericError" not in imported, "analytics imports NumericError"


def test_one_run_semantics_and_one_ledger_close_out():
    # run simulates [0, T] from an empty market, and one close-out builds
    # every RunStats: a warm-up knob or a second ledger would bring back a
    # run whose stats skip the waiting-time identity
    tree = ast.parse((SRC / "engine.py").read_text())
    builds = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "RunStats"
    ]
    defined = {
        node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    run_def = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "run")
    params = [a.arg for a in run_def.args.posonlyargs + run_def.args.args + run_def.args.kwonlyargs]
    assert len(builds) == 1, f"RunStats built at engine.py lines {builds}"
    assert not defined & {"_Pool", "_kahan_extend"}, sorted(defined & {"_Pool", "_kahan_extend"})
    assert params == ["config", "keep_agents"], f"run takes {params}"


def test_run_keeps_no_per_arrival_arrays():
    # a pooled agent is its entry (critical_time, id, arrival_time), so a
    # plain run's memory follows the pool; per-id arrays and the outcome
    # codes that filled them would grow with every arrival again
    tree = ast.parse((SRC / "engine.py").read_text())
    run_def = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "run")
    calls = [
        f"engine.py:{node.lineno}"
        for node in ast.walk(run_def)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in {"array", "bytearray"}
    ]
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    codes = sorted(names & {"_UNRESOLVED", "_MATCHED", "_PERISHED"})
    assert not calls, f"run builds per-arrival arrays at {calls}"
    assert not codes, f"engine defines outcome codes {codes}"


def test_core_streams_have_no_hand_written_loops():
    # the four block-drawn streams are one helper, _blocks, composed with
    # itertools; a generator with its own refill loop would bring back the
    # carries and the special first block the running sums no longer need
    tree = ast.parse((SRC / "core.py").read_text())
    found = [f"core.py:{node.lineno}" for node in ast.walk(tree) if isinstance(node, (ast.Yield, ast.YieldFrom))]
    assert not found, f"generators in core: {found}"
