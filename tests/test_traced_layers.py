"""The benchmark's traced layers name functions that exist, so that
deleting or renaming one fails here instead of in a traced run, and each
workload's configs, run in process under the benchmark's tracer, call
every layer the benchmark expects that workload to call."""

import ast
import importlib
import json
import pathlib
import runpy
import sys

import pytest

from majcert import suites
from majcert.reporting import write_report

BENCH = pathlib.Path(__file__).resolve().parent.parent / "benchmark"
SPANS = BENCH / "spans.py"


def run_settings() -> dict:
    """``WORKLOADS`` and ``EXPECTED_LAYERS`` of ``benchmark/run.py``, with
    the config directories they are built from, evaluated from its syntax
    tree: importing it would rewrite this process's environment."""
    tree = ast.parse((BENCH / "run.py").read_text())
    wanted = {"CONFIG_DIR", "BENCH_CONFIG_DIR", "WORKLOADS", "EXPECTED_LAYERS"}
    namespace = {"HERE": BENCH, "ROOT": BENCH.parent}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) in wanted
                                                for t in node.targets):
            exec(compile(ast.Module([node], type_ignores=[]), str(BENCH / "run.py"), "exec"),
                 namespace)
    return namespace


RUN = run_settings()


def test_every_traced_layer_resolves_to_a_callable():
    # run_path compiles the source in memory and writes no bytecode next to it
    names = runpy.run_path(str(SPANS))["NAMES"]
    assert names
    for name in names:
        module, *attrs = name.split(".")
        owner = importlib.import_module(f"majcert.{module}")
        for attr in attrs:
            assert hasattr(owner, attr), name
            owner = getattr(owner, attr)
        assert callable(owner), name


@pytest.mark.parametrize("workload", sorted(RUN["WORKLOADS"]))
def test_workload_calls_every_expected_layer(monkeypatch, tmp_path, workload):
    # the configs run and write their reports as benchmark/child.py does, at
    # the benchmark's default seed, pinned ones at their own; the tracer
    # rebinds functions in majcert's modules, which monkeypatch restores
    # afterwards
    spans = runpy.run_path(str(SPANS))
    for module in spans["LAYERS"]:
        importlib.import_module(f"majcert.{module}")
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "majcert" or name.startswith("majcert.")):
            for attr, value in list(vars(module).items()):
                if callable(value):
                    monkeypatch.setattr(module, attr, value)
    for name in spans["NAMES"]:
        module, _, qualname = name.partition(".")
        if "." in qualname:
            cls, attr = qualname.split(".")
            owner = getattr(sys.modules[f"majcert.{module}"], cls)
            monkeypatch.setattr(owner, attr, vars(owner)[attr])
    tracer = spans["Tracer"]()
    tracer.install()
    spec = RUN["WORKLOADS"][workload]
    for paths, seed in ((spec["configs"], 1), (spec["pinned"], None)):
        for path in paths:
            config = json.loads((BENCH.parent / path).read_text())
            write_report(tmp_path / f"{pathlib.Path(path).stem}.report.json",
                         suites.run_suite(config, seed_override=seed))
    layers = tracer.summary()
    assert [name for name in RUN["EXPECTED_LAYERS"][workload]
            if not layers[name]["calls"]] == []
