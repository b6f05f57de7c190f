"""The benchmark's traced layers name functions that exist, so that
deleting or renaming one fails here instead of in a traced run."""

import importlib
import pathlib
import runpy

SPANS = pathlib.Path(__file__).resolve().parent.parent / "benchmark" / "spans.py"


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
