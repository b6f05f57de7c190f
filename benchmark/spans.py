"""Span tracing of majcert's layers, for the benchmark's traced run.

``Tracer.install()`` wraps every function in ``LAYERS`` and rebinds the
wrapper under every name that holds the original in any loaded
``majcert.*`` module, since ``suites`` and ``decompose`` bind their own
names with ``from ... import``.  Methods are rebound on their class.
Each call appends one span ``[layer, start, end, parent]`` to an
in-memory list, where ``parent`` is the index of the enclosing traced
span (-1 at top level); ``summary()`` turns the spans into per-layer call
counts and self times (a span's duration minus that of its direct traced
children) and ``dump()`` writes them out.  ``wrapper_cost_s()`` measures
what the wrapper adds to one call, so that a run's tracing overhead can
be read as its span count times that cost.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

#: module -> traced functions (``Class.method`` for methods)
LAYERS = {
    "concepts": ["is_isolated", "restrict_class"],
    "games": ["solve_zero_sum", "solve_game_full_lp", "double_oracle_solve",
              "k_isolatable_members", "AliceStrategy.validate"],
    "winnow": ["weak_certify", "fat_shattering_dim", "vc_dim", "epsilon_cover",
               "safe_winnow", "l1_winnow"],
    "decompose": ["majority_certificates", "robust_majority_certificates",
                  "real_majority_certificates", "verify_real_decomposition",
                  "find_valid_sample_size", "occam_check"],
    "qsim": ["measurement_operator", "params_to_state", "DensityMatrix.__post_init__"],
    "protocol": ["compile_advice", "adversary_search", "conditional_soundness_bound",
                 "fat_dim_quantum_check", "verifier_A"],
    "formats": ["boolean_to_hex", "boolean_from_hex", "canonical_json"],
    "generators": ["random_boolean_class", "random_pconcept_class"],
    "suites": ["run_suite", "verify_report"],
}

NAMES = [f"{module}.{func}" for module, funcs in LAYERS.items() for func in funcs]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def _wrap(self, layer: int, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
        return traced

    def install(self) -> None:
        for module in LAYERS:
            importlib.import_module(f"majcert.{module}")
        loaded = [m for name, m in list(sys.modules.items())
                  if m is not None and (name == "majcert" or name.startswith("majcert."))]
        for layer, name in enumerate(NAMES):
            module, _, qualname = name.partition(".")
            owner = sys.modules[f"majcert.{module}"]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, attr, self._wrap(layer, getattr(cls, attr)))
                continue
            original = getattr(owner, qualname)
            wrapper = self._wrap(layer, original)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def summary(self) -> dict:
        """``{layer: {"calls": int, "self_s": float}}`` over all spans."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: {"calls": 0, "self_s": 0.0} for name in NAMES}
        for (layer, start, end, _), children in zip(self.spans, child_time):
            entry = out[NAMES[layer]]
            entry["calls"] += 1
            entry["self_s"] += end - start - children
        return out

    def dump(self, path) -> None:
        """Write the raw spans as JSON: layer names plus one row per span."""
        with open(path, "w") as fh:
            json.dump({"layers": NAMES, "columns": ["layer", "start", "end", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def wrapper_cost_s(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds one traced call costs over an untraced one: the fastest of
    ``repeats`` alternated timings of ``calls`` calls of a trivial
    function, with and without the wrapper, differenced."""
    def trivial(x):
        return x

    tracer = Tracer()
    wrapped = tracer._wrap(0, trivial)

    def timed(fn) -> float:
        started = time.perf_counter()
        for i in range(calls):
            fn(i)
        return time.perf_counter() - started

    bare, traced = [], []
    for _ in range(repeats):
        bare.append(timed(trivial))
        traced.append(timed(wrapped))
        tracer.spans.clear()
    return max(0.0, (min(traced) - min(bare)) / calls)
